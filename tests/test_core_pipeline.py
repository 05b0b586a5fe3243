"""Tests for the combined pipeline on the hand-crafted scenario and the study."""

import pytest

from repro.config import InferenceConfig
from repro.core.engine import PipelineEngine
from repro.core.types import InferenceStep, PeeringClassification
from repro.exceptions import InferenceError

from tests.helpers import dual_city_scenario

IXP_ID = "ixp-ams-test"


def _scenario_with_vp():
    scenario = dual_city_scenario()
    ixp = scenario.world.ixps[IXP_ID]
    vp = scenario.add_vantage_point(ixp, scenario.world.facilities["fac-001"])
    scenario.add_route_server_series(vp, [0.3])
    scenario.add_ping_series(vp, "185.1.0.1", [0.4, 0.5])
    scenario.add_ping_series(vp, "185.1.0.2", [8.3, 8.8])
    scenario.add_ping_series(vp, "185.1.0.3", [1.4, 1.2])
    return scenario


class TestPipelineOnScenario:
    def test_all_interfaces_classified_correctly(self):
        scenario = _scenario_with_vp()
        outcome = PipelineEngine(scenario.inputs()).run(InferenceConfig(), [IXP_ID])
        report = outcome.report
        assert report.classification_of(IXP_ID, "185.1.0.1") is PeeringClassification.LOCAL
        assert report.classification_of(IXP_ID, "185.1.0.2") is PeeringClassification.REMOTE
        assert report.classification_of(IXP_ID, "185.1.0.3") is PeeringClassification.REMOTE
        assert report.coverage() == pytest.approx(1.0)

    def test_step_attribution(self):
        scenario = _scenario_with_vp()
        outcome = PipelineEngine(scenario.inputs()).run(InferenceConfig(), [IXP_ID])
        assert outcome.report.result_for(IXP_ID, "185.1.0.3").step is InferenceStep.PORT_CAPACITY
        assert outcome.report.result_for(IXP_ID, "185.1.0.2").step is InferenceStep.RTT_COLOCATION

    def test_baseline_report_produced(self):
        scenario = _scenario_with_vp()
        outcome = PipelineEngine(scenario.inputs()).run(InferenceConfig(), [IXP_ID])
        assert outcome.baseline_report.classification_of(IXP_ID, "185.1.0.2") is \
            PeeringClassification.LOCAL  # 8 ms < 10 ms threshold

    def test_empty_ixp_list_rejected(self):
        scenario = _scenario_with_vp()
        with pytest.raises(InferenceError):
            PipelineEngine(scenario.inputs()).run(InferenceConfig(), [])

    def test_steps_can_be_disabled(self):
        scenario = _scenario_with_vp()
        config = InferenceConfig(enable_step1_port_capacity=False,
                                 enable_step3_colocation_rtt=False,
                                 enable_step4_multi_ixp=False,
                                 enable_step5_private_links=False)
        outcome = PipelineEngine(scenario.inputs()).run(config, [IXP_ID])
        assert outcome.report.coverage() == 0.0
        assert len(outcome.report) == 3

    def test_remote_share_helper(self):
        scenario = _scenario_with_vp()
        outcome = PipelineEngine(scenario.inputs()).run(InferenceConfig(), [IXP_ID])
        assert outcome.remote_share(IXP_ID) == pytest.approx(2 / 3)


class TestPipelineOnStudy:
    def test_outcome_covers_studied_ixps(self, small_study, small_outcome):
        assert set(small_outcome.ixp_ids) == set(small_study.studied_ixp_ids)
        tracked_ixps = {ixp for ixp, _ in small_outcome.report.results.keys()}
        assert tracked_ixps == set(small_study.studied_ixp_ids)

    def test_coverage_and_accuracy_bounds(self, small_study, small_outcome):
        from repro.validation.metrics import evaluate_report
        metrics = evaluate_report(small_outcome.report, small_study.validation,
                                  ixp_ids=small_study.validation.test_ixps())
        assert metrics.coverage >= 0.6
        assert metrics.accuracy >= 0.85

    def test_pipeline_beats_baseline(self, small_study, small_outcome):
        from repro.validation.metrics import evaluate_report
        test_ixps = small_study.validation.test_ixps()
        ours = evaluate_report(small_outcome.report, small_study.validation, ixp_ids=test_ixps)
        baseline = evaluate_report(small_outcome.baseline_report, small_study.validation,
                                   ixp_ids=test_ixps)
        assert ours.accuracy > baseline.accuracy
        assert ours.false_negative_rate < baseline.false_negative_rate

    def test_remote_share_is_paper_shaped(self, small_outcome):
        assert 0.15 <= small_outcome.report.remote_share() <= 0.50

    def test_every_classified_interface_has_a_step(self, small_outcome):
        for result in small_outcome.report.inferred():
            assert result.step is not None
            assert result.evidence is not None

    def test_multi_ixp_routers_have_at_least_two_ixps(self, small_outcome):
        for router in small_outcome.multi_ixp_routers:
            assert router.ixp_count >= 2

    def test_feasible_analyses_only_for_measured_interfaces(self, small_outcome):
        observed = set(small_outcome.rtt_summary.observations)
        assert set(small_outcome.feasible) <= observed
