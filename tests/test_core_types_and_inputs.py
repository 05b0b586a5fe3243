"""Unit tests for inference result types and pipeline inputs."""

import pytest

from repro.core.inputs import InferenceInputs
from repro.core.types import (
    InferenceReport,
    InferenceStep,
    PeeringClassification,
)
from repro.exceptions import InferenceError

from tests.helpers import dual_city_scenario


class TestInferenceReport:
    def test_ensure_creates_unknown_result(self):
        report = InferenceReport()
        result = report.ensure("ixp-a", "185.1.0.1", 65001)
        assert result.classification is PeeringClassification.UNKNOWN
        assert not result.is_inferred
        assert len(report) == 1

    def test_classify_records_step_and_evidence(self):
        report = InferenceReport()
        report.classify("ixp-a", "185.1.0.1", 65001, PeeringClassification.REMOTE,
                        InferenceStep.PORT_CAPACITY, evidence={"port_capacity_mbps": 100})
        result = report.result_for("ixp-a", "185.1.0.1")
        assert result.is_remote
        assert result.step is InferenceStep.PORT_CAPACITY
        assert result.evidence["port_capacity_mbps"] == 100

    def test_earlier_steps_win(self):
        report = InferenceReport()
        report.classify("ixp-a", "185.1.0.1", 65001, PeeringClassification.REMOTE,
                        InferenceStep.PORT_CAPACITY)
        report.classify("ixp-a", "185.1.0.1", 65001, PeeringClassification.LOCAL,
                        InferenceStep.RTT_COLOCATION)
        assert report.classification_of("ixp-a", "185.1.0.1") is PeeringClassification.REMOTE

    def test_classify_unknown_rejected(self):
        report = InferenceReport()
        with pytest.raises(InferenceError):
            report.classify("ixp-a", "185.1.0.1", 65001, PeeringClassification.UNKNOWN,
                            InferenceStep.PORT_CAPACITY)

    def test_remote_share_and_coverage(self):
        report = InferenceReport()
        report.classify("ixp-a", "185.1.0.1", 1, PeeringClassification.REMOTE,
                        InferenceStep.PORT_CAPACITY)
        report.classify("ixp-a", "185.1.0.2", 2, PeeringClassification.LOCAL,
                        InferenceStep.RTT_COLOCATION)
        report.ensure("ixp-a", "185.1.0.3", 3)
        assert report.remote_share("ixp-a") == pytest.approx(0.5)
        assert report.coverage("ixp-a") == pytest.approx(2 / 3)

    def test_empty_report_shares_are_zero(self):
        report = InferenceReport()
        assert report.remote_share() == 0.0
        assert report.coverage() == 0.0

    def test_step_contributions(self):
        report = InferenceReport()
        report.classify("ixp-a", "185.1.0.1", 1, PeeringClassification.REMOTE,
                        InferenceStep.PORT_CAPACITY)
        report.classify("ixp-b", "185.2.0.1", 1, PeeringClassification.REMOTE,
                        InferenceStep.PORT_CAPACITY)
        report.classify("ixp-a", "185.1.0.2", 2, PeeringClassification.LOCAL,
                        InferenceStep.RTT_COLOCATION)
        contributions = report.step_contributions()
        assert contributions[InferenceStep.PORT_CAPACITY] == 2
        assert report.step_contributions("ixp-a")[InferenceStep.PORT_CAPACITY] == 1

    def test_member_level_classification(self):
        report = InferenceReport()
        report.classify("ixp-a", "185.1.0.1", 1, PeeringClassification.REMOTE,
                        InferenceStep.PORT_CAPACITY)
        report.classify("ixp-b", "185.2.0.1", 1, PeeringClassification.LOCAL,
                        InferenceStep.RTT_COLOCATION)
        report.classify("ixp-a", "185.1.0.2", 2, PeeringClassification.LOCAL,
                        InferenceStep.RTT_COLOCATION)
        assert report.classification_of_as(1) == "hybrid"
        assert report.classification_of_as(2) == "local"
        assert report.classification_of_as(3) == "unknown"

    def test_results_for_queries(self):
        report = InferenceReport()
        report.classify("ixp-a", "185.1.0.1", 1, PeeringClassification.REMOTE,
                        InferenceStep.PORT_CAPACITY)
        report.ensure("ixp-b", "185.2.0.1", 1)
        assert len(report.results_for_as(1)) == 2
        assert len(report.results_for_as(1, "ixp-a")) == 1
        assert len(report.results_for_ixp("ixp-b")) == 1
        assert len(report.unknown()) == 1

    def test_results_for_ixp_index_tracks_growth(self):
        report = InferenceReport()
        report.ensure("ixp-a", "185.1.0.1", 1)
        assert len(report.results_for_ixp("ixp-a")) == 1
        # Growth is detected by the size guard without an explicit reset.
        report.ensure("ixp-a", "185.1.0.2", 2)
        assert len(report.results_for_ixp("ixp-a")) == 2
        # A replaced record stays visible (the index stores keys).
        report.classify("ixp-a", "185.1.0.1", 1, PeeringClassification.REMOTE,
                        InferenceStep.PORT_CAPACITY)
        assert any(r.is_remote for r in report.results_for_ixp("ixp-a"))


class TestInferenceInputs:
    def test_rejects_empty_dataset(self):
        from repro.datasources.merge import ObservedDataset
        from repro.datasources.prefix2as import Prefix2ASMap
        from repro.measurement.results import PingCampaignResult, TracerouteCorpus
        scenario = dual_city_scenario()
        with pytest.raises(InferenceError):
            InferenceInputs(
                dataset=ObservedDataset(),
                ping_result=PingCampaignResult(),
                corpus=TracerouteCorpus(),
                prefix2as=Prefix2ASMap(),
                alias_resolver=scenario.inputs().alias_resolver,
            )
