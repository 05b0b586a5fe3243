"""Tests for the step-graph execution engine (equivalence, fingerprints, reuse).

The engine's contract is that decomposing the pipeline into cached,
fingerprint-keyed step nodes changes *nothing* about the results: the
assembled report must be bit-identical to the seed monolithic path, cache
reuse must happen exactly when a scenario leaves a step's declared config
fields unchanged, and staleness must propagate transitively to dependent
steps.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

import repro.core.engine as engine_module
from repro.config import InferenceConfig, config_fingerprint
from repro.core.baseline import RTTBaseline
from repro.core.engine import (
    STEP_GRAPH,
    PipelineEngine,
    StepScope,
    SweepRunner,
)
from repro.core.step1_port_capacity import PortCapacityStep
from repro.core.step2_rtt import RTTMeasurementStep
from repro.core.step3_colocation import ColocationRTTStep
from repro.core.step4_multi_ixp import MultiIXPRouterStep
from repro.core.step5_private_links import PrivateConnectivityStep, PrivateNeighbours
from repro.core.types import InferenceReport
from repro.datasources.merge import DOMAIN_AS_FACILITIES
from repro.exceptions import ConfigurationError, InferenceError, UndeclaredReadError
from repro.traixroute.detector import CrossingDetector

from tests.helpers import dual_city_scenario, scenario_configs

IXP_ID = "ixp-ams-test"


def _monolithic_run(inputs, config, ixp_ids, *, delay_model=None):
    """The seed single-pass pipeline, kept as the equivalence reference."""
    from repro.geo.delay_model import DelayModel

    delay_model = delay_model or DelayModel()
    report = InferenceReport()
    if config.enable_step1_port_capacity:
        PortCapacityStep(inputs).run(ixp_ids, report)
    else:
        for ixp_id in ixp_ids:
            for interface_ip, asn in inputs.dataset.interfaces_of_ixp(ixp_id).items():
                report.ensure(ixp_id, interface_ip, asn)
    rtt_summary = RTTMeasurementStep(inputs, config).run(ixp_ids)
    feasible = {}
    if config.enable_step3_colocation_rtt:
        feasible = ColocationRTTStep(inputs, config, delay_model).run(
            ixp_ids, report, rtt_summary)
    detector = CrossingDetector(inputs.dataset, inputs.prefix2as)
    crossings = detector.detect_corpus(inputs.corpus)
    adjacencies = detector.private_adjacencies_corpus(inputs.corpus)
    routers = []
    if config.enable_step4_multi_ixp:
        step4 = MultiIXPRouterStep(inputs, config)
        routers = step4.run(ixp_ids, report, step4.identify_routers(crossings))
    if config.enable_step5_private_links:
        neighbours = PrivateNeighbours(adjacencies, inputs.alias_resolver)
        PrivateConnectivityStep(inputs, config).run(ixp_ids, report, neighbours, feasible)
    baseline = RTTBaseline(inputs, config).run(ixp_ids, rtt_summary)
    return report, baseline, rtt_summary, feasible, crossings, adjacencies, routers


def _assert_equivalent(outcome, reference) -> None:
    report, baseline, rtt_summary, feasible, crossings, adjacencies, routers = reference
    # Bit-identical reports, including insertion order.
    assert outcome.report == report
    assert list(outcome.report.results) == list(report.results)
    assert outcome.baseline_report == baseline
    assert outcome.rtt_summary.observations == rtt_summary.observations
    assert outcome.rtt_summary.usable_vps == rtt_summary.usable_vps
    assert outcome.rtt_summary.discarded_vps == rtt_summary.discarded_vps
    assert outcome.rtt_summary.queried_per_vp == rtt_summary.queried_per_vp
    assert outcome.rtt_summary.responsive_per_vp == rtt_summary.responsive_per_vp
    assert outcome.feasible.keys() == feasible.keys()
    for key, analysis in outcome.feasible.items():
        expected = feasible[key]
        assert analysis.ring == expected.ring
        assert analysis.feasible_ixp_facilities == expected.feasible_ixp_facilities
        assert analysis.feasible_member_facilities == expected.feasible_member_facilities
        assert analysis.classification is expected.classification
    assert list(outcome.crossings) == crossings
    assert list(outcome.private_adjacencies) == adjacencies
    assert [(r.asn, r.interface_ips, r.ixp_ids, r.kind) for r in outcome.multi_ixp_routers] \
        == [(r.asn, r.interface_ips, r.ixp_ids, r.kind) for r in routers]


def _scenario_with_vp():
    scenario = dual_city_scenario()
    ixp = scenario.world.ixps[IXP_ID]
    vp = scenario.add_vantage_point(ixp, scenario.world.facilities["fac-001"])
    scenario.add_route_server_series(vp, [0.3])
    scenario.add_ping_series(vp, "185.1.0.1", [0.4, 0.5])
    scenario.add_ping_series(vp, "185.1.0.2", [8.3, 8.8])
    scenario.add_ping_series(vp, "185.1.0.3", [1.4, 1.2])
    return scenario


class TestEngineEquivalence:
    def test_scenario_matches_monolithic_path(self):
        scenario = _scenario_with_vp()
        inputs = scenario.inputs()
        config = InferenceConfig()
        outcome = PipelineEngine(inputs).run(config, [IXP_ID])
        reference = _monolithic_run(inputs, config, [IXP_ID])
        _assert_equivalent(outcome, reference)
        assert outcome.report.inferred(), "equivalence must cover real classifications"

    @pytest.mark.parametrize("overrides", [
        {},
        {"enable_step1_port_capacity": False},
        {"enable_step3_colocation_rtt": False},
        {"enable_step4_multi_ixp": False, "enable_step5_private_links": False},
    ])
    def test_scenario_matches_under_ablations(self, overrides):
        from dataclasses import replace
        scenario = _scenario_with_vp()
        inputs = scenario.inputs()
        config = replace(InferenceConfig(), **overrides)
        outcome = PipelineEngine(inputs).run(config, [IXP_ID])
        reference = _monolithic_run(inputs, config, [IXP_ID])
        _assert_equivalent(outcome, reference)

    def test_generated_world_matches_monolithic_path(self, small_study, small_outcome):
        """The engine-backed study outcome equals the seed path on a real world."""
        reference = _monolithic_run(
            small_study.inputs, small_study.config.inference, small_study.studied_ixp_ids,
            delay_model=small_study.delay_model)
        _assert_equivalent(small_outcome, reference)
        assert small_outcome.report.inferred()

    def test_rerun_from_cache_is_identical(self, tiny_study):
        engine = PipelineEngine(
            tiny_study.inputs, delay_model=tiny_study.delay_model,
            geo_index=tiny_study.geo_index)
        config = tiny_study.config.inference
        first = engine.run(config, tiny_study.studied_ixp_ids)
        second = engine.run(config, tiny_study.studied_ixp_ids)
        assert first.report == second.report
        assert first.report is not second.report
        assert first.baseline_report == second.baseline_report


class TestStepGraphDeclarations:
    def test_declared_fields_are_real_config_fields(self):
        config = InferenceConfig()
        for spec in STEP_GRAPH:
            # config_fingerprint raises on any typo in the declaration.
            fingerprint = config_fingerprint(config, spec.config_fields)
            assert len(fingerprint) == len(spec.config_fields)

    def test_requires_reference_known_steps(self):
        names = {spec.name for spec in STEP_GRAPH}
        for spec in STEP_GRAPH:
            assert set(spec.requires) <= names
            assert spec.provides

    def test_scopes(self):
        scopes = {spec.name: spec.scope for spec in STEP_GRAPH}
        assert scopes["step1"] is StepScope.PER_IXP
        assert scopes["step2"] is StepScope.PER_IXP
        assert scopes["step3"] is StepScope.PER_IXP
        assert scopes["baseline"] is StepScope.PER_IXP
        assert scopes["traceroute"] is StepScope.GLOBAL
        assert scopes["step4"] is StepScope.GLOBAL
        assert scopes["step5"] is StepScope.GLOBAL


def _fresh_engine(study) -> PipelineEngine:
    """An engine with an empty cache, so every node computes."""
    return PipelineEngine(study.inputs, delay_model=study.delay_model)


def _declare(monkeypatch, spec) -> None:
    """Put ``spec`` in the step graph an engine builds its views from."""
    monkeypatch.setitem(engine_module._SPECS, spec.name, spec)


class TestUndeclaredReads:
    """A read outside a node's declaration raises the first time it runs,
    naming the node and the member."""

    def _refusal(self, study) -> UndeclaredReadError:
        with pytest.raises(UndeclaredReadError) as excinfo:
            _fresh_engine(study).run(study.config.inference, study.studied_ixp_ids)
        error = excinfo.value
        assert error.node in str(error) and error.member in str(error)
        return error

    def test_step1_config_read(self, oracle_study, monkeypatch):
        compute = PipelineEngine._compute_step1

        def leaky(self, config, *args):
            _ = config.rtt_baseline_threshold_ms
            return compute(self, config, *args)

        monkeypatch.setattr(PipelineEngine, "_compute_step1", leaky)
        error = self._refusal(oracle_study)
        assert (error.node, error.member) == ("step1", "config.rtt_baseline_threshold_ms")

    def test_step5_config_read(self, oracle_study, monkeypatch):
        run = PrivateConnectivityStep.run

        def leaky(self, *args, **kwargs):
            _ = self.config.rtt_baseline_threshold_ms
            return run(self, *args, **kwargs)

        monkeypatch.setattr(PrivateConnectivityStep, "run", leaky)
        error = self._refusal(oracle_study)
        assert (error.node, error.member) == ("step5", "config.rtt_baseline_threshold_ms")

    def test_step1_domain_read(self, oracle_study, monkeypatch):
        run = PortCapacityStep.run

        def leaky(self, *args, **kwargs):
            self.inputs.dataset.facility_location("fac-000")
            return run(self, *args, **kwargs)

        monkeypatch.setattr(PortCapacityStep, "run", leaky)
        error = self._refusal(oracle_study)
        assert (error.node, error.member) == ("step1", "dataset.facility_location")

    def test_step3_without_as_facilities(self, oracle_study, monkeypatch):
        spec = engine_module._SPECS["step3"]
        domains = tuple(d for d in spec.data_domains if d != DOMAIN_AS_FACILITIES)
        _declare(monkeypatch, replace(spec, data_domains=domains))
        error = self._refusal(oracle_study)
        assert (error.node, error.member) == ("step3", "geo_index.feasible_as_facilities")

    def test_step4_alias_resolver_read(self, oracle_study, monkeypatch):
        run = MultiIXPRouterStep.run

        def leaky(self, *args, **kwargs):
            _ = self.inputs.alias_resolver
            return run(self, *args, **kwargs)

        monkeypatch.setattr(MultiIXPRouterStep, "run", leaky)
        error = self._refusal(oracle_study)
        assert (error.node, error.member) == ("step4", "inputs.alias_resolver")

    def test_a_default_does_not_swallow_the_refusal(self, oracle_study, monkeypatch):
        run = RTTBaseline.run

        def probing(self, *args, **kwargs):
            getattr(self.inputs, "corpus", None)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(RTTBaseline, "run", probing)
        error = self._refusal(oracle_study)
        assert (error.node, error.member) == ("baseline", "inputs.corpus")


def _unread_declarations(spec, studies, monkeypatch) -> list[tuple[str, str]]:
    """The declarations of ``spec`` that no run needs.

    For each declared config field, dataset domain and versioned input, a
    fresh engine whose graph lacks that one item runs every sweep scenario
    over each study; an item is needed when some run raises.
    """
    unread = []
    for attribute in ("config_fields", "data_domains", "data_inputs"):
        declared = getattr(spec, attribute)
        for item in declared:
            _declare(monkeypatch, replace(
                spec, **{attribute: tuple(x for x in declared if x != item)}))
            try:
                for study in studies:
                    engine = _fresh_engine(study)
                    for config in scenario_configs(study.config.inference):
                        engine.run(config, study.studied_ixp_ids)
            except UndeclaredReadError as error:
                assert error.node == spec.name
            else:
                unread.append((attribute, item))
    return unread


class TestEveryDeclarationIsRead:
    """Each node but the traceroute observables needs every item it declares.

    The seed-23 study reaches step 2's rounding-looking-glass branch and
    the seed-7 study reaches step 4's propagation of a classified
    multi-IXP router, so between them the sweep reads every declaration.
    """

    @pytest.mark.parametrize(
        "name", [spec.name for spec in STEP_GRAPH if spec.name != "traceroute"])
    def test_dropping_any_declaration_raises(self, name, oracle_study, tiny_study,
                                             monkeypatch):
        spec = engine_module._SPECS[name]
        assert _unread_declarations(spec, (oracle_study, tiny_study), monkeypatch) == []

    def test_an_unused_declaration_is_flagged(self, oracle_study, tiny_study, monkeypatch):
        spec = engine_module._SPECS["step1"]
        seeded = replace(
            spec, config_fields=(*spec.config_fields, "rtt_baseline_threshold_ms"))
        unread = _unread_declarations(seeded, (oracle_study, tiny_study), monkeypatch)
        assert unread == [("config_fields", "rtt_baseline_threshold_ms")]


class TestConfigFingerprint:
    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigurationError):
            config_fingerprint(InferenceConfig(), ("no_such_field",))

    def test_order_independent(self):
        config = InferenceConfig()
        fields = ("min_private_neighbours", "rtt_baseline_threshold_ms")
        assert config_fingerprint(config, fields) == config_fingerprint(
            config, tuple(reversed(fields)))

    def test_subset_ignores_other_fields(self):
        from dataclasses import replace
        base = InferenceConfig()
        changed_elsewhere = replace(base, min_private_neighbours=5)
        fields = ("rtt_baseline_threshold_ms", "feasible_facility_tolerance_km")
        assert config_fingerprint(base, fields) == config_fingerprint(
            changed_elsewhere, fields)

    def test_declared_change_alters_fingerprint(self):
        from dataclasses import replace
        base = InferenceConfig()
        changed = replace(base, feasible_facility_tolerance_km=99.0)
        fields = ("feasible_facility_tolerance_km",)
        assert config_fingerprint(base, fields) != config_fingerprint(changed, fields)


class TestCacheStaleness:
    """The step-result cache recomputes exactly the fingerprint-stale steps."""

    @pytest.fixture()
    def engine(self, tiny_study):
        return PipelineEngine(
            tiny_study.inputs, delay_model=tiny_study.delay_model,
            geo_index=tiny_study.geo_index)

    @staticmethod
    def _misses(engine):
        return {label: stats.misses for label, stats in engine.cache.stats.items()}

    def test_downstream_only_change_reuses_upstream(self, engine, tiny_study):
        from dataclasses import replace
        config = tiny_study.config.inference
        ixp_ids = tiny_study.studied_ixp_ids
        engine.run(config, ixp_ids)
        before = self._misses(engine)

        changed = replace(config, max_coherent_vote_facilities=1)
        engine.run(changed, ixp_ids)
        after = self._misses(engine)

        for label in ("step1", "step2", "step3", "baseline", "traceroute", "step4"):
            assert after[label] == before[label], f"{label} must be reused"
        assert after["step5"] == before["step5"] + 1

    def test_upstream_change_invalidates_dependents(self, engine, tiny_study):
        from dataclasses import replace
        config = tiny_study.config.inference
        ixp_ids = tiny_study.studied_ixp_ids
        engine.run(config, ixp_ids)
        before = self._misses(engine)

        changed = replace(config, lg_rounding_adjustment_ms=0.5)
        engine.run(changed, ixp_ids)
        after = self._misses(engine)

        # Step 1 and the traceroute observables do not depend on Step 2.
        assert after["step1"] == before["step1"]
        assert after["traceroute"] == before["traceroute"]
        # Step 2 and every transitively dependent node recompute.
        n = len(ixp_ids)
        assert after["step2"] == before["step2"] + n
        assert after["step3"] == before["step3"] + n
        assert after["baseline"] == before["baseline"] + n
        assert after["step4"] == before["step4"] + 1
        assert after["step5"] == before["step5"] + 1

    def test_traceroute_shared_across_ixp_subsets(self, engine, tiny_study):
        """The corpus-wide observables ignore the studied set and are reused."""
        config = tiny_study.config.inference
        ixp_ids = tiny_study.studied_ixp_ids
        engine.run(config, ixp_ids)
        before = self._misses(engine)
        engine.run(config, ixp_ids[:1])
        after = self._misses(engine)
        assert after["traceroute"] == before["traceroute"]
        # The per-IXP nodes of the subset are reused too; only the global
        # steps 4/5 re-key (their scope is the studied tuple).
        assert after["step1"] == before["step1"]
        assert after["step3"] == before["step3"]
        assert after["step4"] == before["step4"] + 1
        assert after["step5"] == before["step5"] + 1

    def test_sweep_runner_shares_cache(self, engine, tiny_study):
        from dataclasses import replace
        config = tiny_study.config.inference
        ixp_ids = tiny_study.studied_ixp_ids
        configs = [config,
                   replace(config, enable_step4_multi_ixp=False),
                   replace(config, enable_step5_private_links=False)]
        outcomes = SweepRunner(engine).run(configs, ixp_ids)
        assert len(outcomes) == 3
        misses = self._misses(engine)
        n = len(ixp_ids)
        # Steps 1-3 and the baseline computed once per IXP across the sweep.
        assert misses["step1"] == n
        assert misses["step2"] == n
        assert misses["step3"] == n
        assert misses["baseline"] == n
        assert misses["traceroute"] == 1
        # Scenario 3 shares scenario 1's step4 result (same fingerprint).
        assert misses["step4"] == 2
        # All three step5 fingerprints differ (step4's key feeds step5's).
        assert misses["step5"] == 3


class TestEngineValidation:
    def test_empty_ixp_list_rejected(self, tiny_study):
        with pytest.raises(InferenceError):
            tiny_study.engine.run(tiny_study.config.inference, [])

    def test_foreign_geo_index_rejected(self, tiny_study):
        scenario = _scenario_with_vp()
        foreign_inputs = scenario.inputs()
        with pytest.raises(InferenceError):
            PipelineEngine(tiny_study.inputs, geo_index=foreign_inputs.geo_index)

    def test_cache_clear_recomputes(self, tiny_study):
        engine = PipelineEngine(
            tiny_study.inputs, delay_model=tiny_study.delay_model,
            geo_index=tiny_study.geo_index)
        config = tiny_study.config.inference
        first = engine.run(config, tiny_study.studied_ixp_ids)
        assert len(engine.cache) > 0
        engine.cache.clear()
        assert len(engine.cache) == 0
        second = engine.run(config, tiny_study.studied_ixp_ids)
        assert first.report == second.report

    def test_unknown_ixp_id_rejected(self, tiny_study):
        with pytest.raises(InferenceError, match="NO-SUCH-IXP"):
            tiny_study.engine.run(tiny_study.config.inference, ["NO-SUCH-IXP"])

    def test_duplicate_ixp_ids_rejected(self, tiny_study):
        ids = list(tiny_study.studied_ixp_ids)
        with pytest.raises(InferenceError) as excinfo:
            tiny_study.engine.run(
                tiny_study.config.inference, [*ids, *ids[:2], "NO-SUCH-IXP"])
        message = str(excinfo.value)
        assert "unknown IXP ids: NO-SUCH-IXP" in message
        assert f"duplicate IXP ids: {ids[0]}, {ids[1]}" in message

    def test_mixed_ixp_ids_name_only_the_unknown(self, tiny_study):
        known = tiny_study.studied_ixp_ids[0]
        with pytest.raises(InferenceError) as excinfo:
            tiny_study.engine.run(
                tiny_study.config.inference, [known, "NO-SUCH-IXP"])
        message = str(excinfo.value)
        assert "NO-SUCH-IXP" in message
        assert known not in message

    def test_failing_step_raises_on_first_attempt(self, tiny_study, monkeypatch):
        class StepFailure(InferenceError):
            pass

        calls = []

        def failing_run(self, *args, **kwargs):
            calls.append(args)
            raise StepFailure("step 1 failed")

        monkeypatch.setattr(PortCapacityStep, "run", failing_run)
        # A fresh engine (empty cache) so Step 1 really computes.
        engine = PipelineEngine(
            tiny_study.inputs, delay_model=tiny_study.delay_model,
            geo_index=tiny_study.geo_index)
        with pytest.raises(StepFailure):
            engine.run(tiny_study.config.inference, tiny_study.studied_ixp_ids)
        assert len(calls) == 1


class TestStudySweep:
    def test_sweep_outcomes_align_with_configs(self, tiny_study):
        from dataclasses import replace
        base = tiny_study.config.inference
        configs = [base, replace(base, enable_step5_private_links=False)]
        outcomes = tiny_study.sweep(configs)
        assert len(outcomes) == 2
        assert outcomes[0].report == tiny_study.outcome.report
        from repro.core.types import InferenceStep
        contributions = outcomes[1].report.step_contributions()
        assert InferenceStep.PRIVATE_CONNECTIVITY not in contributions
