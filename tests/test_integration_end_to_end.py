"""End-to-end integration tests on the tiny study (full chain, small scale)."""

from collections.abc import Mapping

from repro.core.types import PeeringClassification
from repro.validation.metrics import evaluate_report


class TestTinyStudyEndToEnd:
    def test_chain_produces_inferences(self, tiny_study):
        outcome = tiny_study.outcome
        assert len(outcome.report) > 0
        assert len(outcome.report.inferred()) > 0

    def test_inference_agrees_with_ground_truth(self, tiny_study):
        """Compare against the full ground truth (not just the validation export)."""
        outcome = tiny_study.outcome
        world = tiny_study.world
        correct = 0
        total = 0
        for result in outcome.report.inferred():
            truth = world.membership_for_interface(result.interface_ip).is_remote
            total += 1
            if truth == (result.classification is PeeringClassification.REMOTE):
                correct += 1
        assert total > 0
        assert correct / total >= 0.85

    def test_validation_metrics_within_expected_band(self, tiny_study):
        outcome = tiny_study.outcome
        metrics = evaluate_report(outcome.report, tiny_study.validation)
        assert metrics.accuracy >= 0.8
        assert metrics.coverage >= 0.5

    def test_observed_dataset_never_exposes_ground_truth_objects(self, tiny_study):
        """The pipeline inputs contain only primitive observables."""
        dataset = tiny_study.dataset
        for value in (dataset.interface_asn, dataset.ixp_facilities, dataset.as_facilities):
            assert isinstance(value, Mapping)
        # Spot check: values are primitives / containers of primitives.
        some_ip = next(iter(dataset.interface_asn))
        assert isinstance(dataset.interface_asn[some_ip], int)
        assert all(
            isinstance(facility_id, str)
            for footprint in dataset.as_facilities.values()
            for facility_id in footprint
        )

    def test_rerunning_pipeline_is_deterministic(self, tiny_study):
        from repro.core.engine import PipelineEngine
        first = PipelineEngine(tiny_study.inputs).run(
            tiny_study.config.inference, tiny_study.studied_ixp_ids)
        second = PipelineEngine(tiny_study.inputs).run(
            tiny_study.config.inference, tiny_study.studied_ixp_ids)
        assert {
            key: result.classification for key, result in first.report.results.items()
        } == {
            key: result.classification for key, result in second.report.results.items()
        }

    def test_departed_members_are_not_measured(self, tiny_study):
        departed = {m.interface_ip for m in tiny_study.world.memberships
                    if m.departed_month is not None}
        queried = tiny_study.ping_result.queried_interfaces()
        assert not departed & queried
