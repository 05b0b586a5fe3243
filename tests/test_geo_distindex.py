"""Invariants of the shared geodesic-distance index (Steps 3/4 geometry).

Three families of guarantees:

* **Function-level** — geodesic distance is *exactly* symmetric (the index
  memoises pairs under order-independent keys, and Step 4 compares distances
  with strict inequalities, so approximate symmetry is not enough).
* **Index-level** — every cached entry equals the direct per-call
  computation, profiles implement inclusive ring semantics, and span
  aggregates match brute-force pairwise min/max.
* **Pipeline-level** — Steps 3 and 4 produce bit-identical classifications
  with and without the index (the corpus-scale version of this equivalence
  lives in ``benchmarks/test_bench_geo_distindex.py``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.step1_port_capacity import PortCapacityStep
from repro.core.step2_rtt import RTTMeasurementStep
from repro.core.step3_colocation import ColocationRTTStep
from repro.core.types import InferenceReport, PeeringClassification
from repro.geo.coordinates import GeoPoint, geodesic_distance_km
from repro.geo.delay_model import DelayModel
from repro.geo.distindex import DistanceProfile, GeoDistanceIndex

from tests.helpers import SeedColocationRTTStep, dual_city_scenario

IXP_ID = "ixp-ams-test"

latitudes = st.floats(min_value=-85.0, max_value=85.0, allow_nan=False)
longitudes = st.floats(min_value=-180.0, max_value=180.0, allow_nan=False)
points = st.builds(GeoPoint, latitude=latitudes, longitude=longitudes)


def _measured_scenario():
    """The dual-city scenario with a looking glass and ping series."""
    scenario = dual_city_scenario()
    ixp = scenario.world.ixps[IXP_ID]
    vp = scenario.add_vantage_point(ixp, scenario.world.facilities["fac-001"])
    scenario.add_route_server_series(vp, [0.3, 0.25])
    scenario.add_ping_series(vp, "185.1.0.1", [0.4, 0.3])
    scenario.add_ping_series(vp, "185.1.0.2", [8.2, 8.6])
    scenario.add_ping_series(vp, "185.1.0.3", [1.3, 1.2])
    return scenario, vp


class TestExactSymmetry:
    @given(a=points, b=points)
    @settings(max_examples=200, deadline=None)
    def test_geodesic_distance_is_exactly_symmetric(self, a, b):
        assert geodesic_distance_km(a, b) == geodesic_distance_km(b, a)

    def test_pair_distance_is_order_independent(self):
        scenario, _ = _measured_scenario()
        index = GeoDistanceIndex(scenario.dataset)
        assert index.pair_distance_km("fac-001", "fac-002") == index.pair_distance_km(
            "fac-002", "fac-001")


class TestIndexMatchesDirectComputation:
    def test_every_cached_entry_equals_direct_vincenty(self):
        scenario, vp = _measured_scenario()
        dataset = scenario.dataset
        index = GeoDistanceIndex(dataset)
        # Exercise every lookup family so the memos fill up.
        for facility_id in dataset.facility_locations:
            index.facility_distance_km(vp.location, facility_id)
        for asn in dataset.as_facilities:
            index.as_profile(vp.location, asn)
            index.as_ixp_span_km(asn, IXP_ID)
            index.common_facility_span_km(asn, IXP_ID)
        index.ixp_profile(vp.location, IXP_ID)
        index.ixp_pair_span_km(IXP_ID, IXP_ID)

        assert index._point_km, "the point memo should have been populated"
        for (point, facility_id), cached in index._point_km.items():
            location = dataset.facility_location(facility_id)
            expected = None if location is None else geodesic_distance_km(point, location)
            assert cached == expected
        assert index._pair_km, "the pair memo should have been populated"
        for (fa, fb), cached in index._pair_km.items():
            loc_a, loc_b = dataset.facility_location(fa), dataset.facility_location(fb)
            expected = (None if loc_a is None or loc_b is None
                        else geodesic_distance_km(loc_a, loc_b))
            assert cached == expected

    def test_unlocated_facility_is_a_memoised_miss(self):
        scenario, vp = _measured_scenario()
        scenario.dataset.add_as_facility(65001, "fac-ghost")
        index = GeoDistanceIndex(scenario.dataset)
        assert index.facility_distance_km(vp.location, "fac-ghost") is None
        # Unlocated facilities never enter a profile (they are never feasible).
        profile = index.as_profile(vp.location, 65001)
        assert "fac-ghost" not in profile.facility_ids

    def test_spans_match_bruteforce_pairwise(self):
        scenario, _ = _measured_scenario()
        dataset = scenario.dataset
        index = GeoDistanceIndex(dataset)
        for asn in dataset.as_facilities:
            expected = [
                geodesic_distance_km(dataset.facility_location(fa),
                                     dataset.facility_location(fb))
                for fa in dataset.facilities_of_as(asn)
                for fb in dataset.facilities_of_ixp(IXP_ID)
            ]
            span = index.as_ixp_span_km(asn, IXP_ID)
            assert span == (min(expected), max(expected))

    def test_empty_footprints_yield_none_spans(self):
        scenario, _ = _measured_scenario()
        index = GeoDistanceIndex(scenario.dataset)
        assert index.as_ixp_span_km(99999, IXP_ID) is None
        assert index.ixp_pair_span_km("ixp-none", IXP_ID) is None
        assert index.common_facility_span_km(65002, IXP_ID) is None  # no shared facility


class TestDistanceProfile:
    def test_within_is_inclusive_on_both_bounds(self):
        profile = DistanceProfile(distances=(1.0, 2.0, 3.0, 4.0),
                                  facility_ids=("a", "b", "c", "d"))
        assert profile.within(2.0, 3.0) == {"b", "c"}
        assert profile.within(0.0, 10.0) == {"a", "b", "c", "d"}
        assert profile.within(2.5, 2.6) == set()
        assert profile.within(-5.0, 1.0) == {"a"}  # tolerance can push lo below 0
        assert len(profile) == 4

    def test_profile_is_sorted_by_distance(self):
        scenario, vp = _measured_scenario()
        index = GeoDistanceIndex(scenario.dataset)
        profile = index.ixp_profile(vp.location, IXP_ID)
        assert list(profile.distances) == sorted(profile.distances)


class TestStalenessContract:
    def test_foreign_index_rejected_at_every_injection_point(self):
        from repro.core.engine import PipelineEngine
        from repro.exceptions import InferenceError

        scenario, _ = _measured_scenario()
        other, _ = _measured_scenario()
        inputs = scenario.inputs()
        foreign = GeoDistanceIndex(other.dataset)
        with pytest.raises(InferenceError):
            type(inputs)(
                dataset=scenario.dataset,
                ping_result=scenario.ping_result,
                corpus=scenario.corpus,
                prefix2as=inputs.prefix2as,
                alias_resolver=inputs.alias_resolver,
                geo_index=foreign,
            )
        with pytest.raises(InferenceError):
            PipelineEngine(inputs, geo_index=foreign)


class TestStep3Equivalence:
    def _run(self, scenario, step_cls):
        inputs = scenario.inputs()
        report = InferenceReport()
        PortCapacityStep(inputs).run([IXP_ID], report)
        summary = RTTMeasurementStep(inputs).run([IXP_ID])
        step = step_cls(inputs, delay_model=DelayModel())
        feasible = step.run([IXP_ID], report, summary)
        return report, feasible

    def test_indexed_step3_is_bit_identical_to_seed_path(self):
        scenario, _ = _measured_scenario()
        indexed_report, indexed_feasible = self._run(scenario, ColocationRTTStep)
        seed_report, seed_feasible = self._run(scenario, SeedColocationRTTStep)

        assert indexed_feasible.keys() == seed_feasible.keys()
        for key, indexed in indexed_feasible.items():
            seed = seed_feasible[key]
            assert indexed.ring == seed.ring
            assert indexed.feasible_ixp_facilities == seed.feasible_ixp_facilities
            assert indexed.feasible_member_facilities == seed.feasible_member_facilities
            assert indexed.member_has_facility_data == seed.member_has_facility_data
            assert indexed.classification is seed.classification
        assert {k: r.classification for k, r in indexed_report.results.items()} == {
            k: r.classification for k, r in seed_report.results.items()}
        # Sanity: the scenario exercises all three outcomes.
        classes = {r.classification for r in indexed_report.results.values()}
        assert PeeringClassification.LOCAL in classes
        assert PeeringClassification.REMOTE in classes
