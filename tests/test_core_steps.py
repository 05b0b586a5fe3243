"""Unit tests for the five inference steps on hand-crafted scenarios."""

import pytest

from repro.config import InferenceConfig
from repro.core.baseline import RTTBaseline
from repro.core.step1_port_capacity import PortCapacityStep
from repro.core.step2_rtt import RTTCampaignSummary, RTTMeasurementStep, RTTObservation
from repro.core.step3_colocation import ColocationRTTStep
from repro.core.step4_multi_ixp import MultiIXPRouterKind, MultiIXPRouterStep
from repro.core.step5_private_links import PrivateConnectivityStep, PrivateNeighbours
from repro.core.types import InferenceReport, InferenceStep, PeeringClassification
from repro.measurement.results import PingCampaignResult
from repro.measurement.vantage import VantagePointKind
from repro.topology.entities import ConnectionKind
from repro.traixroute.detector import IXPCrossing, PrivateAdjacency

from tests.helpers import build_scenario, dual_city_scenario

IXP_ID = "ixp-ams-test"


class TestStep1PortCapacity:
    def test_fractional_port_inferred_remote(self):
        scenario = dual_city_scenario()
        report = InferenceReport()
        classified = PortCapacityStep(scenario.inputs()).run([IXP_ID], report)
        assert classified == 1
        assert report.classification_of(IXP_ID, "185.1.0.3") is PeeringClassification.REMOTE
        assert report.result_for(IXP_ID, "185.1.0.3").step is InferenceStep.PORT_CAPACITY

    def test_full_ports_left_unknown(self):
        scenario = dual_city_scenario()
        report = InferenceReport()
        PortCapacityStep(scenario.inputs()).run([IXP_ID], report)
        assert report.classification_of(IXP_ID, "185.1.0.1") is PeeringClassification.UNKNOWN
        assert report.classification_of(IXP_ID, "185.1.0.2") is PeeringClassification.UNKNOWN

    def test_all_interfaces_registered_even_without_data(self):
        scenario = dual_city_scenario(record_min_capacity=False)
        report = InferenceReport()
        classified = PortCapacityStep(scenario.inputs()).run([IXP_ID], report)
        assert classified == 0
        assert len(report) == 3

    def test_missing_port_capacity_skipped(self):
        scenario = dual_city_scenario(record_reseller_capacity=False)
        report = InferenceReport()
        assert PortCapacityStep(scenario.inputs()).run([IXP_ID], report) == 0


def _scenario_with_pings():
    """The dual-city scenario with a looking glass and ping series."""
    scenario = dual_city_scenario()
    ams_facility = scenario.world.facilities["fac-001"]
    ixp = scenario.world.ixps[IXP_ID]
    vp = scenario.add_vantage_point(ixp, ams_facility)
    scenario.add_route_server_series(vp, [0.3, 0.25, 0.4])
    scenario.add_ping_series(vp, "185.1.0.1", [0.4, 0.5, 0.3])          # local, same facility
    scenario.add_ping_series(vp, "185.1.0.2", [8.2, 8.6, 9.0])          # remote in Frankfurt
    scenario.add_ping_series(vp, "185.1.0.3", [1.3, 1.2, 1.6])          # remote in Rotterdam
    return scenario, vp


class TestStep2RTT:
    def test_min_rtt_extracted_per_interface(self):
        scenario, vp = _scenario_with_pings()
        summary = RTTMeasurementStep(scenario.inputs()).run([IXP_ID])
        assert summary.observation_for(IXP_ID, "185.1.0.1").rtt_min_ms == pytest.approx(0.3)
        assert summary.observation_for(IXP_ID, "185.1.0.2").rtt_min_ms == pytest.approx(8.2)
        assert summary.usable_vps[vp.vp_id] is vp

    def test_ttl_filter_discards_inconsistent_replies(self):
        scenario, vp = _scenario_with_pings()
        scenario.add_ping_series(vp, "185.1.0.1", [0.1], reply_ttl=40)
        summary = RTTMeasurementStep(scenario.inputs()).run([IXP_ID])
        # The 0.1 ms sample came with an implausible TTL and must be ignored.
        assert summary.observation_for(IXP_ID, "185.1.0.1").rtt_min_ms == pytest.approx(0.3)

    def test_management_lan_probe_discarded(self):
        scenario = dual_city_scenario()
        ams_facility = scenario.world.facilities["fac-001"]
        ixp = scenario.world.ixps[IXP_ID]
        probe = scenario.add_vantage_point(ixp, ams_facility,
                                           kind=VantagePointKind.ATLAS_PROBE)
        scenario.add_route_server_series(probe, [3.5, 4.0])
        scenario.add_ping_series(probe, "185.1.0.1", [4.1, 3.9])
        summary = RTTMeasurementStep(scenario.inputs()).run([IXP_ID])
        assert probe.vp_id in summary.discarded_vps
        assert summary.observation_for(IXP_ID, "185.1.0.1") is None

    def test_lg_rounding_adjusts_lower_bound(self):
        scenario = dual_city_scenario()
        ams_facility = scenario.world.facilities["fac-001"]
        ixp = scenario.world.ixps[IXP_ID]
        vp = scenario.add_vantage_point(ixp, ams_facility, rounds_rtt_up=True)
        scenario.add_route_server_series(vp, [1.0])
        scenario.add_ping_series(vp, "185.1.0.2", [9.0, 10.0])
        summary = RTTMeasurementStep(scenario.inputs()).run([IXP_ID])
        observation = summary.observation_for(IXP_ID, "185.1.0.2")
        assert observation.rtt_min_ms == pytest.approx(9.0)
        assert observation.rtt_lower_ms == pytest.approx(8.0)

    def test_smallest_rtt_across_vps_is_kept(self):
        scenario, _ = _scenario_with_pings()
        ixp = scenario.world.ixps[IXP_ID]
        second_vp = scenario.add_vantage_point(ixp, scenario.world.facilities["fac-001"],
                                               kind=VantagePointKind.ATLAS_PROBE)
        scenario.add_route_server_series(second_vp, [0.2])
        scenario.add_ping_series(second_vp, "185.1.0.2", [7.0])
        summary = RTTMeasurementStep(scenario.inputs()).run([IXP_ID])
        assert summary.observation_for(IXP_ID, "185.1.0.2").rtt_min_ms == pytest.approx(7.0)

    def test_response_rate_accounting(self):
        scenario, vp = _scenario_with_pings()
        summary = RTTMeasurementStep(scenario.inputs()).run([IXP_ID])
        assert summary.queried_per_vp[vp.vp_id] == 3
        assert summary.response_rate(vp.vp_id) == pytest.approx(1.0)

    def test_min_rtt_tie_breaking_is_series_order_independent(self):
        """On equal rtt_min_ms the smaller rtt_lower_ms (then vp_id) wins.

        The seed kept whichever tying series happened to come first in
        ``ping.series``, so permuting the list changed the pipeline output
        and a rounding LG's extra millisecond of ring slack could be lost.
        """
        import itertools

        scenario = dual_city_scenario()
        ixp = scenario.world.ixps[IXP_ID]
        ams = scenario.world.facilities["fac-001"]
        atlas = scenario.add_vantage_point(ixp, ams, kind=VantagePointKind.ATLAS_PROBE)
        # Distinct facility so the two VPs get distinct vp_ids; the LG's
        # lexicographically *larger* id proves rtt_lower_ms outranks vp_id.
        lg = scenario.add_vantage_point(ixp, scenario.world.facilities["fac-003"],
                                        rounds_rtt_up=True)
        scenario.add_route_server_series(atlas, [0.3])
        scenario.add_route_server_series(lg, [0.4])
        # Both VPs measure the same 9.0 ms minimum; the rounding LG carries
        # rtt_lower_ms = 8.0 and must win regardless of series order.
        scenario.add_ping_series(atlas, "185.1.0.2", [9.0, 9.4])
        scenario.add_ping_series(lg, "185.1.0.2", [9.0, 10.0])

        recorded = scenario.ping_result
        winners = set()
        for permutation in itertools.permutations(recorded.series):
            scenario.ping_result = PingCampaignResult(
                series=permutation,
                route_server_series=recorded.route_server_series,
                vantage_points=recorded.vantage_points,
            )
            summary = RTTMeasurementStep(scenario.inputs()).run([IXP_ID])
            observation = summary.observation_for(IXP_ID, "185.1.0.2")
            winners.add((observation.vp_id, observation.rtt_min_ms, observation.rtt_lower_ms))
        assert winners == {(lg.vp_id, 9.0, 8.0)}

    def test_min_rtt_tie_on_lower_bound_prefers_lexicographic_vp(self):
        scenario = dual_city_scenario()
        ixp = scenario.world.ixps[IXP_ID]
        ams = scenario.world.facilities["fac-001"]
        vp_b = scenario.add_vantage_point(ixp, scenario.world.facilities["fac-002"])
        vp_a = scenario.add_vantage_point(ixp, ams)
        assert vp_a.vp_id < vp_b.vp_id
        scenario.add_route_server_series(vp_a, [0.3])
        scenario.add_route_server_series(vp_b, [0.3])
        for vp in (vp_b, vp_a):
            scenario.add_ping_series(vp, "185.1.0.2", [9.0])
        summary = RTTMeasurementStep(scenario.inputs()).run([IXP_ID])
        assert summary.observation_for(IXP_ID, "185.1.0.2").vp_id == vp_a.vp_id


class TestStep3Colocation:
    def _run(self, scenario):
        inputs = scenario.inputs()
        report = InferenceReport()
        PortCapacityStep(inputs).run([IXP_ID], report)
        summary = RTTMeasurementStep(inputs).run([IXP_ID])
        feasible = ColocationRTTStep(inputs).run([IXP_ID], report, summary)
        return report, feasible

    def test_local_member_inferred_local(self):
        scenario, _ = _scenario_with_pings()
        report, _ = self._run(scenario)
        assert report.classification_of(IXP_ID, "185.1.0.1") is PeeringClassification.LOCAL

    def test_far_remote_member_inferred_remote(self):
        scenario, _ = _scenario_with_pings()
        report, _ = self._run(scenario)
        assert report.classification_of(IXP_ID, "185.1.0.2") is PeeringClassification.REMOTE

    def test_nearby_remote_member_inferred_remote_via_colocation(self):
        # The Rotterdam reseller customer is within ~1.5 ms of the IXP, yet its
        # only feasible facility is not an IXP facility.
        scenario, _ = _scenario_with_pings()
        report, _ = self._run(scenario)
        assert report.classification_of(IXP_ID, "185.1.0.3") is PeeringClassification.REMOTE

    def test_member_without_facility_data_stays_unknown(self):
        scenario, _ = _scenario_with_pings()
        scenario.set_as_footprint(65002, ())
        # At ~8 ms the ring still (barely) admits the Amsterdam facility, and
        # without colocation data for the member Step 3 must abstain — these
        # are exactly the cases handed over to Steps 4 and 5.
        report, feasible = self._run(scenario)
        assert report.classification_of(IXP_ID, "185.1.0.2") is PeeringClassification.UNKNOWN
        assert feasible[(IXP_ID, "185.1.0.2")].member_has_facility_data is False

    def test_member_without_facility_data_and_feasible_ixp_stays_unknown(self):
        scenario, _ = _scenario_with_pings()
        scenario.set_as_footprint(65003, ())
        report, _ = self._run(scenario)
        # Rotterdam RTT (~1.3 ms) keeps the Amsterdam IXP facility feasible,
        # and with no member colocation data Step 3 must abstain.
        assert report.result_for(IXP_ID, "185.1.0.3").step is not InferenceStep.RTT_COLOCATION

    def test_wide_area_member_with_high_rtt_still_local(self):
        # A second IXP facility in Frankfurt makes the 8 ms member local there.
        scenario, _ = _scenario_with_pings()
        fra_facility = scenario.world.facilities["fac-002"]
        ixp = scenario.world.ixps[IXP_ID]
        ixp.facility_ids.add(fra_facility.facility_id)
        scenario.dataset.add_ixp_facility(IXP_ID, fra_facility.facility_id)
        report, _ = self._run(scenario)
        assert report.classification_of(IXP_ID, "185.1.0.2") is PeeringClassification.LOCAL

    def test_feasible_analyses_returned_for_measured_interfaces(self):
        scenario, _ = _scenario_with_pings()
        _, feasible = self._run(scenario)
        assert set(feasible) == {(IXP_ID, "185.1.0.1"), (IXP_ID, "185.1.0.2"),
                                 (IXP_ID, "185.1.0.3")}

    def test_step1_classification_not_overwritten(self):
        scenario, _ = _scenario_with_pings()
        report, _ = self._run(scenario)
        # The Rotterdam member was already caught by Step 1 (fractional port).
        assert report.result_for(IXP_ID, "185.1.0.3").step is InferenceStep.PORT_CAPACITY


class TestBaseline:
    def test_baseline_misclassifies_nearby_remote(self):
        scenario, _ = _scenario_with_pings()
        inputs = scenario.inputs()
        summary = RTTMeasurementStep(inputs).run([IXP_ID])
        baseline = RTTBaseline(inputs).run([IXP_ID], summary)
        # 10 ms threshold: the Frankfurt member (8 ms) and the Rotterdam
        # member (1.3 ms) both end up "local" although they are remote.
        assert baseline.classification_of(IXP_ID, "185.1.0.2") is PeeringClassification.LOCAL
        assert baseline.classification_of(IXP_ID, "185.1.0.3") is PeeringClassification.LOCAL
        assert baseline.classification_of(IXP_ID, "185.1.0.1") is PeeringClassification.LOCAL

    def test_baseline_flags_far_members_with_low_threshold(self):
        scenario, _ = _scenario_with_pings()
        inputs = scenario.inputs()
        summary = RTTMeasurementStep(inputs).run([IXP_ID])
        baseline = RTTBaseline(inputs, InferenceConfig(rtt_baseline_threshold_ms=2.0)).run(
            [IXP_ID], summary)
        assert baseline.classification_of(IXP_ID, "185.1.0.2") is PeeringClassification.REMOTE


class TestStep4MultiIXP:
    def _two_ixp_scenario(self):
        """AS 65010 peers at two IXPs in different cities from one router."""
        scenario = build_scenario()
        ams = scenario.add_facility("Amsterdam")
        lon = scenario.add_facility("London")
        waw = scenario.add_facility("Warsaw")
        ixp_a = scenario.add_ixp("AMS", [ams], prefix="185.1.0.0/24")
        ixp_b = scenario.add_ixp("LON", [lon], prefix="185.2.0.0/24")

        scenario.add_as(65010, waw)
        router = scenario.add_router(65010, waw)
        scenario.add_membership(ixp_a, 65010, router, waw, interface_ip="185.1.0.10",
                                connection=ConnectionKind.REMOTE_LONG_CABLE)
        scenario.add_membership(ixp_b, 65010, router, waw, interface_ip="185.2.0.10",
                                connection=ConnectionKind.REMOTE_LONG_CABLE)
        scenario.add_backbone_interface(65010, router, "5.0.0.1")
        scenario.world.infrastructure_prefixes["5.0.0.0/22"] = 65010
        return scenario, ixp_a, ixp_b

    def _crossings(self, ixp_a, ixp_b):
        return [
            IXPCrossing(ixp_id=ixp_a.ixp_id, entry_ip="5.0.0.1", entry_asn=65010,
                        ixp_interface_ip="185.1.0.99", far_asn=65099, exit_ip="5.0.9.1"),
            IXPCrossing(ixp_id=ixp_b.ixp_id, entry_ip="5.0.0.1", entry_asn=65010,
                        ixp_interface_ip="185.2.0.99", far_asn=65099, exit_ip="5.0.9.1"),
        ]

    def test_multi_ixp_router_identified(self):
        scenario, ixp_a, ixp_b = self._two_ixp_scenario()
        step = MultiIXPRouterStep(scenario.inputs())
        routers = step.identify_routers(self._crossings(ixp_a, ixp_b))
        assert len(routers) == 1
        assert routers[0].asn == 65010
        assert routers[0].ixp_ids == {ixp_a.ixp_id, ixp_b.ixp_id}

    def test_remote_anchor_propagates_to_other_ixp(self):
        scenario, ixp_a, ixp_b = self._two_ixp_scenario()
        report = InferenceReport()
        report.ensure(ixp_a.ixp_id, "185.1.0.10", 65010)
        report.ensure(ixp_b.ixp_id, "185.2.0.10", 65010)
        # Anchor: already inferred remote at the Amsterdam IXP.
        report.classify(ixp_a.ixp_id, "185.1.0.10", 65010, PeeringClassification.REMOTE,
                        InferenceStep.RTT_COLOCATION)
        step = MultiIXPRouterStep(scenario.inputs())
        routers = step.run([ixp_a.ixp_id, ixp_b.ixp_id], report,
                           step.identify_routers(self._crossings(ixp_a, ixp_b)))
        assert routers[0].kind is MultiIXPRouterKind.REMOTE
        assert report.classification_of(ixp_b.ixp_id, "185.2.0.10") is \
            PeeringClassification.REMOTE
        assert report.result_for(ixp_b.ixp_id, "185.2.0.10").step is \
            InferenceStep.MULTI_IXP_ROUTER

    def test_single_ixp_router_not_multi(self):
        scenario, ixp_a, ixp_b = self._two_ixp_scenario()
        step = MultiIXPRouterStep(scenario.inputs())
        crossings = self._crossings(ixp_a, ixp_b)[:1]
        assert step.identify_routers(crossings) == []

    def test_no_anchor_means_unclassified(self):
        scenario, ixp_a, ixp_b = self._two_ixp_scenario()
        report = InferenceReport()
        report.ensure(ixp_a.ixp_id, "185.1.0.10", 65010)
        report.ensure(ixp_b.ixp_id, "185.2.0.10", 65010)
        step = MultiIXPRouterStep(scenario.inputs())
        routers = step.run([ixp_a.ixp_id, ixp_b.ixp_id], report,
                           step.identify_routers(self._crossings(ixp_a, ixp_b)))
        assert routers[0].kind is MultiIXPRouterKind.UNCLASSIFIED
        assert report.classification_of(ixp_b.ixp_id, "185.2.0.10") is \
            PeeringClassification.UNKNOWN


def _neighbours(step, adjacencies):
    return PrivateNeighbours(adjacencies, step.inputs.alias_resolver)


class TestStep5PrivateLinks:
    def _scenario(self):
        """AS 65020's private neighbours pin it inside the IXP facility."""
        scenario = build_scenario()
        ams = scenario.add_facility("Amsterdam")
        ixp = scenario.add_ixp("AMS", [ams], prefix="185.1.0.0/24")
        scenario.add_as(65020, ams)
        router = scenario.add_router(65020, ams)
        scenario.add_membership(ixp, 65020, router, ams, interface_ip="185.1.0.20")
        scenario.add_backbone_interface(65020, router, "5.0.0.1")
        # Two neighbours colocated in the Amsterdam facility.
        for offset, asn in enumerate((65021, 65022)):
            scenario.add_as(asn, ams)
        scenario.set_as_footprint(65021, {ams.facility_id})
        scenario.set_as_footprint(65022, {ams.facility_id})
        adjacencies = [
            PrivateAdjacency(near_ip="5.0.0.1", near_asn=65020, far_ip="5.0.4.1",
                             far_asn=65021),
            PrivateAdjacency(near_ip="5.0.0.1", near_asn=65020, far_ip="5.0.8.1",
                             far_asn=65022),
        ]
        return scenario, ixp, adjacencies

    def test_colocated_neighbours_vote_local(self):
        scenario, ixp, adjacencies = self._scenario()
        report = InferenceReport()
        report.ensure(ixp.ixp_id, "185.1.0.20", 65020)
        step = PrivateConnectivityStep(scenario.inputs())
        classified = step.run([ixp.ixp_id], report, _neighbours(step, adjacencies), {})
        assert classified == 1
        assert report.classification_of(ixp.ixp_id, "185.1.0.20") is \
            PeeringClassification.LOCAL

    def test_distant_neighbours_vote_remote(self):
        scenario, ixp, adjacencies = self._scenario()
        # Move both neighbours' observed presence to Warsaw.
        waw = scenario.add_facility("Warsaw")
        scenario.set_as_footprint(65021, {waw.facility_id})
        scenario.set_as_footprint(65022, {waw.facility_id})
        report = InferenceReport()
        report.ensure(ixp.ixp_id, "185.1.0.20", 65020)
        step = PrivateConnectivityStep(scenario.inputs())
        step.run([ixp.ixp_id], report, _neighbours(step, adjacencies), {})
        assert report.classification_of(ixp.ixp_id, "185.1.0.20") is \
            PeeringClassification.REMOTE

    def test_too_few_neighbours_abstains(self):
        scenario, ixp, adjacencies = self._scenario()
        report = InferenceReport()
        report.ensure(ixp.ixp_id, "185.1.0.20", 65020)
        step = PrivateConnectivityStep(scenario.inputs())
        classified = step.run([ixp.ixp_id], report, _neighbours(step, adjacencies[:1]), {})
        assert classified == 0

    def test_already_inferred_interfaces_untouched(self):
        scenario, ixp, adjacencies = self._scenario()
        report = InferenceReport()
        report.classify(ixp.ixp_id, "185.1.0.20", 65020, PeeringClassification.REMOTE,
                        InferenceStep.PORT_CAPACITY)
        step = PrivateConnectivityStep(scenario.inputs())
        classified = step.run([ixp.ixp_id], report, _neighbours(step, adjacencies), {})
        assert classified == 0
        assert report.classification_of(ixp.ixp_id, "185.1.0.20") is \
            PeeringClassification.REMOTE

    def test_incoherent_vote_abstains(self):
        scenario, ixp, adjacencies = self._scenario()
        # Give both neighbours overlapping *and* huge facility footprints so
        # the vote includes an IXP facility but is too broad to be trusted.
        big = {scenario.add_facility("Paris").facility_id for _ in range(4)}
        big |= {scenario.add_facility("Berlin").facility_id for _ in range(4)}
        footprint = big | {"fac-001"}
        scenario.set_as_footprint(65021, footprint)
        scenario.set_as_footprint(65022, footprint)
        config = InferenceConfig(max_coherent_vote_facilities=3)
        report = InferenceReport()
        report.ensure(ixp.ixp_id, "185.1.0.20", 65020)
        step = PrivateConnectivityStep(scenario.inputs(), config)
        classified = step.run([ixp.ixp_id], report, _neighbours(step, adjacencies), {})
        assert classified == 0


class TestRTTSummaryIndex:
    def _obs(self, ixp_id, ip, rtt):
        return RTTObservation(ixp_id=ixp_id, interface_ip=ip, rtt_min_ms=rtt,
                              rtt_lower_ms=rtt, vp_id="vp-1")

    def test_observations_for_ixp_groups_by_ixp(self):
        summary = RTTCampaignSummary(observations={
            ("ixp-a", "185.1.0.1"): self._obs("ixp-a", "185.1.0.1", 1.0),
            ("ixp-b", "185.2.0.1"): self._obs("ixp-b", "185.2.0.1", 2.0),
        })
        assert [o.interface_ip for o in summary.observations_for_ixp("ixp-a")] == ["185.1.0.1"]
        assert summary.observations_for_ixp("ixp-z") == []

    def test_index_refreshes_on_new_keys_and_sees_replacements(self):
        key = ("ixp-a", "185.1.0.1")
        summary = RTTCampaignSummary(observations={
            key: self._obs("ixp-a", "185.1.0.1", 5.0)})
        assert summary.observations_for_ixp("ixp-a")[0].rtt_min_ms == 5.0
        # Replacement under an existing key stays visible because the index
        # stores keys, not observation objects.
        summary.merge_from(RTTCampaignSummary(observations={
            key: self._obs("ixp-a", "185.1.0.1", 1.0)}))
        assert summary.observations_for_ixp("ixp-a")[0].rtt_min_ms == 1.0
        # New keys trigger a rebuild via the key-count token.
        summary.merge_from(RTTCampaignSummary(observations={
            ("ixp-a", "185.1.0.2"): self._obs("ixp-a", "185.1.0.2", 3.0)}))
        assert len(summary.observations_for_ixp("ixp-a")) == 2
