"""Unit tests for vantage-point planning and ping campaigns."""

import pytest

from repro.config import CampaignConfig
from repro.exceptions import MeasurementError
from repro.measurement.ping import PingCampaign
from repro.measurement.results import PingCampaignResult, PingSeries
from repro.measurement.vantage import VantagePointKind, VantagePointPlanner


@pytest.fixture(scope="module")
def plan(tiny_world):
    planner = VantagePointPlanner(tiny_world, CampaignConfig())
    return planner.plan(sorted(tiny_world.ixps))


class TestVantagePlanning:
    def test_plan_covers_every_requested_ixp(self, plan, tiny_world):
        assert set(plan) == set(tiny_world.ixps)

    def test_plan_is_deterministic(self, tiny_world):
        config = CampaignConfig()
        first = VantagePointPlanner(tiny_world, config).plan(sorted(tiny_world.ixps))
        second = VantagePointPlanner(tiny_world, config).plan(sorted(tiny_world.ixps))
        assert {k: [vp.vp_id for vp in v] for k, v in first.items()} == {
            k: [vp.vp_id for vp in v] for k, v in second.items()}

    def test_vantage_points_sit_in_ixp_facilities(self, plan, tiny_world):
        for ixp_id, vps in plan.items():
            facilities = tiny_world.ixp(ixp_id).facility_ids
            for vp in vps:
                assert vp.facility_id in facilities
                assert vp.ixp_id == ixp_id

    def test_lg_presence_rate_zero_removes_all_lgs(self, tiny_world):
        config = CampaignConfig(lg_presence_rate=0.0)
        plan = VantagePointPlanner(tiny_world, config).plan(sorted(tiny_world.ixps))
        kinds = {vp.kind for vps in plan.values() for vp in vps}
        assert VantagePointKind.LOOKING_GLASS not in kinds

    def test_internal_plan_guarantees_one_vp_per_ixp(self, tiny_world):
        planner = VantagePointPlanner(tiny_world, CampaignConfig())
        internal = planner.plan_internal(sorted(tiny_world.ixps))
        assert set(internal) == set(tiny_world.ixps)
        for ixp_id, vp in internal.items():
            assert vp.is_looking_glass
            assert not vp.rounds_rtt_up
            assert vp.facility_id in tiny_world.ixp(ixp_id).facility_ids

    def test_management_lan_probes_carry_extra_rtt(self, tiny_world):
        config = CampaignConfig(atlas_management_lan_rate=1.0, max_atlas_probes_per_ixp=3,
                                atlas_dead_probe_rate=0.0)
        plan = VantagePointPlanner(tiny_world, config).plan(sorted(tiny_world.ixps))
        probes = [vp for vps in plan.values() for vp in vps
                  if vp.kind is VantagePointKind.ATLAS_PROBE]
        assert probes
        assert all(vp.in_management_lan and vp.management_extra_rtt_ms > 0 for vp in probes)


class TestPingCampaign:
    def test_requires_at_least_one_ixp(self, tiny_world):
        with pytest.raises(MeasurementError):
            PingCampaign(tiny_world).run([])

    def test_control_campaign_measures_every_member(self, tiny_world):
        ixp = tiny_world.largest_ixps(1)[0]
        result = PingCampaign(tiny_world).run_control([ixp.ixp_id])
        queried = result.queried_interfaces(ixp.ixp_id)
        members = {m.interface_ip for m in tiny_world.active_memberships(ixp.ixp_id)}
        assert queried == members

    def test_control_campaign_local_members_are_fast(self, tiny_world):
        ixp = tiny_world.largest_ixps(1)[0]
        result = PingCampaign(tiny_world).run_control([ixp.ixp_id])
        local_ips = {m.interface_ip for m in tiny_world.active_memberships(ixp.ixp_id)
                     if not m.is_remote}
        slow_locals = 0
        measured = 0
        for series in result.series_for_ixp(ixp.ixp_id):
            if series.target_ip in local_ips and series.responded:
                measured += 1
                if series.min_rtt() > 2.0:
                    slow_locals += 1
        assert measured > 0
        assert slow_locals / measured < 0.25

    def test_rounds_respected(self, tiny_world):
        config = CampaignConfig(ping_rounds=5)
        ixp = tiny_world.largest_ixps(1)[0]
        result = PingCampaign(tiny_world, config).run_control([ixp.ixp_id])
        for series in result.series:
            assert len(series.samples) <= 5

    def test_route_server_series_present_per_vp(self, tiny_world):
        ixp = tiny_world.largest_ixps(1)[0]
        result = PingCampaign(tiny_world).run_control([ixp.ixp_id])
        for vp_id in result.vantage_points:
            assert result.route_server_series_for_vp(vp_id) is not None

    def test_dead_probes_never_respond(self, tiny_world):
        config = CampaignConfig(atlas_dead_probe_rate=1.0, lg_presence_rate=0.0,
                                max_atlas_probes_per_ixp=2)
        campaign = PingCampaign(tiny_world, config)
        ixp = tiny_world.largest_ixps(1)[0]
        result = campaign.run([ixp.ixp_id])
        assert all(not series.responded for series in result.series)

    def test_lg_rounding_produces_integer_rtts(self, tiny_world):
        config = CampaignConfig(lg_integer_rounding_rate=1.0, lg_presence_rate=1.0,
                                max_atlas_probes_per_ixp=0)
        campaign = PingCampaign(tiny_world, config)
        ixp = tiny_world.largest_ixps(1)[0]
        result = campaign.run([ixp.ixp_id])
        for series in result.series:
            for sample in series.samples:
                assert sample.rtt_ms == int(sample.rtt_ms)
                assert sample.rtt_ms >= 1.0

    def test_remote_members_have_higher_rtts_than_local(self, tiny_world):
        ixp = tiny_world.largest_ixps(1)[0]
        result = PingCampaign(tiny_world).run_control([ixp.ixp_id])
        remote_ips = {m.interface_ip for m in tiny_world.active_memberships(ixp.ixp_id)
                      if m.is_remote}
        local, remote = [], []
        for series in result.series_for_ixp(ixp.ixp_id):
            if not series.responded:
                continue
            (remote if series.target_ip in remote_ips else local).append(series.min_rtt())
        assert local and remote
        assert sorted(remote)[len(remote) // 2] > sorted(local)[len(local) // 2]


class TestPingResultIndexes:
    def _result(self, rs_samples=()):
        return PingCampaignResult(
            series=[PingSeries(vp_id="vp-1", ixp_id="ixp-a", target_ip="185.1.0.1"),
                    PingSeries(vp_id="vp-2", ixp_id="ixp-a", target_ip="185.1.0.2")],
            route_server_series=[PingSeries(vp_id="vp-1", ixp_id="ixp-a",
                                            target_ip="185.1.0.250", samples=rs_samples)],
        )

    def test_indexed_accessors_match_linear_semantics(self):
        result = self._result()
        assert [s.target_ip for s in result.series_for_vp("vp-1")] == ["185.1.0.1"]
        assert len(result.series_for_ixp("ixp-a")) == 2
        assert result.series_for_ixp("ixp-z") == []
        assert result.route_server_series_for_vp("vp-1").target_ip == "185.1.0.250"
        assert result.route_server_series_for_vp("vp-9") is None

    def test_route_server_retries_merge_into_one_population(self):
        from repro.measurement.results import PingSample

        result = self._result(rs_samples=(PingSample(rtt_ms=0.4, reply_ttl=63),))
        first = result.route_server_series[0]
        retry = PingSeries(vp_id="vp-1", ixp_id="ixp-a", target_ip="185.1.0.250",
                           samples=(PingSample(rtt_ms=0.2, reply_ttl=63),
                                    PingSample(rtt_ms=0.5, reply_ttl=63)))
        result.add_route_server_series(retry)
        merged = result.route_server_series_for_vp("vp-1")
        # A VP's control samples are one population: a retried series must
        # not be silently ignored.
        assert [s.rtt_ms for s in merged.samples] == [0.4, 0.2, 0.5]
        assert merged.min_rtt() == pytest.approx(0.2)
        # The merge is a copy; the recorded series stay untouched.
        assert [s.rtt_ms for s in first.samples] == [0.4]
        assert [s.rtt_ms for s in retry.samples] == [0.2, 0.5]

    def test_unresponsive_first_control_series_rescued_by_retry(self):
        from repro.measurement.results import PingSample

        result = PingCampaignResult()
        dead = PingSeries(vp_id="vp-1", ixp_id="ixp-a", target_ip="185.1.0.250")
        result.add_route_server_series(dead)
        assert not result.route_server_series_for_vp("vp-1").responded
        retry = PingSeries(vp_id="vp-1", ixp_id="ixp-a", target_ip="185.1.0.250",
                           samples=(PingSample(rtt_ms=0.3, reply_ttl=63),))
        result.add_route_server_series(retry)
        assert result.route_server_series_for_vp("vp-1").responded

    def test_indexes_refresh_after_appends(self):
        result = self._result()
        assert len(result.series_for_vp("vp-2")) == 1  # build the indexes
        result.add_series(PingSeries(vp_id="vp-2", ixp_id="ixp-b", target_ip="185.2.0.1"))
        result.add_route_server_series(
            PingSeries(vp_id="vp-2", ixp_id="ixp-b", target_ip="185.2.0.250"))
        assert len(result.series_for_vp("vp-2")) == 2
        assert [s.target_ip for s in result.series_for_ixp("ixp-b")] == ["185.2.0.1"]
        assert result.route_server_series_for_vp("vp-2").target_ip == "185.2.0.250"
