"""Unit tests for traceroute campaigns, Y.1731 monitoring and Periscope."""

import pytest

from repro.config import CampaignConfig, GeneratorConfig
from repro.exceptions import MeasurementError, RoutingError, VantagePointError
from repro.measurement.periscope import PeriscopeClient
from repro.measurement.traceroute import TracerouteCampaign
from repro.measurement.vantage import VantagePointKind, VantagePointPlanner
from repro.measurement.y1731 import Y1731Monitor
from repro.routing.bgp import ASGraph
from repro.topology.generator import WorldGenerator


@pytest.fixture(scope="module")
def corpus(tiny_world):
    campaign = TracerouteCampaign(tiny_world, CampaignConfig(
        traceroute_sources_per_ixp=5, traceroute_destinations_per_source=8))
    ixp_ids = [ixp.ixp_id for ixp in tiny_world.largest_ixps(3)]
    return campaign.run_public_corpus(ixp_ids)


class TestTracerouteCampaign:
    def test_corpus_is_non_empty(self, corpus):
        assert len(corpus) > 0

    def test_probes_are_ixp_members(self, corpus, tiny_world):
        member_asns = {m.asn for m in tiny_world.memberships}
        assert all(path.source_asn in member_asns for path in corpus.paths)

    def test_paths_have_hops(self, corpus):
        assert all(path.hops for path in corpus.paths)

    def test_requires_ixps(self, tiny_world):
        with pytest.raises(MeasurementError):
            TracerouteCampaign(tiny_world).run_public_corpus([])

    def test_run_pairs_traces_requested_sources(self, tiny_world):
        campaign = TracerouteCampaign(tiny_world, CampaignConfig())
        asns = sorted({m.asn for m in tiny_world.memberships})[:4]
        pairs = [(asns[0], asns[1]), (asns[2], asns[3])]
        corpus = campaign.run_pairs(pairs)
        assert {p.source_asn for p in corpus.paths} <= {asns[0], asns[2]}

    def test_paths_from_filter(self, corpus):
        source = corpus.paths[0].source_asn
        assert all(p.source_asn == source for p in corpus.paths_from(source))

    def test_graph_of_another_world_rejected(self, tiny_world, tiny_world_alt):
        with pytest.raises(RoutingError, match="same world"):
            TracerouteCampaign(tiny_world, graph=ASGraph(tiny_world_alt))

    def test_destination_without_prefixes_is_skipped(self):
        # A private world: the shared tiny_world must not be edited.
        world = WorldGenerator(GeneratorConfig.tiny(seed=7)).generate()
        asns = sorted({m.asn for m in world.memberships})
        silent = asns[1]
        for prefix in world.prefixes_of_as(silent):
            del world.routed_prefixes[prefix]
        world.reindex()
        campaign = TracerouteCampaign(world, CampaignConfig())
        corpus = campaign.run_pairs([(asns[0], silent), (asns[0], asns[2])])
        assert [p.destination_asn for p in corpus.paths] == [asns[2]]

    def test_simulator_errors_are_not_swallowed(self, tiny_world, monkeypatch):
        campaign = TracerouteCampaign(tiny_world, CampaignConfig())

        def broken(asn):
            raise KeyError(asn)

        monkeypatch.setattr(campaign.simulator, "destination_ip_for", broken)
        asns = sorted({m.asn for m in tiny_world.memberships})
        with pytest.raises(KeyError):
            campaign.run_pairs([(asns[0], asns[1])])


class TestY1731:
    def test_matrix_covers_all_pairs(self, tiny_world):
        ixp_id = max(tiny_world.ixps,
                     key=lambda i: len(tiny_world.ixp(i).facility_ids))
        ixp = tiny_world.ixp(ixp_id)
        matrix = Y1731Monitor(tiny_world).measure(ixp_id)
        n = len(ixp.facility_ids)
        assert len(matrix.pairs()) == n * (n - 1) // 2

    def test_rtt_scales_with_distance(self, tiny_world):
        ixp_id = max(tiny_world.ixps,
                     key=lambda i: tiny_world.max_ixp_facility_distance_km(i))
        matrix = Y1731Monitor(tiny_world).measure(ixp_id)
        samples = matrix.samples()
        near = [rtt for d, rtt in samples if d < 50.0]
        far = [rtt for d, rtt in samples if d > 500.0]
        if near and far:
            assert min(far) > max(near) * 0.5
            assert sum(far) / len(far) > sum(near) / len(near)

    def test_single_facility_ixp_rejected(self, tiny_world):
        single = next((i for i in tiny_world.ixps
                       if len(tiny_world.ixp(i).facility_ids) < 2), None)
        if single is None:
            pytest.skip("every IXP has at least two facilities in this world")
        with pytest.raises(MeasurementError):
            Y1731Monitor(tiny_world).measure(single)

    def test_fraction_above_threshold(self, tiny_world):
        ixp_id = max(tiny_world.ixps,
                     key=lambda i: tiny_world.max_ixp_facility_distance_km(i))
        matrix = Y1731Monitor(tiny_world).measure(ixp_id)
        assert 0.0 <= matrix.fraction_above(10.0) <= 1.0
        assert matrix.fraction_above(0.0) == 1.0

    def test_invalid_rounds_rejected(self, tiny_world):
        with pytest.raises(MeasurementError):
            Y1731Monitor(tiny_world, rounds=0)


class TestPeriscope:
    def _lg(self, tiny_world):
        planner = VantagePointPlanner(tiny_world, CampaignConfig(lg_presence_rate=1.0))
        plan = planner.plan_internal(sorted(tiny_world.ixps))
        return next(iter(plan.values()))

    def test_only_looking_glasses_accepted(self, tiny_world):
        client = PeriscopeClient(world=tiny_world)
        planner = VantagePointPlanner(tiny_world, CampaignConfig(max_atlas_probes_per_ixp=3,
                                                                 atlas_dead_probe_rate=0.0,
                                                                 lg_presence_rate=0.0))
        plan = planner.plan(sorted(tiny_world.ixps))
        atlas = next(vp for vps in plan.values() for vp in vps
                     if vp.kind is VantagePointKind.ATLAS_PROBE)
        with pytest.raises(VantagePointError):
            client.submit(atlas, "185.1.0.1")

    def test_queries_are_batched(self, tiny_world):
        client = PeriscopeClient(world=tiny_world, queries_per_batch=10)
        lg = self._lg(tiny_world)
        targets = list(tiny_world.interfaces)[:25]
        for target in targets:
            client.submit(lg, target)
        assert client.pending_count == 25
        replies = client.execute()
        assert client.pending_count == 0
        assert max(reply.batch_index for reply in replies) == 2

    def test_unknown_target_gets_no_rtt(self, tiny_world):
        client = PeriscopeClient(world=tiny_world)
        lg = self._lg(tiny_world)
        client.submit(lg, "203.0.113.99")
        replies = client.execute()
        assert replies[0].rtt_ms is None

    def test_invalid_batch_size_rejected(self, tiny_world):
        with pytest.raises(MeasurementError):
            PeriscopeClient(world=tiny_world, queries_per_batch=0)
