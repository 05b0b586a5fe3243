"""Unit tests for traceroute campaigns and Y.1731 monitoring."""

import gc

import pytest

from repro.config import CampaignConfig, GeneratorConfig
from repro.exceptions import MeasurementError, RoutingError
from repro.measurement.results import TracerouteCorpus
from repro.measurement.traceroute import TracerouteCampaign
from repro.measurement.y1731 import Y1731Monitor
from repro.routing.bgp import ASGraph
from repro.routing.forwarding import ForwardingHop, ForwardingPath
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


def _sample_paths():
    """Paths with unanswered hops, unknown ASes, an IXP hop and RTTs whose
    shortest repr has 17 significant digits."""
    return [
        ForwardingPath(source_asn=65001, destination_asn=65002, destination_ip="10.2.0.9",
                       hops=[ForwardingHop("10.1.0.9", 65001, 0.1 + 0.2),
                             ForwardingHop("185.1.0.2", 65002, 1 / 3, True, "ixp-a"),
                             ForwardingHop(None, 65002, 2.675),
                             ForwardingHop("10.2.0.9", None, 1e-300)]),
        ForwardingPath(source_asn=65003, destination_asn=65001, destination_ip="10.1.0.9",
                       hops=[ForwardingHop(None, None, 0.0),
                             ForwardingHop("10.1.0.9", 65001, 12345.678901234567)]),
        ForwardingPath(source_asn=65001, destination_asn=65003, destination_ip="10.3.0.9"),
    ]


def _tracked_objects_reachable_from(root):
    """GC-tracked objects reachable from ``root``, classes and modules aside."""
    seen = {id(root)}
    pending = [root]
    tracked = 0
    while pending:
        obj = pending.pop()
        tracked += gc.is_tracked(obj)
        for referent in gc.get_referents(obj):
            if id(referent) not in seen and not isinstance(referent, type):
                seen.add(id(referent))
                pending.append(referent)
    return tracked


class TestColumnarCorpus:
    def test_paths_round_trip_hop_for_hop(self, corpus):
        paths = [*_sample_paths(), *corpus.paths]
        stored = TracerouteCorpus(paths=paths).paths
        assert list(stored) == paths
        for copy, path in zip(stored, paths):
            assert (copy.source_asn, copy.destination_asn, copy.destination_ip) == (
                path.source_asn, path.destination_asn, path.destination_ip)
            assert copy.hops == path.hops
            assert [repr(hop.rtt_ms) for hop in copy.hops] == [
                repr(hop.rtt_ms) for hop in path.hops]
        assert stored[0].hops[1].is_ixp_lan and not stored[0].hops[0].is_ixp_lan
        assert stored[-1] == paths[-1]
        assert stored[1:3] == tuple(paths[1:3])
        with pytest.raises(IndexError):
            stored[len(paths)]

    def test_address_ids_are_assigned_in_first_seen_order(self):
        paths = _sample_paths()
        columns = TracerouteCorpus(paths=paths).address_columns()
        assert columns.addresses == (None, "10.1.0.9", "185.1.0.2", "10.2.0.9")
        assert columns.hop_ids == (1, 2, 0, 3, 0, 1)
        assert columns.offsets == (0, 4, 6, 6)

    def test_len_builds_no_path(self, monkeypatch):
        corpus = TracerouteCorpus(paths=_sample_paths())
        built = []
        from_columns = ForwardingPath.from_columns

        def counted(*args):
            built.append(args)
            return from_columns(*args)

        monkeypatch.setattr(ForwardingPath, "from_columns", counted)
        assert len(corpus.paths) == len(corpus) == 3
        assert built == []
        corpus.paths[0]
        assert len(built) == 1

    def test_a_view_holds_the_paths_appended_before_it(self):
        corpus = TracerouteCorpus(paths=_sample_paths()[:1])
        view = corpus.paths
        corpus.extend(_sample_paths()[1:])
        assert len(view) == 1 and len(corpus.paths) == 3
        assert [p.source_asn for p in corpus.paths_from(65001)] == [65001, 65001]

    def test_no_object_is_kept_per_hop_or_per_path(self):
        hops = _sample_paths()[0].hops

        def tracked(copies):
            corpus = TracerouteCorpus(paths=[
                ForwardingPath(source_asn=65001, destination_asn=65002,
                               destination_ip="10.2.0.9", hops=hops)
                for _ in range(copies)])
            corpus.address_columns()
            return _tracked_objects_reachable_from(corpus)

        assert tracked(10) == tracked(1000)

    @pytest.mark.parametrize("is_ixp_lan, ixp_id", [(True, None), (False, "ixp-a")])
    def test_a_hop_whose_lan_flag_disagrees_with_its_ixp_is_refused(
            self, is_ixp_lan, ixp_id):
        corpus = TracerouteCorpus(paths=_sample_paths())
        generation = corpus.generation
        columns = corpus.address_columns()

        def appended():
            yield _sample_paths()[0]
            yield ForwardingPath(
                source_asn=65001, destination_asn=65002, destination_ip="10.2.0.9",
                hops=[ForwardingHop("185.1.0.7", 65002, 1.0, is_ixp_lan, ixp_id)])

        with pytest.raises(RoutingError, match="is_ixp_lan"):
            corpus.extend(appended())
        assert corpus.generation == generation
        assert len(corpus) == 3
        assert corpus.address_columns() == columns

    def test_hop_columns_of_unequal_length_are_refused(self):
        with pytest.raises(RoutingError, match="one length"):
            ForwardingPath.from_columns(
                65001, 65002, "10.2.0.9", ["10.1.0.9", "10.2.0.9"], [65001], [1.0, 2.0],
                [None, None])

    def test_extend_bumps_the_generation_once(self):
        corpus = TracerouteCorpus()
        generation = corpus.generation
        corpus.extend(_sample_paths())
        assert corpus.generation == generation + 1
        assert len(corpus) == 3


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

