"""Unit tests for the AS graph, route selection and forwarding expansion."""

import random
from collections import defaultdict, deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GeneratorConfig
from repro.exceptions import ConfigurationError, RoutingError
from repro.routing.bgp import ASGraph, EdgeRealization, RealizationKind, RouteSelector
from repro.routing.forwarding import ForwardingSimulator
from repro.topology.entities import InterfaceKind
from repro.topology.generator import WorldGenerator


@pytest.fixture(scope="module")
def graph(tiny_world):
    return ASGraph(tiny_world)


@pytest.fixture(scope="module")
def selector(graph):
    return RouteSelector(graph)


@pytest.fixture(scope="module")
def simulator(tiny_world, graph):
    return ForwardingSimulator(tiny_world, graph, rng=random.Random(3))


class TestASGraph:
    def test_every_as_is_a_node(self, graph, tiny_world):
        for asn in tiny_world.ases:
            assert graph.neighbours(asn) is not None

    def test_transit_edges_present(self, graph, tiny_world):
        asn = next(a for a in tiny_world.ases if tiny_world.relationships.providers_of(a))
        provider = next(iter(tiny_world.relationships.providers_of(asn)))
        assert graph.has_edge(asn, provider)

    def test_ixp_co_members_are_adjacent(self, graph, tiny_world):
        ixp = tiny_world.largest_ixps(1)[0]
        members = [m.asn for m in tiny_world.active_memberships(ixp.ixp_id)]
        assert graph.has_edge(members[0], members[1])
        assert ixp.ixp_id in graph.common_ixps(members[0], members[1])

    def test_realizations_have_kinds(self, graph, tiny_world):
        ixp = tiny_world.largest_ixps(1)[0]
        members = [m.asn for m in tiny_world.active_memberships(ixp.ixp_id)]
        kinds = {r.kind for r in graph.realizations(members[0], members[1])}
        assert RealizationKind.IXP in kinds

    def test_edge_count_positive(self, graph):
        assert graph.edge_count > 0

    def test_ixp_co_members_share_one_realization_per_ixp(self, graph, tiny_world):
        ixp = tiny_world.largest_ixps(1)[0]
        members = sorted({m.asn for m in tiny_world.active_memberships(ixp.ixp_id)})
        crossings = {
            id(r)
            for a, b in zip(members, members[1:])
            for r in graph.realizations(a, b)
            if r.kind is RealizationKind.IXP and r.ixp_id == ixp.ixp_id
        }
        assert len(crossings) == 1


class TestRouteSelector:
    def test_path_endpoints(self, selector, tiny_world):
        asns = sorted(tiny_world.ases)
        path = selector.select_path(asns[0], asns[-1])
        assert path[0] == asns[0]
        assert path[-1] == asns[-1]

    def test_path_to_self(self, selector, tiny_world):
        asn = next(iter(tiny_world.ases))
        assert selector.select_path(asn, asn) == [asn]

    def test_consecutive_path_nodes_are_adjacent(self, selector, graph, tiny_world):
        asns = sorted(tiny_world.ases)
        path = selector.select_path(asns[3], asns[-3])
        for a, b in zip(path, path[1:]):
            assert graph.has_edge(a, b)

    def test_unknown_source_rejected(self, selector):
        with pytest.raises(RoutingError):
            selector.select_path(1, 2)
        with pytest.raises(RoutingError):
            selector.paths_from(1, [2])

    def test_paths_from_many_destinations(self, selector, tiny_world):
        asns = sorted(tiny_world.ases)
        paths = selector.paths_from(asns[0], asns[1:20])
        assert paths
        for destination, path in paths.items():
            assert path[0] == asns[0]
            assert path[-1] == destination

    def test_bfs_path_is_shortest(self, selector, graph, tiny_world):
        # A directly adjacent pair must get a two-hop AS path.
        ixp = tiny_world.largest_ixps(1)[0]
        members = [m.asn for m in tiny_world.active_memberships(ixp.ixp_id)]
        path = selector.select_path(members[0], members[1])
        assert len(path) == 2


# ---------------------------------------------------------------------- #
# Reference route selection: adjacency sets, sorted neighbour lists, a full
# BFS walk and an early return at a single ``stop_at`` target.  The graph's
# bitmask adjacency and the destination-bounded BFS must reproduce it.
# ---------------------------------------------------------------------- #
def _reference_adjacency(world):
    neighbours = defaultdict(set)

    def add_edge(a, b):
        neighbours[a].add(b)
        neighbours[b].add(a)

    for asn in world.ases:
        neighbours.setdefault(asn, set())
        for provider in world.relationships.providers_of(asn):
            add_edge(asn, provider)
    for link in world.private_links:
        add_edge(link.asn_a, link.asn_b)
    for ixp_id in world.ixps:
        asns = sorted({m.asn for m in world.active_memberships(ixp_id)})
        for i, a in enumerate(asns):
            for b in asns[i + 1:]:
                add_edge(a, b)
    return neighbours


def _reference_realizations(world):
    """The pairwise build: one realization list per directed adjacent pair.

    Every co-member pair at an IXP holds that IXP's one shared crossing,
    appended after the pair's transit and private realizations.
    """
    realizations = defaultdict(list)

    def add_edge(a, b, realization):
        realizations[(a, b)].append(realization)
        realizations[(b, a)].append(realization)

    transit = EdgeRealization(kind=RealizationKind.TRANSIT)
    for asn in world.ases:
        for provider in world.relationships.providers_of(asn):
            add_edge(asn, provider, transit)
    for index, link in enumerate(world.private_links):
        add_edge(link.asn_a, link.asn_b, EdgeRealization(
            kind=RealizationKind.PRIVATE, private_link_index=index))
    for ixp_id in world.ixps:
        crossing = EdgeRealization(kind=RealizationKind.IXP, ixp_id=ixp_id)
        asns = sorted({m.asn for m in world.active_memberships(ixp_id)})
        for i, a in enumerate(asns):
            for b in asns[i + 1:]:
                add_edge(a, b, crossing)
    return realizations


def _reference_bfs_tree(adjacency, source_asn, stop_at):
    parents = {}
    visited = {source_asn}
    queue = deque([source_asn])
    while queue:
        current = queue.popleft()
        for neighbour in sorted(adjacency.get(current, set())):
            if neighbour in visited:
                continue
            visited.add(neighbour)
            parents[neighbour] = current
            if stop_at is not None and neighbour == stop_at:
                return parents
            queue.append(neighbour)
    return parents


def _reference_walk_back(parents, source_asn, destination_asn):
    path = [destination_asn]
    while path[-1] != source_asn:
        path.append(parents[path[-1]])
    path.reverse()
    return path


def _reference_select_path(world, adjacency, source_asn, destination_asn):
    if source_asn not in world.ases or destination_asn not in world.ases:
        return None
    if source_asn == destination_asn:
        return [source_asn]
    parents = _reference_bfs_tree(adjacency, source_asn, stop_at=destination_asn)
    if destination_asn not in parents:
        return None
    return _reference_walk_back(parents, source_asn, destination_asn)


def _reference_paths_from(adjacency, source_asn, destinations):
    parents = _reference_bfs_tree(adjacency, source_asn, stop_at=None)
    result = {}
    for destination in destinations:
        if destination == source_asn:
            result[destination] = [source_asn]
        elif destination in parents:
            result[destination] = _reference_walk_back(parents, source_asn, destination)
    return result


def _select_or_none(selector, source_asn, destination_asn):
    try:
        return selector.select_path(source_asn, destination_asn)
    except RoutingError:
        return None


#: Stands for "the source AS itself" in a drawn destination list.
_SOURCE = -1


class TestReferenceEquivalence:
    @pytest.fixture(scope="class")
    def adjacency(self, tiny_world):
        return _reference_adjacency(tiny_world)

    def test_neighbours_are_sorted_reference_sets(self, graph, adjacency, tiny_world):
        for asn in sorted(adjacency):
            neighbours = graph.neighbours(asn)
            assert neighbours == sorted(neighbours)
            assert set(neighbours) == adjacency[asn]
        assert graph.neighbours(1) == []

    def test_has_edge_and_edge_count_match_reference(self, graph, adjacency):
        asns = sorted(adjacency) + [1]
        for a in asns:
            for b in asns:
                assert graph.has_edge(a, b) == (b in adjacency.get(a, set())), (a, b)
        assert graph.edge_count == sum(len(v) for v in adjacency.values()) // 2

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_paths_match_reference_for_every_source(self, selector, adjacency, tiny_world, data):
        asns = sorted(tiny_world.ases)
        drawn = data.draw(st.lists(
            st.one_of(
                st.sampled_from(asns),
                st.just(_SOURCE),
                st.integers(min_value=1, max_value=asns[0] - 1),
            ),
            max_size=10,
        ))
        for source in asns:
            destinations = [source if d == _SOURCE else d for d in drawn]
            # Every list carries the source and at least one duplicate.
            destinations += [source, destinations[0] if destinations else source]
            assert selector.paths_from(source, destinations) == _reference_paths_from(
                adjacency, source, destinations)
            for destination in destinations:
                assert _select_or_none(selector, source, destination) == (
                    _reference_select_path(tiny_world, adjacency, source, destination))


@pytest.fixture(scope="module")
def small_world(small_study):
    """The shared small study's world (seed 11)."""
    return small_study.world


@pytest.mark.parametrize("world_fixture", ["tiny_world", "small_world"])
class TestRealizationsMatchPairwiseReference:
    @pytest.fixture
    def world(self, world_fixture, request):
        return request.getfixturevalue(world_fixture)

    def test_every_adjacent_pair_in_both_directions(self, world):
        graph = ASGraph(world)
        reference = _reference_realizations(world)
        crossing_of = {}
        pairs = 0
        for a in graph._asns:
            for b in graph.neighbours(a):
                expected = reference.get((a, b), [])
                found = graph.realizations(a, b)
                assert found and found == expected, (a, b)
                for realization in found:
                    if realization.kind is RealizationKind.IXP:
                        shared = crossing_of.setdefault(realization.ixp_id, realization)
                        assert realization is shared
                assert graph.common_ixps(a, b) == sorted(
                    r.ixp_id for r in expected if r.kind is RealizationKind.IXP)
                pairs += 1
        assert pairs == sum(1 for key in reference if key[0] != key[1])
        assert pairs == 2 * graph.edge_count

    def test_self_non_adjacent_and_unknown_pairs_are_empty(self, world):
        graph = ASGraph(world)
        asns = graph._asns
        a = asns[0]
        stranger = next(b for b in asns[1:] if not graph.has_edge(a, b))
        member = next(m.asn for m in world.active_memberships() if m.asn in graph._ixp_bits)
        for x, y in [(a, stranger), (stranger, a), (member, member), (a, a),
                     (1, a), (a, 1), (1, 2)]:
            assert graph.realizations(x, y) == []
            assert graph.common_ixps(x, y) == []

    def test_non_adjacent_expansion_names_both_ases(self, world):
        graph = ASGraph(world)
        a = graph._asns[0]
        stranger = next(b for b in graph._asns[1:] if not graph.has_edge(a, b))
        simulator = ForwardingSimulator(world, graph, rng=random.Random(5))
        with pytest.raises(RoutingError, match=rf"AS{a}\b.*AS{stranger}\b"):
            simulator.traceroute_along([a, stranger], simulator.destination_ip_for(stranger))


class TestForwarding:
    def test_traceroute_reaches_destination(self, simulator, tiny_world):
        asns = sorted(tiny_world.ases)
        destination_ip = simulator.destination_ip_for(asns[-1])
        path = simulator.traceroute(asns[0], destination_ip)
        assert path.destination_ip == destination_ip
        responded = path.responded_hops()
        assert responded
        assert responded[-1].ip == destination_ip

    def test_hop_rtts_are_monotonic_enough(self, simulator, tiny_world):
        # Cumulative distance never shrinks, so the *propagation floor* of the
        # RTT should broadly increase along the path; allow jitter slack.
        asns = sorted(tiny_world.ases)
        destination_ip = simulator.destination_ip_for(asns[-2])
        path = simulator.traceroute(asns[1], destination_ip)
        rtts = [hop.rtt_ms for hop in path.hops]
        assert rtts[-1] >= rtts[0] - 2.0

    def test_ixp_crossing_triplet_structure(self, tiny_world, graph):
        # Force an IXP realization between two members and verify the classic
        # triplet: previous hop in member A, then member B's IXP interface,
        # then another interface of member B.
        simulator = ForwardingSimulator(tiny_world, graph, rng=random.Random(9),
                                        ixp_preference=1.0, hop_loss_rate=0.0)
        ixp = tiny_world.largest_ixps(1)[0]
        members = tiny_world.active_memberships(ixp.ixp_id)
        a, b = members[0].asn, members[1].asn
        destination_ip = simulator.destination_ip_for(b)
        path = simulator.traceroute_along([a, b], destination_ip)
        ixp_hops = [i for i, hop in enumerate(path.hops) if hop.is_ixp_lan]
        assert ixp_hops, "expected at least one IXP-LAN hop"
        index = ixp_hops[0]
        assert path.hops[index].asn == b
        assert path.hops[index - 1].asn == a
        assert path.hops[index + 1].asn == b

    def test_destination_as_is_the_longest_prefix_match(self):
        # A more-specific routed prefix nested inside a broader one owns the
        # addresses it covers, whichever was registered first.  A private
        # world: the shared tiny_world must not be edited.
        world = WorldGenerator(GeneratorConfig.tiny(seed=7)).generate()
        assert world.routed_prefixes["100.0.0.0/24"] == 1000
        world.routed_prefixes["100.0.0.64/26"] = 1001
        simulator = ForwardingSimulator(world, rng=random.Random(3))
        source = sorted(world.ases)[5]
        assert simulator.traceroute(source, "100.0.0.65").destination_asn == 1001
        assert simulator.traceroute(source, "100.0.0.1").destination_asn == 1000
        with pytest.raises(RoutingError, match="192.0.2.1"):
            simulator.traceroute(source, "192.0.2.1")

    def test_destination_ip_for_rejects_unknown_as(self, simulator):
        with pytest.raises(RoutingError):
            simulator.destination_ip_for(1)

    def test_empty_as_path_rejected(self, simulator):
        with pytest.raises(RoutingError):
            simulator.traceroute_along([], "100.0.0.1")

    def test_graph_of_another_world_rejected(self, tiny_world, tiny_world_alt):
        with pytest.raises(RoutingError, match="same world"):
            ForwardingSimulator(tiny_world, ASGraph(tiny_world_alt))

    @pytest.mark.parametrize("name", ["hot_potato_compliance", "hop_loss_rate", "ixp_preference"])
    @pytest.mark.parametrize("value", [-0.01, 1.01])
    def test_probability_outside_unit_interval_rejected(self, tiny_world, graph, name, value):
        with pytest.raises(ConfigurationError, match=name):
            ForwardingSimulator(tiny_world, graph, **{name: value})

    def test_hop_loss_produces_missing_hops(self, tiny_world, graph):
        simulator = ForwardingSimulator(tiny_world, graph, rng=random.Random(4),
                                        hop_loss_rate=1.0)
        asns = sorted(tiny_world.ases)
        destination_ip = simulator.destination_ip_for(asns[-1])
        path = simulator.traceroute(asns[0], destination_ip)
        assert all(hop.ip is None for hop in path.hops)

    def test_backbone_interfaces_used_for_entry_hops(self, simulator, tiny_world):
        asns = sorted(tiny_world.ases)
        destination_ip = simulator.destination_ip_for(asns[10])
        path = simulator.traceroute(asns[0], destination_ip)
        first_hop = path.hops[0]
        if first_hop.ip is not None:
            interface = tiny_world.interfaces[first_hop.ip]
            assert interface.kind in (InterfaceKind.BACKBONE, InterfaceKind.PRIVATE_PEERING)
