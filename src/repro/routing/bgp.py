"""AS-level graph and route selection.

The graph combines three kinds of AS adjacencies, each remembered with the
way the adjacency is realised in the forwarding plane:

* **transit** — customer/provider relationships from the relationship graph;
* **private** — private interconnections (facility cross-connects);
* **ixp** — co-membership at an IXP (multilateral peering over the route
  server): one shared realization per IXP, and the crossings of a pair are
  derived from the two members' IXP bitmasks rather than stored per pair.

Route selection is shortest AS path (breadth-first search with deterministic
neighbour ordering).  Relationship preferences beyond path length are not
modelled — the experiments that need routing only require plausible paths
that cross IXPs and private links, not a full Gao-Rexford simulation; the
policy-versus-hot-potato behaviour the paper studies in Section 6.4 is
modelled at the *realization* level in the forwarding simulator.

The graph never changes once built, so its adjacency is frozen into one int
bitmask per AS: bit *i* stands for the *i*-th smallest ASN.  A BFS expansion
is then a single ``mask & unvisited``, and visiting the fresh bits lowest
first is exactly the sorted-neighbour order.  IXP co-membership is a second
bitmask per AS, over IXP positions in ``World.ixps`` order: the IXPs two ASes
share are the set bits of the AND of their masks.
"""

from __future__ import annotations

import enum
from collections import defaultdict, deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.exceptions import RoutingError
from repro.topology.world import World


class RealizationKind(enum.Enum):
    """How an AS-level adjacency is realised in the forwarding plane."""

    TRANSIT = "transit"
    PRIVATE = "private"
    IXP = "ixp"


@dataclass(frozen=True)
class EdgeRealization:
    """One concrete way to traverse an AS-level edge.

    Attributes
    ----------
    kind:
        Transit hop, private cross-connect or IXP crossing.
    ixp_id:
        The IXP, for ``IXP`` realizations.
    private_link_index:
        Index into ``World.private_links``, for ``PRIVATE`` realizations.
    """

    kind: RealizationKind
    ixp_id: str | None = None
    private_link_index: int | None = None


def _bit_ranks(mask: int) -> Iterator[int]:
    """Positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ASGraph:
    """Adjacency structure over ASNs with per-edge realizations.

    Nodes are ranked by ASN (``_asns[rank]``, ``_rank[asn]``) and
    ``_masks[rank]`` holds the node's neighbours as a bitmask over ranks.
    Transit and private realizations are stored once per pair, under the
    key ``(smaller ASN, larger ASN)``.  IXP crossings are not stored:
    ``_ixp_bits[asn]`` has bit *p* set when the AS is an active member of
    the *p*-th IXP of ``World.ixps``, whose one shared realization is
    ``_ixp_crossings[p]``.
    """

    def __init__(self, world: World) -> None:
        self.world = world
        self._realizations: dict[tuple[int, int], list[EdgeRealization]] = defaultdict(list)
        self._build()

    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        world = self.world
        relationships = world.relationships
        transit = EdgeRealization(RealizationKind.TRANSIT)
        edges: list[tuple[int, int, EdgeRealization]] = [
            (asn, provider, transit)
            for asn in world.ases
            for provider in relationships.providers_of(asn)
        ]
        edges += [
            (link.asn_a, link.asn_b, EdgeRealization(RealizationKind.PRIVATE, None, index))
            for index, link in enumerate(world.private_links)
        ]
        self._ixp_ids: tuple[str, ...] = tuple(world.ixps)
        self._ixp_crossings: tuple[EdgeRealization, ...] = tuple(
            EdgeRealization(RealizationKind.IXP, ixp_id) for ixp_id in self._ixp_ids
        )
        ixp_bits: dict[int, int] = {}
        member_sets: list[set[int]] = []
        for position, ixp_id in enumerate(self._ixp_ids):
            members = {m.asn for m in world.active_memberships(ixp_id)}
            member_sets.append(members)
            for asn in members:
                ixp_bits[asn] = ixp_bits.get(asn, 0) | (1 << position)
        self._ixp_bits: dict[int, int] = ixp_bits

        nodes = set(world.ases).union(ixp_bits)
        for a, b, _ in edges:
            nodes.add(a)
            nodes.add(b)
        self._asns: tuple[int, ...] = tuple(sorted(nodes))
        self._rank: dict[int, int] = {asn: rank for rank, asn in enumerate(self._asns)}
        rank = self._rank
        masks = [0] * len(self._asns)
        realizations = self._realizations
        for a, b, realization in edges:
            rank_a, rank_b = rank[a], rank[b]
            masks[rank_a] |= 1 << rank_b
            masks[rank_b] |= 1 << rank_a
            realizations[(a, b) if a <= b else (b, a)].append(realization)
        # Every member of an IXP is adjacent to every other member.
        for members in member_sets:
            member_mask = self._mask_of(members)
            for asn in members:
                masks[rank[asn]] |= member_mask ^ (1 << rank[asn])
        self._masks: tuple[int, ...] = tuple(masks)

    def _mask_of(self, asns: Iterable[int]) -> int:
        """Bitmask over ranks of the given ASNs (ASNs not in the graph are skipped)."""
        rank = self._rank
        mask = 0
        for asn in asns:
            if asn in rank:
                mask |= 1 << rank[asn]
        return mask

    def _shared_ixp_bits(self, a: int, b: int) -> int:
        """Bitmask over IXP positions of the IXPs two distinct ASes share."""
        if a == b:
            return 0
        return self._ixp_bits.get(a, 0) & self._ixp_bits.get(b, 0)

    # ------------------------------------------------------------------ #
    def neighbours(self, asn: int) -> list[int]:
        """Neighbours of an AS in ascending ASN order (empty for an unknown AS).

        Decoded from the AS's frozen adjacency bitmask, lowest rank first.
        """
        rank = self._rank.get(asn)
        if rank is None:
            return []
        asns = self._asns
        return [asns[r] for r in _bit_ranks(self._masks[rank])]

    def realizations(self, a: int, b: int) -> list[EdgeRealization]:
        """All realizations of the edge between two adjacent ASes.

        Transit first, then private links in ``World.private_links`` order,
        then one crossing per shared IXP in ``World.ixps`` order; the
        forwarding simulator's RNG draws depend on this order.
        """
        found = list(self._realizations.get((a, b) if a <= b else (b, a), ()))
        shared = self._shared_ixp_bits(a, b)
        while shared:
            low = shared & -shared
            found.append(self._ixp_crossings[low.bit_length() - 1])
            shared ^= low
        return found

    def common_ixps(self, a: int, b: int) -> list[str]:
        """IXPs at which both ASes are active members, sorted by id."""
        ixp_ids = self._ixp_ids
        return sorted(ixp_ids[p] for p in _bit_ranks(self._shared_ixp_bits(a, b)))

    def has_edge(self, a: int, b: int) -> bool:
        """True if the two ASes are adjacent in any way."""
        rank_a, rank_b = self._rank.get(a), self._rank.get(b)
        if rank_a is None or rank_b is None:
            return False
        return bool(self._masks[rank_a] >> rank_b & 1)

    @property
    def edge_count(self) -> int:
        """Number of undirected AS-level edges."""
        return sum(mask.bit_count() for mask in self._masks) // 2


class RouteSelector:
    """Shortest-AS-path route selection over an :class:`ASGraph`."""

    def __init__(self, graph: ASGraph) -> None:
        self.graph = graph

    def select_path(self, source_asn: int, destination_asn: int) -> list[int]:
        """Return the AS path from source to destination (inclusive).

        Raises
        ------
        RoutingError
            If no path exists or an endpoint is unknown.
        """
        if source_asn not in self.graph.world.ases:
            raise RoutingError(f"unknown source AS{source_asn}")
        if destination_asn not in self.graph.world.ases:
            raise RoutingError(f"unknown destination AS{destination_asn}")
        if source_asn == destination_asn:
            return [source_asn]
        parents = self._bfs_tree(source_asn, [destination_asn])
        if destination_asn not in parents:
            raise RoutingError(f"no path from AS{source_asn} to AS{destination_asn}")
        return self._walk_back(parents, source_asn, destination_asn)

    def paths_from(self, source_asn: int, destinations: list[int]) -> dict[int, list[int]]:
        """AS paths from one source towards many destinations.

        Runs one breadth-first search that stops as soon as every reachable
        destination has a parent, which is how the traceroute campaign keeps
        large fan-outs affordable.
        """
        if source_asn not in self.graph.world.ases:
            raise RoutingError(f"unknown source AS{source_asn}")
        parents = self._bfs_tree(source_asn, destinations)
        result: dict[int, list[int]] = {}
        for destination in destinations:
            if destination == source_asn:
                result[destination] = [source_asn]
            elif destination in parents:
                result[destination] = self._walk_back(parents, source_asn, destination)
        return result

    # ------------------------------------------------------------------ #
    def _bfs_tree(self, source_asn: int, targets: Iterable[int]) -> dict[int, int]:
        """BFS parents (ASN -> ASN) from ``source_asn``, bounded by ``targets``.

        Expands nodes in discovery order and discovers each node's fresh
        neighbours in ascending ASN order, so the tree is the one a full walk
        over sorted neighbour lists builds.  A node's parent is fixed when it
        is first discovered, so stopping once every target has a parent
        leaves every recorded parent unchanged.
        """
        graph = self.graph
        asns, masks = graph._asns, graph._masks
        source = graph._rank[source_asn]
        pending = graph._mask_of(targets) & ~(1 << source)
        unvisited = ((1 << len(asns)) - 1) ^ (1 << source)
        parents: dict[int, int] = {}
        queue: deque[int] = deque([source])
        while pending and queue:
            current = queue.popleft()
            fresh = masks[current] & unvisited
            if not fresh:
                continue
            unvisited ^= fresh
            pending &= unvisited
            parent = asns[current]
            for rank in _bit_ranks(fresh):
                parents[asns[rank]] = parent
                queue.append(rank)
        return parents

    @staticmethod
    def _walk_back(parents: dict[int, int], source_asn: int, destination_asn: int) -> list[int]:
        path = [destination_asn]
        while path[-1] != source_asn:
            path.append(parents[path[-1]])
        path.reverse()
        return path
