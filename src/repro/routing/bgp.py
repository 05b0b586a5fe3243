"""AS-level graph and route selection.

The graph combines three kinds of AS adjacencies, each remembered with the
way the adjacency is realised in the forwarding plane:

* **transit** — customer/provider relationships from the relationship graph;
* **private** — private interconnections (facility cross-connects);
* **ixp** — co-membership at an IXP (multilateral peering over the route
  server), one realization per common IXP, shared by every co-member pair.

Route selection is shortest AS path (breadth-first search with deterministic
neighbour ordering).  Relationship preferences beyond path length are not
modelled — the experiments that need routing only require plausible paths
that cross IXPs and private links, not a full Gao-Rexford simulation; the
policy-versus-hot-potato behaviour the paper studies in Section 6.4 is
modelled at the *realization* level in the forwarding simulator.

The graph never changes once built, so its adjacency is frozen into one int
bitmask per AS: bit *i* stands for the *i*-th smallest ASN.  A BFS expansion
is then a single ``mask & unvisited``, and visiting the fresh bits lowest
first is exactly the sorted-neighbour order.
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
    """

    def __init__(self, world: World) -> None:
        self.world = world
        self._realizations: dict[tuple[int, int], list[EdgeRealization]] = defaultdict(list)
        self._build()

    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        neighbours: dict[int, set[int]] = defaultdict(set)
        realizations = self._realizations

        def add_edge(a: int, b: int, realization: EdgeRealization) -> None:
            neighbours[a].add(b)
            neighbours[b].add(a)
            realizations[(a, b)].append(realization)
            realizations[(b, a)].append(realization)

        relationships = self.world.relationships
        transit = EdgeRealization(kind=RealizationKind.TRANSIT)
        for asn in self.world.ases:
            neighbours.setdefault(asn, set())
            for provider in relationships.providers_of(asn):
                add_edge(asn, provider, transit)
        for index, link in enumerate(self.world.private_links):
            add_edge(
                link.asn_a,
                link.asn_b,
                EdgeRealization(kind=RealizationKind.PRIVATE, private_link_index=index),
            )
        for ixp_id in self.world.ixps:
            members = self.world.active_memberships(ixp_id)
            asns = sorted({m.asn for m in members})
            crossing = EdgeRealization(kind=RealizationKind.IXP, ixp_id=ixp_id)
            for i, a in enumerate(asns):
                for b in asns[i + 1:]:
                    add_edge(a, b, crossing)

        self._asns: tuple[int, ...] = tuple(sorted(neighbours))
        self._rank: dict[int, int] = {asn: rank for rank, asn in enumerate(self._asns)}
        self._masks: tuple[int, ...] = tuple(
            self._mask_of(neighbours[asn]) for asn in self._asns
        )

    def _mask_of(self, asns: Iterable[int]) -> int:
        """Bitmask over ranks of the given ASNs (ASNs not in the graph are skipped)."""
        rank = self._rank
        mask = 0
        for asn in asns:
            if asn in rank:
                mask |= 1 << rank[asn]
        return mask

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
        """All realizations of the edge between two adjacent ASes."""
        return list(self._realizations.get((a, b), []))

    def common_ixps(self, a: int, b: int) -> list[str]:
        """IXPs at which both ASes are active members."""
        return sorted(
            r.ixp_id for r in self._realizations.get((a, b), [])
            if r.kind is RealizationKind.IXP and r.ixp_id is not None
        )

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
