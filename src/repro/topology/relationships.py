"""AS business relationships and customer cones.

Section 6.2 of the paper characterises remote/local/hybrid IXP members by the
size of their CAIDA customer cone.  This module provides the substrate: a
relationship graph holding customer-to-provider (c2p) and peer-to-peer (p2p)
edges, plus the customer-cone computation (the set of ASes reachable by
walking provider->customer edges only).

The same graph also feeds the BGP-like path selection of
:mod:`repro.routing.path_selection` (Gao-Rexford preferences).
"""

from __future__ import annotations

import enum
from collections import defaultdict, deque
from dataclasses import dataclass

from repro.exceptions import TopologyError


class Relationship(enum.Enum):
    """Business relationship between two ASes."""

    CUSTOMER_TO_PROVIDER = "c2p"
    PEER_TO_PEER = "p2p"


@dataclass(frozen=True)
class RelationshipEdge:
    """One relationship record, CAIDA serialisation style.

    For ``CUSTOMER_TO_PROVIDER`` the edge is read "``customer`` buys transit
    from ``provider``"; for ``PEER_TO_PEER`` the two fields are just the two
    peers (order not meaningful).
    """

    first_asn: int
    second_asn: int
    relationship: Relationship


class ASRelationshipGraph:
    """Holds c2p / p2p edges and answers cone and neighbour queries.

    Each relationship lives in insertion-ordered ``dict[int, dict[int, None]]``
    neighbour maps, one key per AS in registration order and one inner key
    per neighbour in edge-insertion order.  Iteration order is behaviour:
    the sets returned below are built from those orders (``ASGraph._build``
    walks them) and :meth:`edges` feeds the CAIDA snapshot.
    """

    def __init__(self) -> None:
        # provider -> customers, customer -> providers, AS -> peers; every
        # registered AS has a key in all three.
        self._customers: dict[int, dict[int, None]] = {}
        self._providers: dict[int, dict[int, None]] = {}
        self._peers: dict[int, dict[int, None]] = {}
        self._cone_cache: dict[int, frozenset[int]] = {}

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_asn(self, asn: int) -> None:
        """Register an AS even if it has no relationships yet."""
        if asn not in self._customers:
            self._customers[asn] = {}
            self._providers[asn] = {}
            self._peers[asn] = {}

    def add_customer_provider(self, customer: int, provider: int) -> None:
        """Record that ``customer`` buys transit from ``provider``."""
        if customer == provider:
            raise TopologyError(f"AS{customer} cannot be its own provider")
        self.add_asn(customer)
        self.add_asn(provider)
        self._customers[provider][customer] = None
        self._providers[customer][provider] = None
        self._cone_cache.clear()

    def add_peering(self, asn_a: int, asn_b: int) -> None:
        """Record a settlement-free peering between two ASes."""
        if asn_a == asn_b:
            raise TopologyError(f"AS{asn_a} cannot peer with itself")
        self.add_asn(asn_a)
        self.add_asn(asn_b)
        self._peers[asn_a][asn_b] = None
        self._peers[asn_b][asn_a] = None

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    # The sets below are built from ``keys()`` views, one insert at a time:
    # ``set(a_dict)`` presizes its table instead and can iterate in another
    # order.

    @property
    def asns(self) -> set[int]:
        """All registered ASNs."""
        return set(self._customers.keys())

    def providers_of(self, asn: int) -> set[int]:
        """Direct transit providers of an AS."""
        return set(self._providers.get(asn, {}).keys())

    def customers_of(self, asn: int) -> set[int]:
        """Direct customers of an AS."""
        return set(self._customers.get(asn, {}).keys())

    def peers_of(self, asn: int) -> set[int]:
        """Settlement-free peers of an AS."""
        return set(self._peers.get(asn, {}).keys())

    def relationship_between(self, asn_a: int, asn_b: int) -> str | None:
        """Return the relationship from ``asn_a``'s point of view.

        Returns ``"c2p"`` if ``asn_a`` is a customer of ``asn_b``, ``"p2c"``
        if ``asn_a`` is a provider of ``asn_b``, ``"p2p"`` for settlement-free
        peering, or ``None`` if the two ASes have no direct relationship.
        """
        if self.is_provider_of(asn_b, asn_a):
            return "c2p"
        if self.is_provider_of(asn_a, asn_b):
            return "p2c"
        if asn_b in self._peers.get(asn_a, {}):
            return "p2p"
        return None

    def is_provider_of(self, provider: int, customer: int) -> bool:
        """True if ``provider`` sells transit to ``customer``."""
        return customer in self._customers.get(provider, {})

    # ------------------------------------------------------------------ #
    # Customer cones
    # ------------------------------------------------------------------ #
    def customer_cone(self, asn: int) -> frozenset[int]:
        """The customer cone of an AS (itself plus everything below it).

        Defined as in CAIDA's serial-1 dataset: the set of ASes reachable by
        following only provider->customer edges, including the AS itself.
        """
        if asn in self._cone_cache:
            return self._cone_cache[asn]
        if asn not in self._customers:
            cone = frozenset({asn})
            self._cone_cache[asn] = cone
            return cone
        visited: set[int] = {asn}
        queue: deque[int] = deque([asn])
        while queue:
            current = queue.popleft()
            for customer in self._customers[current]:
                if customer not in visited:
                    visited.add(customer)
                    queue.append(customer)
        cone = frozenset(visited)
        self._cone_cache[asn] = cone
        return cone

    def customer_cone_size(self, asn: int) -> int:
        """Number of ASes in the customer cone (including the AS itself)."""
        return len(self.customer_cone(asn))

    def all_cone_sizes(self) -> dict[int, int]:
        """Customer-cone size for every registered AS."""
        return {asn: self.customer_cone_size(asn) for asn in self.asns}

    # ------------------------------------------------------------------ #
    # Export / sanity
    # ------------------------------------------------------------------ #
    def edges(self) -> list[RelationshipEdge]:
        """Return every relationship as a list of records (CAIDA-dump style).

        Transit records come provider-major (providers in registration
        order, each provider's customers in insertion order); each peering
        comes once, from whichever endpoint was registered first.
        """
        records: list[RelationshipEdge] = []
        for provider, customers in self._customers.items():
            for customer in customers:
                records.append(
                    RelationshipEdge(
                        first_asn=customer,
                        second_asn=provider,
                        relationship=Relationship.CUSTOMER_TO_PROVIDER,
                    )
                )
        listed: set[int] = set()
        for a, peers in self._peers.items():
            for b in peers:
                if b not in listed:
                    records.append(
                        RelationshipEdge(
                            first_asn=a,
                            second_asn=b,
                            relationship=Relationship.PEER_TO_PEER,
                        )
                    )
            listed.add(a)
        return records

    def validate_acyclic(self) -> None:
        """Ensure the transit hierarchy has no customer/provider cycles.

        A depth-first walk down provider->customer edges; an edge back into
        the current walk closes a cycle, which the error names as its
        ``(provider, customer)`` edges.
        """
        finished: set[int] = set()
        for root in self._customers:
            if root in finished:
                continue
            # The walk's path (insertion-ordered) and one iterator per level.
            path: dict[int, None] = {root: None}
            pending = [iter(self._customers[root])]
            while pending:
                for customer in pending[-1]:
                    if customer in path:
                        nodes = list(path)
                        cycle = nodes[nodes.index(customer) :] + [customer]
                        edges = list(zip(cycle, cycle[1:]))
                        raise TopologyError(f"transit hierarchy contains a cycle: {edges}")
                    if customer not in finished:
                        path[customer] = None
                        pending.append(iter(self._customers[customer]))
                        break
                else:
                    finished.add(path.popitem()[0])
                    pending.pop()

    def degree_summary(self) -> dict[int, dict[str, int]]:
        """Per-AS neighbour counts, useful for analysis and tests."""
        summary: dict[int, dict[str, int]] = defaultdict(dict)
        for asn in self.asns:
            summary[asn] = {
                "providers": len(self.providers_of(asn)),
                "customers": len(self.customers_of(asn)),
                "peers": len(self.peers_of(asn)),
            }
        return dict(summary)
