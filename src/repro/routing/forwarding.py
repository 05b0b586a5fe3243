"""Expansion of AS-level paths into traceroute-style IP hop sequences.

A traceroute towards a destination reveals, for every router on the path, the
interface facing the previous hop.  The signature the paper's detection logic
relies on (Section 3.3) is the *IP triplet* around an IXP crossing::

    ... IP_a (border router of AS A)  IP_ixp (IXP LAN address of AS B)  IP_b (AS B) ...

This module produces exactly those sequences from the ground-truth world:
when an AS-level edge is realised over an IXP, the next hop after AS A's
border router is the IXP-LAN interface of AS B, followed by an interface of
AS B; private cross-connects and transit hops are expanded analogously.

Hot-potato behaviour: when two ASes share several IXPs, the exit IXP is the
one closest to the current position of the traffic with probability
``hot_potato_compliance``; otherwise a different (policy-driven) exchange is
picked — this is the knob behind the Section 6.4 experiment.

All per-hop geometry goes through a world-level
:class:`~repro.geo.worldindex.WorldDistanceIndex` (ground truth — kept
deliberately separate from the observed-dataset
:class:`~repro.geo.distindex.GeoDistanceIndex` the inference side uses): the
same inter-facility legs recur across every path of a corpus, so each
distance is computed once per world instead of once per hop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.config import require_fraction
from repro.exceptions import RoutingError
from repro.geo.delay_model import DelayModel
from repro.geo.worldindex import WorldDistanceIndex
from repro.netindex import LPMIndex, parse_prefix
from repro.routing.bgp import ASGraph, EdgeRealization, RealizationKind, RouteSelector
from repro.topology.entities import InterfaceKind, IXPMembership, Router
from repro.topology.world import World


@dataclass(frozen=True)
class ForwardingHop:
    """One hop of a simulated traceroute.

    Attributes
    ----------
    ip:
        Interface address revealed by the hop, or ``None`` when the hop did
        not answer (a ``*`` line in a real traceroute).
    asn:
        Ground-truth owner of the interface (kept for debugging and tests;
        the inference pipeline re-derives ownership from public data).
    rtt_ms:
        Round-trip time to this hop.
    is_ixp_lan:
        Whether the interface belongs to an IXP peering LAN.
    ixp_id:
        The IXP, for IXP-LAN hops.
    """

    ip: str | None
    asn: int | None
    rtt_ms: float
    is_ixp_lan: bool = False
    ixp_id: str | None = None


@dataclass
class ForwardingPath:
    """A full simulated traceroute."""

    source_asn: int
    destination_asn: int
    destination_ip: str
    hops: list[ForwardingHop] = field(default_factory=list)

    def hop_ips(self) -> list[str | None]:
        """The raw IP sequence (with ``None`` for unresponsive hops)."""
        return [hop.ip for hop in self.hops]

    def responded_hops(self) -> list[ForwardingHop]:
        """Hops that answered."""
        return [hop for hop in self.hops if hop.ip is not None]


class ForwardingSimulator:
    """Builds IP-level paths for AS-level routes.

    The world must not change once a simulator is built over it: the
    routed-prefix index and the per-router and per-AS memos are filled on
    first use and never refreshed.
    """

    def __init__(
        self,
        world: World,
        graph: ASGraph | None = None,
        *,
        delay_model: DelayModel | None = None,
        rng: random.Random | None = None,
        world_index: WorldDistanceIndex | None = None,
        hot_potato_compliance: float = 0.70,
        hop_loss_rate: float = 0.03,
        ixp_preference: float = 0.60,
    ) -> None:
        require_fraction(hot_potato_compliance, "hot_potato_compliance")
        require_fraction(hop_loss_rate, "hop_loss_rate")
        require_fraction(ixp_preference, "ixp_preference")
        if graph is not None and graph.world is not world:
            raise RoutingError("graph must be built over the same world")
        self.world = world
        self.graph = graph or ASGraph(world)
        self.selector = RouteSelector(self.graph)
        self.delay_model = delay_model or DelayModel()
        self.world_index = world_index or WorldDistanceIndex(world)
        if self.world_index.world is not world:
            raise RoutingError("world_index must be built over the same world")
        self._rng = rng or random.Random(world.seed + 777)
        self.hot_potato_compliance = hot_potato_compliance
        self.hop_loss_rate = hop_loss_rate
        self.ixp_preference = ixp_preference
        self._memberships_by_as_ixp: dict[tuple[int, str], IXPMembership] = {}
        for membership in world.memberships:
            if membership.departed_month is None:
                self._memberships_by_as_ixp[(membership.asn, membership.ixp_id)] = membership
        # Routed prefix -> origin AS, built on first use.
        self._routed_index: LPMIndex[int] | None = None
        # Router id -> backbone address and AS -> first router, filled on use.
        self._backbone_ips: dict[str, str | None] = {}
        self._first_routers: dict[int, Router] = {}

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def traceroute(self, source_asn: int, destination_ip: str) -> ForwardingPath:
        """Simulate one traceroute from an AS towards a destination IP."""
        destination_asn = self._asn_for_destination(destination_ip)
        as_path = self.selector.select_path(source_asn, destination_asn)
        return self._expand(as_path, destination_ip)

    def traceroute_along(self, as_path: list[int], destination_ip: str) -> ForwardingPath:
        """Expand an explicit AS path (used by campaigns that precompute paths)."""
        if not as_path:
            raise RoutingError("AS path must not be empty")
        return self._expand(as_path, destination_ip)

    def destination_ip_for(self, asn: int) -> str:
        """A pingable address inside the first routed prefix of an AS."""
        prefixes = self.world.prefixes_of_as(asn)
        if not prefixes:
            raise RoutingError(f"AS{asn} originates no prefixes")
        network = prefixes[0]
        base = network.split("/")[0]
        octets = base.split(".")
        octets[-1] = "1"
        return ".".join(octets)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _asn_for_destination(self, destination_ip: str) -> int:
        """Origin AS of the longest routed prefix holding the address."""
        if self._routed_index is None:
            self._routed_index = LPMIndex(
                (parse_prefix(prefix), asn)
                for prefix, asn in self.world.routed_prefixes.items())
        asn = self._routed_index.lookup(destination_ip)
        if asn is None:
            raise RoutingError(
                f"destination {destination_ip} is not in any routed prefix")
        return asn

    def _first_router(self, asn: int) -> Router:
        router = self._first_routers.get(asn)
        if router is None:
            routers = self.world.routers_of_as(asn)
            if not routers:
                raise RoutingError(f"AS{asn} has no routers")
            router = self._first_routers[asn] = routers[0]
        return router

    def _backbone_ip(self, router: Router) -> str | None:
        try:
            return self._backbone_ips[router.router_id]
        except KeyError:
            pass
        found = None
        for ip in router.interface_ips:
            interface = self.world.interfaces.get(ip)
            if interface is not None and interface.kind is InterfaceKind.BACKBONE:
                found = ip
                break
        self._backbone_ips[router.router_id] = found
        return found

    def _choose_realization(self, a: int, b: int) -> EdgeRealization:
        ixp_options: list[EdgeRealization] = []
        private_options: list[EdgeRealization] = []
        transit: EdgeRealization | None = None
        for realization in self.graph.realizations(a, b):
            if realization.kind is RealizationKind.IXP:
                ixp_options.append(realization)
            elif realization.kind is RealizationKind.PRIVATE:
                private_options.append(realization)
            elif transit is None:
                transit = realization
        if ixp_options and ((transit is None and not private_options)
                            or self._rng.random() < self.ixp_preference):
            return self._rng.choice(ixp_options)
        if private_options:
            return self._rng.choice(private_options)
        if transit is not None:
            return transit
        raise RoutingError(f"AS{a} and AS{b} are not adjacent")

    def _choose_ixp(self, current_facility_id: str, asn: int, candidates: list[str]) -> str:
        """Hot-potato (closest exit) IXP choice, with policy deviations.

        ``candidates`` are sorted by id, so a distance tie goes to the
        smallest id.
        """
        if len(candidates) == 1:
            return candidates[0]
        distances: dict[str, float] = {}
        for ixp_id in candidates:
            membership = self._memberships_by_as_ixp[(asn, ixp_id)]
            distances[ixp_id] = self.world_index.facility_pair_km(
                current_facility_id, membership.member_facility_id)
        closest = min(candidates, key=lambda i: distances[i])
        if self._rng.random() < self.hot_potato_compliance:
            return closest
        others = [c for c in candidates if c != closest]
        return self._rng.choice(others)

    def _hop(self, ip: str | None, asn: int, cumulative_km: float,
             is_ixp_lan: bool = False, ixp_id: str | None = None) -> ForwardingHop:
        """One hop ``cumulative_km`` along the path: its RTT draw, then its loss draw."""
        rtt = self.delay_model.sample_rtt_ms(cumulative_km, self._rng, jitter_ms=0.4)
        if ip is not None and self._rng.random() < self.hop_loss_rate:
            ip = None
        return ForwardingHop(ip, asn, rtt, is_ixp_lan, ixp_id)

    def _expand(self, as_path: list[int], destination_ip: str) -> ForwardingPath:
        """Expand an AS path into the hops a traceroute would reveal.

        The corpus bytes depend on the order of the RNG draws: per edge, the
        realization draws, then, for an IXP crossing, the exit-IXP draws,
        then each of the edge's hops in path order (:meth:`_hop`).
        """
        hop = self._hop
        facility_pair_km = self.world_index.facility_pair_km
        backbone_ip = self._backbone_ip
        router_of = self.world.router
        memberships = self._memberships_by_as_ixp

        path = ForwardingPath(as_path[0], as_path[-1], destination_ip)
        hops = path.hops
        # First hop: the source border router answering from a backbone interface.
        current = self._first_router(as_path[0])
        cumulative_km = 0.0
        hops.append(hop(backbone_ip(current), as_path[0], cumulative_km))
        for here, there in zip(as_path, as_path[1:]):
            realization = self._choose_realization(here, there)
            kind = realization.kind
            if kind is RealizationKind.TRANSIT:
                entry = self._first_router(there)
            else:
                ixp_id: str | None = None
                if kind is RealizationKind.IXP:
                    ixp_id = self._choose_ixp(
                        current.facility_id, here, self.graph.common_ixps(here, there))
                    exit_router = router_of(memberships[(here, ixp_id)].router_id)
                    entry_membership = memberships[(there, ixp_id)]
                    entry = router_of(entry_membership.router_id)
                    entry_ip = entry_membership.interface_ip
                else:
                    link = self.world.private_links[realization.private_link_index]
                    if link.asn_a == here:
                        exit_router = router_of(link.router_a)
                        entry, entry_ip = router_of(link.router_b), link.interface_b
                    else:
                        exit_router = router_of(link.router_b)
                        entry, entry_ip = router_of(link.router_a), link.interface_a
                if exit_router.router_id != current.router_id:
                    # Same-facility moves add exactly 0 km.
                    if exit_router.facility_id != current.facility_id:
                        cumulative_km += facility_pair_km(
                            current.facility_id, exit_router.facility_id)
                    current = exit_router
                    hops.append(hop(backbone_ip(exit_router), here, cumulative_km))
            if entry.facility_id != current.facility_id:
                cumulative_km += facility_pair_km(current.facility_id, entry.facility_id)
            current = entry
            if kind is not RealizationKind.TRANSIT:
                # The far side's interface on the IXP LAN or the cross-connect.
                hops.append(hop(entry_ip, there, cumulative_km, ixp_id is not None, ixp_id))
            hops.append(hop(backbone_ip(entry), there, cumulative_km))

        # Final hop: the destination address itself.
        hops.append(hop(destination_ip, as_path[-1], cumulative_km))
        return path
