"""The ground-truth world container.

A :class:`World` holds every entity of the synthetic Internet — facilities,
ASes, IXPs, resellers, routers, interfaces, memberships and the AS
relationship graph — and provides the lookup helpers the rest of the library
needs (facility locations, memberships per IXP, ground-truth labels for
validation, etc.).

A freshly generated world always passes :meth:`World.validate`, and the
hypothesis-based property tests assert that this stays true across seeds and
configurations.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.exceptions import TopologyError, UnknownEntityError
from repro.geo.coordinates import GeoPoint, geodesic_distance_km
from repro.topology.entities import (
    AutonomousSystem,
    ConnectionKind,
    Facility,
    Interface,
    InterfaceKind,
    IXP,
    IXPMembership,
    PortReseller,
    PrivateLink,
    Router,
)
from repro.topology.relationships import ASRelationshipGraph


@dataclass
class World:
    """Container for the entire synthetic ground truth.

    Attributes
    ----------
    seed:
        Seed used by the generator that built this world (kept for
        provenance in exports and experiment reports).
    facilities / ases / ixps / resellers / routers / interfaces:
        Entity dictionaries keyed by their natural identifier.
    memberships:
        Every (IXP, member AS) attachment, including the ground-truth
        connection kind.
    relationships:
        The AS business-relationship graph (customer cones, BGP preferences).
    routed_prefixes:
        Mapping of CIDR prefix string to the originating ASN.
    """

    seed: int = 0
    facilities: dict[str, Facility] = field(default_factory=dict)
    ases: dict[int, AutonomousSystem] = field(default_factory=dict)
    ixps: dict[str, IXP] = field(default_factory=dict)
    resellers: dict[str, PortReseller] = field(default_factory=dict)
    routers: dict[str, Router] = field(default_factory=dict)
    interfaces: dict[str, Interface] = field(default_factory=dict)
    memberships: list[IXPMembership] = field(default_factory=list)
    private_links: list[PrivateLink] = field(default_factory=list)
    relationships: ASRelationshipGraph = field(default_factory=ASRelationshipGraph)
    routed_prefixes: dict[str, int] = field(default_factory=dict)
    infrastructure_prefixes: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Index maintenance
    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        self._memberships_by_ixp: dict[str, list[IXPMembership]] = defaultdict(list)
        self._membership_by_interface: dict[str, IXPMembership] = {}
        self._routers_by_asn: dict[int, list[str]] = defaultdict(list)
        self._prefixes_by_asn: dict[int, list[str]] = defaultdict(list)
        self.reindex()

    def reindex(self) -> None:
        """Rebuild the derived lookup indexes after bulk mutation."""
        self._memberships_by_ixp = defaultdict(list)
        self._membership_by_interface = {}
        for membership in self.memberships:
            self._memberships_by_ixp[membership.ixp_id].append(membership)
            self._membership_by_interface[membership.interface_ip] = membership
        self._routers_by_asn = defaultdict(list)
        for router in self.routers.values():
            self._routers_by_asn[router.asn].append(router.router_id)
        self._prefixes_by_asn = defaultdict(list)
        for prefix, asn in self.routed_prefixes.items():
            self._prefixes_by_asn[asn].append(prefix)

    def add_membership(self, membership: IXPMembership) -> None:
        """Register a membership and keep the indexes up to date."""
        self.memberships.append(membership)
        self._memberships_by_ixp[membership.ixp_id].append(membership)
        self._membership_by_interface[membership.interface_ip] = membership

    # ------------------------------------------------------------------ #
    # Entity lookups
    # ------------------------------------------------------------------ #
    def facility(self, facility_id: str) -> Facility:
        """Return a facility by id, raising :class:`UnknownEntityError` if absent."""
        try:
            return self.facilities[facility_id]
        except KeyError as exc:
            raise UnknownEntityError(f"unknown facility {facility_id!r}") from exc

    def autonomous_system(self, asn: int) -> AutonomousSystem:
        """Return an AS by number."""
        try:
            return self.ases[asn]
        except KeyError as exc:
            raise UnknownEntityError(f"unknown AS{asn}") from exc

    def ixp(self, ixp_id: str) -> IXP:
        """Return an IXP by id."""
        try:
            return self.ixps[ixp_id]
        except KeyError as exc:
            raise UnknownEntityError(f"unknown IXP {ixp_id!r}") from exc

    def router(self, router_id: str) -> Router:
        """Return a router by id."""
        try:
            return self.routers[router_id]
        except KeyError as exc:
            raise UnknownEntityError(f"unknown router {router_id!r}") from exc

    def interface(self, ip: str) -> Interface:
        """Return an interface by IP address."""
        try:
            return self.interfaces[ip]
        except KeyError as exc:
            raise UnknownEntityError(f"unknown interface {ip!r}") from exc

    def facility_location(self, facility_id: str) -> GeoPoint:
        """Coordinates of a facility."""
        return self.facility(facility_id).location

    # ------------------------------------------------------------------ #
    # Membership queries
    # ------------------------------------------------------------------ #
    def members_of(self, ixp_id: str) -> list[IXPMembership]:
        """All memberships of an IXP (raises if the IXP is unknown)."""
        self.ixp(ixp_id)
        return list(self._memberships_by_ixp.get(ixp_id, []))

    def membership_for_interface(self, interface_ip: str) -> IXPMembership:
        """The membership owning a given IXP-LAN interface address."""
        try:
            return self._membership_by_interface[interface_ip]
        except KeyError as exc:
            raise UnknownEntityError(f"no membership for interface {interface_ip!r}") from exc

    def active_memberships(self, ixp_id: str | None = None) -> list[IXPMembership]:
        """Memberships that have not departed, optionally restricted to one IXP."""
        pool = self.members_of(ixp_id) if ixp_id is not None else self.memberships
        return [m for m in pool if m.departed_month is None]

    def routers_of_as(self, asn: int) -> list[Router]:
        """Every router owned by one AS."""
        return [self.routers[rid] for rid in self._routers_by_asn.get(asn, [])]

    def prefixes_of_as(self, asn: int) -> list[str]:
        """Prefixes originated by one AS."""
        return list(self._prefixes_by_asn.get(asn, []))

    def ixps_by_member_count(self) -> list[IXP]:
        """IXPs ordered by decreasing number of members."""
        return sorted(
            self.ixps.values(),
            key=lambda ixp: (-len(self._memberships_by_ixp.get(ixp.ixp_id, [])), ixp.ixp_id),
        )

    def largest_ixps(self, count: int) -> list[IXP]:
        """The ``count`` IXPs with the most members."""
        return self.ixps_by_member_count()[:count]

    # ------------------------------------------------------------------ #
    # Geography helpers
    # ------------------------------------------------------------------ #
    def ixp_facility_locations(self, ixp_id: str) -> dict[str, GeoPoint]:
        """Facility-id -> coordinates for all facilities of one IXP."""
        ixp = self.ixp(ixp_id)
        return {fid: self.facility_location(fid) for fid in sorted(ixp.facility_ids)}

    def max_ixp_facility_distance_km(self, ixp_id: str) -> float:
        """Maximum pairwise distance between the facilities of an IXP."""
        locations = list(self.ixp_facility_locations(ixp_id).values())
        best = 0.0
        for i, a in enumerate(locations):
            for b in locations[i + 1:]:
                best = max(best, geodesic_distance_km(a, b))
        return best

    def distance_between_facilities_km(self, facility_a: str, facility_b: str) -> float:
        """Geodesic distance between two facilities."""
        return geodesic_distance_km(
            self.facility_location(facility_a), self.facility_location(facility_b)
        )

    # ------------------------------------------------------------------ #
    # Summary statistics
    # ------------------------------------------------------------------ #
    def remote_share(self, ixp_id: str | None = None) -> float:
        """Fraction of memberships whose ground truth is remote.

        Restricted to one IXP when ``ixp_id`` is given, global otherwise.
        Returns 0.0 when there are no memberships in scope.
        """
        pool = self.active_memberships(ixp_id)
        if not pool:
            return 0.0
        remote = sum(1 for m in pool if m.is_remote)
        return remote / len(pool)

    def summary(self) -> dict[str, int]:
        """Entity counts, handy for logging and experiment provenance."""
        return {
            "facilities": len(self.facilities),
            "ases": len(self.ases),
            "ixps": len(self.ixps),
            "resellers": len(self.resellers),
            "routers": len(self.routers),
            "interfaces": len(self.interfaces),
            "memberships": len(self.memberships),
            "routed_prefixes": len(self.routed_prefixes),
        }

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check structural invariants; raise :class:`TopologyError` on failure.

        The invariants encode the ground-truth consistency the paper's
        methodology implicitly relies on:

        * every membership references existing entities;
        * a local member's router sits in one of the IXP's facilities, a
          remote member's router does not;
        * fractional port capacities only appear on reseller connections;
        * IXP-LAN interfaces belong to the advertised peering LAN of their IXP;
        * router facility references exist and interface ownership matches.
        """
        import ipaddress

        for membership in self.memberships:
            ixp = self.ixp(membership.ixp_id)
            self.autonomous_system(membership.asn)
            router = self.router(membership.router_id)
            member_facility = self.facility(membership.member_facility_id)
            if router.facility_id != membership.member_facility_id:
                raise TopologyError(
                    f"membership of AS{membership.asn} at {ixp.ixp_id} says facility "
                    f"{member_facility.facility_id} but its router sits in {router.facility_id}"
                )
            is_colocated = membership.member_facility_id in ixp.facility_ids
            if membership.connection is ConnectionKind.LOCAL and not is_colocated:
                raise TopologyError(
                    f"local member AS{membership.asn} of {ixp.ixp_id} is not in an IXP facility"
                )
            if membership.connection is not ConnectionKind.LOCAL and is_colocated:
                # A remote member colocated with the IXP is allowed only for
                # reseller customers (the paper's Section 5.1.2 observation).
                if membership.connection is not ConnectionKind.REMOTE_RESELLER:
                    raise TopologyError(
                        f"remote member AS{membership.asn} of {ixp.ixp_id} is colocated with "
                        "the IXP but not a reseller customer"
                    )
            if membership.port_capacity_mbps < ixp.min_physical_capacity_mbps:
                if membership.connection is not ConnectionKind.REMOTE_RESELLER:
                    raise TopologyError(
                        f"AS{membership.asn} at {ixp.ixp_id} holds a fractional port but is "
                        "not a reseller customer"
                    )
            if membership.reseller_id is not None and membership.reseller_id not in self.resellers:
                raise TopologyError(
                    f"membership of AS{membership.asn} references unknown reseller "
                    f"{membership.reseller_id!r}"
                )
            lan = ipaddress.ip_network(ixp.peering_lan)
            if ipaddress.ip_address(membership.interface_ip) not in lan:
                raise TopologyError(
                    f"interface {membership.interface_ip} of AS{membership.asn} is outside the "
                    f"peering LAN {ixp.peering_lan} of {ixp.ixp_id}"
                )

        for interface in self.interfaces.values():
            router = self.router(interface.router_id)
            if interface.ip not in router.interface_ips:
                raise TopologyError(
                    f"interface {interface.ip} not registered on router {router.router_id}"
                )
            if interface.asn != router.asn:
                raise TopologyError(
                    f"interface {interface.ip} assigned to AS{interface.asn} but its router "
                    f"belongs to AS{router.asn}"
                )
            if interface.kind is InterfaceKind.IXP_LAN and interface.ixp_id not in self.ixps:
                raise TopologyError(
                    f"IXP-LAN interface {interface.ip} references unknown IXP {interface.ixp_id!r}"
                )

        for router in self.routers.values():
            self.facility(router.facility_id)
            self.autonomous_system(router.asn)

        for ixp in self.ixps.values():
            for facility_id in ixp.facility_ids:
                self.facility(facility_id)

        for asn in self.ases:
            for facility_id in self.ases[asn].facility_ids:
                self.facility(facility_id)

        for link in self.private_links:
            self.facility(link.facility_id)
            router_a = self.router(link.router_a)
            router_b = self.router(link.router_b)
            if router_a.asn != link.asn_a or router_b.asn != link.asn_b:
                raise TopologyError(
                    f"private link in {link.facility_id} references routers whose owners do not "
                    f"match AS{link.asn_a}/AS{link.asn_b}"
                )
            if router_a.facility_id != link.facility_id or router_b.facility_id != link.facility_id:
                raise TopologyError(
                    f"private link in {link.facility_id} connects routers outside that facility"
                )

        self.relationships.validate_acyclic()
