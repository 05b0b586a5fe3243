"""Hand-crafted miniature scenarios used by the unit tests of the core steps.

The builders here construct a deliberately simple, fully controlled world:
one or two IXPs, a handful of facilities in known cities, a few member ASes
whose remoteness is known by construction.  Unit tests for the inference
steps use these instead of the random generator so that every assertion is
about a specific, understandable situation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.alias.midar import AliasResolver
from repro.config import InferenceConfig
from repro.core.inputs import InferenceInputs
from repro.core.step3_colocation import ColocationRTTStep, FeasibleFacilityAnalysis
from repro.datasources.merge import ObservedDataset
from repro.datasources.prefix2as import Prefix2ASMap
from repro.geo.cities import city_by_name
from repro.geo.coordinates import geodesic_distance_km, offset_point
from repro.geo.delay_model import FeasibleRing
from repro.measurement.results import PingCampaignResult, PingSample, PingSeries, TracerouteCorpus
from repro.measurement.vantage import VantagePoint, VantagePointKind
from repro.topology.entities import (
    AutonomousSystem,
    ConnectionKind,
    Facility,
    Interface,
    InterfaceKind,
    IXP,
    IXPMembership,
    PortReseller,
    Router,
)
from repro.topology.world import World


@dataclass
class MiniScenario:
    """A small, fully explicit scenario for step-level unit tests."""

    world: World
    dataset: ObservedDataset
    ping_result: PingCampaignResult = field(default_factory=PingCampaignResult)
    corpus: TracerouteCorpus = field(default_factory=TracerouteCorpus)

    _facility_counter: int = 0
    _router_counter: int = 0
    _ip_counter: int = 0

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    def add_facility(self, city: str, *, offset_km: float = 3.0) -> Facility:
        """Create a facility near the centre of a gazetteer city."""
        self._facility_counter += 1
        location = offset_point(city_by_name(city).location, offset_km, 45.0)
        facility = Facility(
            facility_id=f"fac-{self._facility_counter:03d}",
            name=f"Test DC {city} {self._facility_counter}",
            city=city,
            country=city_by_name(city).country,
            location=location,
        )
        self.world.facilities[facility.facility_id] = facility
        self.dataset.set_facility_location(facility.facility_id, location)
        return facility

    def add_ixp(self, name: str, facilities: list[Facility], *,
                prefix: str, min_capacity: int = 1_000,
                record_min_capacity: bool = True) -> IXP:
        """Create an IXP spanning the given facilities.

        ``record_min_capacity=False`` keeps its minimum physical port
        capacity out of the observed dataset.
        """
        ixp = IXP(
            ixp_id=f"ixp-{name.lower()}",
            name=name,
            city=facilities[0].city,
            country=facilities[0].country,
            peering_lan=prefix,
            facility_ids={f.facility_id for f in facilities},
            min_physical_capacity_mbps=min_capacity,
            route_server_ip=prefix.rsplit(".", 1)[0] + ".250",
        )
        self.world.ixps[ixp.ixp_id] = ixp
        self.dataset.set_ixp_prefix(prefix, ixp.ixp_id)
        for facility in facilities:
            self.dataset.add_ixp_facility(ixp.ixp_id, facility.facility_id)
        if record_min_capacity:
            self.dataset.set_min_capacity(ixp.ixp_id, min_capacity)
        return ixp

    def add_as(self, asn: int, facility: Facility, *, tier: int = 3) -> AutonomousSystem:
        """Create an AS homed at one facility."""
        system = AutonomousSystem(
            asn=asn,
            name=f"AS{asn}",
            country=facility.country,
            headquarters_city=facility.city,
            facility_ids={facility.facility_id},
            tier=tier,
        )
        self.world.ases[asn] = system
        self.set_as_footprint(asn, {facility.facility_id})
        return system

    def set_as_footprint(self, asn: int, facility_ids) -> None:
        """Make an AS's observed footprint exactly ``facility_ids``."""
        wanted = set(facility_ids)
        for facility_id in self.dataset.facilities_of_as(asn) - wanted:
            self.dataset.remove_as_facility(asn, facility_id)
        for facility_id in sorted(wanted):
            self.dataset.add_as_facility(asn, facility_id)

    def add_router(self, asn: int, facility: Facility) -> Router:
        """Create a router for an AS at a facility."""
        self._router_counter += 1
        router = Router(
            router_id=f"rtr-{self._router_counter:03d}",
            asn=asn,
            facility_id=facility.facility_id,
        )
        self.world.routers[router.router_id] = router
        return router

    def add_membership(
        self,
        ixp: IXP,
        asn: int,
        router: Router,
        facility: Facility,
        *,
        interface_ip: str,
        connection: ConnectionKind = ConnectionKind.LOCAL,
        capacity: int = 1_000,
        record_capacity: bool = True,
        reseller_id: str | None = None,
    ) -> IXPMembership:
        """Attach an AS to an IXP with full control over the ground truth.

        ``record_capacity=False`` keeps the port capacity out of the
        observed dataset.
        """
        router.add_interface(interface_ip)
        self.world.interfaces[interface_ip] = Interface(
            ip=interface_ip, asn=asn, router_id=router.router_id,
            kind=InterfaceKind.IXP_LAN, ixp_id=ixp.ixp_id)
        membership = IXPMembership(
            ixp_id=ixp.ixp_id,
            asn=asn,
            interface_ip=interface_ip,
            router_id=router.router_id,
            member_facility_id=facility.facility_id,
            connection=connection,
            port_capacity_mbps=capacity,
            reseller_id=reseller_id,
        )
        self.world.add_membership(membership)
        self.dataset.set_interface(interface_ip, ixp.ixp_id, asn)
        if record_capacity:
            self.dataset.set_port_capacity(ixp.ixp_id, asn, capacity)
        return membership

    def add_backbone_interface(self, asn: int, router: Router, ip: str) -> Interface:
        """Attach a backbone interface to a router."""
        router.add_interface(ip)
        interface = Interface(ip=ip, asn=asn, router_id=router.router_id,
                              kind=InterfaceKind.BACKBONE)
        self.world.interfaces[ip] = interface
        return interface

    def add_vantage_point(self, ixp: IXP, facility: Facility, *,
                          kind: VantagePointKind = VantagePointKind.LOOKING_GLASS,
                          rounds_rtt_up: bool = False) -> VantagePoint:
        """Create a vantage point at an IXP facility."""
        vp = VantagePoint(
            vp_id=f"vp-{ixp.ixp_id}-{facility.facility_id}",
            kind=kind,
            ixp_id=ixp.ixp_id,
            facility_id=facility.facility_id,
            location=facility.location,
            rounds_rtt_up=rounds_rtt_up,
        )
        self.ping_result.register_vantage_point(vp)
        return vp

    def add_ping_series(
        self,
        vp: VantagePoint,
        target_ip: str,
        rtts_ms: list[float],
        *,
        reply_ttl: int = 63,
    ) -> PingSeries:
        """Record a raw ping series for a target interface."""
        series = PingSeries(vp_id=vp.vp_id, ixp_id=vp.ixp_id, target_ip=target_ip,
                            samples=_samples(rtts_ms, reply_ttl))
        self.ping_result.add_series(series)
        return series

    def add_route_server_series(self, vp: VantagePoint, rtts_ms: list[float],
                                *, reply_ttl: int = 63) -> PingSeries:
        """Record the route-server control series of a vantage point."""
        ixp = self.world.ixps[vp.ixp_id]
        series = PingSeries(vp_id=vp.vp_id, ixp_id=vp.ixp_id, target_ip=ixp.route_server_ip,
                            samples=_samples(rtts_ms, reply_ttl))
        self.ping_result.add_route_server_series(series)
        return series

    # ------------------------------------------------------------------ #
    def inputs(self) -> InferenceInputs:
        """Bundle the scenario into pipeline inputs."""
        prefix2as = Prefix2ASMap()
        for prefix, asn in self.world.routed_prefixes.items():
            prefix2as.add(prefix, asn)
        for prefix, asn in self.world.infrastructure_prefixes.items():
            prefix2as.add(prefix, asn)
        return InferenceInputs(
            dataset=self.dataset,
            ping_result=self.ping_result,
            corpus=self.corpus,
            prefix2as=prefix2as,
            alias_resolver=AliasResolver(self.world, miss_rate=0.0),
        )


def _samples(rtts_ms: list[float], reply_ttl: int) -> tuple[PingSample, ...]:
    return tuple(PingSample(rtt_ms=rtt, reply_ttl=reply_ttl) for rtt in rtts_ms)


class SeedColocationRTTStep(ColocationRTTStep):
    """The seed Step 3 geometry, kept as the equivalence/benchmark reference.

    One Vincenty run per facility per interface and a raw (unmemoised) RTT
    inversion per observation — exactly the per-call path the shared
    :class:`~repro.geo.distindex.GeoDistanceIndex` replaced.  Both the unit
    equivalence test and the corpus-scale benchmark compare against this one
    implementation so the two baselines cannot drift apart.
    """

    def _analyse(self, ixp_id, interface_ip, asn, observation, vp_location):
        dataset = self.inputs.dataset
        tolerance = self.config.feasible_facility_tolerance_km
        ring = FeasibleRing(
            min_distance_km=self.delay_model.invert_min_distance_km(observation.rtt_lower_ms),
            max_distance_km=self.delay_model.max_distance_km(observation.rtt_min_ms),
        )

        def feasible(facility_id):
            location = dataset.facility_location(facility_id)
            if location is None:
                return False
            distance = geodesic_distance_km(vp_location, location)
            return (ring.min_distance_km - tolerance) <= distance <= (
                ring.max_distance_km + tolerance
            )

        ixp_facilities = dataset.facilities_of_ixp(ixp_id)
        member_facilities = dataset.facilities_of_as(asn)
        feasible_ixp = frozenset(f for f in ixp_facilities if feasible(f))
        feasible_member = frozenset(f for f in member_facilities if feasible(f))
        return FeasibleFacilityAnalysis(
            ixp_id=ixp_id,
            interface_ip=interface_ip,
            asn=asn,
            ring=ring,
            feasible_ixp_facilities=feasible_ixp,
            feasible_member_facilities=feasible_member,
            member_has_facility_data=bool(member_facilities),
            classification=self._classify(feasible_ixp, feasible_member),
        )


def build_scenario() -> MiniScenario:
    """An empty scenario ready to be populated."""
    return MiniScenario(world=World(seed=1), dataset=ObservedDataset())


def dual_city_scenario(
    *, record_min_capacity: bool = True, record_reseller_capacity: bool = True
) -> MiniScenario:
    """A ready-made scenario with one IXP in Amsterdam and peers near and far.

    * AS 65001 — local peer, colocated in the Amsterdam IXP facility.
    * AS 65002 — remote peer in Frankfurt (long cable), ~360 km away.
    * AS 65003 — remote reseller customer in Rotterdam (same metro,
      fractional port).

    The ``record_*`` flags keep the IXP's minimum port capacity or the
    reseller customer's port capacity out of the observed dataset.
    """
    scenario = build_scenario()
    ams = scenario.add_facility("Amsterdam")
    fra = scenario.add_facility("Frankfurt")
    rot = scenario.add_facility("Rotterdam")
    ixp = scenario.add_ixp("AMS-TEST", [ams], prefix="185.1.0.0/24",
                           record_min_capacity=record_min_capacity)

    scenario.add_as(65001, ams)
    local_router = scenario.add_router(65001, ams)
    scenario.add_membership(ixp, 65001, local_router, ams,
                            interface_ip="185.1.0.1", capacity=10_000)

    scenario.add_as(65002, fra)
    remote_router = scenario.add_router(65002, fra)
    scenario.add_membership(ixp, 65002, remote_router, fra,
                            interface_ip="185.1.0.2",
                            connection=ConnectionKind.REMOTE_LONG_CABLE,
                            capacity=1_000)

    scenario.add_as(65003, rot)
    reseller_router = scenario.add_router(65003, rot)
    scenario.world.resellers["rsl-test"] = PortReseller(
        reseller_id="rsl-test", name="Test Reseller", carrier_asn=64999,
        facility_ids=frozenset({ams.facility_id}), served_ixp_ids=frozenset({ixp.ixp_id}))
    scenario.add_membership(ixp, 65003, reseller_router, rot,
                            interface_ip="185.1.0.3",
                            connection=ConnectionKind.REMOTE_RESELLER,
                            capacity=100, record_capacity=record_reseller_capacity,
                            reseller_id="rsl-test")
    return scenario


def dataset_copy(dataset: ObservedDataset) -> ObservedDataset:
    """A cold structural copy of an observed dataset's public tables."""
    return ObservedDataset(
        ixp_prefixes=dict(dataset.ixp_prefixes),
        interface_ixp=dict(dataset.interface_ixp),
        interface_asn=dict(dataset.interface_asn),
        ixp_facilities={k: set(v) for k, v in dataset.ixp_facilities.items()},
        as_facilities={k: set(v) for k, v in dataset.as_facilities.items()},
        facility_locations=dict(dataset.facility_locations),
        port_capacities=dict(dataset.port_capacities),
        min_physical_capacity=dict(dataset.min_physical_capacity),
        traffic_levels=dict(dataset.traffic_levels),
        user_populations=dict(dataset.user_populations),
        customer_cone_sizes=dict(dataset.customer_cone_sizes),
        countries=dict(dataset.countries),
    )


def ping_copy(ping: PingCampaignResult) -> PingCampaignResult:
    """A cold copy of a ping campaign's series and vantage points."""
    return PingCampaignResult(
        series=ping.series,
        route_server_series=ping.route_server_series,
        vantage_points=ping.vantage_points,
    )


def corpus_copy(corpus: TracerouteCorpus) -> TracerouteCorpus:
    """A cold copy of a traceroute corpus, sharing its never-changed paths."""
    return TracerouteCorpus(corpus.paths)


def prefix2as_copy(prefix2as: Prefix2ASMap) -> Prefix2ASMap:
    """A cold copy of a prefix map, filled through its public ``add``."""
    copy = Prefix2ASMap()
    for prefix, asn in prefix2as._prefixes.items():
        copy.add(prefix, asn)
    return copy


def scenario_configs(base: InferenceConfig) -> list[InferenceConfig]:
    """Every fig. 9 ablation, fig. 11 tolerance and table 4 scenario."""
    from repro.experiments import fig9, fig11, table4

    return [
        *(replace(base, **overrides) for _, overrides in fig9.ABLATION_SCENARIOS),
        *(replace(base, feasible_facility_tolerance_km=km) for km in fig11.TOLERANCE_SWEEP_KM),
        *(replace(base, **overrides) for _, overrides in table4.AGREEMENT_SCENARIOS),
    ]
