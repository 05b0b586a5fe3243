"""Seeded synthetic world generator.

The generator builds a ground-truth :class:`~repro.topology.world.World`
whose statistical shape matches the ecosystem the paper measures (DESIGN.md
§5): a heavy-tailed IXP size distribution rooted in the largest peering
markets, wide-area IXPs whose switching fabric spans several metros, port
resellers with wide geographic footprints, and IXP memberships split between
local and remote connections with the paper's distance and port-capacity mix.

The construction is entirely deterministic given ``GeneratorConfig.seed``.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass

from repro.config import GeneratorConfig
from repro.constants import (
    CAPACITY_10GE,
    CAPACITY_40GE,
    CAPACITY_100GE,
    CAPACITY_GE,
    FRACTIONAL_CAPACITIES,
)
from repro.exceptions import TopologyError
from repro.geo.cities import WORLD_CITIES, City
from repro.geo.coordinates import geodesic_distance_km, offset_point
from repro.geo.regions import region_for_country
from repro.topology.addressing import AddressPlan
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
    TrafficLevel,
)
from repro.topology.world import World

_FACILITY_OPERATORS = (
    "Equinix",
    "Interxion",
    "Digital Realty",
    "Telehouse",
    "CoreSite",
    "NTT GDC",
    "Global Switch",
    "DataHouse",
)

_RESELLER_NAMES = (
    "IX Reach",
    "RETN Connect",
    "Epsilon Fabric",
    "Console Connect",
    "Atrato Access",
    "BSO Link",
    "NetIX Carrier",
    "Megaport Wire",
    "PCCW PeerLink",
    "Seaborn Peer",
)

#: First ASN handed to ordinary networks.
_BASE_ASN = 1_000
#: First ASN handed to reseller carrier networks.
_RESELLER_BASE_ASN = 64_500


@dataclass
class _MembershipPlan:
    """Internal plan for one membership before entities are materialised."""

    ixp_id: str
    asn: int
    connection: ConnectionKind
    member_facility_id: str
    port_capacity_mbps: int
    reseller_id: str | None
    joined_month: int
    departed_month: int | None


class WorldGenerator:
    """Builds a ground-truth world from a :class:`GeneratorConfig`."""

    def __init__(self, config: GeneratorConfig | None = None) -> None:
        self.config = config or GeneratorConfig()
        self._rng = random.Random(self.config.seed)
        self._plan = AddressPlan()
        self._world = World(seed=self.config.seed)
        self._facilities_by_city: dict[str, list[str]] = defaultdict(list)
        self._router_by_as_facility: dict[tuple[int, str], str] = {}
        self._router_counter = 0
        self._ixp_sizes: dict[str, int] = {}
        self._ixp_remote_fraction: dict[str, float] = {}
        self._ixp_primary_facility: dict[str, str] = {}

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def generate(self) -> World:
        """Generate and validate a world."""
        cities = list(WORLD_CITIES)
        self._build_facilities(cities)
        self._build_ixps(cities)
        self._build_ases(cities)
        self._build_resellers()
        self._build_relationships()
        self._build_memberships()
        self._ensure_home_routers()
        self._build_transit_interconnects()
        self._build_backbone_interfaces()
        self._build_private_links()
        self._build_routed_prefixes()
        self._world.reindex()
        self._world.validate()
        return self._world

    # ------------------------------------------------------------------ #
    # Facilities
    # ------------------------------------------------------------------ #
    def _build_facilities(self, cities: list[City]) -> None:
        counter = 0
        for index, city in enumerate(cities):
            if index < self.config.n_major_markets:
                low, high = self.config.facilities_per_major_city
            else:
                low, high = self.config.facilities_per_minor_city
            count = self._rng.randint(low, high)
            for slot in range(count):
                counter += 1
                facility_id = f"fac-{counter:04d}"
                operator = self._rng.choice(_FACILITY_OPERATORS)
                location = offset_point(
                    city.location,
                    distance_km=self._rng.uniform(1.0, 22.0),
                    bearing_deg=self._rng.uniform(0.0, 360.0),
                )
                facility = Facility(
                    facility_id=facility_id,
                    name=f"{operator} {city.name} {slot + 1}",
                    city=city.name,
                    country=city.country,
                    location=location,
                    operator=operator,
                )
                self._world.facilities[facility_id] = facility
                self._facilities_by_city[city.name].append(facility_id)

    # ------------------------------------------------------------------ #
    # IXPs
    # ------------------------------------------------------------------ #
    def _ixp_target_size(self, rank: int) -> int:
        raw = self.config.largest_ixp_members * (rank + 1) ** (-self.config.ixp_size_decay)
        return max(self.config.smallest_ixp_members, int(round(raw)))

    def _build_ixps(self, cities: list[City]) -> None:
        config = self.config
        wide_area_count = max(1, round(config.wide_area_ixp_fraction * config.n_ixps))
        # Wide-area IXPs: spread across ranks but guarantee presence among the
        # larger exchanges (the paper finds 20% of the top-50 are wide-area).
        candidate_ranks = list(range(2, config.n_ixps))
        self._rng.shuffle(candidate_ranks)
        wide_area_ranks = set(candidate_ranks[:wide_area_count])
        large_ranks = set(range(2, max(3, config.n_ixps // 3)))
        if not wide_area_ranks & large_ranks:
            # Guarantee at least one wide-area IXP among the larger exchanges
            # (the paper finds 20% of the top-50 to be wide-area) by swapping
            # one of the selected ranks rather than growing the set.
            smallest_selected = max(wide_area_ranks) if wide_area_ranks else None
            if smallest_selected is not None:
                wide_area_ranks.discard(smallest_selected)
            wide_area_ranks.add(min(large_ranks))

        reseller_disallowed_count = round(config.reseller_disallowed_fraction * config.n_ixps)
        disallowed_ranks = set(
            self._rng.sample(range(2, config.n_ixps), k=min(reseller_disallowed_count,
                                                            max(0, config.n_ixps - 2)))
        )

        for rank in range(config.n_ixps):
            city = cities[rank % len(cities)]
            ixp_id = f"ixp-{rank:03d}"
            size = self._ixp_target_size(rank)
            suffix = "" if rank < len(cities) else f" {rank // len(cities) + 1}"
            name = f"{city.name.upper().replace(' ', '')}-IX{suffix}"

            home_facilities = self._facilities_by_city[city.name]
            n_home = min(len(home_facilities), 1 + size // 60 + self._rng.randint(0, 2))
            facility_ids = set(self._rng.sample(home_facilities, k=max(1, n_home)))

            if rank in wide_area_ranks:
                extra_low, extra_high = config.wide_area_extra_cities
                n_extra_cities = self._rng.randint(extra_low, extra_high)
                other_cities = [c for c in cities if c.name != city.name]
                for extra_city in self._rng.sample(other_cities, k=min(n_extra_cities,
                                                                       len(other_cities))):
                    pool = self._facilities_by_city[extra_city.name]
                    if pool:
                        facility_ids.add(self._rng.choice(pool))

            min_capacity = CAPACITY_10GE if self._rng.random() < 0.08 else CAPACITY_GE
            allows_resellers = rank not in disallowed_ranks

            peering_lan = self._plan.allocate_peering_lan(ixp_id, expected_members=size + 8)
            ixp = IXP(
                ixp_id=ixp_id,
                name=name,
                city=city.name,
                country=city.country,
                peering_lan=str(peering_lan),
                facility_ids=facility_ids,
                min_physical_capacity_mbps=min_capacity,
                allows_resellers=allows_resellers,
                route_server_ip=self._plan.allocate_member_interface(ixp_id),
            )
            self._world.ixps[ixp_id] = ixp
            self._ixp_sizes[ixp_id] = size
            home_pool = sorted(facility_ids & set(home_facilities))
            self._ixp_primary_facility[ixp_id] = home_pool[0] if home_pool else sorted(facility_ids)[0]

            if rank < 2:
                remote_fraction = config.largest_ixp_remote_fraction
            elif not allows_resellers:
                remote_fraction = config.no_reseller_remote_fraction
            else:
                remote_fraction = min(
                    0.95, max(0.05, self._rng.gauss(config.base_remote_fraction, 0.05))
                )
            self._ixp_remote_fraction[ixp_id] = remote_fraction

        # Federations: pair up IXPs located in different cities.
        ixp_ids = sorted(self._world.ixps)
        federation_candidates = [i for i in ixp_ids if i not in ("ixp-000", "ixp-001")]
        self._rng.shuffle(federation_candidates)
        for pair_index in range(self.config.federation_pairs):
            if len(federation_candidates) < 2:
                break
            first = federation_candidates.pop()
            second = next(
                (c for c in federation_candidates
                 if self._world.ixps[c].city != self._world.ixps[first].city),
                None,
            )
            if second is None:
                continue
            federation_candidates.remove(second)
            federation_id = f"fed-{pair_index}"
            self._world.ixps[first].federation_id = federation_id
            self._world.ixps[second].federation_id = federation_id

    # ------------------------------------------------------------------ #
    # ASes
    # ------------------------------------------------------------------ #
    def _build_ases(self, cities: list[City]) -> None:
        config = self.config
        n_tier1 = max(3, round(config.tier1_fraction * config.n_ases))
        n_tier2 = max(10, round(config.tier2_fraction * config.n_ases))
        city_weights = [1.0 / (c.population_rank ** 0.45) for c in cities]

        for index in range(config.n_ases):
            asn = _BASE_ASN + index
            if index < n_tier1:
                tier = 1
            elif index < n_tier1 + n_tier2:
                tier = 2
            else:
                tier = 3
            home_city = self._rng.choices(cities, weights=city_weights, k=1)[0]
            home_pool = self._facilities_by_city[home_city.name]
            home_facility = self._rng.choice(home_pool)
            facility_ids = {home_facility}

            if tier == 1:
                extra = self._rng.randint(10, 28)
            elif tier == 2:
                extra = self._rng.randint(2, 7)
            else:
                roll = self._rng.random()
                if roll < 0.60:
                    extra = 0
                elif roll < 0.95:
                    extra = self._rng.randint(1, 2)
                else:
                    extra = self._rng.randint(3, 9)
            if extra:
                all_facilities = list(self._world.facilities)
                facility_ids.update(self._rng.sample(all_facilities,
                                                     k=min(extra, len(all_facilities))))

            traffic_level = self._sample_traffic_level(tier)
            user_population = self._sample_user_population(tier)
            prefix_count = {1: self._rng.randint(20, 60),
                            2: self._rng.randint(4, 18),
                            3: self._rng.randint(1, 4)}[tier]
            self._world.ases[asn] = AutonomousSystem(
                asn=asn,
                name=f"AS{asn}-NET",
                country=home_city.country,
                headquarters_city=home_city.name,
                facility_ids=facility_ids,
                tier=tier,
                traffic_level=traffic_level,
                user_population=user_population,
                prefix_count=prefix_count,
            )

    def _sample_traffic_level(self, tier: int) -> TrafficLevel:
        if tier == 1:
            return self._rng.choice([TrafficLevel.GBPS_1000, TrafficLevel.TBPS_PLUS])
        if tier == 2:
            return self._rng.choice(
                [TrafficLevel.GBPS_10, TrafficLevel.GBPS_100, TrafficLevel.GBPS_100]
            )
        return self._rng.choices(
            [
                TrafficLevel.MBPS_100,
                TrafficLevel.MBPS_1000,
                TrafficLevel.GBPS_5,
                TrafficLevel.GBPS_10,
            ],
            weights=[0.25, 0.40, 0.25, 0.10],
            k=1,
        )[0]

    def _sample_user_population(self, tier: int) -> int:
        scale = {1: 4_000_000, 2: 600_000, 3: 60_000}[tier]
        return int(self._rng.lognormvariate(0.0, 1.0) * scale)

    # ------------------------------------------------------------------ #
    # Resellers
    # ------------------------------------------------------------------ #
    def _build_resellers(self) -> None:
        reseller_allowing = [i for i, x in self._world.ixps.items() if x.allows_resellers]
        all_facilities = list(self._world.facilities)
        assigned_ixps: dict[str, set[str]] = defaultdict(set)

        for index in range(self.config.n_resellers):
            reseller_id = f"rsl-{index:02d}"
            carrier_asn = _RESELLER_BASE_ASN + index
            name = _RESELLER_NAMES[index % len(_RESELLER_NAMES)]
            n_facilities = self._rng.randint(15, min(60, len(all_facilities)))
            facility_ids = set(self._rng.sample(all_facilities, k=n_facilities))
            served = set(
                self._rng.sample(
                    reseller_allowing,
                    k=min(len(reseller_allowing), self._rng.randint(5, 20)),
                )
            )
            # The carrier network behind the reseller.
            home_facility = sorted(facility_ids)[0]
            home = self._world.facilities[home_facility]
            self._world.ases[carrier_asn] = AutonomousSystem(
                asn=carrier_asn,
                name=f"{name} Carrier",
                country=home.country,
                headquarters_city=home.city,
                facility_ids=set(facility_ids),
                tier=2,
                traffic_level=TrafficLevel.GBPS_100,
                user_population=0,
                prefix_count=self._rng.randint(2, 8),
                is_reseller_carrier=True,
            )
            self._world.resellers[reseller_id] = PortReseller(
                reseller_id=reseller_id,
                name=name,
                carrier_asn=carrier_asn,
                facility_ids=frozenset(facility_ids),
                served_ixp_ids=frozenset(served),
            )
            assigned_ixps[reseller_id] = served

        # Every reseller-allowing IXP must be served by at least one reseller.
        reseller_ids = sorted(self._world.resellers)
        for ixp_id in reseller_allowing:
            if not any(ixp_id in self._world.resellers[r].served_ixp_ids for r in reseller_ids):
                chosen = self._rng.choice(reseller_ids)
                reseller = self._world.resellers[chosen]
                self._world.resellers[chosen] = PortReseller(
                    reseller_id=reseller.reseller_id,
                    name=reseller.name,
                    carrier_asn=reseller.carrier_asn,
                    facility_ids=reseller.facility_ids,
                    served_ixp_ids=frozenset(set(reseller.served_ixp_ids) | {ixp_id}),
                )

    # ------------------------------------------------------------------ #
    # Relationships
    # ------------------------------------------------------------------ #
    def _build_relationships(self) -> None:
        graph = self._world.relationships
        tiers: dict[int, list[int]] = {1: [], 2: [], 3: []}
        for asn, system in self._world.ases.items():
            graph.add_asn(asn)
            tiers[system.tier].append(asn)

        tier1, tier2, tier3 = tiers[1], tiers[2], tiers[3]
        # Tier-1 mesh.
        for i, a in enumerate(tier1):
            for b in tier1[i + 1:]:
                graph.add_peering(a, b)
        # Tier-2 buy transit from tier-1, with regional preference.
        for asn in tier2:
            providers = self._pick_providers(asn, tier1, count=self._rng.randint(1, 3))
            for provider in providers:
                graph.add_customer_provider(customer=asn, provider=provider)
        # Some tier-2 peer among themselves.
        for asn in tier2:
            if self._rng.random() < 0.35 and len(tier2) > 1:
                other = self._rng.choice(tier2)
                if other != asn:
                    graph.add_peering(asn, other)
        # Tier-3 buy transit from tier-2 (regional preference), occasionally tier-1.
        for asn in tier3:
            pool = tier2 if self._rng.random() < 0.92 else tier1
            providers = self._pick_providers(asn, pool, count=self._rng.randint(1, 3))
            for provider in providers:
                graph.add_customer_provider(customer=asn, provider=provider)

    def _pick_providers(self, asn: int, pool: list[int], count: int) -> list[int]:
        system = self._world.ases[asn]
        region = region_for_country(system.country)
        regional = [p for p in pool
                    if region_for_country(self._world.ases[p].country) is region and p != asn]
        candidates = regional if len(regional) >= count else [p for p in pool if p != asn]
        if not candidates:
            return []
        return self._rng.sample(candidates, k=min(count, len(candidates)))

    # ------------------------------------------------------------------ #
    # Memberships
    # ------------------------------------------------------------------ #
    def _build_memberships(self) -> None:
        for ixp_id in sorted(self._ixp_sizes, key=lambda i: -self._ixp_sizes[i]):
            self._build_memberships_for_ixp(ixp_id)

    def _build_memberships_for_ixp(self, ixp_id: str) -> None:
        ixp = self._world.ixps[ixp_id]
        size = self._ixp_sizes[ixp_id]
        remote_fraction = self._ixp_remote_fraction[ixp_id]
        n_remote = round(size * remote_fraction)
        n_local = size - n_remote
        primary_location = self._world.facility_location(self._ixp_primary_facility[ixp_id])

        already_member = {m.asn for m in self._world.members_of(ixp_id)}
        candidate_asns = [
            asn for asn, system in self._world.ases.items()
            if not system.is_reseller_carrier and asn not in already_member
        ]

        # Many candidates share a home facility: one distance per facility.
        facility_km: dict[str, float] = {}
        distances: dict[int, float] = {}
        home_facilities: dict[int, str] = {}
        for asn in candidate_asns:
            home_facility = min(self._world.ases[asn].facility_ids)
            home_facilities[asn] = home_facility
            if home_facility not in facility_km:
                facility_km[home_facility] = geodesic_distance_km(
                    self._world.facility_location(home_facility), primary_location
                )
            distances[asn] = facility_km[home_facility]

        local_plans = self._plan_local_members(ixp, candidate_asns, distances, n_local)
        chosen_local = {plan.asn for plan in local_plans}
        remaining = [asn for asn in candidate_asns if asn not in chosen_local]
        remote_plans = self._plan_remote_members(ixp, remaining, distances, home_facilities,
                                                 n_remote)

        for plan in local_plans + remote_plans:
            self._materialise_membership(plan)

        self._build_departed_memberships(ixp, candidate_asns,
                                         chosen_local | {p.asn for p in remote_plans})

    def _weighted_sample_asns(self, candidates: list[int], count: int) -> list[int]:
        """Sample ASNs without replacement, favouring larger networks."""
        if count <= 0 or not candidates:
            return []
        weights = {1: 7.0, 2: 3.0, 3: 1.0}
        pool = list(candidates)
        chosen: list[int] = []
        while pool and len(chosen) < count:
            pool_weights = [weights[self._world.ases[asn].tier] for asn in pool]
            pick = self._rng.choices(pool, weights=pool_weights, k=1)[0]
            pool.remove(pick)
            chosen.append(pick)
        return chosen

    def _plan_local_members(
        self,
        ixp: IXP,
        candidates: list[int],
        distances: dict[int, float],
        n_local: int,
    ) -> list[_MembershipPlan]:
        # Prefer ASes already colocated with the IXP, then ASes in the metro,
        # then anyone in the same country/region (they will be colocated).
        colocated = [a for a in candidates if self._world.ases[a].facility_ids & ixp.facility_ids]
        nearby = [a for a in candidates if a not in set(colocated) and distances[a] <= 50.0]
        rest = [a for a in candidates if a not in set(colocated) and a not in set(nearby)]
        same_country = [a for a in rest if self._world.ases[a].country == ixp.country]

        chosen: list[int] = []
        for pool in (colocated, nearby, same_country, rest):
            if len(chosen) >= n_local:
                break
            chosen.extend(self._weighted_sample_asns(
                [a for a in pool if a not in set(chosen)], n_local - len(chosen)))

        plans: list[_MembershipPlan] = []
        for asn in chosen[:n_local]:
            system = self._world.ases[asn]
            shared = sorted(system.facility_ids & ixp.facility_ids)
            if shared:
                member_facility = self._rng.choice(shared)
            else:
                member_facility = self._rng.choice(sorted(ixp.facility_ids))
                system.facility_ids.add(member_facility)
            plans.append(
                _MembershipPlan(
                    ixp_id=ixp.ixp_id,
                    asn=asn,
                    connection=ConnectionKind.LOCAL,
                    member_facility_id=member_facility,
                    port_capacity_mbps=self._sample_local_capacity(ixp),
                    reseller_id=None,
                    joined_month=self._sample_join_month(self.config.local_join_spread),
                    departed_month=None,
                )
            )
        return plans

    def _plan_remote_members(
        self,
        ixp: IXP,
        candidates: list[int],
        distances: dict[int, float],
        home_facilities: dict[int, str],
        n_remote: int,
    ) -> list[_MembershipPlan]:
        config = self.config
        n_same_metro = round(n_remote * config.remote_same_metro_fraction)
        n_regional = round(n_remote * config.remote_regional_fraction)
        n_far = max(0, n_remote - n_same_metro - n_regional)

        same_metro_pool = [a for a in candidates if distances[a] <= 80.0]
        regional_pool = [a for a in candidates if 100.0 < distances[a] <= 1_000.0]
        far_pool = [a for a in candidates if distances[a] > 1_000.0]

        chosen: list[tuple[int, str]] = []
        used: set[int] = set()
        metro_overrides: dict[int, str] = {}
        for pool, count, band in (
            (same_metro_pool, n_same_metro, "metro"),
            (regional_pool, n_regional, "regional"),
            (far_pool, n_far, "far"),
        ):
            picks = self._weighted_sample_asns([a for a in pool if a not in used], count)
            used.update(picks)
            chosen.extend((asn, band) for asn in picks)
            if band == "metro" and len(picks) < count:
                # Not enough networks are naturally homed near this IXP: pull
                # in far-away networks and give them a metro point of presence
                # outside the IXP's own facilities, so the calibrated share of
                # nearby-but-remote peers (Fig. 1b) is preserved.
                nearby = [f for f in self._facilities_by_city.get(ixp.city, [])
                          if f not in ixp.facility_ids]
                if nearby:
                    extra = self._weighted_sample_asns(
                        [a for a in candidates if a not in used], count - len(picks))
                    for asn in extra:
                        facility = self._rng.choice(nearby)
                        metro_overrides[asn] = facility
                        self._world.ases[asn].facility_ids.add(facility)
                    used.update(extra)
                    chosen.extend((asn, "metro") for asn in extra)
        # Top up from any remaining candidate if a band ran dry.
        if len(chosen) < n_remote:
            extra = self._weighted_sample_asns(
                [a for a in candidates if a not in used], n_remote - len(chosen))
            chosen.extend((asn, "far") for asn in extra)

        plans: list[_MembershipPlan] = []
        for asn, band in chosen[:n_remote]:
            preferred = metro_overrides.get(asn, home_facilities.get(asn))
            plans.append(
                self._plan_one_remote_member(ixp, asn, band, preferred_facility=preferred)
            )
        return plans

    def _plan_one_remote_member(
        self,
        ixp: IXP,
        asn: int,
        band: str,
        preferred_facility: str | None = None,
    ) -> _MembershipPlan:
        config = self.config
        system = self._world.ases[asn]
        connection = self._sample_remote_connection(ixp)
        reseller_id = None
        if connection is ConnectionKind.REMOTE_RESELLER:
            reseller_id = self._pick_reseller_for(ixp.ixp_id)
            if reseller_id is None:
                connection = ConnectionKind.REMOTE_LONG_CABLE

        member_facility: str
        colocated_reseller = (
            connection is ConnectionKind.REMOTE_RESELLER
            and self._rng.random() < config.remote_colocated_reseller_fraction
        )
        if colocated_reseller:
            # Reseller customer whose router actually sits in an IXP facility
            # (buys a cheaper fractional port through the reseller).
            member_facility = self._rng.choice(sorted(ixp.facility_ids))
            system.facility_ids.add(member_facility)
        elif preferred_facility is not None and preferred_facility not in ixp.facility_ids:
            # Keep the router at the facility whose distance placed this AS in
            # its distance band, so the RTT mix matches the calibration target.
            member_facility = preferred_facility
        else:
            own_facilities = sorted(system.facility_ids - ixp.facility_ids)
            if not own_facilities:
                # Give the AS a point of presence outside the IXP footprint.
                candidates = [f for f in self._world.facilities if f not in ixp.facility_ids]
                member_facility = self._rng.choice(candidates)
                system.facility_ids.add(member_facility)
            else:
                member_facility = own_facilities[0]

        capacity = self._sample_remote_capacity(ixp, connection)
        return _MembershipPlan(
            ixp_id=ixp.ixp_id,
            asn=asn,
            connection=connection,
            member_facility_id=member_facility,
            port_capacity_mbps=capacity,
            reseller_id=reseller_id,
            joined_month=self._sample_join_month(config.remote_join_spread),
            departed_month=None,
        )

    def _sample_remote_connection(self, ixp: IXP) -> ConnectionKind:
        config = self.config
        roll = self._rng.random()
        if ixp.allows_resellers:
            if roll < config.reseller_share_of_remote:
                return ConnectionKind.REMOTE_RESELLER
            if ixp.federation_id is not None and roll < (
                config.reseller_share_of_remote + config.federation_share_of_remote
            ):
                return ConnectionKind.REMOTE_FEDERATION
            return ConnectionKind.REMOTE_LONG_CABLE
        if ixp.federation_id is not None and roll < 0.15:
            return ConnectionKind.REMOTE_FEDERATION
        return ConnectionKind.REMOTE_LONG_CABLE

    def _pick_reseller_for(self, ixp_id: str) -> str | None:
        serving = [r for r in sorted(self._world.resellers)
                   if ixp_id in self._world.resellers[r].served_ixp_ids]
        if not serving:
            return None
        return self._rng.choice(serving)

    def _sample_local_capacity(self, ixp: IXP) -> int:
        options = [c for c in (CAPACITY_GE, CAPACITY_10GE, CAPACITY_40GE, CAPACITY_100GE)
                   if c >= ixp.min_physical_capacity_mbps]
        weights_map = {CAPACITY_GE: 0.45, CAPACITY_10GE: 0.41, CAPACITY_40GE: 0.04,
                       CAPACITY_100GE: 0.10}
        weights = [weights_map[c] for c in options]
        return self._rng.choices(options, weights=weights, k=1)[0]

    def _sample_remote_capacity(self, ixp: IXP, connection: ConnectionKind) -> int:
        if connection is ConnectionKind.REMOTE_RESELLER:
            if self._rng.random() < self.config.fractional_port_share_of_reseller:
                return self._rng.choice(list(FRACTIONAL_CAPACITIES))
            return self._rng.choices(
                [max(CAPACITY_GE, ixp.min_physical_capacity_mbps), CAPACITY_10GE],
                weights=[0.75, 0.25], k=1)[0]
        options = [c for c in (CAPACITY_GE, CAPACITY_10GE, CAPACITY_40GE)
                   if c >= ixp.min_physical_capacity_mbps]
        weights_map = {CAPACITY_GE: 0.55, CAPACITY_10GE: 0.40, CAPACITY_40GE: 0.05}
        return self._rng.choices(options, weights=[weights_map[c] for c in options], k=1)[0]

    def _sample_join_month(self, spread: float) -> int:
        if self.config.months <= 1 or self._rng.random() >= spread:
            return 0
        return self._rng.randint(1, self.config.months - 1)

    def _build_departed_memberships(
        self,
        ixp: IXP,
        candidates: list[int],
        already_chosen: set[int],
    ) -> None:
        """Add historical memberships that left the IXP inside the window."""
        config = self.config
        if config.months <= 1:
            return
        size = self._ixp_sizes[ixp.ixp_id]
        remote_fraction = self._ixp_remote_fraction[ixp.ixp_id]
        n_local_departed = round(config.local_departure_rate * size * (1 - remote_fraction))
        n_remote_departed = round(config.remote_departure_rate * size * remote_fraction)
        free = [a for a in candidates if a not in already_chosen]
        if not free:
            return

        local_picks = self._weighted_sample_asns(free, n_local_departed)
        remaining = [a for a in free if a not in set(local_picks)]
        remote_picks = self._weighted_sample_asns(remaining, n_remote_departed)

        for asn in local_picks:
            system = self._world.ases[asn]
            member_facility = self._rng.choice(sorted(ixp.facility_ids))
            system.facility_ids.add(member_facility)
            self._materialise_membership(_MembershipPlan(
                ixp_id=ixp.ixp_id,
                asn=asn,
                connection=ConnectionKind.LOCAL,
                member_facility_id=member_facility,
                port_capacity_mbps=self._sample_local_capacity(ixp),
                reseller_id=None,
                joined_month=0,
                departed_month=self._rng.randint(1, config.months - 1),
            ))
        for asn in remote_picks:
            plan = self._plan_one_remote_member(ixp, asn, band="far")
            plan.joined_month = 0
            plan.departed_month = self._rng.randint(1, config.months - 1)
            self._materialise_membership(plan)

    # ------------------------------------------------------------------ #
    # Materialisation
    # ------------------------------------------------------------------ #
    def _router_for(self, asn: int, facility_id: str) -> Router:
        key = (asn, facility_id)
        if key in self._router_by_as_facility:
            return self._world.routers[self._router_by_as_facility[key]]
        self._router_counter += 1
        router_id = f"rtr-{self._router_counter:06d}"
        router = Router(router_id=router_id, asn=asn, facility_id=facility_id)
        self._world.routers[router_id] = router
        self._router_by_as_facility[key] = router_id
        return router

    def _materialise_membership(self, plan: _MembershipPlan) -> None:
        router = self._router_for(plan.asn, plan.member_facility_id)
        interface_ip = self._plan.allocate_member_interface(plan.ixp_id)
        router.add_interface(interface_ip)
        self._world.interfaces[interface_ip] = Interface(
            ip=interface_ip,
            asn=plan.asn,
            router_id=router.router_id,
            kind=InterfaceKind.IXP_LAN,
            ixp_id=plan.ixp_id,
        )
        membership = IXPMembership(
            ixp_id=plan.ixp_id,
            asn=plan.asn,
            interface_ip=interface_ip,
            router_id=router.router_id,
            member_facility_id=plan.member_facility_id,
            connection=plan.connection,
            port_capacity_mbps=plan.port_capacity_mbps,
            reseller_id=plan.reseller_id,
            joined_month=plan.joined_month,
            departed_month=plan.departed_month,
        )
        self._world.add_membership(membership)

    # ------------------------------------------------------------------ #
    # Backbone interfaces, private links, prefixes
    # ------------------------------------------------------------------ #
    def _ensure_home_routers(self) -> None:
        """Give every AS at least one router (at its home facility).

        Non-member ASes still appear in traceroute paths (as transit hops,
        private-peering neighbours or destinations), so they need routers and
        interfaces too.
        """
        self._world.reindex()
        for asn in sorted(self._world.ases):
            if self._world.routers_of_as(asn):
                continue
            home_facility = sorted(self._world.ases[asn].facility_ids)[0]
            self._router_for(asn, home_facility)

    def _build_transit_interconnects(self) -> None:
        """Realise every customer/provider relationship as a facility cross-connect.

        Transit interconnections are physically established where the customer
        is present (typically the carrier hotel hosting its main point of
        presence); the provider deploys or extends a PoP there.  This is the
        colocation correlation that makes private-connectivity localisation
        (Step 5 of the paper) work, so the ground truth must exhibit it.
        """
        self._world.reindex()
        preferred_facility: dict[int, str] = {}
        for membership in self._world.memberships:
            if membership.departed_month is None:
                preferred_facility.setdefault(membership.asn, membership.member_facility_id)

        for customer in sorted(self._world.ases):
            system = self._world.ases[customer]
            if system.is_reseller_carrier:
                continue
            facility_id = preferred_facility.get(
                customer, sorted(system.facility_ids)[0] if system.facility_ids else None)
            if facility_id is None:
                continue
            for provider in sorted(self._world.relationships.providers_of(customer)):
                provider_system = self._world.ases.get(provider)
                if provider_system is None:
                    continue
                provider_system.facility_ids.add(facility_id)
                customer_router = self._router_for(customer, facility_id)
                provider_router = self._router_for(provider, facility_id)
                ip_customer = self._plan.allocate_infrastructure_ip(customer)
                ip_provider = self._plan.allocate_infrastructure_ip(provider)
                customer_router.add_interface(ip_customer)
                provider_router.add_interface(ip_provider)
                self._world.interfaces[ip_customer] = Interface(
                    ip=ip_customer, asn=customer, router_id=customer_router.router_id,
                    kind=InterfaceKind.PRIVATE_PEERING)
                self._world.interfaces[ip_provider] = Interface(
                    ip=ip_provider, asn=provider, router_id=provider_router.router_id,
                    kind=InterfaceKind.PRIVATE_PEERING)
                self._world.private_links.append(PrivateLink(
                    facility_id=facility_id,
                    asn_a=customer,
                    asn_b=provider,
                    interface_a=ip_customer,
                    interface_b=ip_provider,
                    router_a=customer_router.router_id,
                    router_b=provider_router.router_id,
                ))
        self._world.reindex()

    def _build_backbone_interfaces(self) -> None:
        low, high = self.config.backbone_interfaces_per_router
        for router in self._world.routers.values():
            for _ in range(self._rng.randint(low, high)):
                ip = self._plan.allocate_infrastructure_ip(router.asn)
                router.add_interface(ip)
                self._world.interfaces[ip] = Interface(
                    ip=ip,
                    asn=router.asn,
                    router_id=router.router_id,
                    kind=InterfaceKind.BACKBONE,
                )

    def _build_private_links(self) -> None:
        config = self.config
        links_per_as: dict[int, int] = defaultdict(int)
        routers_by_facility: dict[str, list[Router]] = defaultdict(list)
        for router in self._world.routers.values():
            routers_by_facility[router.facility_id].append(router)

        for facility_id in sorted(routers_by_facility):
            routers = routers_by_facility[facility_id]
            by_asn: dict[int, Router] = {}
            for router in routers:
                by_asn.setdefault(router.asn, router)
            asns = sorted(by_asn)
            if len(asns) < 2:
                continue
            pairs = [(a, b) for i, a in enumerate(asns) for b in asns[i + 1:]]
            if len(pairs) > 400:
                pairs = self._rng.sample(pairs, k=400)
            for asn_a, asn_b in pairs:
                if self._rng.random() >= config.private_link_probability:
                    continue
                if (links_per_as[asn_a] >= config.max_private_links_per_as
                        or links_per_as[asn_b] >= config.max_private_links_per_as):
                    continue
                router_a, router_b = by_asn[asn_a], by_asn[asn_b]
                ip_a = self._plan.allocate_infrastructure_ip(asn_a)
                ip_b = self._plan.allocate_infrastructure_ip(asn_b)
                router_a.add_interface(ip_a)
                router_b.add_interface(ip_b)
                self._world.interfaces[ip_a] = Interface(
                    ip=ip_a, asn=asn_a, router_id=router_a.router_id,
                    kind=InterfaceKind.PRIVATE_PEERING)
                self._world.interfaces[ip_b] = Interface(
                    ip=ip_b, asn=asn_b, router_id=router_b.router_id,
                    kind=InterfaceKind.PRIVATE_PEERING)
                self._world.private_links.append(PrivateLink(
                    facility_id=facility_id,
                    asn_a=asn_a,
                    asn_b=asn_b,
                    interface_a=ip_a,
                    interface_b=ip_b,
                    router_a=router_a.router_id,
                    router_b=router_b.router_id,
                ))
                self._world.relationships.add_peering(asn_a, asn_b)
                links_per_as[asn_a] += 1
                links_per_as[asn_b] += 1

    def _build_routed_prefixes(self) -> None:
        for asn in sorted(self._world.ases):
            system = self._world.ases[asn]
            for _ in range(system.prefix_count):
                prefix = self._plan.allocate_routed_prefix(asn)
                self._world.routed_prefixes[str(prefix)] = asn
        for asn, block in self._plan.infrastructure_blocks().items():
            self._world.infrastructure_prefixes[str(block)] = asn

    # ------------------------------------------------------------------ #
    # Introspection helpers used by tests
    # ------------------------------------------------------------------ #
    def planned_remote_fraction(self, ixp_id: str) -> float:
        """The remote fraction the generator targeted for one IXP."""
        if ixp_id not in self._ixp_remote_fraction:
            raise TopologyError(f"unknown IXP {ixp_id!r}")
        return self._ixp_remote_fraction[ixp_id]
