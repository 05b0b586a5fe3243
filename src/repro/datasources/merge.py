"""Merging the simulated data sources into the observed dataset.

The paper resolves conflicting records with a fixed preference order —
``IXP websites > Hurricane Electric > PeeringDB > PCH`` — and reports, per
source, the total, unique and conflicting entries (Table 1).  This module
re-implements exactly that merge and produces:

* an :class:`ObservedDataset` — the *only* topology knowledge the inference
  pipeline is allowed to use (interfaces, prefixes, colocation, coordinates,
  port capacities, per-AS attributes), and
* a :class:`MergeStatistics` record that regenerates Table 1.

The dataset is **generation-stamped** (:class:`~repro.versioning.Versioned`)
and has one write path: its public tables are read-only views, so every
mutation goes through a journal-emitting mutator
(:meth:`ObservedDataset.set_ixp_prefix`, :meth:`~ObservedDataset.set_interface`,
the colocation/capacity/location/attribute setters).  Each records a typed
:class:`~repro.versioning.Change` under one of the :data:`DATASET_DOMAINS`
and bumps the matching domain generation — so continuous feed refreshes
re-key exactly the consumers they can affect instead of tearing every cache
down.
:class:`DatasetMerger` itself writes through these mutators, resolving each
key to its preferred value before writing, so a merge journals exactly one
``ADD`` record per key; :func:`build_observed_dataset` adds the CAIDA cone
sizes and APNIC populations through :meth:`ObservedDataset.set_attribute`.
"""

from __future__ import annotations

import ipaddress
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from threading import Lock
from types import MappingProxyType

from repro.datasources.records import SourceName, SourceSnapshot
from repro.exceptions import DataSourceError
from repro.geo.coordinates import GeoPoint
from repro.netindex import LPMIndex, parse_prefix
from repro.topology.entities import TrafficLevel
from repro.versioning import Change, ChangeKind, GenerationGuardedIndex, Versioned

#: Preference order used to resolve conflicting records (highest first).
SOURCE_PREFERENCE: tuple[SourceName, ...] = (
    SourceName.WEBSITE,
    SourceName.HE,
    SourceName.PDB,
    SourceName.PCH,
)

# --------------------------------------------------------------------- #
# Versioning domains — the named slices of the dataset that journalled
# mutations are recorded under.  Consumers (the geo-distance index, the
# step-graph engine's cache keys) subscribe to exactly the domains that can
# affect them.
# --------------------------------------------------------------------- #
DOMAIN_IXP_PREFIXES = "ixp_prefixes"
DOMAIN_INTERFACES = "interfaces"
DOMAIN_IXP_FACILITIES = "ixp_facilities"
DOMAIN_AS_FACILITIES = "as_facilities"
DOMAIN_FACILITY_LOCATIONS = "facility_locations"
DOMAIN_CAPACITIES = "capacities"
DOMAIN_ATTRIBUTES = "attributes"

DATASET_DOMAINS: tuple[str, ...] = (
    DOMAIN_IXP_PREFIXES,
    DOMAIN_INTERFACES,
    DOMAIN_IXP_FACILITIES,
    DOMAIN_AS_FACILITIES,
    DOMAIN_FACILITY_LOCATIONS,
    DOMAIN_CAPACITIES,
    DOMAIN_ATTRIBUTES,
)

#: The dict fields :meth:`ObservedDataset.set_attribute` may write (all
#: journalled under :data:`DOMAIN_ATTRIBUTES`).
_ATTRIBUTE_FIELDS: frozenset[str] = frozenset(
    {"traffic_levels", "user_populations", "customer_cone_sizes", "countries"}
)

#: The empty default of every :class:`ObservedDataset` table argument.
_NO_ENTRIES: Mapping = MappingProxyType({})


def _canonical_prefix(prefix: str) -> str:
    """One spelling per LAN prefix: ``str(ipaddress.ip_network(prefix))``."""
    try:
        return str(ipaddress.ip_network(prefix))
    except ValueError as error:
        raise DataSourceError(f"invalid LAN prefix {prefix!r}: {error}") from error


#: The domains the geometry of Steps 3-5 depends on; the
#: :class:`~repro.geo.distindex.GeoDistanceIndex` replays exactly these.
GEO_DOMAINS: tuple[str, ...] = (
    DOMAIN_FACILITY_LOCATIONS,
    DOMAIN_IXP_FACILITIES,
    DOMAIN_AS_FACILITIES,
)


@dataclass
class SourceContribution:
    """Per-source contribution counters (one row of Table 1)."""

    source: SourceName
    prefixes_total: int = 0
    prefixes_unique: int = 0
    prefixes_conflicts: int = 0
    interfaces_total: int = 0
    interfaces_unique: int = 0
    interfaces_conflicts: int = 0

    @property
    def interface_conflict_rate(self) -> float:
        """Fraction of this source's interface records that conflict."""
        if self.interfaces_total == 0:
            return 0.0
        return self.interfaces_conflicts / self.interfaces_total


@dataclass
class MergeStatistics:
    """Aggregated merge statistics (Table 1)."""

    contributions: dict[SourceName, SourceContribution] = field(default_factory=dict)
    total_prefixes: int = 0
    total_interfaces: int = 0

    def rows(self) -> list[dict[str, object]]:
        """Render the statistics as Table 1-style rows."""
        rows: list[dict[str, object]] = []
        for source in SOURCE_PREFERENCE:
            if source not in self.contributions:
                continue
            c = self.contributions[source]
            rows.append(
                {
                    "source": source.value,
                    "prefixes_total": c.prefixes_total,
                    "prefixes_unique": c.prefixes_unique,
                    "prefixes_conflicts": c.prefixes_conflicts,
                    "interfaces_total": c.interfaces_total,
                    "interfaces_unique": c.interfaces_unique,
                    "interfaces_conflicts": c.interfaces_conflicts,
                }
            )
        rows.append(
            {
                "source": "Total",
                "prefixes_total": self.total_prefixes,
                "prefixes_unique": "",
                "prefixes_conflicts": "",
                "interfaces_total": self.total_interfaces,
                "interfaces_unique": "",
                "interfaces_conflicts": "",
            }
        )
        return rows


class ObservedDataset(Versioned):
    """The merged view of the world that inference and analysis consume.

    The twelve tables (``ixp_prefixes`` … ``countries``) are read-only
    ``types.MappingProxyType`` views over private dicts, and the facility
    footprints in ``ixp_facilities`` / ``as_facilities`` are frozensets, so
    the journal-emitting mutators (``set_*`` / ``add_*`` / ``remove_*``) are
    the only way to change the dataset.  Each records a typed change and
    bumps the matching domain generation; the constructor copies its
    arguments and journals nothing.

    The hot lookups (:meth:`ixp_for_ip`, :meth:`interfaces_of_ixp`,
    :meth:`members_of_ixp`) are served from lazily built indexes guarded by
    domain generations (:class:`~repro.versioning.GenerationGuardedIndex`),
    each rebuilt on the first lookup after its domain moves, so every
    mutation is visible immediately, in-place replacement at unchanged size
    included.  LAN prefixes are keyed by their canonical spelling
    (``str(ipaddress.ip_network(prefix))``), as in
    :class:`~repro.datasources.prefix2as.Prefix2ASMap`.
    """

    def __init__(
        self,
        ixp_prefixes: Mapping[str, str] = _NO_ENTRIES,
        interface_ixp: Mapping[str, str] = _NO_ENTRIES,
        interface_asn: Mapping[str, int] = _NO_ENTRIES,
        ixp_facilities: Mapping[str, Iterable[str]] = _NO_ENTRIES,
        as_facilities: Mapping[int, Iterable[str]] = _NO_ENTRIES,
        facility_locations: Mapping[str, GeoPoint] = _NO_ENTRIES,
        port_capacities: Mapping[tuple[str, int], int] = _NO_ENTRIES,
        min_physical_capacity: Mapping[str, int] = _NO_ENTRIES,
        traffic_levels: Mapping[int, TrafficLevel] = _NO_ENTRIES,
        user_populations: Mapping[int, int] = _NO_ENTRIES,
        customer_cone_sizes: Mapping[int, int] = _NO_ENTRIES,
        countries: Mapping[int, str] = _NO_ENTRIES,
    ) -> None:
        self._ixp_prefixes = {
            _canonical_prefix(prefix): ixp_id for prefix, ixp_id in ixp_prefixes.items()
        }
        self._interface_ixp = dict(interface_ixp)
        self._interface_asn = dict(interface_asn)
        self._ixp_facilities = {k: frozenset(v) for k, v in ixp_facilities.items()}
        self._as_facilities = {k: frozenset(v) for k, v in as_facilities.items()}
        self._facility_locations = dict(facility_locations)
        self._port_capacities = dict(port_capacities)
        self._min_physical_capacity = dict(min_physical_capacity)
        self._traffic_levels = dict(traffic_levels)
        self._user_populations = dict(user_populations)
        self._customer_cone_sizes = dict(customer_cone_sizes)
        self._countries = dict(countries)
        # Derived lookup indexes, each rebuilt when its domain generation moves.
        self._lan_index: GenerationGuardedIndex[LPMIndex[str]] = GenerationGuardedIndex()
        self._ixp_views: GenerationGuardedIndex[dict[str, dict[str, int]]] = (
            GenerationGuardedIndex())
        self._ixp_members: dict[str, set[int]] = {}
        # Serialises fills of the member memo when concurrent caller threads
        # read the dataset (mutators stay single-threaded by contract).
        self._view_lock = Lock()

    # ------------------------------------------------------------------ #
    # Read-only tables
    # ------------------------------------------------------------------ #
    @property
    def ixp_prefixes(self) -> Mapping[str, str]:
        """Canonical LAN prefix -> IXP id."""
        return MappingProxyType(self._ixp_prefixes)

    @property
    def interface_ixp(self) -> Mapping[str, str]:
        """Member interface IP -> IXP id."""
        return MappingProxyType(self._interface_ixp)

    @property
    def interface_asn(self) -> Mapping[str, int]:
        """Member interface IP -> member ASN."""
        return MappingProxyType(self._interface_asn)

    @property
    def ixp_facilities(self) -> Mapping[str, frozenset[str]]:
        """IXP id -> its observed facility footprint."""
        return MappingProxyType(self._ixp_facilities)

    @property
    def as_facilities(self) -> Mapping[int, frozenset[str]]:
        """Member ASN -> its observed facility footprint."""
        return MappingProxyType(self._as_facilities)

    @property
    def facility_locations(self) -> Mapping[str, GeoPoint]:
        """Facility id -> best-known coordinates."""
        return MappingProxyType(self._facility_locations)

    @property
    def port_capacities(self) -> Mapping[tuple[str, int], int]:
        """(IXP id, member ASN) -> observed port capacity (Mbit/s)."""
        return MappingProxyType(self._port_capacities)

    @property
    def min_physical_capacity(self) -> Mapping[str, int]:
        """IXP id -> the smallest physical port it sells (Mbit/s)."""
        return MappingProxyType(self._min_physical_capacity)

    @property
    def traffic_levels(self) -> Mapping[int, TrafficLevel]:
        """ASN -> self-reported traffic level (analysis only)."""
        return MappingProxyType(self._traffic_levels)

    @property
    def user_populations(self) -> Mapping[int, int]:
        """ASN -> estimated user population (analysis only)."""
        return MappingProxyType(self._user_populations)

    @property
    def customer_cone_sizes(self) -> Mapping[int, int]:
        """ASN -> customer cone size (analysis only)."""
        return MappingProxyType(self._customer_cone_sizes)

    @property
    def countries(self) -> Mapping[int, str]:
        """ASN -> registration country (analysis only)."""
        return MappingProxyType(self._countries)

    # ------------------------------------------------------------------ #
    # Versioning
    # ------------------------------------------------------------------ #
    def domain_token(self, domain: str) -> int:
        """Version token of one of the :data:`DATASET_DOMAINS`: its generation."""
        if domain not in DATASET_DOMAINS:
            # A typo in a StepSpec.data_domains declaration must fail loudly,
            # not produce a wrong-but-valid token (mirrors config_fingerprint).
            raise DataSourceError(f"unknown dataset domain {domain!r}")
        return self.domain_generation(domain)

    # ------------------------------------------------------------------ #
    # Journal-emitting mutators
    # ------------------------------------------------------------------ #
    def set_ixp_prefix(self, prefix: str, ixp_id: str) -> bool:
        """Register (or re-map) one peering-LAN prefix; True if anything changed.

        The LAN LPM rebuilds on the next lookup.
        """
        key = _canonical_prefix(prefix)
        old = self._ixp_prefixes.get(key)
        if old == ixp_id:
            return False
        kind = ChangeKind.ADD if key not in self._ixp_prefixes else ChangeKind.REPLACE
        self._ixp_prefixes[key] = ixp_id
        self.record_change(Change(kind, DOMAIN_IXP_PREFIXES, key, old, ixp_id))
        return True

    def remove_ixp_prefix(self, prefix: str) -> bool:
        """Drop one peering-LAN prefix; the LAN LPM rebuilds on the next lookup."""
        key = _canonical_prefix(prefix)
        if key not in self._ixp_prefixes:
            return False
        old = self._ixp_prefixes.pop(key)
        self.record_change(
            Change(ChangeKind.REMOVE, DOMAIN_IXP_PREFIXES, key, old, None))
        return True

    def set_interface(self, ip: str, ixp_id: str, asn: int) -> bool:
        """Register (or re-own) one IXP member interface; True if changed."""
        old = (self._interface_ixp.get(ip), self._interface_asn.get(ip))
        if old == (ixp_id, asn):
            return False
        kind = ChangeKind.ADD if ip not in self._interface_ixp else ChangeKind.REPLACE
        self._interface_ixp[ip] = ixp_id
        self._interface_asn[ip] = asn
        self.record_change(
            Change(kind, DOMAIN_INTERFACES, ip, old, (ixp_id, asn)))
        return True

    def remove_interface(self, ip: str) -> bool:
        """Drop one member interface from both interface dicts."""
        if ip not in self._interface_ixp and ip not in self._interface_asn:
            return False
        old = (self._interface_ixp.pop(ip, None), self._interface_asn.pop(ip, None))
        self.record_change(Change(ChangeKind.REMOVE, DOMAIN_INTERFACES, ip, old, None))
        return True

    def set_facility_location(self, facility_id: str, location: GeoPoint) -> bool:
        """Record (or move) a facility's coordinates; True if changed."""
        old = self._facility_locations.get(facility_id)
        if old == location:
            return False
        kind = (
            ChangeKind.ADD
            if facility_id not in self._facility_locations
            else ChangeKind.REPLACE
        )
        self._facility_locations[facility_id] = location
        self.record_change(
            Change(kind, DOMAIN_FACILITY_LOCATIONS, facility_id, old, location))
        return True

    def add_ixp_facility(self, ixp_id: str, facility_id: str) -> bool:
        """Add one facility to an IXP's observed footprint; True if new."""
        facilities = self._ixp_facilities.get(ixp_id, frozenset())
        if facility_id in facilities:
            return False
        self._ixp_facilities[ixp_id] = facilities | {facility_id}
        self.record_change(
            Change(ChangeKind.ADD, DOMAIN_IXP_FACILITIES, (ixp_id, facility_id)))
        return True

    def remove_ixp_facility(self, ixp_id: str, facility_id: str) -> bool:
        """Drop one facility from an IXP's observed footprint."""
        facilities = self._ixp_facilities.get(ixp_id)
        if facilities is None or facility_id not in facilities:
            return False
        self._ixp_facilities[ixp_id] = facilities - {facility_id}
        self.record_change(
            Change(ChangeKind.REMOVE, DOMAIN_IXP_FACILITIES, (ixp_id, facility_id)))
        return True

    def add_as_facility(self, asn: int, facility_id: str) -> bool:
        """Add one facility to a member AS's observed footprint; True if new."""
        facilities = self._as_facilities.get(asn, frozenset())
        if facility_id in facilities:
            return False
        self._as_facilities[asn] = facilities | {facility_id}
        self.record_change(
            Change(ChangeKind.ADD, DOMAIN_AS_FACILITIES, (asn, facility_id)))
        return True

    def remove_as_facility(self, asn: int, facility_id: str) -> bool:
        """Drop one facility from a member AS's observed footprint."""
        facilities = self._as_facilities.get(asn)
        if facilities is None or facility_id not in facilities:
            return False
        self._as_facilities[asn] = facilities - {facility_id}
        self.record_change(
            Change(ChangeKind.REMOVE, DOMAIN_AS_FACILITIES, (asn, facility_id)))
        return True

    def set_port_capacity(self, ixp_id: str, asn: int, capacity_mbps: int) -> bool:
        """Record a member's observed port capacity at one IXP."""
        key = (ixp_id, asn)
        old = self._port_capacities.get(key)
        if old == capacity_mbps:
            return False
        kind = ChangeKind.ADD if key not in self._port_capacities else ChangeKind.REPLACE
        self._port_capacities[key] = capacity_mbps
        self.record_change(Change(kind, DOMAIN_CAPACITIES, key, old, capacity_mbps))
        return True

    def set_min_capacity(self, ixp_id: str, capacity_mbps: int) -> bool:
        """Record the minimum physical port capacity an IXP sells directly."""
        old = self._min_physical_capacity.get(ixp_id)
        if old == capacity_mbps:
            return False
        kind = (
            ChangeKind.ADD
            if ixp_id not in self._min_physical_capacity
            else ChangeKind.REPLACE
        )
        self._min_physical_capacity[ixp_id] = capacity_mbps
        self.record_change(
            Change(kind, DOMAIN_CAPACITIES, ("min", ixp_id), old, capacity_mbps))
        return True

    def set_attribute(self, attribute: str, key: object, value: object) -> bool:
        """Record one analysis-only attribute (traffic level, population...).

        Only the analysis-attribute dicts are legal here: routing any other
        field through this mutator would journal it under the wrong domain
        and silently desynchronise every journal consumer.
        """
        if attribute not in _ATTRIBUTE_FIELDS:
            raise DataSourceError(
                f"{attribute!r} is not an analysis attribute; use its dedicated mutator")
        backing: dict = getattr(self, f"_{attribute}")
        old = backing.get(key)
        if old == value:
            return False
        kind = ChangeKind.ADD if key not in backing else ChangeKind.REPLACE
        backing[key] = value
        self.record_change(
            Change(kind, DOMAIN_ATTRIBUTES, (attribute, key), old, value))
        return True

    # ------------------------------------------------------------------ #
    # Interface / prefix lookups
    # ------------------------------------------------------------------ #
    def ixp_ids(self) -> list[str]:
        """All IXPs present in the merged dataset."""
        return sorted(set(self._ixp_prefixes.values()) | set(self._ixp_facilities))

    def _build_interface_views(self) -> dict[str, dict[str, int]]:
        by_ixp: dict[str, dict[str, int]] = {}
        for ip, owner in self._interface_ixp.items():
            asn = self._interface_asn.get(ip)
            # Skip interfaces with no ASN record rather than letting one
            # inconsistent entry poison the view for every IXP.
            if asn is not None:
                by_ixp.setdefault(owner, {})[ip] = asn
        # A rebuilt view invalidates the member-set memo derived from it.
        with self._view_lock:
            self._ixp_members = {}
        return by_ixp

    def _interfaces_by_ixp(self) -> dict[str, dict[str, int]]:
        """IXP -> (IP -> member ASN) view, re-keyed when interfaces change."""
        return self._ixp_views.get(
            self.domain_generation(DOMAIN_INTERFACES), self._build_interface_views)

    def interfaces_of_ixp(self, ixp_id: str) -> dict[str, int]:
        """IP -> member ASN for one IXP."""
        return dict(self._interfaces_by_ixp().get(ixp_id, {}))

    def members_of_ixp(self, ixp_id: str) -> set[int]:
        """The member ASNs observed at one IXP."""
        # Refresh the per-IXP views first: a rebuild clears the member memo.
        by_ixp = self._interfaces_by_ixp()
        members = self._ixp_members.get(ixp_id)
        if members is None:
            members = set(by_ixp.get(ixp_id, {}).values())
            with self._view_lock:
                self._ixp_members[ixp_id] = members
        return set(members)

    def asn_of_interface(self, ip: str) -> int | None:
        """Member ASN owning an IXP interface, if known."""
        return self._interface_asn.get(ip)

    def ixp_of_interface(self, ip: str) -> str | None:
        """IXP whose peering LAN contains an interface, if known."""
        return self._interface_ixp.get(ip)

    def ixp_for_ip(self, ip: str) -> str | None:
        """Longest-prefix match of an arbitrary IP against the known LANs.

        The most specific LAN prefix containing the address wins — the seed
        implementation returned the *first* match in insertion order, which
        misclassified addresses whenever a more-specific LAN nested inside a
        broader registered prefix.
        """
        index = self._lan_index.get(
            self.domain_generation(DOMAIN_IXP_PREFIXES), self._build_lan_index)
        return index.lookup(ip)

    def _build_lan_index(self) -> LPMIndex[str]:
        return LPMIndex(
            (parse_prefix(prefix), ixp_id)
            for prefix, ixp_id in self._ixp_prefixes.items())

    # ------------------------------------------------------------------ #
    # Colocation lookups
    # ------------------------------------------------------------------ #
    def facilities_of_ixp(self, ixp_id: str) -> set[str]:
        """Observed facilities of one IXP (may be incomplete)."""
        return set(self._ixp_facilities.get(ixp_id, ()))

    def facilities_of_as(self, asn: int) -> set[str]:
        """Observed facilities of one AS (may be incomplete or spurious)."""
        return set(self._as_facilities.get(asn, ()))

    def has_facility_data_for_as(self, asn: int) -> bool:
        """Whether any facility is recorded for an AS (no set copy)."""
        return bool(self._as_facilities.get(asn))

    def facility_location(self, facility_id: str) -> GeoPoint | None:
        """Best-known coordinates of a facility."""
        return self._facility_locations.get(facility_id)

    def common_facilities(self, ixp_id: str, asn: int) -> set[str]:
        """Facilities shared by an IXP and a member AS, as observed."""
        return self.facilities_of_ixp(ixp_id) & self.facilities_of_as(asn)

    # ------------------------------------------------------------------ #
    # Port capacities
    # ------------------------------------------------------------------ #
    def port_capacity(self, ixp_id: str, asn: int) -> int | None:
        """Observed port capacity of a member at an IXP (Mbit/s), if known."""
        return self._port_capacities.get((ixp_id, asn))

    def min_capacity(self, ixp_id: str) -> int | None:
        """Minimum physical port capacity advertised by the IXP, if known."""
        return self._min_physical_capacity.get(ixp_id)


class DatasetMerger:
    """Merges source snapshots with the paper's preference order.

    All writes go through the dataset's journal-emitting mutators, and each
    key is resolved before it is written, so the new dataset's journal holds
    one ``ADD`` record per key and no lower-preference value is ever written
    only to be replaced.
    """

    def __init__(self, snapshots: list[SourceSnapshot]) -> None:
        if not snapshots:
            raise DataSourceError("at least one source snapshot is required")
        self.snapshots = snapshots
        self._by_source = {snapshot.source: snapshot for snapshot in snapshots}

    def merge(self) -> tuple[ObservedDataset, MergeStatistics]:
        """Merge every snapshot into one new observed dataset plus Table 1 stats."""
        dataset = ObservedDataset()
        statistics = MergeStatistics()

        ordered = [s for s in SOURCE_PREFERENCE if s in self._by_source]
        extra = [s.source for s in self.snapshots if s.source not in SOURCE_PREFERENCE]

        self._merge_prefixes_and_interfaces(dataset, statistics, ordered)
        self._merge_facilities(dataset, ordered + extra)
        self._merge_colocation(dataset, ordered)
        self._merge_capacities(dataset, ordered)
        self._merge_attributes(dataset, ordered)
        return dataset, statistics

    # ------------------------------------------------------------------ #
    def _merge_prefixes_and_interfaces(
        self,
        dataset: ObservedDataset,
        statistics: MergeStatistics,
        ordered: list[SourceName],
    ) -> None:
        prefix_values: dict[str, dict[SourceName, str]] = {}
        interface_values: dict[str, dict[SourceName, tuple[str, int]]] = {}

        for source in ordered:
            snapshot = self._by_source[source]
            for record in snapshot.prefixes:
                prefix_values.setdefault(record.prefix, {})[source] = record.ixp_id
            for record in snapshot.interfaces:
                interface_values.setdefault(record.ip, {})[source] = (record.ixp_id, record.asn)

        for source in ordered:
            statistics.contributions[source] = SourceContribution(source=source)

        for prefix, per_source in prefix_values.items():
            chosen_source = next(s for s in ordered if s in per_source)
            dataset.set_ixp_prefix(prefix, per_source[chosen_source])
            for source, value in per_source.items():
                contribution = statistics.contributions[source]
                contribution.prefixes_total += 1
                if len(per_source) == 1:
                    contribution.prefixes_unique += 1
                if value != per_source[chosen_source]:
                    contribution.prefixes_conflicts += 1

        for ip, per_source in interface_values.items():
            chosen_source = next(s for s in ordered if s in per_source)
            ixp_id, asn = per_source[chosen_source]
            dataset.set_interface(ip, ixp_id, asn)
            for source, value in per_source.items():
                contribution = statistics.contributions[source]
                contribution.interfaces_total += 1
                if len(per_source) == 1:
                    contribution.interfaces_unique += 1
                if value != per_source[chosen_source]:
                    contribution.interfaces_conflicts += 1

        statistics.total_prefixes = len(dataset.ixp_prefixes)
        statistics.total_interfaces = len(dataset.interface_ixp)

    def _merge_facilities(self, dataset: ObservedDataset, sources: list[SourceName]) -> None:
        # Resolve each key to its final value *before* writing, so
        # intermediate lower-preference values never touch the mutators and
        # the journal records one ADD per key.
        # PeeringDB provides the base coordinates; Inflect corrections win.
        resolved: dict[str, GeoPoint] = {}
        for source in (SourceName.PCH, SourceName.PDB, SourceName.HE, SourceName.WEBSITE):
            if source not in self._by_source:
                continue
            for record in self._by_source[source].facilities:
                resolved[record.facility_id] = record.location
        if SourceName.INFLECT in self._by_source:
            for record in self._by_source[SourceName.INFLECT].facilities:
                resolved[record.facility_id] = record.location
        for facility_id, location in resolved.items():
            dataset.set_facility_location(facility_id, location)

    def _merge_colocation(self, dataset: ObservedDataset, ordered: list[SourceName]) -> None:
        inflect = self._by_source.get(SourceName.INFLECT)
        snapshots = [self._by_source[s] for s in ordered]
        if inflect is not None:
            snapshots.append(inflect)
        for snapshot in snapshots:
            for ixp_id, facility_ids in snapshot.ixp_facilities.items():
                for facility_id in facility_ids:
                    dataset.add_ixp_facility(ixp_id, facility_id)
            for record in snapshot.as_facilities:
                dataset.add_as_facility(record.asn, record.facility_id)

    def _merge_capacities(self, dataset: ObservedDataset, ordered: list[SourceName]) -> None:
        # Resolve first (lower-preference sources first so higher-preference
        # records overwrite), write once — see _merge_facilities.
        port: dict[tuple[str, int], int] = {}
        minimum: dict[str, int] = {}
        for source in reversed(ordered):
            snapshot = self._by_source[source]
            for record in snapshot.port_capacities:
                port[(record.ixp_id, record.asn)] = record.capacity_mbps
            for ixp_id, capacity in snapshot.min_physical_capacity.items():
                minimum[ixp_id] = capacity
        for (ixp_id, asn), capacity in port.items():
            dataset.set_port_capacity(ixp_id, asn, capacity)
        for ixp_id, capacity in minimum.items():
            dataset.set_min_capacity(ixp_id, capacity)

    def _merge_attributes(self, dataset: ObservedDataset, ordered: list[SourceName]) -> None:
        for attribute in ("traffic_levels", "user_populations", "countries"):
            resolved: dict[int, object] = {}
            for source in reversed(ordered):
                resolved.update(getattr(self._by_source[source], attribute))
            for key, value in resolved.items():
                dataset.set_attribute(attribute, key, value)


def build_observed_dataset(world, noise=None) -> tuple[ObservedDataset, MergeStatistics]:
    """Convenience helper: snapshot every source and merge them.

    The CAIDA customer cones and APNIC user populations (analysis-only
    attributes) are attached to the merged dataset.

    Parameters
    ----------
    world:
        The ground-truth :class:`~repro.topology.world.World`.
    noise:
        Optional :class:`~repro.config.DataSourceNoiseConfig`.
    """
    from repro.datasources.apnic import APNICSource
    from repro.datasources.caida import CAIDASource
    from repro.datasources.hurricane import HurricaneElectricSource
    from repro.datasources.inflect import InflectSource
    from repro.datasources.ixp_websites import IXPWebsiteSource
    from repro.datasources.pch import PacketClearingHouseSource
    from repro.datasources.peeringdb import PeeringDBSource

    snapshots = [
        IXPWebsiteSource(world, noise).snapshot(),
        HurricaneElectricSource(world, noise).snapshot(),
        PeeringDBSource(world, noise).snapshot(),
        PacketClearingHouseSource(world, noise).snapshot(),
        InflectSource(world, noise).snapshot(),
    ]
    dataset, statistics = DatasetMerger(snapshots).merge()
    for asn, size in CAIDASource(world, noise).snapshot().cone_sizes.items():
        dataset.set_attribute("customer_cone_sizes", asn, size)
    for asn, population in APNICSource(world, noise).snapshot().items():
        dataset.set_attribute("user_populations", asn, population)
    return dataset, statistics
