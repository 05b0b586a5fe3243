"""Merging the simulated data sources into the observed dataset.

The paper resolves conflicting records with a fixed preference order —
``IXP websites > Hurricane Electric > PeeringDB > PCH`` — and reports, per
source, the total, unique and conflicting entries (Table 1).  This module
re-implements exactly that merge and produces:

* an :class:`ObservedDataset` — the *only* topology knowledge the inference
  pipeline is allowed to use (interfaces, prefixes, colocation, coordinates,
  port capacities, per-AS attributes), and
* a :class:`MergeStatistics` record that regenerates Table 1.

The dataset is **generation-stamped** (:class:`~repro.versioning.Versioned`).
Every mutation that goes through the journal-emitting mutators
(:meth:`ObservedDataset.set_ixp_prefix`, :meth:`~ObservedDataset.set_interface`,
the colocation/capacity/location setters) records a typed
:class:`~repro.versioning.Change` under one of the :data:`DATASET_DOMAINS`,
bumps the matching domain generation, and patches the derived indexes
incrementally where possible — so continuous feed refreshes re-key exactly
the consumers they can affect instead of tearing every cache down.
:class:`DatasetMerger` itself writes through these mutators, resolving each
key to its preferred value before writing, so a merge journals exactly one
``ADD`` record per key.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from threading import Lock

from repro.datasources.records import SourceName, SourceSnapshot
from repro.exceptions import DataSourceError
from repro.geo.coordinates import GeoPoint
from repro.netindex import LPMDeltaView, LPMIndex, apply_lpm_delta
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


@dataclass
class ObservedDataset(Versioned):
    """The merged view of the world that inference and analysis consume.

    The hot lookups (:meth:`ixp_for_ip`, :meth:`interfaces_of_ixp`,
    :meth:`members_of_ixp`) are served from lazily built indexes over the
    public dicts, guarded by ``(domain generation, size)`` version tokens
    (:class:`~repro.versioning.GenerationGuardedIndex`).  The staleness
    contract layers two paths:

    * **journalled mutators** (``set_*`` / ``add_*`` / ``remove_*``) record a
      typed change, bump the matching domain generation and — for the LAN
      LPM — patch the built index incrementally, so *every* mutation through
      them is visible immediately, including in-place value replacement at
      unchanged size (the historical size-guard trap);
    * **direct dict mutation** (the legacy path) keeps the legacy semantics:
      growth and shrinkage are detected by the size half of the token, and
      same-size edits require :meth:`invalidate_caches` (now an opaque
      generation bump that re-keys everything).
    """

    ixp_prefixes: dict[str, str] = field(default_factory=dict)
    interface_ixp: dict[str, str] = field(default_factory=dict)
    interface_asn: dict[str, int] = field(default_factory=dict)
    ixp_facilities: dict[str, set[str]] = field(default_factory=dict)
    as_facilities: dict[int, set[str]] = field(default_factory=dict)
    facility_locations: dict[str, GeoPoint] = field(default_factory=dict)
    port_capacities: dict[tuple[str, int], int] = field(default_factory=dict)
    min_physical_capacity: dict[str, int] = field(default_factory=dict)
    traffic_levels: dict[int, TrafficLevel] = field(default_factory=dict)
    user_populations: dict[int, int] = field(default_factory=dict)
    customer_cone_sizes: dict[int, int] = field(default_factory=dict)
    countries: dict[int, str] = field(default_factory=dict)

    # Derived lookup indexes; never part of equality or repr.  The LAN LPM
    # state is one atomically swapped (token, view) tuple so a reader never
    # observes a fresh token with a stale view.
    _lan_state: tuple[tuple[int, int], LPMIndex | LPMDeltaView] | None = field(
        default=None, init=False, repr=False, compare=False)
    _ixp_views: GenerationGuardedIndex = field(
        default_factory=GenerationGuardedIndex, init=False, repr=False, compare=False)
    _ixp_members: dict[str, set[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    # Serialises the lazy builds/fills of the derived state above when
    # concurrent caller threads read the dataset (journalled mutators stay
    # single-threaded by contract and are policed by the mutation rule).
    _view_lock: Lock = field(
        default_factory=Lock, init=False, repr=False, compare=False)

    # ------------------------------------------------------------------ #
    # Versioning
    # ------------------------------------------------------------------ #
    def invalidate_caches(self) -> None:
        """Opaquely bump the generation; every derived index re-keys.

        Required only after mutating the public dicts *directly* without a
        size change; the journal-emitting mutators never need it.
        """
        self.bump_generation()
        self._lan_state = None
        self._ixp_members = {}

    def domain_token(self, domain: str) -> tuple[int, int]:
        """``(domain generation, size hint)`` version token for one domain.

        The size hint preserves the legacy automatic detection of direct
        dict growth/shrinkage; the generation half covers every journalled
        mutation, including same-size replacement.
        """
        return (self.domain_generation(domain), self._domain_size(domain))

    def _domain_size(self, domain: str) -> int:
        if domain == DOMAIN_IXP_PREFIXES:
            return len(self.ixp_prefixes)
        if domain == DOMAIN_INTERFACES:
            return len(self.interface_ixp) + len(self.interface_asn)
        if domain == DOMAIN_IXP_FACILITIES:
            return sum(len(facilities) for facilities in self.ixp_facilities.values())
        if domain == DOMAIN_AS_FACILITIES:
            return sum(len(facilities) for facilities in self.as_facilities.values())
        if domain == DOMAIN_FACILITY_LOCATIONS:
            return len(self.facility_locations)
        if domain == DOMAIN_CAPACITIES:
            return len(self.port_capacities) + len(self.min_physical_capacity)
        if domain == DOMAIN_ATTRIBUTES:
            return (
                len(self.traffic_levels)
                + len(self.user_populations)
                + len(self.customer_cone_sizes)
                + len(self.countries)
            )
        # A typo in a StepSpec.data_domains declaration must fail loudly, not
        # produce a wrong-but-valid token (mirrors config_fingerprint).
        raise DataSourceError(f"unknown dataset domain {domain!r}")

    # ------------------------------------------------------------------ #
    # Journal-emitting mutators
    # ------------------------------------------------------------------ #
    def set_ixp_prefix(self, prefix: str, ixp_id: str) -> bool:
        """Register (or re-map) one peering-LAN prefix; True if anything changed.

        A re-map at unchanged size is patched straight into the built LAN
        LPM view (or compacts it past the overlay threshold) — no manual
        invalidation, no full teardown.
        """
        old = self.ixp_prefixes.get(prefix)
        if old == ixp_id:
            return False
        kind = ChangeKind.ADD if prefix not in self.ixp_prefixes else ChangeKind.REPLACE
        state = self._lan_state
        # The built view may only be patched if it is current *before* this
        # mutation; a stale view (a direct dict poke since it was built)
        # must be rebuilt, or the patch would stamp missing entries as fresh.
        before_token = self.domain_token(DOMAIN_IXP_PREFIXES)
        self.ixp_prefixes[prefix] = ixp_id
        self.record_change(Change(kind, DOMAIN_IXP_PREFIXES, prefix, old, ixp_id))
        if state is None or state[0] != before_token:
            self._lan_state = None
            return True
        patched = apply_lpm_delta(state[1], prefix, ixp_id)
        if patched is None:  # compaction: the next lookup rebuilds
            self._lan_state = None
        else:
            self._lan_state = (self.domain_token(DOMAIN_IXP_PREFIXES), patched)
        return True

    def remove_ixp_prefix(self, prefix: str) -> bool:
        """Drop one peering-LAN prefix; the LAN LPM rebuilds on next lookup."""
        if prefix not in self.ixp_prefixes:
            return False
        old = self.ixp_prefixes.pop(prefix)
        self.record_change(
            Change(ChangeKind.REMOVE, DOMAIN_IXP_PREFIXES, prefix, old, None))
        self._lan_state = None
        return True

    def set_interface(self, ip: str, ixp_id: str, asn: int) -> bool:
        """Register (or re-own) one IXP member interface; True if changed."""
        old = (self.interface_ixp.get(ip), self.interface_asn.get(ip))
        if old == (ixp_id, asn):
            return False
        kind = ChangeKind.ADD if ip not in self.interface_ixp else ChangeKind.REPLACE
        self.interface_ixp[ip] = ixp_id
        self.interface_asn[ip] = asn
        self.record_change(
            Change(kind, DOMAIN_INTERFACES, ip, old, (ixp_id, asn)))
        return True

    def remove_interface(self, ip: str) -> bool:
        """Drop one member interface from both interface dicts."""
        if ip not in self.interface_ixp and ip not in self.interface_asn:
            return False
        old = (self.interface_ixp.pop(ip, None), self.interface_asn.pop(ip, None))
        self.record_change(Change(ChangeKind.REMOVE, DOMAIN_INTERFACES, ip, old, None))
        return True

    def set_facility_location(self, facility_id: str, location: GeoPoint) -> bool:
        """Record (or move) a facility's coordinates; True if changed."""
        old = self.facility_locations.get(facility_id)
        if old == location:
            return False
        kind = (
            ChangeKind.ADD
            if facility_id not in self.facility_locations
            else ChangeKind.REPLACE
        )
        self.facility_locations[facility_id] = location
        self.record_change(
            Change(kind, DOMAIN_FACILITY_LOCATIONS, facility_id, old, location))
        return True

    def add_ixp_facility(self, ixp_id: str, facility_id: str) -> bool:
        """Add one facility to an IXP's observed footprint; True if new."""
        facilities = self.ixp_facilities.setdefault(ixp_id, set())
        if facility_id in facilities:
            return False
        facilities.add(facility_id)
        self.record_change(
            Change(ChangeKind.ADD, DOMAIN_IXP_FACILITIES, (ixp_id, facility_id)))
        return True

    def remove_ixp_facility(self, ixp_id: str, facility_id: str) -> bool:
        """Drop one facility from an IXP's observed footprint."""
        facilities = self.ixp_facilities.get(ixp_id)
        if facilities is None or facility_id not in facilities:
            return False
        facilities.discard(facility_id)
        self.record_change(
            Change(ChangeKind.REMOVE, DOMAIN_IXP_FACILITIES, (ixp_id, facility_id)))
        return True

    def add_as_facility(self, asn: int, facility_id: str) -> bool:
        """Add one facility to a member AS's observed footprint; True if new."""
        facilities = self.as_facilities.setdefault(asn, set())
        if facility_id in facilities:
            return False
        facilities.add(facility_id)
        self.record_change(
            Change(ChangeKind.ADD, DOMAIN_AS_FACILITIES, (asn, facility_id)))
        return True

    def remove_as_facility(self, asn: int, facility_id: str) -> bool:
        """Drop one facility from a member AS's observed footprint."""
        facilities = self.as_facilities.get(asn)
        if facilities is None or facility_id not in facilities:
            return False
        facilities.discard(facility_id)
        self.record_change(
            Change(ChangeKind.REMOVE, DOMAIN_AS_FACILITIES, (asn, facility_id)))
        return True

    def set_port_capacity(self, ixp_id: str, asn: int, capacity_mbps: int) -> bool:
        """Record a member's observed port capacity at one IXP."""
        key = (ixp_id, asn)
        old = self.port_capacities.get(key)
        if old == capacity_mbps:
            return False
        kind = ChangeKind.ADD if key not in self.port_capacities else ChangeKind.REPLACE
        self.port_capacities[key] = capacity_mbps
        self.record_change(Change(kind, DOMAIN_CAPACITIES, key, old, capacity_mbps))
        return True

    def set_min_capacity(self, ixp_id: str, capacity_mbps: int) -> bool:
        """Record the minimum physical port capacity an IXP sells directly."""
        old = self.min_physical_capacity.get(ixp_id)
        if old == capacity_mbps:
            return False
        kind = (
            ChangeKind.ADD
            if ixp_id not in self.min_physical_capacity
            else ChangeKind.REPLACE
        )
        self.min_physical_capacity[ixp_id] = capacity_mbps
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
        backing: dict = getattr(self, attribute)
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
        return sorted(set(self.ixp_prefixes.values()) | set(self.ixp_facilities))

    def _build_interface_views(self) -> dict[str, dict[str, int]]:
        by_ixp: dict[str, dict[str, int]] = {}
        for ip, owner in self.interface_ixp.items():
            asn = self.interface_asn.get(ip)
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
            self.domain_token(DOMAIN_INTERFACES), self._build_interface_views)

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
        return self.interface_asn.get(ip)

    def ixp_of_interface(self, ip: str) -> str | None:
        """IXP whose peering LAN contains an interface, if known."""
        return self.interface_ixp.get(ip)

    def ixp_for_ip(self, ip: str) -> str | None:
        """Longest-prefix match of an arbitrary IP against the known LANs.

        The most specific LAN prefix containing the address wins — the seed
        implementation returned the *first* match in insertion order, which
        misclassified addresses whenever a more-specific LAN nested inside a
        broader registered prefix.
        """
        token = self.domain_token(DOMAIN_IXP_PREFIXES)
        state = self._lan_state
        if state is None or state[0] != token:
            # Double-checked build: concurrent caller threads must neither
            # build the LPM twice nor publish a stale (token, view) pair.
            with self._view_lock:
                state = self._lan_state
                if state is None or state[0] != token:
                    state = (token, LPMIndex(self.ixp_prefixes))
                    self._lan_state = state
        return state[1].lookup(ip)

    # ------------------------------------------------------------------ #
    # Colocation lookups
    # ------------------------------------------------------------------ #
    def facilities_of_ixp(self, ixp_id: str) -> set[str]:
        """Observed facilities of one IXP (may be incomplete)."""
        return set(self.ixp_facilities.get(ixp_id, set()))

    def facilities_of_as(self, asn: int) -> set[str]:
        """Observed facilities of one AS (may be incomplete or spurious)."""
        return set(self.as_facilities.get(asn, set()))

    def has_facility_data_for_as(self, asn: int) -> bool:
        """Whether any facility is recorded for an AS (no set copy)."""
        return bool(self.as_facilities.get(asn))

    def facility_location(self, facility_id: str) -> GeoPoint | None:
        """Best-known coordinates of a facility."""
        return self.facility_locations.get(facility_id)

    def common_facilities(self, ixp_id: str, asn: int) -> set[str]:
        """Facilities shared by an IXP and a member AS, as observed."""
        return self.facilities_of_ixp(ixp_id) & self.facilities_of_as(asn)

    # ------------------------------------------------------------------ #
    # Port capacities
    # ------------------------------------------------------------------ #
    def port_capacity(self, ixp_id: str, asn: int) -> int | None:
        """Observed port capacity of a member at an IXP (Mbit/s), if known."""
        return self.port_capacities.get((ixp_id, asn))

    def min_capacity(self, ixp_id: str) -> int | None:
        """Minimum physical port capacity advertised by the IXP, if known."""
        return self.min_physical_capacity.get(ixp_id)


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


def build_observed_dataset(
    world,
    noise=None,
    *,
    include_caida: bool = True,
    include_apnic: bool = True,
) -> tuple[ObservedDataset, MergeStatistics]:
    """Convenience helper: snapshot every source and merge them.

    Parameters
    ----------
    world:
        The ground-truth :class:`~repro.topology.world.World`.
    noise:
        Optional :class:`~repro.config.DataSourceNoiseConfig`.
    include_caida / include_apnic:
        Whether to attach customer cones and user populations (analysis-only
        attributes) to the observed dataset.
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
    if include_caida:
        dataset.customer_cone_sizes = CAIDASource(world, noise).snapshot().cone_sizes
    if include_apnic:
        dataset.user_populations = APNICSource(world, noise).snapshot()
    return dataset, statistics
