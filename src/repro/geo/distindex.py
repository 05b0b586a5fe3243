"""Shared geodesic-distance index for the geometry hot path (Steps 3/4).

The paper's core signal (Section 5.2) turns minimum RTTs into feasible
distance rings and intersects them with colocation footprints.  The seed
implementation re-ran the iterative Vincenty solver from scratch for every
(vantage point, facility) and (facility, facility) combination, although the
same combinations recur thousands of times per corpus: every interface
measured from one vantage point re-measures the same IXP facilities, and
every multi-IXP router of one AS re-compares the same (AS, IXP) and
(IXP, IXP) facility sets.

:class:`GeoDistanceIndex` is the geometry analogue of
:class:`repro.netindex.LPMIndex`: one shared, memoised lookup structure built
per :class:`~repro.datasources.merge.ObservedDataset` and reused across
pipeline runs (scenario sweeps rerun the pipeline under many configurations
on the same dataset).  It provides:

* **point-to-facility distances** — computed once per (point, facility) and
  memoised, including the "facility has no coordinates" miss;
* **facility-pair distances** — memoised under an order-independent key
  (geodesic distance is symmetric);
* **sorted distance profiles** — for one origin point and one footprint (the
  facilities of an IXP, or of a member AS) the located facilities sorted by
  distance, so Step 3's feasible-facility test becomes two :mod:`bisect`
  calls instead of one Vincenty run per facility;
* **footprint span aggregates** — min/max pairwise distance between two
  facility sets, memoised per (AS, IXP), (IXP, IXP) and
  (AS ∩ IXP, IXP) combination for Step 4's remote/hybrid conditions;
* **majority facility votes** — the facilities shared by a strict majority of
  a neighbour-AS set, memoised per frozen neighbour set for Step 5's
  private-connectivity vote (the same neighbour sets recur across the
  interfaces of one member AS and across scenario-sweep reruns).

Invariants consumers rely on:

1. **Bit-identical distances** — every value served by the index is produced
   by :func:`repro.geo.coordinates.geodesic_distance_km` on exactly the
   arguments the per-call path would have used, so classifications computed
   through the index are identical to the seed per-call path.
2. **Inclusive interval semantics** — :meth:`DistanceProfile.within` returns
   facilities with ``min_km <= distance <= max_km`` (``bisect_left`` /
   ``bisect_right``), matching the seed's inclusive ring comparison.
3. **Journalled revision consistency** — the index tracks the dataset's
   generation stamp (:class:`~repro.versioning.Versioned`).  The dataset's
   tables are read-only views, so every change to them goes through a
   journal-emitting mutator; the journal is replayed lazily on the next
   lookup, evicting **only the memos a change can touch** (the point/pair
   distances, profiles and spans involving a moved facility, the
   profiles/spans of a re-footprinted IXP or AS, the majority votes of a
   re-footprinted AS) instead of tearing the whole index down.  An
   unavailable replay (an opaque bump or a truncated journal) or an
   oversized batch falls back to wholesale invalidation, so the index is
   never stale, only occasionally over-evicted.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from threading import RLock

from repro.datasources.merge import (
    DOMAIN_AS_FACILITIES,
    DOMAIN_FACILITY_LOCATIONS,
    DOMAIN_IXP_FACILITIES,
    GEO_DOMAINS,
    ObservedDataset,
)
from repro.geo.coordinates import GeoPoint, geodesic_distance_km
from repro.versioning import Change

#: Journalled changes beyond which a replay stops being cheaper than a
#: wholesale invalidation (each eviction scans the memo tables once).
SELECTIVE_EVICTION_LIMIT = 64

#: :class:`GeoDistanceIndex` accessor -> the dataset domains one answer
#: depends on.  The index syncs itself against every geo domain, but each
#: answer depends only on the domains listed here, so a step-graph node that
#: declares them may call the accessor through its geo view.
GEO_ACCESSOR_DOMAINS: dict[str, tuple[str, ...]] = {
    "facility_distance_km": (DOMAIN_FACILITY_LOCATIONS,),
    "pair_distance_km": (DOMAIN_FACILITY_LOCATIONS,),
    "ixp_profile": (DOMAIN_IXP_FACILITIES, DOMAIN_FACILITY_LOCATIONS),
    "as_profile": (DOMAIN_AS_FACILITIES, DOMAIN_FACILITY_LOCATIONS),
    "feasible_ixp_facilities": (DOMAIN_IXP_FACILITIES, DOMAIN_FACILITY_LOCATIONS),
    "feasible_as_facilities": (DOMAIN_AS_FACILITIES, DOMAIN_FACILITY_LOCATIONS),
    "ixp_pair_span_km": (DOMAIN_IXP_FACILITIES, DOMAIN_FACILITY_LOCATIONS),
    "as_ixp_span_km": (
        DOMAIN_AS_FACILITIES,
        DOMAIN_IXP_FACILITIES,
        DOMAIN_FACILITY_LOCATIONS,
    ),
    "common_facility_span_km": (
        DOMAIN_AS_FACILITIES,
        DOMAIN_IXP_FACILITIES,
        DOMAIN_FACILITY_LOCATIONS,
    ),
    "majority_facility_vote": (DOMAIN_AS_FACILITIES, DOMAIN_FACILITY_LOCATIONS),
}


@dataclass(frozen=True)
class DistanceProfile:
    """One footprint's located facilities, sorted by distance from one point.

    ``distances[i]`` is the geodesic distance from the origin point to
    ``facility_ids[i]``; the arrays are sorted by (distance, facility id).
    Facilities without coordinates are excluded, exactly as the per-call
    feasibility test treated them (never feasible).
    """

    distances: tuple[float, ...]
    facility_ids: tuple[str, ...]

    def within(self, min_km: float, max_km: float) -> frozenset[str]:
        """Facilities whose distance lies in ``[min_km, max_km]`` (inclusive)."""
        lo = bisect_left(self.distances, min_km)
        hi = bisect_right(self.distances, max_km)
        return frozenset(self.facility_ids[lo:hi])

    def __len__(self) -> int:
        return len(self.facility_ids)


class GeoDistanceIndex:
    """Memoised geodesic-distance lookups over an observed dataset."""

    __slots__ = (
        "_dataset",
        "_sync_lock",
        "_synced_generation",
        "incremental_evictions",
        "wholesale_invalidations",
        "_point_km",
        "_pair_km",
        "_ixp_profiles",
        "_as_profiles",
        "_ixp_spans",
        "_as_ixp_spans",
        "_common_spans",
        "_majority_votes",
    )

    def __init__(self, dataset: "ObservedDataset") -> None:
        self._dataset = dataset
        # Serialises journal replay, wholesale invalidation and every memo
        # store from concurrent caller threads; reentrant because _sync
        # falls back to _invalidate() while holding it.  Memo *reads* stay
        # lock-free (GIL-atomic dict lookups).
        self._sync_lock = RLock()
        self._synced_generation = getattr(dataset, "generation", 0)
        #: Journalled changes absorbed by selective eviction (accounting).
        self.incremental_evictions = 0
        #: Times the whole index was dropped (opaque, truncated or oversized).
        self.wholesale_invalidations = 0
        self._point_km: dict[tuple[GeoPoint, str], float | None] = {}
        self._pair_km: dict[tuple[str, str], float | None] = {}
        self._ixp_profiles: dict[tuple[GeoPoint, str], DistanceProfile] = {}
        self._as_profiles: dict[tuple[GeoPoint, int], DistanceProfile] = {}
        self._ixp_spans: dict[tuple[str, str], tuple[float, float] | None] = {}
        self._as_ixp_spans: dict[tuple[int, str], tuple[float, float] | None] = {}
        self._common_spans: dict[tuple[int, str], tuple[float, float] | None] = {}
        self._majority_votes: dict[frozenset[int], frozenset[str]] = {}

    @property
    def dataset(self) -> "ObservedDataset":
        """The dataset snapshot this index answers for."""
        return self._dataset

    def _invalidate(self) -> None:
        """Drop every memo and resynchronise with the dataset's generation."""
        with self._sync_lock:
            self._point_km.clear()
            self._pair_km.clear()
            self._ixp_profiles.clear()
            self._as_profiles.clear()
            self._ixp_spans.clear()
            self._as_ixp_spans.clear()
            self._common_spans.clear()
            self._majority_votes.clear()
            self._synced_generation = getattr(self._dataset, "generation", 0)
            self.wholesale_invalidations += 1

    # ------------------------------------------------------------------ #
    # Journal synchronisation
    # ------------------------------------------------------------------ #
    def _sync(self) -> None:
        """Absorb journalled dataset changes since the last lookup.

        The fast path is one integer comparison.  When the dataset moved on,
        the geo-relevant slice of its journal is replayed change by change,
        evicting only the memos each change can touch; an unavailable replay
        (opaque bump, truncated journal) or an oversized batch falls back to
        wholesale invalidation.
        """
        dataset = self._dataset
        if dataset.generation == self._synced_generation:
            return
        # Concurrent caller threads may share this index; only one thread
        # may replay (the fast path above stays lock-free).
        with self._sync_lock:
            generation = dataset.generation
            if generation == self._synced_generation:
                return
            changes = dataset.journal.since(self._synced_generation, GEO_DOMAINS)
            if changes is None or len(changes) > SELECTIVE_EVICTION_LIMIT:
                self._invalidate()
                return
            for change in changes:
                self._evict_for(change)
                self.incremental_evictions += 1
            self._synced_generation = generation

    def _evict_for(self, change: "Change") -> None:
        from repro.datasources.merge import (
            DOMAIN_AS_FACILITIES,
            DOMAIN_FACILITY_LOCATIONS,
            DOMAIN_IXP_FACILITIES,
        )

        if change.domain == DOMAIN_FACILITY_LOCATIONS:
            self._evict_facility(change.key)
        elif change.domain == DOMAIN_IXP_FACILITIES:
            ixp_id, _facility_id = change.key
            self._evict_ixp(ixp_id)
        elif change.domain == DOMAIN_AS_FACILITIES:
            asn, _facility_id = change.key
            self._evict_as(asn)

    def _evict_facility(self, facility_id: str) -> None:
        """A facility gained, lost or moved coordinates."""
        for key in [k for k in self._point_km if k[1] == facility_id]:
            self._point_km.pop(key, None)
        for key in [k for k in self._pair_km if facility_id in k]:
            self._pair_km.pop(key, None)
        # Every footprint containing the facility saw its geometry change.
        ixps = {
            ixp_id
            for ixp_id, facilities in self._dataset.ixp_facilities.items()
            if facility_id in facilities
        }
        ases = {
            asn
            for asn, facilities in self._dataset.as_facilities.items()
            if facility_id in facilities
        }
        for key in [k for k in self._ixp_profiles if k[1] in ixps]:
            self._ixp_profiles.pop(key, None)
        for key in [k for k in self._as_profiles if k[1] in ases]:
            self._as_profiles.pop(key, None)
        for key in [k for k in self._ixp_spans if k[0] in ixps or k[1] in ixps]:
            self._ixp_spans.pop(key, None)
        for key in [k for k in self._as_ixp_spans if k[0] in ases or k[1] in ixps]:
            self._as_ixp_spans.pop(key, None)
        for key in [k for k in self._common_spans if k[0] in ases or k[1] in ixps]:
            self._common_spans.pop(key, None)
        # Majority votes depend only on colocation sets, never on geometry.

    def _evict_ixp(self, ixp_id: str) -> None:
        """An IXP's observed facility footprint changed."""
        for key in [k for k in self._ixp_profiles if k[1] == ixp_id]:
            self._ixp_profiles.pop(key, None)
        for key in [k for k in self._ixp_spans if ixp_id in k]:
            self._ixp_spans.pop(key, None)
        for key in [k for k in self._as_ixp_spans if k[1] == ixp_id]:
            self._as_ixp_spans.pop(key, None)
        for key in [k for k in self._common_spans if k[1] == ixp_id]:
            self._common_spans.pop(key, None)

    def _evict_as(self, asn: int) -> None:
        """A member AS's observed facility footprint changed."""
        for key in [k for k in self._as_profiles if k[1] == asn]:
            self._as_profiles.pop(key, None)
        for key in [k for k in self._as_ixp_spans if k[0] == asn]:
            self._as_ixp_spans.pop(key, None)
        for key in [k for k in self._common_spans if k[0] == asn]:
            self._common_spans.pop(key, None)
        for key in [k for k in self._majority_votes if asn in k]:
            self._majority_votes.pop(key, None)

    # ------------------------------------------------------------------ #
    # Point / pair distances
    # ------------------------------------------------------------------ #
    def facility_distance_km(self, point: GeoPoint, facility_id: str) -> float | None:
        """Distance from a point to a facility (``None`` if unlocated)."""
        self._sync()
        key = (point, facility_id)
        if key in self._point_km:
            return self._point_km[key]
        location = self._dataset.facility_location(facility_id)
        distance = None if location is None else geodesic_distance_km(point, location)
        with self._sync_lock:
            self._point_km[key] = distance
        return distance

    def pair_distance_km(self, facility_a: str, facility_b: str) -> float | None:
        """Distance between two facilities (``None`` if either is unlocated)."""
        self._sync()
        key = (
            (facility_a, facility_b)
            if facility_a <= facility_b
            else (facility_b, facility_a)
        )
        if key in self._pair_km:
            return self._pair_km[key]
        loc_a = self._dataset.facility_location(key[0])
        loc_b = self._dataset.facility_location(key[1])
        distance = (
            None
            if loc_a is None or loc_b is None
            else geodesic_distance_km(loc_a, loc_b)
        )
        with self._sync_lock:
            self._pair_km[key] = distance
        return distance

    # ------------------------------------------------------------------ #
    # Sorted distance profiles (Step 3)
    # ------------------------------------------------------------------ #
    def ixp_profile(self, point: GeoPoint, ixp_id: str) -> DistanceProfile:
        """Sorted distances from a point to one IXP's facilities."""
        self._sync()
        key = (point, ixp_id)
        profile = self._ixp_profiles.get(key)
        if profile is None:
            facilities = self._dataset.facilities_of_ixp(ixp_id)
            profile = self._build_profile(point, facilities)
            with self._sync_lock:
                self._ixp_profiles[key] = profile
        return profile

    def as_profile(self, point: GeoPoint, asn: int) -> DistanceProfile:
        """Sorted distances from a point to one member AS's facilities."""
        self._sync()
        key = (point, asn)
        profile = self._as_profiles.get(key)
        if profile is None:
            facilities = self._dataset.facilities_of_as(asn)
            profile = self._build_profile(point, facilities)
            with self._sync_lock:
                self._as_profiles[key] = profile
        return profile

    def _build_profile(
        self, point: GeoPoint, facility_ids: set[str]
    ) -> DistanceProfile:
        located: list[tuple[float, str]] = []
        for facility_id in facility_ids:
            distance = self.facility_distance_km(point, facility_id)
            if distance is not None:
                located.append((distance, facility_id))
        located.sort()
        return DistanceProfile(
            distances=tuple(distance for distance, _ in located),
            facility_ids=tuple(facility_id for _, facility_id in located),
        )

    def feasible_ixp_facilities(
        self, point: GeoPoint, ixp_id: str, min_km: float, max_km: float
    ) -> frozenset[str]:
        """IXP facilities whose distance from ``point`` lies in the ring."""
        return self.ixp_profile(point, ixp_id).within(min_km, max_km)

    def feasible_as_facilities(
        self, point: GeoPoint, asn: int, min_km: float, max_km: float
    ) -> frozenset[str]:
        """Member-AS facilities whose distance from ``point`` lies in the ring."""
        return self.as_profile(point, asn).within(min_km, max_km)

    # ------------------------------------------------------------------ #
    # Footprint span aggregates (Step 4)
    # ------------------------------------------------------------------ #
    def ixp_pair_span_km(self, ixp_a: str, ixp_b: str) -> tuple[float, float] | None:
        """(min, max) pairwise distance between two IXPs' facility sets."""
        self._sync()
        key = (ixp_a, ixp_b) if ixp_a <= ixp_b else (ixp_b, ixp_a)
        if key in self._ixp_spans:
            return self._ixp_spans[key]
        span = self._span(
            self._dataset.facilities_of_ixp(key[0]),
            self._dataset.facilities_of_ixp(key[1]),
        )
        with self._sync_lock:
            self._ixp_spans[key] = span
        return span

    def as_ixp_span_km(self, asn: int, ixp_id: str) -> tuple[float, float] | None:
        """(min, max) pairwise distance between an AS's and an IXP's facilities."""
        self._sync()
        key = (asn, ixp_id)
        if key in self._as_ixp_spans:
            return self._as_ixp_spans[key]
        span = self._span(
            self._dataset.facilities_of_as(asn),
            self._dataset.facilities_of_ixp(ixp_id),
        )
        with self._sync_lock:
            self._as_ixp_spans[key] = span
        return span

    def common_facility_span_km(
        self, asn: int, ixp_id: str
    ) -> tuple[float, float] | None:
        """(min, max) distance from the AS ∩ IXP facilities to the IXP's facilities.

        This is the Step 4 hybrid condition's bound on how far the member's
        shared presence can be from the anchor IXP's fabric.
        """
        self._sync()
        key = (asn, ixp_id)
        if key in self._common_spans:
            return self._common_spans[key]
        ixp_facilities = self._dataset.facilities_of_ixp(ixp_id)
        common = self._dataset.facilities_of_as(asn) & ixp_facilities
        span = self._span(common, ixp_facilities)
        with self._sync_lock:
            self._common_spans[key] = span
        return span

    # ------------------------------------------------------------------ #
    # Majority facility votes (Step 5)
    # ------------------------------------------------------------------ #
    def majority_facility_vote(self, asns: frozenset[int]) -> frozenset[str]:
        """Facilities shared by a strict majority of the voting neighbours.

        Exactly Step 5's Constrained-Facility-Search-style vote: every AS in
        ``asns`` with observed colocation data votes for each of its
        facilities, and the facilities named by more than half of the voters
        win.  An empty vote (no voter, or no facility with a majority) is the
        empty set.  Memoised per frozen neighbour set — like the span
        aggregates, the same sets recur across every interface of one member
        AS and across scenario-sweep reruns.
        """
        self._sync()
        key = asns if isinstance(asns, frozenset) else frozenset(asns)
        cached = self._majority_votes.get(key)
        if cached is not None:
            return cached
        votes: Counter[str] = Counter()
        voters = 0
        for asn in key:
            facilities = self._dataset.facilities_of_as(asn)
            if not facilities:
                continue
            voters += 1
            votes.update(facilities)
        if not votes or voters == 0:
            result: frozenset[str] = frozenset()
        else:
            result = frozenset(
                facility for facility, count in votes.items() if count > voters / 2.0
            )
        with self._sync_lock:
            self._majority_votes[key] = result
        return result

    def _span(
        self, facilities_a: set[str], facilities_b: set[str]
    ) -> tuple[float, float] | None:
        """Min/max over the located pairwise distances of two facility sets."""
        lo: float | None = None
        hi: float | None = None
        for fa in facilities_a:
            for fb in facilities_b:
                distance = self.pair_distance_km(fa, fb)
                if distance is None:
                    continue
                if lo is None or distance < lo:
                    lo = distance
                if hi is None or distance > hi:
                    hi = distance
        if lo is None or hi is None:
            return None
        return (lo, hi)
