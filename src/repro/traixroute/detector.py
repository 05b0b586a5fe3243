"""Detection of IXP crossings and private adjacencies in traceroute paths.

The triplet rule (Section 3.3 of the paper): a path crosses an IXP when three
consecutive responding hops ``(IP1, IP2, IP3)`` satisfy

1. ``IP2`` belongs to an IXP peering LAN and is assigned to the same AS as
   ``IP3`` (the member that the packet *enters* through the exchange),
2. the AS of ``IP1`` differs from that member, and
3. both ASes are members of the IXP owning the peering LAN.

The same module also extracts *private adjacencies*: consecutive responding
hops whose addresses belong to different ASes without any IXP LAN in between,
which is the raw material of Step 5 (private-connectivity localisation).

:class:`CorpusDetectionIndex` layers the dataset-versioning contract on top:
it keeps the per-path detection results of one corpus and, when the dataset's
LAN prefixes or the prefix2as map change through their journal-emitting
mutators, re-detects **only the paths whose hops fall under a changed
prefix** — the detection analogue of the geo-distance index's selective
eviction.  The index interns every hop address into an integer id once, when
a path is appended, and a full scan applies both rules to the whole id array
in one numpy pass (the per-path :class:`CrossingDetector` loop when numpy is
absent).  Appended paths are therefore treated as immutable: their hop ids
are a snapshot taken when they are interned.
"""

from __future__ import annotations

import ipaddress
from array import array
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from importlib import import_module
from itertools import accumulate, chain
from operator import sub
from threading import Lock
from typing import Any, TypeVar

from repro.datasources.merge import (
    DOMAIN_INTERFACES,
    DOMAIN_IXP_FACILITIES,
    DOMAIN_IXP_PREFIXES,
    ObservedDataset,
)
from repro.datasources.prefix2as import DOMAIN_PREFIXES, Prefix2ASMap
from repro.measurement.results import TracerouteCorpus
from repro.netindex import parse_prefix
from repro.routing.forwarding import ForwardingPath

#: Changed prefixes beyond which a selective re-detection stops being cheaper
#: than a full corpus re-scan with a fresh detector.
SELECTIVE_REDETECTION_LIMIT = 256

#: Optional numpy handle.  A full scan runs the bulk pass when numpy is
#: importable and the per-path detector loop when it is not (install
#: ``repro[fast]`` to opt in); both give the same results.
_np: Any
try:
    _np = import_module("numpy")
except ImportError:  # pragma: no cover - depends on the environment
    _np = None

_Value = TypeVar("_Value")


@dataclass(frozen=True)
class IXPCrossing:
    """One detected IXP crossing.

    Attributes
    ----------
    ixp_id:
        The IXP whose peering LAN was traversed.
    entry_ip / entry_asn:
        The hop *before* the IXP LAN address (the near-side member's border
        router) and the AS it maps to.
    ixp_interface_ip / far_asn:
        The IXP LAN address observed and the member AS it is assigned to
        (the far-side member).
    exit_ip:
        The hop right after the IXP LAN address.
    """

    ixp_id: str
    entry_ip: str
    entry_asn: int
    ixp_interface_ip: str
    far_asn: int
    exit_ip: str


@dataclass(frozen=True)
class PrivateAdjacency:
    """Two consecutive hops in different ASes with no IXP LAN in between."""

    near_ip: str
    near_asn: int
    far_ip: str
    far_asn: int


class CrossingDetector:
    """Applies the triplet rule over traceroute paths."""

    def __init__(self, dataset: ObservedDataset, prefix2as: Prefix2ASMap) -> None:
        self.dataset = dataset
        self.prefix2as = prefix2as
        # Pre-compute membership sets per IXP for rule (3).
        self._members: dict[str, set[int]] = {
            ixp_id: dataset.members_of_ixp(ixp_id) for ixp_id in dataset.ixp_ids()
        }
        # Per-corpus classification memos: a detector sees the same hop IPs
        # over and over across a corpus, so both classifications (including
        # misses) are answered in O(1) after the first encounter.  The memos
        # live for the detector's lifetime; build a fresh detector if the
        # dataset or prefix2as map changes underneath.
        self._ixp_memo: dict[str, str | None] = {}
        self._asn_memo: dict[str, int | None] = {}
        # Serialises memo stores from concurrent caller threads; memo hits
        # stay lock-free dict reads.
        self._lock = Lock()

    # ------------------------------------------------------------------ #
    # IP classification helpers
    # ------------------------------------------------------------------ #
    def ixp_of_ip(self, ip: str) -> str | None:
        """The IXP whose peering LAN contains ``ip``, if any."""
        memo = self._ixp_memo
        if ip in memo:
            return memo[ip]
        result = self._classify_ixp(ip)
        with self._lock:
            memo[ip] = result
        return result

    def asn_of_ip(self, ip: str) -> int | None:
        """Best-effort IP-to-AS mapping (IXP interface list, then prefix2as)."""
        memo = self._asn_memo
        if ip in memo:
            return memo[ip]
        result = self._classify_asn(ip)
        with self._lock:
            memo[ip] = result
        return result

    def _classify_ixp(self, ip: str) -> str | None:
        """:meth:`ixp_of_ip` without the memo."""
        result = self.dataset.ixp_of_interface(ip)
        return self.dataset.ixp_for_ip(ip) if result is None else result

    def _classify_asn(self, ip: str) -> int | None:
        """:meth:`asn_of_ip` without the memo."""
        result = self.dataset.asn_of_interface(ip)
        return self.prefix2as.lookup(ip) if result is None else result

    # ------------------------------------------------------------------ #
    # Detection
    # ------------------------------------------------------------------ #
    def detect(self, path: ForwardingPath) -> list[IXPCrossing]:
        """Detect every IXP crossing in one path."""
        crossings: list[IXPCrossing] = []
        hops = [hop.ip for hop in path.hops]
        for index in range(1, len(hops) - 1):
            first, middle, last = hops[index - 1], hops[index], hops[index + 1]
            if first is None or middle is None or last is None:
                continue
            ixp_id = self.ixp_of_ip(middle)
            if ixp_id is None:
                continue
            far_asn = self.dataset.asn_of_interface(middle)
            if far_asn is None:
                continue
            last_asn = self.asn_of_ip(last)
            if last_asn is None or last_asn != far_asn:
                continue
            entry_asn = self.asn_of_ip(first)
            if entry_asn is None or entry_asn == far_asn:
                continue
            members = self._members.get(ixp_id, set())
            if entry_asn not in members or far_asn not in members:
                continue
            crossings.append(
                IXPCrossing(
                    ixp_id=ixp_id,
                    entry_ip=first,
                    entry_asn=entry_asn,
                    ixp_interface_ip=middle,
                    far_asn=far_asn,
                    exit_ip=last,
                )
            )
        return crossings

    def detect_corpus(self, corpus: TracerouteCorpus) -> list[IXPCrossing]:
        """Detect crossings over an entire corpus."""
        crossings: list[IXPCrossing] = []
        for path in corpus.paths:
            crossings.extend(self.detect(path))
        return crossings

    # ------------------------------------------------------------------ #
    # Private adjacencies (Step 5 input)
    # ------------------------------------------------------------------ #
    def private_adjacencies(self, path: ForwardingPath) -> list[PrivateAdjacency]:
        """Extract consecutive-hop AS adjacencies that do not cross an IXP."""
        adjacencies: list[PrivateAdjacency] = []
        hops = [hop.ip for hop in path.hops]
        for index in range(len(hops) - 1):
            near, far = hops[index], hops[index + 1]
            if near is None or far is None:
                continue
            if self.ixp_of_ip(near) is not None or self.ixp_of_ip(far) is not None:
                continue
            near_asn = self.asn_of_ip(near)
            far_asn = self.asn_of_ip(far)
            if near_asn is None or far_asn is None or near_asn == far_asn:
                continue
            adjacencies.append(
                PrivateAdjacency(
                    near_ip=near, near_asn=near_asn, far_ip=far, far_asn=far_asn
                )
            )
        return adjacencies

    def private_adjacencies_corpus(
        self, corpus: TracerouteCorpus
    ) -> list[PrivateAdjacency]:
        """Extract private adjacencies over an entire corpus."""
        adjacencies: list[PrivateAdjacency] = []
        for path in corpus.paths:
            adjacencies.extend(self.private_adjacencies(path))
        return adjacencies


class CorpusDetectionIndex:
    """Per-path detection results maintained incrementally across revisions.

    One index binds a dataset, a prefix2as map and a corpus; it stores the
    crossings and private adjacencies of every path and keeps them current
    against the generation stamps of its inputs:

    * a **prefix change** (a LAN prefix re-map on the dataset, an add /
      re-map / removal on the prefix2as map) evicts the classification memos
      of exactly the hop IPs that fall under a changed prefix and re-detects
      only the paths containing such an IP.  Soundness: detection is a
      deterministic function of the classification answers a path's hops
      receive, every answer ever given is memoised, so a path none of whose
      memoised answers changed replays the exact same detection — and an IP
      that was never queried cannot have influenced the stored result;
    * an **interface change** rebuilds the whole index — the per-IXP
      membership sets (triplet rule 3) derive from the interface dicts, so
      any path could be affected;
    * **corpus growth** detects only the appended paths;
    * an opaque bump, a truncated journal or an oversized change batch
      (:data:`SELECTIVE_REDETECTION_LIMIT`) falls back to a full re-scan
      with a fresh detector.

    The inputs' collections are read-only views, so these journals and the
    corpus's appends are the only ways the inputs change; in particular the
    corpus never shrinks.  Every hop address is interned once per index
    into an integer id, and each path into a run of ids in one flat array
    (``None`` hops are id 0).  The table only grows and survives full
    re-scans, so **paths must not change after they are appended to the
    corpus**: their hop ids are the snapshot taken when they were interned
    (``ForwardingPath.hops`` is still a list).  A full re-scan classifies
    each distinct address once and applies both rules to the whole id array
    in one numpy pass (:meth:`_detect_bulk`); it then fills the fresh
    detector's memos with exactly the answers the per-path loop would have
    asked for, so re-detection, eviction and the counters behave as if that
    loop had run.  Without numpy the full re-scan *is* that loop.
    Re-detection and appended paths always use the per-path
    :class:`CrossingDetector`.

    Results are equal to what a fresh :class:`CrossingDetector` over the
    current state would produce, in the same (path-major) order.
    """

    def __init__(
        self,
        dataset: ObservedDataset,
        prefix2as: Prefix2ASMap,
        corpus: TracerouteCorpus,
    ) -> None:
        self.dataset = dataset
        self.prefix2as = prefix2as
        self.corpus = corpus
        self._detector: CrossingDetector | None = None
        # The results, path-major: path i's crossings are
        # crossings[crossing_bounds[i]:crossing_bounds[i + 1]], and its
        # adjacencies likewise.
        self._crossings: list[IXPCrossing] = []
        self._adjacencies: list[PrivateAdjacency] = []
        self._crossing_bounds = [0]
        self._adjacency_bounds = [0]
        # The bulk pass's result objects by field values (see _objects).
        self._crossing_objects: dict[tuple[Any, ...], IXPCrossing] = {}
        self._adjacency_objects: dict[tuple[Any, ...], PrivateAdjacency] = {}
        # ip -> (version, numeric, max_prefixlen); IPs are content-stable, so
        # the parse survives rebuilds and is amortised across revisions.
        self._parsed_ips: dict[str, tuple[int, int, int]] = {}
        # Interned hops: address -> id in first-seen order (None is id 0),
        # the flat hop-id array and the path end offsets into it (path i
        # spans hop_ids[offsets[i]:offsets[i + 1]]).
        self._address_ids: dict[str | None, int] = {None: 0}
        self._hop_ids = array("q")
        self._offsets = array("q", [0])
        # Address id -> indexes of the interned paths holding it; built at
        # the first re-detection and extended over the paths interned since
        # (the first ``_paths_indexed`` are in).
        self._paths_of: dict[int, list[int]] = {}
        self._paths_indexed = 0
        self._synced_dataset = dataset.generation
        self._synced_prefix2as = prefix2as.generation
        self._synced_paths = 0
        # Serialises revision syncs (and the mutations the sync helpers make
        # to the detector's memos) when concurrent caller threads share the
        # index.
        self._sync_lock = Lock()
        #: Full corpus re-scans performed (the first build counts as one).
        self.full_scans = 0
        #: Paths re-detected selectively across all revisions.
        self.paths_redetected = 0

    def results(self) -> tuple[list[IXPCrossing], list[PrivateAdjacency]]:
        """(crossings, adjacencies) over the whole corpus, current revision.

        The returned lists are fresh; the result objects inside are shared
        with the index (and with earlier revisions' results) and immutable.
        """
        self._sync()
        return list(self._crossings), list(self._adjacencies)

    # ------------------------------------------------------------------ #
    def _sync(self) -> None:
        with self._sync_lock:
            self._sync_locked()

    def _sync_locked(self) -> None:
        detector = self._detector
        if detector is None:
            self._rebuild()
            return

        changed_prefixes: list[str] = []
        membership_dirty: set[str] = set()
        dataset_generation = self.dataset.generation
        if dataset_generation != self._synced_dataset:
            changes = self.dataset.journal.since(
                self._synced_dataset,
                (DOMAIN_IXP_PREFIXES, DOMAIN_INTERFACES, DOMAIN_IXP_FACILITIES),
            )
            if changes is None or any(
                change.domain == DOMAIN_INTERFACES for change in changes
            ):
                self._rebuild()
                return
            # Triplet rule (3) consults a per-IXP membership snapshot keyed
            # by the dataset's known IXP ids — a set both a prefix re-map
            # and a colocation change can extend or shrink.
            for change in changes:
                if change.domain == DOMAIN_IXP_PREFIXES:
                    changed_prefixes.append(change.key)
                    for ixp_id in (change.old, change.new):
                        if ixp_id is not None:
                            membership_dirty.add(ixp_id)
                else:  # DOMAIN_IXP_FACILITIES: key is (ixp_id, facility_id)
                    membership_dirty.add(change.key[0])
        prefix2as_generation = self.prefix2as.generation
        if prefix2as_generation != self._synced_prefix2as:
            changes = self.prefix2as.journal.since(
                self._synced_prefix2as, (DOMAIN_PREFIXES,)
            )
            if changes is None:
                self._rebuild()
                return
            changed_prefixes.extend(change.key for change in changes)

        if len(changed_prefixes) + len(membership_dirty) > SELECTIVE_REDETECTION_LIMIT:
            self._rebuild()
            return

        affected: set[str] = set()
        if changed_prefixes:
            affected |= self._evict_under(changed_prefixes)
        if membership_dirty:
            affected |= self._refresh_members(membership_dirty)
        if affected:
            self._redetect(affected)
        self._synced_dataset = dataset_generation
        self._synced_prefix2as = prefix2as_generation

        self._intern()
        paths = self.corpus.paths
        self._append_detected(detector, paths[self._synced_paths :])
        self._synced_paths = len(paths)

    def _rebuild(self) -> None:
        detector = self._detector = CrossingDetector(self.dataset, self.prefix2as)
        self._intern()
        self._crossings, self._adjacencies = [], []
        self._crossing_bounds, self._adjacency_bounds = [0], [0]
        if _np is None:
            self._append_detected(detector, self.corpus.paths)
        else:
            self._detect_bulk(detector)
        self._synced_dataset = self.dataset.generation
        self._synced_prefix2as = self.prefix2as.generation
        self._synced_paths = len(self.corpus.paths)
        self.full_scans += 1
        # Pay the hop-IP parse during the (rare, already expensive) full
        # build so revision syncs only shift-and-test.
        parsed = self._parsed_ips
        for ip in set(detector._ixp_memo) | set(detector._asn_memo):
            if ip not in parsed:
                address = ipaddress.ip_address(ip)
                parsed[ip] = (address.version, int(address), address.max_prefixlen)

    def _intern(self) -> None:
        """Intern the hops of every corpus path not interned yet."""
        offsets = self._offsets
        new_paths = self.corpus.paths[len(offsets) - 1 :]
        ids = self._address_ids
        self._hop_ids += array(
            "q",
            [
                ids.setdefault(hop.ip, len(ids))
                for path in new_paths
                for hop in path.hops
            ],
        )
        # accumulate() restarts from the last end offset and yields it first.
        last_end = offsets.pop()
        offsets.extend(
            accumulate([len(path.hops) for path in new_paths], initial=last_end)
        )

    def _append_detected(
        self, detector: CrossingDetector, paths: Sequence[ForwardingPath]
    ) -> None:
        """Detect paths one by one and append their results."""
        crossings, adjacencies = self._crossings, self._adjacencies
        for path in paths:
            crossings.extend(detector.detect(path))
            adjacencies.extend(detector.private_adjacencies(path))
            self._crossing_bounds.append(len(crossings))
            self._adjacency_bounds.append(len(adjacencies))

    def _detect_bulk(self, detector: CrossingDetector) -> None:
        """Both rules over every interned path in one numpy pass.

        Classifies each distinct address once, evaluates the triplet and
        private-adjacency rules over the flat hop-id array and builds one
        result object per distinct id triple or pair.  Then fills the
        detector's memos with exactly the answers the per-path
        :meth:`CrossingDetector.detect` and
        :meth:`CrossingDetector.private_adjacencies` would have asked for.
        """
        np = _np
        addresses = list(self._address_ids)
        distinct = addresses[1:]
        # Per address id (id 0 is the unanswered hop): its LAN owner, its AS
        # and the member AS its interface record names (the triplet rule's
        # far AS).  The rules only compare these values, so the hop arrays
        # hold dense codes of them, and -1, which no code takes, for none.
        ixp_values = [None, *map(detector._classify_ixp, distinct)]
        asn_values = [None, *map(detector._classify_asn, distinct)]
        far_values = [None, *map(self.dataset.asn_of_interface, distinct)]
        ixp_codes: dict[str, int] = {}
        asn_codes: dict[int, int] = {}
        hops = np.array(self._hop_ids, dtype=np.int64)
        lan = np.array(_dense_codes(ixp_values, ixp_codes), dtype=np.int64)[hops]
        asn = np.array(_dense_codes(asn_values, asn_codes), dtype=np.int64)[hops]
        far = np.array(_dense_codes(far_values, asn_codes), dtype=np.int64)[hops]
        ends = np.array(self._offsets[1:], dtype=np.int64)
        path_last = np.zeros(len(hops), dtype=bool)
        path_last[ends[ends > 0] - 1] = True
        # linked[k]: hops k and k + 1 both answered and lie on one path.
        linked = (hops[:-1] != 0) & (hops[1:] != 0) & ~path_last[:-1]
        in_lan = lan >= 0

        # Private adjacencies: linked hops outside every LAN, in two ASes.
        outside = linked & ~in_lan[:-1] & ~in_lan[1:]
        adjacent = outside & (asn[:-1] >= 0) & (asn[1:] >= 0) & (asn[:-1] != asn[1:])
        nears = np.flatnonzero(adjacent)

        # Triplets (k, k + 1, k + 2), condition by condition as detect()
        # tests them: a LAN middle hop with an interface record, an exit hop
        # in that member's AS, an entry hop in another AS ...
        on_lan = linked[:-1] & linked[1:] & in_lan[1:-1]
        far_known = on_lan & (far[1:-1] >= 0)
        exit_ok = far_known & (asn[2:] == far[1:-1])
        entry_ok = exit_ok & (asn[:-2] >= 0) & (asn[:-2] != far[1:-1])
        middles = np.flatnonzero(entry_ok) + 1
        # ... and both ASes members of the LAN's IXP (rule 3).
        stride = len(asn_codes)
        members = np.array(
            [
                code * stride + asn_codes[member]
                for ixp_id, code in ixp_codes.items()
                for member in detector._members.get(ixp_id, ())
                if member in asn_codes
            ],
            dtype=np.int64,
        )
        owner = lan[middles] * stride
        middles = middles[
            np.isin(owner + asn[middles - 1], members)
            & np.isin(owner + far[middles], members)
        ]

        # The answers the per-path loop asks for: the LAN owner of the first
        # hop of every linked pair, and of the second when the first is
        # outside every LAN; the AS of both hops of a pair outside every LAN,
        # of the exit hop of a triplet whose LAN hop has an interface record,
        # and of its entry hop once the exit hop matched.
        pairs = np.flatnonzero(linked)
        plain = np.flatnonzero(outside)
        ixp_asked = [hops[pairs], hops[pairs[~in_lan[pairs]] + 1]]
        asn_asked = [
            hops[plain],
            hops[plain + 1],
            hops[np.flatnonzero(far_known) + 2],
            hops[np.flatnonzero(exit_ok)],
        ]
        for memo, values, asked in (
            (detector._ixp_memo, ixp_values, ixp_asked),
            (detector._asn_memo, asn_values, asn_asked),
        ):
            seen = np.zeros(len(addresses), dtype=bool)
            for part in asked:
                seen[part] = True
            asked_ids = np.flatnonzero(seen).tolist()
            memo.update((addresses[i], values[i]) for i in asked_ids)

        # One result object per distinct id triple or pair, reusing the
        # previous full scan's object when its fields are unchanged.
        width = len(addresses)
        (entry, middle, exit_), crossing_rows = _distinct_rows(
            [hops[middles - 1], hops[middles], hops[middles + 1]], width
        )
        self._crossing_objects = crossings = _objects(
            IXPCrossing,
            self._crossing_objects,
            map(ixp_values.__getitem__, middle),
            map(addresses.__getitem__, entry),
            map(asn_values.__getitem__, entry),
            map(addresses.__getitem__, middle),
            map(far_values.__getitem__, middle),
            map(addresses.__getitem__, exit_),
        )
        (near, far_end), adjacency_rows = _distinct_rows(
            [hops[nears], hops[nears + 1]], width
        )
        self._adjacency_objects = adjacencies = _objects(
            PrivateAdjacency,
            self._adjacency_objects,
            map(addresses.__getitem__, near),
            map(asn_values.__getitem__, near),
            map(addresses.__getitem__, far_end),
            map(asn_values.__getitem__, far_end),
        )
        made_crossings = list(crossings.values())
        made_adjacencies = list(adjacencies.values())
        self._crossings = [made_crossings[row] for row in crossing_rows]
        self._adjacencies = [made_adjacencies[row] for row in adjacency_rows]
        self._crossing_bounds = _path_bounds(ends, middles)
        self._adjacency_bounds = _path_bounds(ends, nears)

    def _refresh_members(self, ixp_ids: set[str]) -> set[str]:
        """Refresh rule-3 membership snapshots; return IPs to re-detect.

        Mirrors a fresh detector: an IXP outside ``dataset.ixp_ids()`` has no
        membership set (an absent and an empty set behave identically under
        rule 3).  Classification memos are untouched — only paths whose hops
        *classified to* an IXP with genuinely changed membership can detect
        differently.
        """
        detector = self._detector
        known = set(self.dataset.ixp_ids())
        changed: set[str] = set()
        for ixp_id in ixp_ids:
            old = detector._members.get(ixp_id)
            if ixp_id in known:
                members = self.dataset.members_of_ixp(ixp_id)
                if (old or set()) != members:
                    detector._members[ixp_id] = members
                    changed.add(ixp_id)
            elif detector._members.pop(ixp_id, None):
                changed.add(ixp_id)
        if not changed:
            return set()
        return {ip for ip, value in detector._ixp_memo.items() if value in changed}

    def _evict_under(self, prefixes: list[str]) -> set[str]:
        """Evict memoised classifications under the prefixes; return the IPs."""
        detector = self._detector
        # Bucket the changed networks by (version, prefixlen): containment
        # for a whole bucket is then one shift and one set lookup per IP.
        buckets: dict[tuple[int, int], set[int]] = {}
        for prefix in prefixes:
            version, network, prefixlen = parse_prefix(prefix)
            shift = (32 if version == 4 else 128) - prefixlen
            buckets.setdefault((version, shift), set()).add(network >> shift)
        affected: set[str] = set()
        parsed = self._parsed_ips
        for ip in set(detector._ixp_memo) | set(detector._asn_memo):
            info = parsed.get(ip)
            if info is None:
                address = ipaddress.ip_address(ip)
                info = parsed[ip] = (
                    address.version,
                    int(address),
                    address.max_prefixlen,
                )
            version, numeric, _max_prefixlen = info
            for (bucket_version, shift), networks in buckets.items():
                if bucket_version == version and (numeric >> shift) in networks:
                    affected.add(ip)
                    break
        for ip in affected:
            detector._ixp_memo.pop(ip, None)
            detector._asn_memo.pop(ip, None)
        return affected

    def _redetect(self, affected: set[str]) -> None:
        """Re-run detection for every stored path holding an affected IP."""
        detector = self._detector
        paths_of = self._paths_of
        offsets = self._offsets
        hop_ids = self._hop_ids
        # Extend the address -> paths lookup over the paths interned since.
        for index in range(self._paths_indexed, len(offsets) - 1):
            for address_id in hop_ids[offsets[index] : offsets[index + 1]]:
                held = paths_of.get(address_id)
                if held is None:
                    paths_of[address_id] = [index]
                elif held[-1] != index:
                    held.append(index)
        self._paths_indexed = len(offsets) - 1
        ids = self._address_ids
        held_by: set[int] = set()
        for ip in affected:
            if ip in ids:
                held_by.update(paths_of.get(ids[ip], ()))
        touched = sorted(held_by)
        crossings: dict[int, list[IXPCrossing]] = {}
        adjacencies: dict[int, list[PrivateAdjacency]] = {}
        paths = self.corpus.paths
        for index in touched:
            path = paths[index]
            crossings[index] = detector.detect(path)
            adjacencies[index] = detector.private_adjacencies(path)
        self._crossings, self._crossing_bounds = _splice(
            self._crossings, self._crossing_bounds, crossings
        )
        self._adjacencies, self._adjacency_bounds = _splice(
            self._adjacencies, self._adjacency_bounds, adjacencies
        )
        self.paths_redetected += len(touched)


def _dense_codes(values: list[Any], codes: dict[Any, int]) -> list[int]:
    """Each value's dense code in ``codes`` (extended as needed); -1 for None."""
    return [-1 if v is None else codes.setdefault(v, len(codes)) for v in values]


def _distinct_rows(columns: list[Any], width: int) -> tuple[list[list[int]], list[int]]:
    """The distinct rows of two or more equal-length id columns.

    Returns the distinct rows column by column and, per input row, the
    index of its distinct row.  Ids are below ``width``.  The columns are
    folded into one int64 key, re-coded densely after each column so the
    key cannot overflow.
    """
    np = _np
    key = columns[0]
    for column in columns[1:]:
        _, first, key = np.unique(
            key * width + column, return_index=True, return_inverse=True
        )
    return [column[first].tolist() for column in columns], key.reshape(-1).tolist()


def _objects(
    kind: Callable[..., _Value],
    previous: dict[tuple[Any, ...], _Value],
    *columns: Iterable[Any],
) -> dict[tuple[Any, ...], _Value]:
    """``kind(*row)`` per distinct row of ``columns``, keyed by the row.

    An object in ``previous`` under an equal row is reused instead: result
    objects are immutable, so only their identity could tell them apart.
    """
    return {row: previous.get(row) or kind(*row) for row in zip(*columns)}


def _path_bounds(ends: Any, positions: Any) -> list[int]:
    """Per-path bounds of results found at ascending hop ``positions``.

    ``ends`` are the path end offsets into the flat hop array; path i's
    results are ``found[bounds[i]:bounds[i + 1]]``.
    """
    np = _np
    path_of = np.searchsorted(ends, positions, side="right")
    return [0, *np.cumsum(np.bincount(path_of, minlength=len(ends))).tolist()]


def _splice(
    found: list[_Value], bounds: list[int], replaced: dict[int, list[_Value]]
) -> tuple[list[_Value], list[int]]:
    """Path-major results and bounds with some paths' results replaced.

    ``replaced`` maps path indexes, in ascending order, to their new results.
    """
    sizes = list(map(sub, bounds[1:], bounds))
    pieces: list[list[_Value]] = []
    start = 0
    for index, results in replaced.items():
        pieces += (found[start : bounds[index]], results)
        start = bounds[index + 1]
        sizes[index] = len(results)
    pieces.append(found[start:])
    return list(chain.from_iterable(pieces)), list(accumulate(sizes, initial=0))
