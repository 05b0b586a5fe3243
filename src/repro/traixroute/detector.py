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
prefix** — the detection analogue of the LPM delta overlay and the
geo-distance index's selective eviction.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass
from threading import Lock

from repro.datasources.merge import (
    DOMAIN_INTERFACES,
    DOMAIN_IXP_FACILITIES,
    DOMAIN_IXP_PREFIXES,
    ObservedDataset,
)
from repro.datasources.prefix2as import DOMAIN_PREFIXES, Prefix2ASMap
from repro.measurement.results import TracerouteCorpus
from repro.routing.forwarding import ForwardingPath

#: Changed prefixes beyond which a selective re-detection stops being cheaper
#: than a full corpus re-scan with a fresh detector.
SELECTIVE_REDETECTION_LIMIT = 256


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
        result = self.dataset.ixp_of_interface(ip)
        if result is None:
            result = self.dataset.ixp_for_ip(ip)
        with self._lock:
            memo[ip] = result
        return result

    def asn_of_ip(self, ip: str) -> int | None:
        """Best-effort IP-to-AS mapping (IXP interface list, then prefix2as)."""
        memo = self._asn_memo
        if ip in memo:
            return memo[ip]
        result = self.dataset.asn_of_interface(ip)
        if result is None:
            result = self.prefix2as.lookup(ip)
        with self._lock:
            memo[ip] = result
        return result

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
    * an opaque bump, a truncated journal, a shrunk corpus or an oversized
      change batch (:data:`SELECTIVE_REDETECTION_LIMIT`) falls back to a
      full re-scan with a fresh detector.

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
        self._per_path: list[tuple[list[IXPCrossing], list[PrivateAdjacency]]] = []
        # ip -> (version, numeric, max_prefixlen); IPs are content-stable, so
        # the parse survives rebuilds and is amortised across revisions.
        self._parsed_ips: dict[str, tuple[int, int, int]] = {}
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
        crossings: list[IXPCrossing] = []
        adjacencies: list[PrivateAdjacency] = []
        for path_crossings, path_adjacencies in self._per_path:
            crossings.extend(path_crossings)
            adjacencies.extend(path_adjacencies)
        return crossings, adjacencies

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
                (DOMAIN_IXP_PREFIXES, DOMAIN_INTERFACES, DOMAIN_IXP_FACILITIES))
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
                self._synced_prefix2as, (DOMAIN_PREFIXES,))
            if changes is None:
                self._rebuild()
                return
            changed_prefixes.extend(change.key for change in changes)

        if len(changed_prefixes) + len(membership_dirty) > SELECTIVE_REDETECTION_LIMIT:
            self._rebuild()
            return
        if len(self.corpus.paths) < self._synced_paths:
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

        for path in self.corpus.paths[self._synced_paths:]:
            detector = self._detector
            self._per_path.append(
                (detector.detect(path), detector.private_adjacencies(path)))
        self._synced_paths = len(self.corpus.paths)

    def _rebuild(self) -> None:
        detector = self._detector = CrossingDetector(self.dataset, self.prefix2as)
        self._per_path = [
            (detector.detect(path), detector.private_adjacencies(path))
            for path in self.corpus.paths
        ]
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
        return {
            ip for ip, value in detector._ixp_memo.items() if value in changed
        }

    def _evict_under(self, prefixes: list[str]) -> set[str]:
        """Evict memoised classifications under the prefixes; return the IPs."""
        detector = self._detector
        # Bucket the changed networks by (version, prefixlen): containment
        # for a whole bucket is then one shift and one set lookup per IP.
        buckets: dict[tuple[int, int], set[int]] = {}
        for prefix in prefixes:
            network = ipaddress.ip_network(prefix)
            shift = network.max_prefixlen - network.prefixlen
            buckets.setdefault((network.version, shift), set()).add(
                int(network.network_address) >> shift)
        affected: set[str] = set()
        parsed = self._parsed_ips
        for ip in set(detector._ixp_memo) | set(detector._asn_memo):
            info = parsed.get(ip)
            if info is None:
                address = ipaddress.ip_address(ip)
                info = parsed[ip] = (
                    address.version, int(address), address.max_prefixlen)
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
        """Re-run detection for every stored path touching an affected IP."""
        detector = self._detector
        for index, path in enumerate(self.corpus.paths[: self._synced_paths]):
            if any(hop.ip in affected for hop in path.hops):
                self._per_path[index] = (
                    detector.detect(path), detector.private_adjacencies(path))
                self.paths_redetected += 1
