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
LAN prefixes or interfaces or the prefix2as map change through their
journal-emitting mutators, re-detects **only the paths holding an address
whose answers changed** — the detection analogue of the geo-distance index's
selective eviction.  The corpus stores each hop as an id into its address
table (:class:`~repro.measurement.results.TracerouteCorpus`); the index
classifies each address id once, when it first meets it, and one
pure-Python pass applies both rules to the id runs of any set of paths, from
the first build to a re-detection.  The corpus only appends to its columns,
so a path's id run never changes once the index has read it.
"""

from __future__ import annotations

import ipaddress
from collections.abc import Iterable, Sequence
from itertools import accumulate, chain
from operator import sub
from threading import Lock
from typing import NamedTuple, TypeVar

from repro.datasources.merge import (
    DOMAIN_INTERFACES,
    DOMAIN_IXP_FACILITIES,
    DOMAIN_IXP_PREFIXES,
    ObservedDataset,
)
from repro.datasources.prefix2as import DOMAIN_PREFIXES, Prefix2ASMap
from repro.measurement.results import AddressColumns, TracerouteCorpus
from repro.netindex import parse_prefix
from repro.routing.forwarding import ForwardingPath

#: What a :class:`CorpusDetectionIndex` reads: the dataset domains its walk
#: of the corpus checks (LANs, interfaces, IXP facilities) and the inputs
#: bundle members it binds.  The engine's traceroute node, which builds the
#: index over the real objects, declares exactly these.
CORPUS_DETECTION_DOMAINS: tuple[str, ...] = (
    DOMAIN_IXP_PREFIXES,
    DOMAIN_INTERFACES,
    DOMAIN_IXP_FACILITIES,
)
CORPUS_DETECTION_INPUTS: tuple[str, ...] = ("corpus", "prefix2as")

#: Journalled changes (prefixes, interfaces and the IXPs they name) beyond
#: which a selective re-detection stops being cheaper than a full corpus scan.
SELECTIVE_REDETECTION_LIMIT = 256

_Value = TypeVar("_Value")


class IXPCrossing(NamedTuple):
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


class PrivateAdjacency(NamedTuple):
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
        hops = path.hop_ips()
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
        hops = path.hop_ips()
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
    against the generation stamps of its inputs.

    The corpus holds each path as a run of ids into its address table
    (``None`` hops are id 0), which the index reads through
    :meth:`~repro.measurement.results.TracerouteCorpus.address_columns`.
    The first time the index meets an address id it gives it three answers,
    kept in lists indexed by id: its LAN owner (``ixp_of_interface``, then
    ``ixp_for_ip``), its interface AS (``asn_of_interface``, the triplet
    rule's far AS) and its AS (the interface AS, then ``prefix2as``).
    Detection (:meth:`_detect`) reads only these answers and the per-IXP
    rule-3 member sets, so a path whose addresses kept their answers, and
    whose LAN owners kept their member sets, detects exactly as before.  A
    revision therefore:

    * re-classifies the answered addresses under a changed prefix (a LAN
      prefix re-map on the dataset, an add / re-map / removal on the
      prefix2as map) or named by a changed interface record;
    * refreshes the member sets of the IXPs the journal names: a LAN
      prefix's old and new owner, an interface's old and new IXP, an IXP
      whose facilities changed;
    * re-detects exactly the stored paths that hold an address whose
      answers changed, or whose LAN owner's member set changed;
    * answers the new address ids and detects only the paths appended to
      the corpus since the last sync.

    An opaque bump, a truncated journal or an oversized change batch
    (:data:`SELECTIVE_REDETECTION_LIMIT`) falls back to a full scan: every
    answered address is re-classified and every path re-detected.

    The inputs' collections are read-only views, so these journals and the
    corpus's appends are the only ways the inputs change.  The corpus only
    appends to its address table and columns, so an id keeps its address
    and a path its id run, across full scans too.

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
        # Per id of the corpus's address table, for the first len(_lan) ids:
        # the three answers and, from the first prefix revision on, the
        # (version, int) parse.  Id 0, the unanswered hop, answers None and
        # is version 0, under no prefix.
        self._lan: list[str | None] = [None]
        self._far: list[int | None] = [None]
        self._asn: list[int | None] = [None]
        self._numeric: list[tuple[int, int]] = [(0, 0)]
        # Rule-3 member sets by IXP.  An IXP outside dataset.ixp_ids() has
        # an empty set or none, which rule 3 treats alike.
        self._members: dict[str, set[int]] = {}
        # The results, path-major: path i's crossings are
        # crossings[crossing_bounds[i]:crossing_bounds[i + 1]], and its
        # adjacencies likewise.
        self._crossings: list[IXPCrossing] = []
        self._adjacencies: list[PrivateAdjacency] = []
        self._crossing_bounds = [0]
        self._adjacency_bounds = [0]
        # Address id -> indexes of the detected paths holding it; built at
        # the first re-detection and extended over the paths detected since
        # (the first ``_paths_indexed`` are in).
        self._paths_of: dict[int, list[int]] = {}
        self._paths_indexed = 0
        self._synced_dataset = dataset.generation
        self._synced_prefix2as = prefix2as.generation
        # Serialises revision syncs when concurrent caller threads share the
        # index.
        self._sync_lock = Lock()
        #: Full corpus scans performed: the first build and every fall-back.
        self.full_scans = 0
        #: Stored paths re-detected selectively across all revisions.
        self.paths_redetected = 0

    def results(self) -> tuple[list[IXPCrossing], list[PrivateAdjacency]]:
        """(crossings, adjacencies) over the whole corpus, current revision.

        The returned lists are fresh; the result records inside are shared
        with the index (and with earlier revisions' results) and immutable.
        """
        self._sync()
        return list(self._crossings), list(self._adjacencies)

    # ------------------------------------------------------------------ #
    def _sync(self) -> None:
        with self._sync_lock:
            self._sync_locked()

    def _sync_locked(self) -> None:
        if not self.full_scans:
            self._rebuild()
            return

        prefixes: list[str] = []
        interfaces: list[str] = []
        ixp_ids: set[str | None] = set()
        dataset_generation = self.dataset.generation
        if dataset_generation != self._synced_dataset:
            changes = self.dataset.journal.since(
                self._synced_dataset, CORPUS_DETECTION_DOMAINS
            )
            if changes is None:
                self._rebuild()
                return
            for change in changes:
                if change.domain == DOMAIN_IXP_PREFIXES:
                    prefixes.append(change.key)
                    ixp_ids.update((change.old, change.new))
                elif change.domain == DOMAIN_INTERFACES:
                    # old and new are (ixp_id, asn) records; new is None
                    # for a removal.
                    interfaces.append(change.key)
                    for record in (change.old, change.new):
                        if record is not None:
                            ixp_ids.add(record[0])
                else:  # DOMAIN_IXP_FACILITIES: key is (ixp_id, facility_id)
                    ixp_ids.add(change.key[0])
            ixp_ids.discard(None)
        prefix2as_generation = self.prefix2as.generation
        if prefix2as_generation != self._synced_prefix2as:
            changes = self.prefix2as.journal.since(
                self._synced_prefix2as, (DOMAIN_PREFIXES,)
            )
            if changes is None:
                self._rebuild()
                return
            prefixes.extend(change.key for change in changes)

        if len(prefixes) + len(interfaces) + len(ixp_ids) > SELECTIVE_REDETECTION_LIMIT:
            self._rebuild()
            return

        # Addresses the index has not answered yet are answered fresh when
        # their paths are detected.
        answered = len(self._lan)
        named = {
            address_id
            for address_id in map(self.corpus.address_id, interfaces)
            if address_id is not None and address_id < answered
        }
        changed = self._reclassify(self._ids_under(prefixes) | named)
        refreshed = self._refresh_members(ixp_ids)
        if refreshed:
            changed.update(
                address_id
                for address_id, owner in enumerate(self._lan)
                if owner in refreshed
            )
        if changed:
            self._redetect(changed)
        self._synced_dataset = dataset_generation
        self._synced_prefix2as = prefix2as_generation
        self._detect_appended()

    def _rebuild(self) -> None:
        """A full scan: re-classify every answered address, rebuild the member
        sets and re-detect every path, appended ones included."""
        dataset = self.dataset
        self._synced_dataset = dataset.generation
        self._synced_prefix2as = self.prefix2as.generation
        self._reclassify(range(1, len(self._lan)))
        self._members = {
            ixp_id: dataset.members_of_ixp(ixp_id) for ixp_id in dataset.ixp_ids()
        }
        self._crossings, self._adjacencies = [], []
        self._crossing_bounds, self._adjacency_bounds = [0], [0]
        self.full_scans += 1
        self._detect_appended()

    def _answers(self, ip: str) -> tuple[str | None, int | None, int | None]:
        """The LAN owner, interface AS and AS of an address, as a fresh
        :class:`CrossingDetector`'s ``ixp_of_ip``, ``asn_of_interface`` (on
        its dataset) and ``asn_of_ip`` answer them."""
        dataset = self.dataset
        lan = dataset.ixp_of_interface(ip)
        if lan is None:
            lan = dataset.ixp_for_ip(ip)
        far = dataset.asn_of_interface(ip)
        return lan, far, self.prefix2as.lookup(ip) if far is None else far

    def _reclassify(self, address_ids: Iterable[int]) -> set[int]:
        """Answer the addresses again; return the ids whose answers changed."""
        addresses = self.corpus.address_columns().addresses
        lan, far, asn = self._lan, self._far, self._asn
        changed: set[int] = set()
        for address_id in address_ids:
            answers = self._answers(addresses[address_id])
            if answers != (lan[address_id], far[address_id], asn[address_id]):
                lan[address_id], far[address_id], asn[address_id] = answers
                changed.add(address_id)
        return changed

    def _detect_appended(self) -> None:
        """Answer the corpus's new address ids and detect the paths appended
        since the last sync."""
        columns = self.corpus.address_columns()
        for ip in columns.addresses[len(self._lan) :]:
            lan, far, asn = self._answers(ip)
            self._lan.append(lan)
            self._far.append(far)
            self._asn.append(asn)
        self._detect(
            columns,
            range(len(self._crossing_bounds) - 1, len(columns.offsets) - 1),
            self._crossings,
            self._crossing_bounds,
            self._adjacencies,
            self._adjacency_bounds,
        )

    def _detect(
        self,
        columns: AddressColumns,
        indexes: Iterable[int],
        crossings: list[IXPCrossing],
        crossing_bounds: list[int],
        adjacencies: list[PrivateAdjacency],
        adjacency_bounds: list[int],
    ) -> None:
        """Apply both rules to the id runs of the given paths, in their order.

        Appends each path's crossings and adjacencies to the path-major
        lists, and their end offset in each list to its bounds.
        """
        addresses, hop_ids, offsets = columns
        lan, far, asn = self._lan, self._far, self._asn
        members = self._members
        # The records are NamedTuples: tuple.__new__ builds one without the
        # per-field constructor's call.
        new = tuple.__new__
        for index in indexes:
            run = hop_ids[offsets[index] : offsets[index + 1]]
            # Triplets whose middle hop has an interface record (the far
            # AS), whose exit hop maps to that AS and whose entry hop to
            # another, on a LAN whose IXP has both ASes as members.  Id 0
            # answers None, so no triplet with an unanswered hop qualifies.
            for entry, middle, exit_ in zip(run, run[1:], run[2:]):
                far_asn = far[middle]
                if far_asn is None or asn[exit_] != far_asn:
                    continue
                entry_asn = asn[entry]
                owner = lan[middle]
                if entry_asn is None or entry_asn == far_asn or owner is None:
                    continue
                held = members.get(owner, ())
                if entry_asn in held and far_asn in held:
                    crossings.append(
                        new(
                            IXPCrossing,
                            (
                                owner,
                                addresses[entry],
                                entry_asn,
                                addresses[middle],
                                far_asn,
                                addresses[exit_],
                            ),
                        )
                    )
            crossing_bounds.append(len(crossings))
            # Consecutive hops outside every LAN, in two different ASes.
            for near, far_end in zip(run, run[1:]):
                if lan[near] is not None or lan[far_end] is not None:
                    continue
                near_asn, far_asn = asn[near], asn[far_end]
                if near_asn is None or far_asn is None or near_asn == far_asn:
                    continue
                adjacencies.append(
                    new(
                        PrivateAdjacency,
                        (addresses[near], near_asn, addresses[far_end], far_asn),
                    )
                )
            adjacency_bounds.append(len(adjacencies))

    def _refresh_members(self, ixp_ids: Iterable[str | None]) -> set[str]:
        """Refresh rule-3 member sets; return the IXPs whose set changed.

        Mirrors a fresh detector: an IXP outside ``dataset.ixp_ids()`` has no
        member set, and an absent and an empty set behave identically under
        rule 3.
        """
        known = set(self.dataset.ixp_ids())
        members = self._members
        changed: set[str] = set()
        for ixp_id in ixp_ids:
            held = self.dataset.members_of_ixp(ixp_id) if ixp_id in known else set()
            if held != members.get(ixp_id, set()):
                members[ixp_id] = held
                changed.add(ixp_id)
        return changed

    def _ids_under(self, prefixes: list[str]) -> set[int]:
        """The ids of the interned addresses under any of the prefixes."""
        if not prefixes:
            return set()
        # Bucket the changed networks by (version, host bits): containment
        # for a whole bucket is then one shift and one set lookup per id.
        buckets: dict[tuple[int, int], set[int]] = {}
        for prefix in prefixes:
            version, network, prefixlen = parse_prefix(prefix)
            shift = (32 if version == 4 else 128) - prefixlen
            buckets.setdefault((version, shift), set()).add(network >> shift)
        numeric = self._numeric
        addresses = self.corpus.address_columns().addresses
        for ip in addresses[len(numeric) : len(self._lan)]:
            address = ipaddress.ip_address(ip)
            numeric.append((address.version, int(address)))
        return {
            address_id
            for (version, shift), networks in buckets.items()
            for address_id, (address_version, value) in enumerate(numeric)
            if address_version == version and (value >> shift) in networks
        }

    def _redetect(self, changed: set[int]) -> None:
        """Re-detect every stored path holding one of the address ids."""
        paths_of = self._paths_of
        columns = self.corpus.address_columns()
        hop_ids, offsets = columns.hop_ids, columns.offsets
        detected = len(self._crossing_bounds) - 1
        # Extend the address -> paths lookup over the paths detected since.
        for index in range(self._paths_indexed, detected):
            for address_id in hop_ids[offsets[index] : offsets[index + 1]]:
                held = paths_of.get(address_id)
                if held is None:
                    paths_of[address_id] = [index]
                elif held[-1] != index:
                    held.append(index)
        self._paths_indexed = detected
        touched = sorted(set(chain.from_iterable(paths_of.get(i, ()) for i in changed)))
        crossings: list[IXPCrossing] = []
        adjacencies: list[PrivateAdjacency] = []
        crossing_bounds, adjacency_bounds = [0], [0]
        self._detect(
            columns, touched, crossings, crossing_bounds, adjacencies, adjacency_bounds
        )
        self._crossings, self._crossing_bounds = _splice(
            self._crossings, self._crossing_bounds, touched, crossings, crossing_bounds
        )
        self._adjacencies, self._adjacency_bounds = _splice(
            self._adjacencies,
            self._adjacency_bounds,
            touched,
            adjacencies,
            adjacency_bounds,
        )
        self.paths_redetected += len(touched)


def _splice(
    found: list[_Value],
    bounds: list[int],
    indexes: Sequence[int],
    replaced: list[_Value],
    replaced_bounds: list[int],
) -> tuple[list[_Value], list[int]]:
    """Path-major results and bounds with some paths' results replaced.

    ``indexes`` are the replaced paths in ascending order; ``replaced`` and
    ``replaced_bounds`` hold their new results, path-major in that order.
    """
    sizes = list(map(sub, bounds[1:], bounds))
    pieces: list[list[_Value]] = []
    start = 0
    for index, begin, end in zip(indexes, replaced_bounds, replaced_bounds[1:]):
        pieces += (found[start : bounds[index]], replaced[begin:end])
        start = bounds[index + 1]
        sizes[index] = end - begin
    pieces.append(found[start:])
    return list(chain.from_iterable(pieces)), list(accumulate(sizes, initial=0))
