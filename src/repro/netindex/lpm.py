"""Binary-search longest-prefix-match index over pre-parsed integer ranges.

The seed implementation of IP classification re-parsed every registered
prefix with :func:`ipaddress.ip_network` on *every* lookup and returned the
first match in insertion order — which is wrong whenever a more-specific
prefix nests inside a broader one, and linear in the number of prefixes.
:class:`LPMIndex` replaces that with a classic flattened interval table:

* at construction every prefix is parsed **once** into an integer
  ``[network, broadcast]`` range;
* nested ranges are flattened into *disjoint* intervals where each interval
  is owned by the most specific (longest) covering prefix, so a lookup is a
  single :func:`bisect.bisect_right` — ``O(log n)`` with no parsing;
* full-length (host-route) prefixes live in a plain dict consulted before
  the binary search — the exact-match fast path;
* every answer (including misses) is memoised per IP string, so repeated
  hops across a traceroute corpus resolve in ``O(1)`` without even parsing
  the address again.

Invariants consumers rely on:

1. **True LPM semantics** — the most specific registered prefix containing
   an address wins, independent of insertion order.
2. **Last registration wins** — registering the same prefix twice keeps the
   latest value (matching dict-overwrite semantics of the seed sources).
3. **Immutability** — an index never changes after construction; consumers
   that mutate their prefix sets rebuild the index, or wrap it in an
   :class:`LPMDeltaView` — a small add/replace overlay consulted alongside
   the frozen interval array, compacted into a full rebuild past a threshold
   (see :class:`repro.datasources.prefix2as.Prefix2ASMap`).

Both IPv4 and IPv6 prefixes are supported; each version gets its own table.
"""

from __future__ import annotations

import ipaddress
from bisect import bisect_right
from threading import Lock
from typing import Generic, Iterable, Mapping, TypeVar, cast

V = TypeVar("V")

#: Overlay patches an :class:`LPMDeltaView` accumulates before its owner
#: should compact it into a freshly built :class:`LPMIndex`.  Each lookup
#: scans the overlay linearly (after the base binary search), so the overlay
#: must stay small relative to the base table.
DELTA_COMPACTION_THRESHOLD = 64

#: Sentinel distinguishing "memoised miss" from "not memoised yet".
_UNCACHED = object()


class LPMIndex(Generic[V]):
    """Immutable longest-prefix-match index from CIDR prefixes to values."""

    __slots__ = ("_tables", "_hosts", "_memo", "_size", "_lock")

    def __init__(self, entries: Iterable[tuple[str, V]] | Mapping[str, V] = ()) -> None:
        if isinstance(entries, Mapping):
            entries = entries.items()
        # version -> (network_int, prefixlen) -> value; last registration wins.
        by_version: dict[int, dict[tuple[int, int], V]] = {}
        hosts: dict[tuple[int, int], V] = {}
        for prefix, value in entries:
            if value is None:
                raise ValueError("LPMIndex values may not be None (None means miss)")
            network = ipaddress.ip_network(prefix)
            key = (int(network.network_address), network.prefixlen)
            if network.prefixlen == network.max_prefixlen:
                # Host routes live only in the exact-match dict; it already
                # answers them as the longest possible match.
                hosts[(network.version, key[0])] = value
            by_version.setdefault(network.version, {})[key] = value

        self._hosts = hosts
        self._size = sum(len(bucket) for bucket in by_version.values())
        self._tables: dict[int, tuple[list[int], list[int], list[V], list[int]]] = {}
        for version, bucket in by_version.items():
            max_prefixlen = 32 if version == 4 else 128
            intervals = sorted(
                (
                    (start, start + (1 << (max_prefixlen - length)) - 1, value, length)
                    for (start, length), value in bucket.items()
                    if length < max_prefixlen
                ),
                key=lambda interval: (interval[0], -interval[1]),
            )
            table = self._flatten(intervals)
            if table[0]:
                self._tables[version] = table
        self._memo: dict[str, tuple[V, int] | None] = {}
        # Serialises memo stores from concurrent caller threads.
        self._lock = Lock()

    @staticmethod
    def _flatten(
        intervals: list[tuple[int, int, V, int]],
    ) -> tuple[list[int], list[int], list[V], list[int]]:
        """Flatten properly-nested ranges into disjoint most-specific intervals.

        ``intervals`` must be sorted by ``(start, end descending)`` so that at
        an equal ``start`` the shorter (outer) prefix is opened before the
        nested one; CIDR ranges never partially overlap.  Each emitted
        interval keeps the prefix length of its owner so lookups can report
        *how specific* their match was (the delta-overlay tie-breaker).
        """
        starts: list[int] = []
        ends: list[int] = []
        values: list[V] = []
        lengths: list[int] = []

        def emit(lo: int, hi: int, value: V, length: int) -> None:
            if lo > hi:
                return
            if (
                starts
                and values[-1] == value
                and lengths[-1] == length
                and ends[-1] == lo - 1
            ):
                ends[-1] = hi
            else:
                starts.append(lo)
                ends.append(hi)
                values.append(value)
                lengths.append(length)

        # (end, value, length) of currently open prefixes, outermost first.
        stack: list[tuple[int, V, int]] = []
        cursor = 0
        for start, end, value, length in intervals:
            while stack and stack[-1][0] < start:
                top_end, top_value, top_length = stack.pop()
                emit(cursor, top_end, top_value, top_length)
                cursor = top_end + 1
            if stack:
                emit(cursor, start - 1, stack[-1][1], stack[-1][2])
            stack.append((end, value, length))
            cursor = start
        while stack:
            top_end, top_value, top_length = stack.pop()
            emit(cursor, top_end, top_value, top_length)
            cursor = top_end + 1
        return starts, ends, values, lengths

    # ------------------------------------------------------------------ #
    def lookup(self, ip: str) -> V | None:
        """Value of the longest registered prefix containing ``ip``, if any."""
        match = self.lookup_match(ip)
        return None if match is None else match[0]

    def lookup_match(self, ip: str) -> tuple[V, int] | None:
        """``(value, prefixlen)`` of the longest match, or ``None`` on a miss.

        The prefix length is what :class:`LPMDeltaView` compares against its
        overlay patches: a patch wins exactly when it is at least as specific
        as the base match (an equally specific patch *is* the base prefix,
        re-registered with a new value).
        """
        cached = self._memo.get(ip, _UNCACHED)
        if cached is not _UNCACHED:
            # The sentinel is filtered out above; narrow for the checker.
            return cast("tuple[V, int] | None", cached)
        address = ipaddress.ip_address(ip)
        numeric = int(address)
        match: tuple[V, int] | None = None
        host_value = self._hosts.get((address.version, numeric))
        if host_value is not None:
            match = (host_value, address.max_prefixlen)
        else:
            table = self._tables.get(address.version)
            if table is not None:
                starts, ends, table_values, lengths = table
                slot = bisect_right(starts, numeric) - 1
                if slot >= 0 and ends[slot] >= numeric:
                    match = (table_values[slot], lengths[slot])
        # The match was computed from immutable tables; only the memo store
        # needs the lock, so the hit path above stays lock-free.
        with self._lock:
            self._memo[ip] = match
        return match

    def clear_cache(self) -> None:
        """Drop the lookup memo (the interval tables are untouched)."""
        with self._lock:
            self._memo.clear()

    def __len__(self) -> int:
        """Number of distinct registered prefixes."""
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0


class LPMDeltaView(Generic[V]):
    """A frozen :class:`LPMIndex` plus a small add/replace patch overlay.

    The incremental path of the dataset-versioning layer: when a prefix map
    that already built its index receives a *small* delta (a feed refresh
    adds or re-maps a handful of prefixes), rebuilding the whole interval
    table is wasteful.  The view keeps the frozen base index (and its warm
    lookup memo) and layers the patches on top:

    * a lookup asks the base for its longest match *with prefix length* and
      scans the overlay for containing patches;
    * the overlay wins when its best patch is **at least as specific** as the
      base match — an equally specific patch is necessarily the same prefix
      (two distinct equal-length prefixes cannot both contain one address),
      i.e. a re-registration whose new value must win;
    * prefix *removal* is unsupported by design: the flattened base table no
      longer knows which outer prefix should inherit a removed range, so
      owners fall back to a full rebuild (see ``Prefix2ASMap.remove``).

    Views are **immutable**: :meth:`patched` returns a new view sharing the
    base index, so owners can swap one reference atomically (the same
    torn-read-free contract as
    :class:`~repro.versioning.GenerationGuardedIndex`).  Owners compact the
    overlay into a fresh :class:`LPMIndex` once :attr:`delta_size` passes
    :data:`DELTA_COMPACTION_THRESHOLD` — the overlay scan is linear, so it
    must stay small relative to the base.
    """

    __slots__ = ("base", "_overlay", "_memo", "_lock")

    def __init__(
        self,
        base: LPMIndex[V],
        overlay: Mapping[str, tuple[int, int, int, V]] | None = None,
    ) -> None:
        self.base = base
        # canonical prefix -> (version, network_int, prefixlen, value)
        self._overlay: dict[str, tuple[int, int, int, V]] = dict(overlay or {})
        self._memo: dict[str, tuple[V, int] | None] = {}
        # Serialises memo stores from concurrent caller threads.
        self._lock = Lock()

    @property
    def delta_size(self) -> int:
        """Number of overlay patches layered over the base index."""
        return len(self._overlay)

    def patched(self, prefix: str, value: V) -> "LPMDeltaView[V]":
        """A new view with one more add/replace patch (the base is shared)."""
        if value is None:
            raise ValueError("LPMDeltaView values may not be None (None means miss)")
        network = ipaddress.ip_network(prefix)
        overlay = dict(self._overlay)
        overlay[str(network)] = (
            network.version,
            int(network.network_address),
            network.prefixlen,
            value,
        )
        return LPMDeltaView(self.base, overlay)

    def lookup(self, ip: str) -> V | None:
        """Value of the longest patched-or-base prefix containing ``ip``."""
        match = self.lookup_match(ip)
        return None if match is None else match[0]

    def lookup_match(self, ip: str) -> tuple[V, int] | None:
        """``(value, prefixlen)`` of the longest match across base and overlay."""
        cached = self._memo.get(ip, _UNCACHED)
        if cached is not _UNCACHED:
            # The sentinel is filtered out above; narrow for the checker.
            return cast("tuple[V, int] | None", cached)
        address = ipaddress.ip_address(ip)
        numeric = int(address)
        max_prefixlen = address.max_prefixlen
        match = self.base.lookup_match(ip)
        for version, network_int, prefixlen, value in self._overlay.values():
            if version != address.version:
                continue
            shift = max_prefixlen - prefixlen
            if (numeric >> shift) != (network_int >> shift):
                continue
            # An equally specific overlay patch is the same prefix
            # re-registered, so ties go to the overlay (last write wins).
            if match is None or prefixlen >= match[1]:
                match = (value, prefixlen)
        with self._lock:
            self._memo[ip] = match
        return match
