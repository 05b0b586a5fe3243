"""Binary-search longest-prefix-match index over pre-parsed integer ranges.

The seed implementation of IP classification re-parsed every registered
prefix with :func:`ipaddress.ip_network` on *every* lookup and returned the
first match in insertion order — which is wrong whenever a more-specific
prefix nests inside a broader one, and linear in the number of prefixes.
:class:`LPMIndex` replaces that with a classic flattened interval table:

* each prefix is parsed **once**, by :func:`parse_prefix`, into an integer
  ``(version, network, length)`` triple; the index is built from those
  triples and parses nothing;
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
   that mutate their prefix sets keep the parsed triples and build a fresh
   index from them (see :class:`repro.datasources.prefix2as.Prefix2ASMap`).

Both IPv4 and IPv6 prefixes are supported; each version gets its own table.
"""

from __future__ import annotations

import ipaddress
from bisect import bisect_right
from threading import Lock
from typing import Generic, Iterable, TypeVar, cast

V = TypeVar("V")

#: ``(IP version, network address as an int, prefix length)``.
ParsedPrefix = tuple[int, int, int]

#: Sentinel distinguishing "memoised miss" from "not memoised yet".
_UNCACHED = object()


def parse_prefix(prefix: str) -> ParsedPrefix:
    """The ``(version, network int, prefix length)`` triple of a CIDR prefix.

    Raises :class:`ValueError` for a malformed prefix, host bits set included.
    """
    network = ipaddress.ip_network(prefix)
    return network.version, int(network.network_address), network.prefixlen


class LPMIndex(Generic[V]):
    """Immutable longest-prefix-match index from parsed prefixes to values."""

    __slots__ = ("_tables", "_hosts", "_memo", "_size", "_lock")

    def __init__(self, entries: Iterable[tuple[ParsedPrefix, V]] = ()) -> None:
        # version -> (network_int, prefixlen) -> value; last registration wins.
        by_version: dict[int, dict[tuple[int, int], V]] = {}
        hosts: dict[tuple[int, int], V] = {}
        for (version, start, length), value in entries:
            if value is None:
                raise ValueError("LPMIndex values may not be None (None means miss)")
            if length == (32 if version == 4 else 128):
                # Host routes live only in the exact-match dict; it already
                # answers them as the longest possible match.
                hosts[(version, start)] = value
            by_version.setdefault(version, {})[(start, length)] = value

        self._hosts = hosts
        self._size = sum(len(bucket) for bucket in by_version.values())
        self._tables: dict[int, tuple[list[int], list[int], list[V]]] = {}
        for version, bucket in by_version.items():
            max_prefixlen = 32 if version == 4 else 128
            intervals = sorted(
                (
                    (start, start + (1 << (max_prefixlen - length)) - 1, value)
                    for (start, length), value in bucket.items()
                    if length < max_prefixlen
                ),
                key=lambda interval: (interval[0], -interval[1]),
            )
            table = self._flatten(intervals)
            if table[0]:
                self._tables[version] = table
        self._memo: dict[str, V | None] = {}
        # Serialises memo stores from concurrent caller threads.
        self._lock = Lock()

    @staticmethod
    def _flatten(
        intervals: list[tuple[int, int, V]],
    ) -> tuple[list[int], list[int], list[V]]:
        """Flatten properly-nested ranges into disjoint most-specific intervals.

        ``intervals`` must be sorted by ``(start, end descending)`` so that at
        an equal ``start`` the shorter (outer) prefix is opened before the
        nested one; CIDR ranges never partially overlap.
        """
        starts: list[int] = []
        ends: list[int] = []
        values: list[V] = []

        def emit(lo: int, hi: int, value: V) -> None:
            if lo > hi:
                return
            if starts and values[-1] == value and ends[-1] == lo - 1:
                ends[-1] = hi
            else:
                starts.append(lo)
                ends.append(hi)
                values.append(value)

        # (end, value) of currently open prefixes, outermost first.
        stack: list[tuple[int, V]] = []
        cursor = 0
        for start, end, value in intervals:
            while stack and stack[-1][0] < start:
                top_end, top_value = stack.pop()
                emit(cursor, top_end, top_value)
                cursor = top_end + 1
            if stack:
                emit(cursor, start - 1, stack[-1][1])
            stack.append((end, value))
            cursor = start
        while stack:
            top_end, top_value = stack.pop()
            emit(cursor, top_end, top_value)
            cursor = top_end + 1
        return starts, ends, values

    # ------------------------------------------------------------------ #
    def lookup(self, ip: str) -> V | None:
        """Value of the longest registered prefix containing ``ip``, if any."""
        cached = self._memo.get(ip, _UNCACHED)
        if cached is not _UNCACHED:
            # The sentinel is filtered out above; narrow for the checker.
            return cast("V | None", cached)
        address = ipaddress.ip_address(ip)
        numeric = int(address)
        value = self._hosts.get((address.version, numeric))
        if value is None:
            table = self._tables.get(address.version)
            if table is not None:
                starts, ends, values = table
                slot = bisect_right(starts, numeric) - 1
                if slot >= 0 and ends[slot] >= numeric:
                    value = values[slot]
        # The answer was computed from immutable tables; only the memo store
        # needs the lock, so the hit path above stays lock-free.
        with self._lock:
            self._memo[ip] = value
        return value

    def __len__(self) -> int:
        """Number of distinct registered prefixes."""
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0
