"""Result containers for measurement campaigns.

These classes hold *raw* observations (per-round RTT and reply-TTL samples,
and traceroute hop sequences, which the corpus stores as columns).
Filtering — TTL-consistency checks, minimum-RTT extraction, discarding of
bad Atlas probes — is deliberately left to Step 2 of the inference
pipeline, mirroring the paper's separation between measurement collection
and interpretation.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, replace
from itertools import accumulate, chain, islice
from types import MappingProxyType
from typing import NamedTuple, overload

from repro.measurement.vantage import VantagePoint
from repro.routing.forwarding import ForwardingPath
from repro.versioning import GenerationGuardedIndex, Versioned


class PingSample(NamedTuple):
    """One ping reply: RTT in milliseconds and the reply's TTL."""

    rtt_ms: float
    reply_ttl: int


@dataclass(frozen=True)
class PingSeries:
    """All ping replies collected for one (vantage point, target) pair."""

    vp_id: str
    ixp_id: str
    target_ip: str
    samples: tuple[PingSample, ...] = ()

    @property
    def responded(self) -> bool:
        """True if at least one reply was received."""
        return bool(self.samples)

    def min_rtt(self) -> float | None:
        """Minimum RTT over all replies (no filtering applied)."""
        if not self.samples:
            return None
        return min(sample.rtt_ms for sample in self.samples)


#: (IXP id -> series, VP id -> series) over a campaign's member series.
_SeriesIndex = tuple[dict[str, list[PingSeries]], dict[str, list[PingSeries]]]


class PingCampaignResult(Versioned):
    """Everything a ping campaign produced.

    ``series`` and ``route_server_series`` read as tuples and
    ``vantage_points`` as a read-only mapping; :meth:`add_series`,
    :meth:`add_route_server_series` and :meth:`register_vantage_point` are
    the only writers, and each bumps the generation that re-keys the
    step-graph engine's cached Step 2 results.  The per-VP and per-IXP
    accessors, and the tuple snapshots themselves, are lazily built from the
    private append-only lists and guarded by that generation
    (:class:`~repro.versioning.GenerationGuardedIndex`).  Series are frozen,
    so a recorded series never changes after it is appended.
    """

    def __init__(
        self,
        series: Iterable[PingSeries] = (),
        route_server_series: Iterable[PingSeries] = (),
        vantage_points: Mapping[str, VantagePoint] = MappingProxyType({}),
    ) -> None:
        self._series = list(series)
        self._route_server_series = list(route_server_series)
        self._vantage_points = dict(vantage_points)
        self._snapshots: GenerationGuardedIndex[tuple[tuple[PingSeries, ...], ...]] = (
            GenerationGuardedIndex())
        self._series_index: GenerationGuardedIndex[_SeriesIndex] = GenerationGuardedIndex()
        self._rs_index: GenerationGuardedIndex[dict[str, PingSeries]] = (
            GenerationGuardedIndex())

    def _snapshot(self) -> tuple[tuple[PingSeries, ...], ...]:
        return tuple(self._series), tuple(self._route_server_series)

    @property
    def series(self) -> tuple[PingSeries, ...]:
        """Every member-interface series, in append order."""
        return self._snapshots.get(self.generation, self._snapshot)[0]

    @property
    def route_server_series(self) -> tuple[PingSeries, ...]:
        """Every route-server control series, in append order."""
        return self._snapshots.get(self.generation, self._snapshot)[1]

    @property
    def vantage_points(self) -> Mapping[str, VantagePoint]:
        """Vantage point id -> the vantage point the campaign measured from."""
        return MappingProxyType(self._vantage_points)

    def add_series(self, series: PingSeries) -> None:
        """Record one member-interface series (a campaign append or retry)."""
        self._series.append(series)
        self.bump_generation()

    def add_route_server_series(self, series: PingSeries) -> None:
        """Record one route-server control series for a vantage point."""
        self._route_server_series.append(series)
        self.bump_generation()

    def register_vantage_point(self, vp: VantagePoint) -> None:
        """Record a vantage point the campaign measures from.

        The generation bump (which also covers re-registration of an
        existing VP id) re-keys cached Step 2 results.
        """
        self._vantage_points[vp.vp_id] = vp
        self.bump_generation()

    def _build_series_index(self) -> _SeriesIndex:
        by_ixp: dict[str, list[PingSeries]] = {}
        by_vp: dict[str, list[PingSeries]] = {}
        for series in self._series:
            by_ixp.setdefault(series.ixp_id, []).append(series)
            by_vp.setdefault(series.vp_id, []).append(series)
        return by_ixp, by_vp

    def _indexed_series(self) -> _SeriesIndex:
        """(IXP -> series, VP -> series) indexes over the member series."""
        return self._series_index.get(self.generation, self._build_series_index)

    def series_for_ixp(self, ixp_id: str) -> list[PingSeries]:
        """Member-interface series collected at one IXP."""
        return list(self._indexed_series()[0].get(ixp_id, ()))

    def series_for_vp(self, vp_id: str) -> list[PingSeries]:
        """Member-interface series collected from one vantage point."""
        return list(self._indexed_series()[1].get(vp_id, ()))

    def route_server_series_for_vp(self, vp_id: str) -> PingSeries | None:
        """The route-server control series of one vantage point, if any.

        A vantage point may carry several control series (a retried or
        refreshed campaign appends a new one); all of their samples are one
        population of control measurements, so they are merged into a single
        series, in append order, rather than silently keeping the first.
        """
        return self._rs_index.get(self.generation, self._build_rs_index).get(vp_id)

    def _build_rs_index(self) -> dict[str, PingSeries]:
        by_vp: dict[str, PingSeries] = {}
        for series in self._route_server_series:
            merged = by_vp.get(series.vp_id)
            by_vp[series.vp_id] = (
                series if merged is None
                else replace(merged, samples=merged.samples + series.samples))
        return by_vp

    def queried_interfaces(self, ixp_id: str | None = None) -> set[str]:
        """Interfaces that were queried (optionally for one IXP)."""
        return {
            s.target_ip for s in self._series if ixp_id is None or s.ixp_id == ixp_id
        }

    def responsive_interfaces(self, ixp_id: str | None = None) -> set[str]:
        """Interfaces that replied to at least one vantage point."""
        return {
            s.target_ip
            for s in self._series
            if s.responded and (ixp_id is None or s.ixp_id == ixp_id)
        }


class AddressColumns(NamedTuple):
    """A snapshot of a corpus's address table and hop address ids."""

    #: Id -> address, in first-seen order; id 0 is ``None``, the unanswered hop.
    addresses: tuple[str | None, ...]
    #: Every hop's address id, path-major.
    hop_ids: tuple[int, ...]
    #: Path ``i``'s hops are ``hop_ids[offsets[i]:offsets[i + 1]]``.
    offsets: tuple[int, ...]


class TracerouteCorpus(Versioned):
    """A collection of simulated traceroute paths, stored as columns.

    An address table maps each hop address to an int id in first-seen order
    (``None``, the unanswered hop, is id 0).  Per hop the corpus keeps the
    address id, the RTT, the ground-truth AS and the IXP; per path, the end
    offset of its hops, the source AS, the destination AS and the
    destination address.  It keeps no record per hop or per path: ``paths``
    is a read-only sequence view that builds
    :class:`~repro.routing.forwarding.ForwardingPath` records on access.

    The constructor and :meth:`extend` are the only writers, and both only
    append, so a path never changes once appended.  :meth:`extend`'s
    generation bump re-keys the engine's traceroute-observables cache entry
    and the :meth:`address_columns` snapshot.  One writer at a time:
    readers on other threads see whole paths only, because a path's hop
    columns are written before its end offset.
    """

    def __init__(self, paths: Iterable[ForwardingPath] = ()) -> None:
        # The address table: address -> id and id -> address.
        self._address_ids: dict[str | None, int] = {None: 0}
        self._addresses: list[str | None] = [None]
        # Per hop, path-major.
        self._hop_ids: list[int] = []
        self._rtts = array("d")
        self._asns: list[int | None] = []
        self._ixp_ids: list[str | None] = []
        # Per path; path i's hops are [offsets[i], offsets[i + 1]).
        self._offsets = [0]
        self._sources: list[int] = []
        self._destinations: list[int] = []
        self._destination_ips: list[str] = []
        self._snapshot: GenerationGuardedIndex[AddressColumns] = GenerationGuardedIndex()
        self._append(paths)

    def __len__(self) -> int:
        return len(self._offsets) - 1

    @property
    def paths(self) -> Sequence[ForwardingPath]:
        """Every path, in append order: a view of the paths appended so far."""
        return _PathsView(self, len(self))

    def extend(self, paths: Iterable[ForwardingPath]) -> None:
        """Append paths to the corpus."""
        self._append(paths)
        self.bump_generation()

    def paths_from(self, source_asn: int) -> list[ForwardingPath]:
        """All paths whose probe sits in the given AS."""
        sources = self._sources
        return [
            self._path(index) for index in range(len(self)) if sources[index] == source_asn
        ]

    def address_id(self, ip: str) -> int | None:
        """The id of an address some hop holds, or ``None``."""
        return self._address_ids.get(ip)

    def address_columns(self) -> AddressColumns:
        """The address table, hop ids and path offsets as tuples, built once
        per generation."""
        return self._snapshot.get(self.generation, self._build_address_columns)

    def _build_address_columns(self) -> AddressColumns:
        # The reverse of the write order, so every path in it is whole.
        offsets = tuple(self._offsets)
        hop_ids = tuple(self._hop_ids)
        return AddressColumns(tuple(self._addresses), hop_ids, offsets)

    def _append(self, paths: Iterable[ForwardingPath]) -> None:
        """Intern the paths' addresses and append their columns."""
        # Every path exists before a column moves, so a path that cannot be
        # built leaves the corpus as it was.
        paths = list(paths)
        columns = [path.columns for path in paths]
        ips = [ip for hop_ips, _, _, _ in columns for ip in hop_ips]
        ids, addresses = self._address_ids, self._addresses
        new = [ip for ip in dict.fromkeys(ips) if ip not in ids]
        addresses += new
        ids.update(zip(new, range(len(addresses) - len(new), len(addresses))))
        self._hop_ids += map(ids.__getitem__, ips)
        self._asns += chain.from_iterable(column[1] for column in columns)
        self._rtts.extend(chain.from_iterable(column[2] for column in columns))
        self._ixp_ids += chain.from_iterable(column[3] for column in columns)
        self._sources += [path.source_asn for path in paths]
        self._destinations += [path.destination_asn for path in paths]
        # A destination is mostly its path's last hop too: keep the table's
        # string, not one copy per path.
        self._destination_ips += [
            addresses[ids[ip]] if ip in ids else ip
            for ip in (path.destination_ip for path in paths)
        ]
        ends = accumulate((len(column[0]) for column in columns), initial=self._offsets[-1])
        self._offsets += islice(ends, 1, None)

    def _path(self, index: int) -> ForwardingPath:
        """Build path ``index`` from the columns."""
        start, end = self._offsets[index], self._offsets[index + 1]
        addresses = self._addresses
        return ForwardingPath.from_columns(
            self._sources[index],
            self._destinations[index],
            self._destination_ips[index],
            [addresses[address_id] for address_id in self._hop_ids[start:end]],
            self._asns[start:end],
            self._rtts[start:end],
            self._ixp_ids[start:end],
        )


class _PathsView(Sequence[ForwardingPath]):
    """The first ``count`` paths of a corpus, built on each access."""

    __slots__ = ("_corpus", "_count")

    def __init__(self, corpus: TracerouteCorpus, count: int) -> None:
        self._corpus = corpus
        self._count = count

    def __len__(self) -> int:
        return self._count

    @overload
    def __getitem__(self, index: int) -> ForwardingPath: ...

    @overload
    def __getitem__(self, index: slice) -> tuple[ForwardingPath, ...]: ...

    def __getitem__(
        self, index: int | slice
    ) -> ForwardingPath | tuple[ForwardingPath, ...]:
        # range() resolves negative indexes and slices, and raises IndexError.
        positions = range(self._count)[index]
        if isinstance(positions, range):
            return tuple(map(self._corpus._path, positions))
        return self._corpus._path(positions)

    def __iter__(self) -> Iterator[ForwardingPath]:
        return map(self._corpus._path, range(self._count))
