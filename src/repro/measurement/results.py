"""Result containers for measurement campaigns.

These classes hold *raw* observations (per-round RTT and reply-TTL samples,
traceroute hop sequences).  Filtering — TTL-consistency checks, minimum-RTT
extraction, discarding of bad Atlas probes — is deliberately left to Step 2 of
the inference pipeline, mirroring the paper's separation between measurement
collection and interpretation.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, replace
from types import MappingProxyType

from repro.measurement.vantage import VantagePoint
from repro.routing.forwarding import ForwardingPath
from repro.versioning import GenerationGuardedIndex, Versioned


@dataclass(frozen=True)
class PingSample:
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


class TracerouteCorpus(Versioned):
    """A collection of simulated traceroute paths.

    ``paths`` reads as a tuple (a snapshot rebuilt once per generation, so
    element access is O(1)); :meth:`extend` is the only writer, and its
    generation bump re-keys the engine's traceroute-observables cache entry.
    Paths must not change after they are appended (see
    :class:`~repro.traixroute.detector.CorpusDetectionIndex`).
    """

    def __init__(self, paths: Iterable[ForwardingPath] = ()) -> None:
        self._paths = list(paths)
        self._snapshot: GenerationGuardedIndex[tuple[ForwardingPath, ...]] = (
            GenerationGuardedIndex())

    def __len__(self) -> int:
        return len(self._paths)

    @property
    def paths(self) -> tuple[ForwardingPath, ...]:
        """Every path, in append order."""
        return self._snapshot.get(self.generation, lambda: tuple(self._paths))

    def extend(self, paths: Iterable[ForwardingPath]) -> None:
        """Append paths to the corpus."""
        self._paths.extend(paths)
        self.bump_generation()

    def paths_from(self, source_asn: int) -> list[ForwardingPath]:
        """All paths whose probe sits in the given AS."""
        return [p for p in self._paths if p.source_asn == source_asn]
