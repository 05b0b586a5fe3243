"""Step 2 — ping RTT measurement post-processing.

The raw ping campaign output (per-round RTT and reply-TTL samples) is turned
into one *minimum RTT observation* per (IXP, member interface):

* **TTL match / switch filters** — replies whose TTL is not consistent with
  the expected initial TTLs (64/255 minus the in-fabric hop) are discarded,
  because they indicate replies generated outside the IXP subnet;
* **unusable Atlas probes** — probes that never answered, and probes whose
  minimum RTT to the IXP route server is at or above 1 ms (they most likely
  sit in the IXP management LAN rather than a peering facility), are dropped;
* **looking-glass rounding** — LGs that report integer milliseconds yield a
  rounded-up RTT; the lower bound used for the minimum-distance estimate is
  therefore relaxed by one millisecond (Section 6.1);
* the **minimum** of the surviving samples is kept, to counter transient
  latency inflation.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.config import InferenceConfig
from repro.constants import EXPECTED_INITIAL_TTLS
from repro.core.inputs import InferenceInputs
from repro.measurement.results import PingSeries
from repro.measurement.vantage import VantagePoint
from repro.versioning import GenerationGuardedIndex

#: Reply TTLs the match/switch filters accept: the initial TTL itself (reply
#: generated on the LAN) or one below it (reply that crossed the IXP switch).
_ACCEPTED_REPLY_TTLS: frozenset[int] = frozenset(EXPECTED_INITIAL_TTLS) | frozenset(
    ttl - 1 for ttl in EXPECTED_INITIAL_TTLS
)

#: The empty default of every :class:`RTTCampaignSummary` table argument.
_NO_ENTRIES: Mapping = MappingProxyType({})


@dataclass(frozen=True)
class RTTObservation:
    """Minimum-RTT observation for one (IXP, interface) pair.

    Attributes
    ----------
    rtt_min_ms:
        The minimum RTT across surviving samples (and across vantage points,
        keeping the smallest).
    rtt_lower_ms:
        The value to use when translating the RTT into a *lower* distance
        bound; it equals ``rtt_min_ms`` except for rounding looking glasses,
        where one millisecond of rounding slack is subtracted.
    vp_id:
        The vantage point that produced the kept observation.
    """

    ixp_id: str
    interface_ip: str
    rtt_min_ms: float
    rtt_lower_ms: float
    vp_id: str


class RTTCampaignSummary:
    """Everything Step 2 extracted from the raw ping campaign.

    The five tables are read-only views.  :meth:`RTTMeasurementStep.run`
    fills a fresh summary's private dicts, and :meth:`merge_from` is the
    only writer after that; neither ever drops a key, so the observation
    count is an exact version token for the IXP -> observation-keys index
    behind :meth:`observations_for_ixp`
    (:class:`~repro.versioning.GenerationGuardedIndex`).  The index stores
    keys, so replacing an observation under an existing key stays visible
    without a rebuild.
    """

    def __init__(
        self,
        observations: Mapping[tuple[str, str], RTTObservation] = _NO_ENTRIES,
        usable_vps: Mapping[str, VantagePoint] = _NO_ENTRIES,
        discarded_vps: Mapping[str, str] = _NO_ENTRIES,
        queried_per_vp: Mapping[str, int] = _NO_ENTRIES,
        responsive_per_vp: Mapping[str, int] = _NO_ENTRIES,
    ) -> None:
        self._observations = dict(observations)
        self._usable_vps = dict(usable_vps)
        self._discarded_vps = dict(discarded_vps)
        self._queried_per_vp = dict(queried_per_vp)
        self._responsive_per_vp = dict(responsive_per_vp)
        self._keys_by_ixp: GenerationGuardedIndex[dict[str, list[tuple[str, str]]]] = (
            GenerationGuardedIndex())

    def _tables(self) -> tuple[dict, ...]:
        return (self._observations, self._usable_vps, self._discarded_vps,
                self._queried_per_vp, self._responsive_per_vp)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._tables() == other._tables()

    @property
    def observations(self) -> Mapping[tuple[str, str], RTTObservation]:
        """(IXP id, interface IP) -> the kept minimum-RTT observation."""
        return MappingProxyType(self._observations)

    @property
    def usable_vps(self) -> Mapping[str, VantagePoint]:
        """Vantage point id -> every vantage point that passed the filters."""
        return MappingProxyType(self._usable_vps)

    @property
    def discarded_vps(self) -> Mapping[str, str]:
        """Vantage point id -> why it was discarded."""
        return MappingProxyType(self._discarded_vps)

    @property
    def queried_per_vp(self) -> Mapping[str, int]:
        """Vantage point id -> interfaces it queried."""
        return MappingProxyType(self._queried_per_vp)

    @property
    def responsive_per_vp(self) -> Mapping[str, int]:
        """Vantage point id -> interfaces that answered it usably."""
        return MappingProxyType(self._responsive_per_vp)

    def merge_from(self, part: RTTCampaignSummary) -> None:
        """Fold another summary's entries into this one (later parts win).

        This is how the engine assembles a campaign-wide summary from its
        per-IXP parts.
        """
        for mine, theirs in zip(self._tables(), part._tables()):
            mine.update(theirs)

    def observation_for(self, ixp_id: str, interface_ip: str) -> RTTObservation | None:
        """The kept observation for one interface, if any."""
        return self._observations.get((ixp_id, interface_ip))

    def _build_keys_by_ixp(self) -> dict[str, list[tuple[str, str]]]:
        index: dict[str, list[tuple[str, str]]] = {}
        for key in self._observations:
            index.setdefault(key[0], []).append(key)
        return index

    def observations_for_ixp(self, ixp_id: str) -> list[RTTObservation]:
        """All kept observations at one IXP."""
        observations = self._observations
        index = self._keys_by_ixp.get(len(observations), self._build_keys_by_ixp)
        return [observations[key] for key in index.get(ixp_id, ())]

    def response_rate(self, vp_id: str) -> float:
        """Fraction of queried interfaces that answered a vantage point."""
        queried = self._queried_per_vp.get(vp_id, 0)
        if queried == 0:
            return 0.0
        return self._responsive_per_vp.get(vp_id, 0) / queried


@dataclass
class RTTMeasurementStep:
    """Turns raw ping series into per-interface minimum-RTT observations."""

    inputs: InferenceInputs
    config: InferenceConfig = field(default_factory=InferenceConfig)

    def run(self, ixp_ids: list[str]) -> RTTCampaignSummary:
        """Process the campaign for the given IXPs."""
        summary = RTTCampaignSummary()
        # Fill the fresh summary's own dicts: nothing has read it yet.
        observations = summary._observations
        usable = summary._usable_vps
        queried = summary._queried_per_vp
        responsive = summary._responsive_per_vp
        wanted = set(ixp_ids)
        ping = self.inputs.ping_result

        for vp_id, vp in sorted(ping.vantage_points.items()):
            if vp.ixp_id not in wanted:
                continue
            reason = self._unusable_reason(vp)
            if reason is not None:
                summary._discarded_vps[vp_id] = reason
                continue
            usable[vp_id] = vp

        # Iterate the campaign's per-IXP series index instead of filtering
        # the full series list: the engine runs this step once per studied
        # IXP, and a full scan per IXP would be O(IXPs x series).  The kept
        # observation per key is unaffected by iteration order (_prefer is a
        # total order), and keys never span IXPs.  Deduplicate the requested
        # ids so a repeated id cannot double-count the per-VP tallies.
        vantage_points = ping.vantage_points
        for ixp_id in dict.fromkeys(ixp_ids):
            for series in ping.series_for_ixp(ixp_id):
                vp = vantage_points.get(series.vp_id)
                if vp is None or series.vp_id not in usable:
                    continue
                queried[series.vp_id] = queried.get(series.vp_id, 0) + 1
                observation = self._process_series(series, vp)
                if observation is None:
                    continue
                responsive[series.vp_id] = responsive.get(series.vp_id, 0) + 1
                key = (series.ixp_id, series.target_ip)
                existing = observations.get(key)
                if existing is None or self._prefer(observation, existing):
                    observations[key] = observation
        return summary

    @staticmethod
    def _prefer(candidate: RTTObservation, incumbent: RTTObservation) -> bool:
        """Deterministic keep-the-best rule for one (IXP, interface) key.

        The smallest ``rtt_min_ms`` wins; on a tie the smaller
        ``rtt_lower_ms`` (an integer-rounding LG carries a millisecond of
        rounding slack worth keeping), then the lexicographically smallest
        ``vp_id``, so the winner never depends on the order of
        ``ping.series``.
        """
        return (candidate.rtt_min_ms, candidate.rtt_lower_ms, candidate.vp_id) < (
            incumbent.rtt_min_ms, incumbent.rtt_lower_ms, incumbent.vp_id)

    # ------------------------------------------------------------------ #
    def _unusable_reason(self, vp: VantagePoint) -> str | None:
        """Reason to discard a vantage point, or ``None`` if it is usable."""
        ping = self.inputs.ping_result
        route_server = ping.route_server_series_for_vp(vp.vp_id)
        if route_server is None or not route_server.responded:
            if vp.is_looking_glass:
                # LGs sit on the peering LAN; a silent route server is fine.
                return None
            return "no response from the IXP route server"
        filtered = self._filtered_rtts(route_server)
        if not filtered:
            return None if vp.is_looking_glass else "route-server replies failed the TTL filters"
        if not vp.is_looking_glass and min(filtered) >= self.config.atlas_route_server_filter_ms:
            return "route-server RTT >= 1 ms (probably a management-LAN probe)"
        return None

    def _filtered_rtts(self, series: PingSeries) -> list[float]:
        """Apply the TTL match/switch filters and return surviving RTTs."""
        return [s.rtt_ms for s in series.samples if s.reply_ttl in _ACCEPTED_REPLY_TTLS]

    def _process_series(self, series: PingSeries, vp: VantagePoint) -> RTTObservation | None:
        rtts = self._filtered_rtts(series)
        if not rtts:
            return None
        rtt_min = min(rtts)
        rtt_lower = rtt_min
        if vp.rounds_rtt_up:
            rtt_lower = max(0.0, rtt_min - self.config.lg_rounding_adjustment_ms)
        return RTTObservation(
            ixp_id=series.ixp_id,
            interface_ip=series.target_ip,
            rtt_min_ms=rtt_min,
            rtt_lower_ms=rtt_lower,
            vp_id=vp.vp_id,
        )
