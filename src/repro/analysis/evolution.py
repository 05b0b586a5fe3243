"""Evolution of remote vs local peering over time (Section 6.3, Fig. 12a).

The paper tracks, over roughly a year of daily RTT measurements and PeeringDB
dumps, how many new members join (and leave) each IXP per peering type,
finding that remote membership grows about twice as fast as local membership
and that remote members also leave more often (+25% departure rate).

Here the longitudinal signal comes from the membership join/departure months
recorded in the ground-truth world.  Peering types are taken from the
inference report where the interface was classified; memberships outside the
report's coverage (e.g. members that departed before the measurement
campaign) fall back to the operator-style ground-truth label, mirroring how
the paper combines inference with operator feeds for the longitudinal view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.types import InferenceReport, PeeringClassification
from repro.exceptions import ReproError
from repro.topology.world import World


@dataclass
class EvolutionSeries:
    """Monthly membership evolution for one peering type."""

    label: str
    months: list[int] = field(default_factory=list)
    active_members: list[int] = field(default_factory=list)
    cumulative_joins: list[int] = field(default_factory=list)
    cumulative_departures: list[int] = field(default_factory=list)

    @property
    def total_joins(self) -> int:
        """Members that joined after the first month."""
        if not self.cumulative_joins:
            return 0
        return self.cumulative_joins[-1]

    @property
    def total_departures(self) -> int:
        """Members that departed during the window."""
        if not self.cumulative_departures:
            return 0
        return self.cumulative_departures[-1]

    def departure_rate(self) -> float:
        """Departures normalised by the initial member count."""
        if not self.active_members or self.active_members[0] == 0:
            return 0.0
        return self.total_departures / self.active_members[0]


@dataclass
class EvolutionAnalysis:
    """Builds the Fig. 12a growth/departure series."""

    world: World
    report: InferenceReport | None = None
    ixp_ids: list[str] | None = None

    def _is_remote(self, membership) -> bool:
        if self.report is not None:
            classification = self.report.classification_of(
                membership.ixp_id, membership.interface_ip)
            if classification is not PeeringClassification.UNKNOWN:
                return classification is PeeringClassification.REMOTE
        return membership.is_remote

    def _memberships(self):
        wanted = set(self.ixp_ids) if self.ixp_ids is not None else None
        for membership in self.world.memberships:
            if wanted is None or membership.ixp_id in wanted:
                yield membership

    def series(self) -> dict[str, EvolutionSeries]:
        """Monthly series for remote and local members."""
        months = self._months()
        series = {
            "local": EvolutionSeries(label="local"),
            "remote": EvolutionSeries(label="remote"),
        }
        memberships = list(self._memberships())
        for month in months:
            counts = {"local": 0, "remote": 0}
            joins = {"local": 0, "remote": 0}
            departures = {"local": 0, "remote": 0}
            for membership in memberships:
                label = "remote" if self._is_remote(membership) else "local"
                if membership.active_in_month(month):
                    counts[label] += 1
                if 0 < membership.joined_month <= month:
                    joins[label] += 1
                if membership.departed_month is not None and membership.departed_month <= month:
                    departures[label] += 1
            for label in ("local", "remote"):
                series[label].months.append(month)
                series[label].active_members.append(counts[label])
                series[label].cumulative_joins.append(joins[label])
                series[label].cumulative_departures.append(departures[label])
        return series

    def _months(self) -> list[int]:
        last = 0
        for membership in self._memberships():
            last = max(last, membership.joined_month)
            if membership.departed_month is not None:
                last = max(last, membership.departed_month)
        if last == 0:
            raise ReproError("the world has no longitudinal membership information")
        return list(range(last + 1))

    # ------------------------------------------------------------------ #
    # Headline numbers
    # ------------------------------------------------------------------ #
    def growth_ratio(self) -> float:
        """How many times faster remote membership grows than local membership.

        Measured, as in the paper's Fig. 12a, by the number of *new members*
        (joins) per peering type over the observation window.
        """
        series = self.series()
        local_joins = series["local"].total_joins
        remote_joins = series["remote"].total_joins
        if local_joins == 0:
            return float("inf") if remote_joins > 0 else 0.0
        return remote_joins / local_joins

    def departure_ratio(self) -> float:
        """Remote departure rate relative to the local departure rate."""
        series = self.series()
        local_rate = series["local"].departure_rate()
        remote_rate = series["remote"].departure_rate()
        if local_rate == 0:
            return float("inf") if remote_rate > 0 else 0.0
        return remote_rate / local_rate
