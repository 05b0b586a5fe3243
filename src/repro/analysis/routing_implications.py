"""Routing implications of remote peering (Section 6.4).

For the largest studied IXP (the DE-CIX Frankfurt of the paper), take every
member inferred *remote* (``AS_R``) and every other member ``AS_x`` that
shares at least one additional IXP with it.  Traceroute from ``AS_R`` towards
a prefix of ``AS_x`` and look at the IXP actually crossed:

* **hot-potato compliant** — the crossing uses the common IXP closest to
  ``AS_R``;
* **remote detour** — the crossing uses the remote-peering connection at the
  big IXP although another common IXP is closer to ``AS_R``;
* **missed big IXP** — the crossing uses another IXP although the big IXP is
  the closest option.

The paper finds roughly 66% / 18% / 16% for the three buckets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.core.engine import PipelineOutcome
from repro.core.types import PeeringClassification
from repro.datasources.merge import ObservedDataset
from repro.datasources.prefix2as import Prefix2ASMap
from repro.exceptions import ReproError
from repro.geo.coordinates import geodesic_distance_km
from repro.measurement.traceroute import TracerouteCampaign
from repro.traixroute.detector import CrossingDetector


@dataclass
class RoutingImplications:
    """Aggregated Section 6.4 statistics."""

    big_ixp_id: str
    pairs_probed: int = 0
    crossings_analysed: int = 0
    hot_potato_compliant: int = 0
    remote_detour_via_big_ixp: int = 0
    missed_closer_big_ixp: int = 0
    other_non_compliant: int = 0

    def shares(self) -> dict[str, float]:
        """Bucket shares over the analysed crossings."""
        total = self.crossings_analysed
        if total == 0:
            return {"hot_potato": 0.0, "remote_detour": 0.0, "missed_big_ixp": 0.0, "other": 0.0}
        return {
            "hot_potato": self.hot_potato_compliant / total,
            "remote_detour": self.remote_detour_via_big_ixp / total,
            "missed_big_ixp": self.missed_closer_big_ixp / total,
            "other": self.other_non_compliant / total,
        }


@dataclass
class RoutingImplicationsAnalysis:
    """Runs the targeted traceroutes and classifies each observed crossing."""

    outcome: PipelineOutcome
    dataset: ObservedDataset
    prefix2as: Prefix2ASMap
    campaign: TracerouteCampaign
    max_pairs: int = 1500
    seed: int = 64

    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    # ------------------------------------------------------------------ #
    def run(self, big_ixp_id: str | None = None) -> RoutingImplications:
        """Run the full Section 6.4 analysis."""
        big_ixp = big_ixp_id or self._largest_ixp()
        pairs = self._candidate_pairs(big_ixp)
        if len(pairs) > self.max_pairs:
            pairs = self._rng.sample(pairs, k=self.max_pairs)
        result = RoutingImplications(big_ixp_id=big_ixp, pairs_probed=len(pairs))
        if not pairs:
            return result

        corpus = self.campaign.run_pairs(pairs)
        detector = CrossingDetector(self.dataset, self.prefix2as)
        pair_set = set(pairs)
        for path in corpus.paths:
            for crossing in detector.detect(path):
                key = (crossing.entry_asn, crossing.far_asn)
                if key not in pair_set:
                    continue
                self._classify_crossing(result, big_ixp, crossing)
        return result

    # ------------------------------------------------------------------ #
    def _largest_ixp(self) -> str:
        ixp_ids = self.outcome.ixp_ids
        if not ixp_ids:
            raise ReproError("the pipeline outcome covers no IXPs")
        return max(ixp_ids, key=lambda i: len(self.dataset.members_of_ixp(i)))

    def _candidate_pairs(self, big_ixp: str) -> list[tuple[int, int]]:
        """(remote member, other member) pairs that share one more common IXP."""
        remote_members = {
            r.asn for r in self.outcome.report.results_for_ixp(big_ixp)
            if r.classification is PeeringClassification.REMOTE
        }
        members = self.dataset.members_of_ixp(big_ixp)
        ixps_per_member: dict[int, set[str]] = {}
        for ixp_id in self.outcome.ixp_ids:
            for asn in self.dataset.members_of_ixp(ixp_id):
                ixps_per_member.setdefault(asn, set()).add(ixp_id)

        pairs: list[tuple[int, int]] = []
        for remote_asn in sorted(remote_members):
            for other_asn in sorted(members):
                if other_asn == remote_asn:
                    continue
                common = ixps_per_member.get(remote_asn, set()) & ixps_per_member.get(
                    other_asn, set())
                common.discard(big_ixp)
                if common:
                    pairs.append((remote_asn, other_asn))
        return pairs

    def _common_ixps(self, asn_a: int, asn_b: int) -> set[str]:
        common: set[str] = set()
        for ixp_id in self.outcome.ixp_ids:
            members = self.dataset.members_of_ixp(ixp_id)
            if asn_a in members and asn_b in members:
                common.add(ixp_id)
        return common

    def _distance_to_ixp(self, asn: int, ixp_id: str) -> float | None:
        """Minimum distance between the AS's facilities and the IXP's."""
        as_facilities = self.dataset.facilities_of_as(asn)
        ixp_facilities = self.dataset.facilities_of_ixp(ixp_id)
        best: float | None = None
        for fa in as_facilities:
            loc_a = self.dataset.facility_location(fa)
            if loc_a is None:
                continue
            for fb in ixp_facilities:
                loc_b = self.dataset.facility_location(fb)
                if loc_b is None:
                    continue
                distance = geodesic_distance_km(loc_a, loc_b)
                if best is None or distance < best:
                    best = distance
        return best

    def _classify_crossing(self, result: RoutingImplications, big_ixp: str, crossing) -> None:
        remote_asn = crossing.entry_asn
        other_asn = crossing.far_asn
        used_ixp = crossing.ixp_id
        common = self._common_ixps(remote_asn, other_asn)
        if used_ixp not in common or len(common) < 2:
            return
        distances = {
            ixp_id: self._distance_to_ixp(remote_asn, ixp_id) for ixp_id in sorted(common)
        }
        known = {i: d for i, d in distances.items() if d is not None}
        if len(known) < 2:
            return
        closest = min(known, key=known.get)
        result.crossings_analysed += 1
        if used_ixp == closest:
            result.hot_potato_compliant += 1
        elif used_ixp == big_ixp:
            result.remote_detour_via_big_ixp += 1
        elif closest == big_ixp:
            result.missed_closer_big_ixp += 1
        else:
            result.other_non_compliant += 1
