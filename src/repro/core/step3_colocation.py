"""Step 3 — colocation-informed RTT interpretation.

For every member interface with a minimum-RTT observation, the measured RTT
is translated into a *feasible distance ring* around the vantage point using
the physical speed bounds of the delay model (Fig. 6/7 of the paper):

* ``d_max`` follows from the Katz-Bassett maximum probe speed applied to the
  measured minimum RTT;
* ``d_min`` follows from the fitted minimum-speed curve, applied to the RTT
  minus the rounding slack of integer-reporting looking glasses.

IXP facilities (and the member's own facilities) whose distance from the
vantage point falls inside the ring are *feasible*.  The classification rules
are then:

* **remote** — the IXP has no feasible facility, or it has one but the member
  is only present at feasible facilities where the IXP is not;
* **local** — the member is present at a feasible facility of the IXP;
* **no inference** — the IXP has feasible facilities but the member is not
  observed at any feasible facility (typically missing colocation data);
  later steps handle these.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.config import InferenceConfig
from repro.core.inputs import InferenceInputs
from repro.core.step2_rtt import RTTCampaignSummary, RTTObservation
from repro.core.types import InferenceReport, InferenceStep, PeeringClassification
from repro.geo.delay_model import DelayModel, FeasibleRing


class FeasibleFacilityAnalysis(NamedTuple):
    """The geometric evidence Step 3 derived for one interface.

    A ``typing.NamedTuple`` with frozenset facility sets, so it is
    immutable: the step cache shares one analysis with every outcome whose
    run hits the same Step 3 key.  It is one allocation, where a frozen
    dataclass is two, and Step 3 builds one per measured interface.
    """

    ixp_id: str
    interface_ip: str
    asn: int
    ring: FeasibleRing
    feasible_ixp_facilities: frozenset[str] = frozenset()
    feasible_member_facilities: frozenset[str] = frozenset()
    member_has_facility_data: bool = False
    classification: PeeringClassification = PeeringClassification.UNKNOWN

    @property
    def n_feasible_ixp_facilities(self) -> int:
        """Number of IXP facilities compatible with the measured RTT."""
        return len(self.feasible_ixp_facilities)


@dataclass
class ColocationRTTStep:
    """Combine minimum RTTs with colocation data (the heart of the method).

    All geometry goes through the shared
    :class:`~repro.geo.distindex.GeoDistanceIndex` of ``inputs``: each
    (vantage point, facility) distance is computed once per index lifetime —
    the observations of one VP share one sorted distance profile per
    footprint — and the feasibility test is two :mod:`bisect` calls instead
    of one Vincenty run per facility.
    """

    inputs: InferenceInputs
    config: InferenceConfig = field(default_factory=InferenceConfig)
    delay_model: DelayModel = field(default_factory=DelayModel)

    def run(
        self,
        ixp_ids: list[str],
        report: InferenceReport,
        rtt_summary: RTTCampaignSummary,
    ) -> dict[tuple[str, str], FeasibleFacilityAnalysis]:
        """Classify every interface with an RTT observation.

        Returns the per-interface geometric analysis (also used by Step 5 as
        the feasible-facility set of the IXP).
        """
        analyses: dict[tuple[str, str], FeasibleFacilityAnalysis] = {}
        dataset = self.inputs.dataset
        usable_vps = rtt_summary.usable_vps
        for ixp_id in ixp_ids:
            for interface_ip, asn in sorted(dataset.interfaces_of_ixp(ixp_id).items()):
                observation = rtt_summary.observation_for(ixp_id, interface_ip)
                if observation is None:
                    continue
                vp = usable_vps.get(observation.vp_id)
                if vp is None:
                    continue
                analysis = self._analyse(ixp_id, interface_ip, asn, observation, vp.location)
                analyses[(ixp_id, interface_ip)] = analysis
                if analysis.classification is PeeringClassification.UNKNOWN:
                    continue
                report.classify(
                    ixp_id,
                    interface_ip,
                    asn,
                    analysis.classification,
                    InferenceStep.RTT_COLOCATION,
                    evidence={
                        "rtt_min_ms": observation.rtt_min_ms,
                        "feasible_ring_km": (analysis.ring.min_distance_km,
                                             analysis.ring.max_distance_km),
                        "feasible_ixp_facilities": tuple(
                            sorted(analysis.feasible_ixp_facilities)),
                        "vp_id": observation.vp_id,
                    },
                )
        return analyses

    # ------------------------------------------------------------------ #
    def _analyse(
        self,
        ixp_id: str,
        interface_ip: str,
        asn: int,
        observation: RTTObservation,
        vp_location,
    ) -> FeasibleFacilityAnalysis:
        index = self.inputs.geo_index
        tolerance = self.config.feasible_facility_tolerance_km
        ring = FeasibleRing(
            min_distance_km=self.delay_model.min_distance_km(observation.rtt_lower_ms),
            max_distance_km=self.delay_model.max_distance_km(observation.rtt_min_ms),
        )
        min_km = ring.min_distance_km - tolerance
        max_km = ring.max_distance_km + tolerance
        feasible_ixp = index.feasible_ixp_facilities(vp_location, ixp_id, min_km, max_km)
        feasible_member = index.feasible_as_facilities(vp_location, asn, min_km, max_km)
        # Positional: a keyword call builds the tuple about half as fast.
        return FeasibleFacilityAnalysis(
            ixp_id,
            interface_ip,
            asn,
            ring,
            feasible_ixp,
            feasible_member,
            self.inputs.dataset.has_facility_data_for_as(asn),
            self._classify(feasible_ixp, feasible_member),
        )

    @staticmethod
    def _classify(
        feasible_ixp: frozenset[str], feasible_member: frozenset[str]
    ) -> PeeringClassification:
        if not feasible_ixp:
            # No facility of the IXP is compatible with the measured RTT.
            return PeeringClassification.REMOTE
        if feasible_ixp & feasible_member:
            return PeeringClassification.LOCAL
        if feasible_member:
            # The member is observed only at feasible facilities where the IXP
            # has no switching fabric.
            return PeeringClassification.REMOTE
        return PeeringClassification.UNKNOWN
