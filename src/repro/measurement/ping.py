"""Ping measurement campaigns.

From every vantage point of an IXP the campaign pings the IXP route server
and every member peering interface, for a configurable number of rounds
(the paper uses one round every two hours for two days, i.e. 24 rounds).

The campaign produces *raw* samples; Step 2 of the inference pipeline applies
the TTL-consistency filters, drops bad Atlas probes and extracts minimum RTTs.

RTTs are synthesised from the geodesic distance between the vantage point and
the member's actual router location (ground truth), using the delay model's
physical speed bounds, plus:

* a path-stretch factor (remote connections ride longer, more circuitous
  layer-2 paths than local cross-connects),
* per-round queueing jitter,
* the constant inflation of management-LAN Atlas probes,
* integer rounding for looking glasses that report whole milliseconds.
"""

from __future__ import annotations

import math
import random

from repro.config import CampaignConfig
from repro.constants import EXPECTED_INITIAL_TTLS
from repro.exceptions import MeasurementError
from repro.geo.coordinates import geodesic_distance_km
from repro.geo.delay_model import DelayModel
from repro.measurement.results import PingCampaignResult, PingSample, PingSeries
from repro.measurement.vantage import VantagePoint, VantagePointPlanner
from repro.topology.entities import IXPMembership
from repro.topology.world import World


class PingCampaign:
    """Runs ping campaigns from IXP vantage points to member interfaces."""

    def __init__(
        self,
        world: World,
        config: CampaignConfig | None = None,
        *,
        delay_model: DelayModel | None = None,
    ) -> None:
        self.world = world
        self.config = config or CampaignConfig()
        self.delay_model = delay_model or DelayModel()
        self._rng = random.Random(world.seed * 271 + self.config.seed_offset + 1)
        self.planner = VantagePointPlanner(world, self.config)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def run(
        self,
        ixp_ids: list[str],
        vantage_plan: dict[str, list[VantagePoint]] | None = None,
    ) -> PingCampaignResult:
        """Run the campaign for the given IXPs.

        Parameters
        ----------
        ixp_ids:
            IXPs to measure.
        vantage_plan:
            Optional pre-computed vantage-point plan (so callers can reuse the
            same plan across experiments); planned automatically otherwise.
        """
        if not ixp_ids:
            raise MeasurementError("at least one IXP is required for a ping campaign")
        plan = vantage_plan or self.planner.plan(ixp_ids)
        result = PingCampaignResult()
        for ixp_id in ixp_ids:
            for vp in plan.get(ixp_id, []):
                result.register_vantage_point(vp)
                self._measure_from_vp(vp, result)
        return result

    def run_control(self, ixp_ids: list[str]) -> PingCampaignResult:
        """Run the Section 4 control campaign from in-fabric vantage points."""
        internal = self.planner.plan_internal(ixp_ids)
        plan = {ixp_id: [vp] for ixp_id, vp in internal.items()}
        return self.run(ixp_ids, vantage_plan=plan)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _measure_from_vp(self, vp: VantagePoint, result: PingCampaignResult) -> None:
        ixp = self.world.ixp(vp.ixp_id)
        # Route-server control series (used by Step 2's Atlas filter).
        if ixp.route_server_ip is not None:
            samples: tuple[PingSample, ...] = ()
            if not vp.is_dead:
                samples = self._fill_samples(vp, distance_km=0.0, stretch=1.0,
                                             responds=True)
            result.add_route_server_series(PingSeries(
                vp_id=vp.vp_id, ixp_id=vp.ixp_id, target_ip=ixp.route_server_ip,
                samples=samples))

        for membership in self.world.active_memberships(vp.ixp_id):
            samples = ()
            if not vp.is_dead:
                responds = self._rng.random() < self._response_rate(vp)
                distance, stretch = self._distance_and_stretch(vp, membership)
                samples = self._fill_samples(vp, distance_km=distance, stretch=stretch,
                                             responds=responds)
            result.add_series(PingSeries(
                vp_id=vp.vp_id, ixp_id=vp.ixp_id, target_ip=membership.interface_ip,
                samples=samples))

    def _response_rate(self, vp: VantagePoint) -> float:
        return (
            self.config.lg_response_rate if vp.is_looking_glass
            else self.config.atlas_response_rate
        )

    def _distance_and_stretch(
        self, vp: VantagePoint, membership: IXPMembership
    ) -> tuple[float, float]:
        member_location = self.world.facility_location(membership.member_facility_id)
        distance = geodesic_distance_km(vp.location, member_location)
        if membership.is_remote:
            low, high = self.config.remote_path_stretch
        else:
            low, high = self.config.local_path_stretch
        return distance, self._rng.uniform(low, high)

    def _fill_samples(
        self,
        vp: VantagePoint,
        *,
        distance_km: float,
        stretch: float,
        responds: bool,
    ) -> tuple[PingSample, ...]:
        if not responds:
            return ()
        samples: list[PingSample] = []
        initial_ttl = self._rng.choice(EXPECTED_INITIAL_TTLS)
        for _ in range(self.config.ping_rounds):
            if self._rng.random() > 0.97:
                continue  # an individual round may simply be lost
            rtt = self.delay_model.sample_rtt_ms(
                distance_km, self._rng, jitter_ms=self.config.jitter_ms, path_stretch=stretch)
            rtt += vp.management_extra_rtt_ms
            if vp.rounds_rtt_up:
                rtt = float(max(1, math.ceil(rtt)))
            reply_ttl = initial_ttl - 1
            if self._rng.random() < self.config.ttl_anomaly_rate:
                reply_ttl = initial_ttl - self._rng.randint(3, 14)
            samples.append(PingSample(rtt_ms=rtt, reply_ttl=reply_ttl))
        return tuple(samples)
