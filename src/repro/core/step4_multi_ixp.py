"""Step 4 — multi-IXP router inference.

An AS can terminate several IXP connections on the same border router
(Section 5.1.3).  Traceroute paths betray this: the interface that precedes
an IXP-LAN hop belongs to the member's border router, so a router whose
interfaces precede the LANs of *several* IXPs is a multi-IXP router.

If earlier steps already classified the AS at one of those IXPs, simple
geometric consistency arguments propagate the classification to the others:

* **local multi-IXP router** — the AS is local at one involved IXP and all
  involved IXPs share at least one facility: the single router can be (and
  is) local to all of them;
* **remote multi-IXP router** — the AS is remote at one involved IXP
  (``IXP_R``) and either all the involved IXPs share a facility, or every
  other involved IXP's facilities are closer to ``IXP_R`` than the AS itself
  can possibly be: the router is remote to all of them;
* **hybrid multi-IXP router** — the AS is local at ``IXP_L`` but another
  involved IXP shares no facility with ``IXP_L`` (or is farther away than the
  AS's own presence allows): the router is remote to that other IXP.

Identification reads only the crossings and the alias resolver, so the
engine's traceroute node runs :meth:`MultiIXPRouterStep.identify_routers`
once per detection result and hands the routers to every Step 4 run, which
only classifies them.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.config import InferenceConfig
from repro.core.inputs import InferenceInputs
from repro.core.types import InferenceReport, InferenceStep, PeeringClassification
from repro.traixroute.detector import IXPCrossing


class MultiIXPRouterKind(enum.Enum):
    """Classification of a multi-IXP router (Fig. 3 / Fig. 9d)."""

    LOCAL = "local"
    REMOTE = "remote"
    HYBRID = "hybrid"
    UNCLASSIFIED = "unclassified"


@dataclass(frozen=True)
class MultiIXPRouter:
    """One router observed to connect to several IXPs.

    Frozen: Step 4 returns a classified copy of each identified router, and
    the step cache shares it with every outcome that hits the same key.
    """

    asn: int
    interface_ips: frozenset[str]
    ixp_ids: frozenset[str]
    kind: MultiIXPRouterKind = MultiIXPRouterKind.UNCLASSIFIED

    @property
    def ixp_count(self) -> int:
        """Number of distinct next-hop IXPs observed for this router."""
        return len(self.ixp_ids)


@dataclass
class MultiIXPRouterStep:
    """Infer peering types through multi-IXP routers.

    The geometric conditions compare (AS, IXP) and (IXP, IXP) facility-set
    distances that recur across every router of the same AS and IXP pair;
    all of them are served by the min/max aggregates of the shared
    :class:`~repro.geo.distindex.GeoDistanceIndex` of ``inputs``, computed
    once per index lifetime.
    """

    inputs: InferenceInputs
    config: InferenceConfig = field(default_factory=InferenceConfig)

    def run(
        self,
        ixp_ids: list[str],
        report: InferenceReport,
        routers: Sequence[MultiIXPRouter],
    ) -> list[MultiIXPRouter]:
        """Classify identified routers, in order; returns the classified copies."""
        studied = set(ixp_ids)
        return [self._classify_router(router, studied, report) for router in routers]

    # ------------------------------------------------------------------ #
    # Router identification
    # ------------------------------------------------------------------ #
    def identify_routers(self, crossings: Sequence[IXPCrossing]) -> list[MultiIXPRouter]:
        """Group the entry interfaces seen before IXP hops into routers.

        One pass over the crossings gives each entry address its IXPs and
        each AS its entry addresses.  Only ASes observed at two or more IXPs
        are worth resolving (the paper's optimisation).  Their addresses are
        grouped by :meth:`~repro.alias.midar.AliasResolver.router_of`; an
        address without a router is a group on its own.  Each group seen
        before two or more IXPs is a multi-IXP router.  Routers come out by
        AS ascending; within an AS, router groups by router id, then lone
        addresses ascending.
        """
        ixps_per_interface: dict[str, set[str]] = defaultdict(set)
        interfaces_per_asn: dict[int, set[str]] = defaultdict(set)
        for crossing in crossings:
            ixps_per_interface[crossing.entry_ip].add(crossing.ixp_id)
            interfaces_per_asn[crossing.entry_asn].add(crossing.entry_ip)

        router_of = self.inputs.alias_resolver.router_of
        routers: list[MultiIXPRouter] = []
        for asn, interfaces in sorted(interfaces_per_asn.items()):
            observed_ixps = set().union(*(ixps_per_interface[ip] for ip in interfaces))
            if len(observed_ixps) < 2:
                continue
            by_router: dict[str, set[str]] = defaultdict(set)
            alone: list[frozenset[str]] = []
            for ip in sorted(interfaces):
                router_id = router_of(ip)
                if router_id is None:
                    alone.append(frozenset((ip,)))
                else:
                    by_router[router_id].add(ip)
            groups = [frozenset(group) for _, group in sorted(by_router.items())]
            for group in groups + alone:
                group_ixps = frozenset().union(*(ixps_per_interface[ip] for ip in group))
                if len(group_ixps) >= 2:
                    routers.append(MultiIXPRouter(asn, group, group_ixps))
        return routers

    # ------------------------------------------------------------------ #
    # Classification
    # ------------------------------------------------------------------ #
    def _classify_router(
        self, router: MultiIXPRouter, studied: set[str], report: InferenceReport
    ) -> MultiIXPRouter:
        """The router with its kind, once that kind's classifications are written."""
        involved = sorted(router.ixp_ids)
        prior: dict[str, PeeringClassification] = {}
        for ixp_id in involved:
            classes = {
                r.classification
                for r in report.results_for_as(router.asn, ixp_id)
                if r.is_inferred
            }
            if PeeringClassification.LOCAL in classes:
                prior[ixp_id] = PeeringClassification.LOCAL
            elif PeeringClassification.REMOTE in classes:
                prior[ixp_id] = PeeringClassification.REMOTE

        local_anchors = [i for i, c in prior.items() if c is PeeringClassification.LOCAL]
        remote_anchors = [i for i, c in prior.items() if c is PeeringClassification.REMOTE]

        kind = MultiIXPRouterKind.UNCLASSIFIED
        # (IXPs, classification) pairs to propagate, in order.
        writes: list[tuple[list[str], PeeringClassification]] = []
        if local_anchors:
            anchor = local_anchors[0]
            if self._all_share_a_facility(involved):
                kind = MultiIXPRouterKind.LOCAL
                writes = [(involved, PeeringClassification.LOCAL)]
            else:
                remotes = self._hybrid_remote_subset(router.asn, anchor, involved)
                if remotes:
                    kind = MultiIXPRouterKind.HYBRID
                    writes = [(remotes, PeeringClassification.REMOTE),
                              ([anchor], PeeringClassification.LOCAL)]
                elif len(local_anchors) == len(involved):
                    kind = MultiIXPRouterKind.LOCAL
        elif remote_anchors:
            anchor = remote_anchors[0]
            if self._all_share_a_facility(involved) or self._remote_condition_b(
                router.asn, anchor, involved
            ):
                kind = MultiIXPRouterKind.REMOTE
                writes = [(involved, PeeringClassification.REMOTE)]
            elif len(remote_anchors) == len(involved):
                kind = MultiIXPRouterKind.REMOTE

        classified = MultiIXPRouter(router.asn, router.interface_ips, router.ixp_ids, kind)
        for ixp_ids, classification in writes:
            self._propagate(classified, ixp_ids, classification, studied, report)
        return classified

    def _propagate(
        self,
        router: MultiIXPRouter,
        ixp_ids: list[str],
        classification: PeeringClassification,
        studied: set[str],
        report: InferenceReport,
    ) -> None:
        dataset = self.inputs.dataset
        evidence = {
            "multi_ixp_router_interfaces": tuple(sorted(router.interface_ips)),
            "involved_ixps": tuple(sorted(router.ixp_ids)),
            "router_kind": router.kind.value,
        }
        for ixp_id in ixp_ids:
            if ixp_id not in studied:
                continue
            for interface_ip, asn in dataset.interfaces_of_ixp(ixp_id).items():
                if asn != router.asn:
                    continue
                report.classify(
                    ixp_id,
                    interface_ip,
                    asn,
                    classification,
                    InferenceStep.MULTI_IXP_ROUTER,
                    evidence=evidence,
                )

    # ------------------------------------------------------------------ #
    # Geometric helpers
    # ------------------------------------------------------------------ #
    def _facilities(self, ixp_id: str) -> set[str]:
        return self.inputs.dataset.facilities_of_ixp(ixp_id)

    def _all_share_a_facility(self, ixp_ids: list[str]) -> bool:
        sets = [self._facilities(i) for i in ixp_ids]
        if any(not s for s in sets):
            return False
        common = set.intersection(*sets)
        return bool(common)

    def _remote_condition_b(self, asn: int, anchor_ixp: str, involved: list[str]) -> bool:
        """Condition 2(b): other IXPs are closer to the anchor IXP than the AS can be."""
        index = self.inputs.geo_index
        as_span = index.as_ixp_span_km(asn, anchor_ixp)
        if as_span is None:
            return False
        d_min = as_span[0]
        for ixp_id in involved:
            if ixp_id == anchor_ixp:
                continue
            other_span = index.ixp_pair_span_km(ixp_id, anchor_ixp)
            if other_span is None or other_span[1] >= d_min:
                return False
        return True

    def _hybrid_remote_subset(self, asn: int, anchor_ixp: str, involved: list[str]) -> list[str]:
        """IXPs to which the router must be remote, given it is local at the anchor."""
        index = self.inputs.geo_index
        anchor_facilities = self._facilities(anchor_ixp)
        common_span = index.common_facility_span_km(asn, anchor_ixp)
        d_max = common_span[1] if common_span is not None else None

        remotes: list[str] = []
        for ixp_id in involved:
            if ixp_id == anchor_ixp:
                continue
            other_facilities = self._facilities(ixp_id)
            if anchor_facilities and other_facilities and not (
                anchor_facilities & other_facilities
            ):
                remotes.append(ixp_id)
                continue
            if d_max is not None:
                between = index.ixp_pair_span_km(anchor_ixp, ixp_id)
                if between is not None and between[0] > d_max:
                    remotes.append(ixp_id)
        return remotes
