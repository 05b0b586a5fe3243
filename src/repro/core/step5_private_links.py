"""Step 5 — localisation of private connectivity (last-resort heuristic).

Private interconnections are typically cross-connects inside a single
colocation facility.  If a member still lacks a classification after Steps
1-4, its private AS neighbours (extracted from traceroute hops that change AS
without traversing an IXP LAN) effectively *vote* for the facility its border
router lives in, in the spirit of Constrained Facility Search:

1. collect the private neighbours of the member's IXP-facing router (alias
   resolution groups the member's interfaces);
2. find the facilities most common among the majority of those neighbours;
3. if exactly one of those facilities is also a feasible facility of the IXP,
   the member is local; otherwise it is remote.

The neighbours come from a :class:`PrivateNeighbours` table, which reads only
the private adjacencies and the alias resolver.  So the engine's traceroute
node builds it once per detection result, and every Step 5 run only votes.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping, Sequence, Set
from dataclasses import dataclass, field

from repro.alias.midar import AliasResolver
from repro.config import InferenceConfig
from repro.core.inputs import InferenceInputs
from repro.core.step3_colocation import FeasibleFacilityAnalysis
from repro.core.types import InferenceReport, InferenceStep, PeeringClassification
from repro.traixroute.detector import PrivateAdjacency

_NONE: frozenset[int] = frozenset()


class PrivateNeighbours:
    """The private AS neighbours of every adjacency end, per router and per AS.

    Built once from the private adjacencies and the alias resolver and never
    written afterwards, so the step cache can share it.  It keeps three
    unions of far ASes, all frozensets:

    * per address: the far ASes of that address's own adjacencies;
    * per (AS, router): over the addresses that end an adjacency of the AS
      and that :meth:`~repro.alias.midar.AliasResolver.router_of` puts on
      the router;
    * per AS: over all the addresses that end an adjacency of the AS.
    """

    def __init__(
        self, adjacencies: Sequence[PrivateAdjacency], alias_resolver: AliasResolver
    ) -> None:
        own: dict[str, set[int]] = defaultdict(set)
        ends: dict[int, set[str]] = defaultdict(set)
        for adjacency in adjacencies:
            own[adjacency.near_ip].add(adjacency.far_asn)
            own[adjacency.far_ip].add(adjacency.near_asn)
            ends[adjacency.near_asn].add(adjacency.near_ip)
            ends[adjacency.far_asn].add(adjacency.far_ip)
        self._router_of = alias_resolver.router_of
        self._own = {ip: frozenset(asns) for ip, asns in own.items()}
        per_router: dict[tuple[int, str], set[int]] = defaultdict(set)
        per_as: dict[int, set[int]] = defaultdict(set)
        for asn, ips in ends.items():
            for ip in ips:
                per_as[asn].update(self._own[ip])
                router_id = self._router_of(ip)
                if router_id is not None:
                    per_router[(asn, router_id)].update(self._own[ip])
        self._per_router = {key: frozenset(asns) for key, asns in per_router.items()}
        self._per_as = {asn: frozenset(asns) for asn, asns in per_as.items()}

    def of_router(self, asn: int, interface_ip: str) -> frozenset[int]:
        """The private neighbours of the router behind ``interface_ip``: the
        interface's own far ASes and those of its router's other adjacency
        ends of ``asn``, without ``asn`` itself."""
        neighbours = self._own.get(interface_ip, _NONE)
        router_id = self._router_of(interface_ip)
        if router_id is not None:
            neighbours = neighbours | self._per_router.get((asn, router_id), _NONE)
        return neighbours - {asn}

    def of_as(self, asn: int) -> frozenset[int]:
        """The private neighbours seen on any adjacency end of ``asn``."""
        return self._per_as.get(asn, _NONE) - {asn}


@dataclass
class PrivateConnectivityStep:
    """Vote-based localisation of members through their private neighbours.

    The facility vote is served by the
    :meth:`~repro.geo.distindex.GeoDistanceIndex.majority_facility_vote`
    memo of the shared index in ``inputs`` — the same
    neighbour sets recur across the interfaces of one member AS and across
    scenario-sweep reruns, so each vote is tallied once per index lifetime.

    The step reads no multi-IXP routers.  A router interface's AS is the
    detection index's AS answer for that address, the same answer the
    private adjacencies carry.  So an interface of a Step 4 router that ends
    a private adjacency already ends one of its AS, and one that ends none
    adds no neighbour: the routers change no neighbour set.
    """

    inputs: InferenceInputs
    config: InferenceConfig = field(default_factory=InferenceConfig)

    def run(
        self,
        ixp_ids: list[str],
        report: InferenceReport,
        neighbours: PrivateNeighbours,
        feasible: Mapping[tuple[str, str], FeasibleFacilityAnalysis],
    ) -> int:
        """Apply the heuristic to every still-unknown interface.

        Returns the number of interfaces classified by this step.
        """
        dataset = self.inputs.dataset
        classified = 0

        for ixp_id in ixp_ids:
            for interface_ip, asn in sorted(dataset.interfaces_of_ixp(ixp_id).items()):
                result = report.ensure(ixp_id, interface_ip, asn)
                if result.is_inferred:
                    continue
                voters = neighbours.of_router(asn, interface_ip)
                if len(voters) < self.config.min_private_neighbours:
                    # Fall back to AS-level private neighbours: the paper
                    # compiles N_x as the private AS neighbours of AS_x, not
                    # only of the single alias-resolved router.
                    voters = neighbours.of_as(asn)
                if len(voters) < self.config.min_private_neighbours:
                    continue
                # The facilities shared by a strict majority of the voters
                # with data; none means the voters are geographically
                # incoherent, and Step 5 makes no inference for the member.
                common = self.inputs.geo_index.majority_facility_vote(voters)
                if not common:
                    continue
                ixp_feasible = self._feasible_ixp_facilities(ixp_id, interface_ip, feasible)
                overlap = common & ixp_feasible
                # No feasible IXP facility survives the neighbours' vote: the
                # member's router is pinned somewhere the IXP is not — remote.
                # A small, coherent vote that does include an IXP facility
                # pins the router inside the IXP's footprint — local.  A vote
                # that is both large and overlapping is ambiguous (typically
                # only huge transit carriers were observed as neighbours) and
                # produces no inference.
                if not overlap:
                    classification = PeeringClassification.REMOTE
                elif len(common) <= self.config.max_coherent_vote_facilities:
                    classification = PeeringClassification.LOCAL
                else:
                    continue
                report.classify(
                    ixp_id,
                    interface_ip,
                    asn,
                    classification,
                    InferenceStep.PRIVATE_CONNECTIVITY,
                    evidence={
                        "private_neighbours": tuple(sorted(voters)),
                        "common_facilities": tuple(sorted(common)),
                        "feasible_ixp_facilities": tuple(sorted(ixp_feasible)),
                    },
                )
                classified += 1
        return classified

    def _feasible_ixp_facilities(
        self,
        ixp_id: str,
        interface_ip: str,
        feasible: Mapping[tuple[str, str], FeasibleFacilityAnalysis],
    ) -> Set[str]:
        """Step 3's feasible facilities when available, otherwise all of them."""
        analysis = feasible.get((ixp_id, interface_ip))
        if analysis is not None and analysis.feasible_ixp_facilities:
            return analysis.feasible_ixp_facilities
        return self.inputs.dataset.facilities_of_ixp(ixp_id)
