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
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping, Sequence, Set
from dataclasses import dataclass, field

from repro.config import InferenceConfig
from repro.core.inputs import InferenceInputs
from repro.core.step3_colocation import FeasibleFacilityAnalysis
from repro.core.step4_multi_ixp import MultiIXPRouter
from repro.core.types import InferenceReport, InferenceStep, PeeringClassification
from repro.exceptions import InferenceError
from repro.geo.distindex import GeoDistanceIndex
from repro.traixroute.detector import PrivateAdjacency


@dataclass
class PrivateConnectivityStep:
    """Vote-based localisation of members through their private neighbours.

    The facility vote is served by the shared
    :class:`GeoDistanceIndex.majority_facility_vote` memo — the same
    neighbour sets recur across the interfaces of one member AS and across
    scenario-sweep reruns, so each vote is tallied once per index lifetime.
    """

    inputs: InferenceInputs
    config: InferenceConfig = field(default_factory=InferenceConfig)
    geo_index: GeoDistanceIndex | None = None

    def __post_init__(self) -> None:
        if self.geo_index is None:
            self.geo_index = self.inputs.geo_index
        elif self.geo_index.dataset is not self.inputs.dataset:
            raise InferenceError("geo_index must be built over the same dataset")

    def run(
        self,
        ixp_ids: list[str],
        report: InferenceReport,
        adjacencies: Sequence[PrivateAdjacency],
        multi_ixp_routers: Sequence[MultiIXPRouter],
        feasible: Mapping[tuple[str, str], FeasibleFacilityAnalysis],
    ) -> int:
        """Apply the heuristic to every still-unknown interface.

        Returns the number of interfaces classified by this step.
        """
        dataset = self.inputs.dataset
        neighbour_ips = self._interfaces_per_asn(adjacencies, multi_ixp_routers)
        adjacency_index = self._adjacency_index(adjacencies)
        classified = 0

        for ixp_id in ixp_ids:
            for interface_ip, asn in sorted(dataset.interfaces_of_ixp(ixp_id).items()):
                result = report.ensure(ixp_id, interface_ip, asn)
                if result.is_inferred:
                    continue
                neighbours = self._private_neighbours(
                    asn, interface_ip, neighbour_ips.get(asn, set()), adjacency_index)
                if len(neighbours) < self.config.min_private_neighbours:
                    # Fall back to AS-level private neighbours: the paper
                    # compiles N_x as the private AS neighbours of AS_x, not
                    # only of the single alias-resolved router.
                    neighbours = self._as_level_neighbours(
                        asn, neighbour_ips.get(asn, set()), adjacency_index)
                if len(neighbours) < self.config.min_private_neighbours:
                    continue
                common = self._common_facilities(neighbours)
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
                        "private_neighbours": tuple(sorted(neighbours)),
                        "common_facilities": tuple(sorted(common)),
                        "feasible_ixp_facilities": tuple(sorted(ixp_feasible)),
                    },
                )
                classified += 1
        return classified

    # ------------------------------------------------------------------ #
    def _interfaces_per_asn(
        self,
        adjacencies: Sequence[PrivateAdjacency],
        multi_ixp_routers: Sequence[MultiIXPRouter],
    ) -> dict[int, set[str]]:
        """Candidate interfaces per AS: private-link ends plus multi-IXP routers."""
        interfaces: dict[int, set[str]] = defaultdict(set)
        for adjacency in adjacencies:
            interfaces[adjacency.near_asn].add(adjacency.near_ip)
            interfaces[adjacency.far_asn].add(adjacency.far_ip)
        for router in multi_ixp_routers:
            interfaces[router.asn].update(router.interface_ips)
        return interfaces

    @staticmethod
    def _adjacency_index(
        adjacencies: Sequence[PrivateAdjacency],
    ) -> dict[str, set[int]]:
        """Map each interface to the ASes it is privately adjacent to."""
        index: dict[str, set[int]] = defaultdict(set)
        for adjacency in adjacencies:
            index[adjacency.near_ip].add(adjacency.far_asn)
            index[adjacency.far_ip].add(adjacency.near_asn)
        return index

    def _private_neighbours(
        self,
        asn: int,
        ixp_interface_ip: str,
        candidate_ips: set[str],
        adjacency_index: dict[str, set[int]],
    ) -> set[int]:
        """Private AS neighbours of the member's IXP-facing router."""
        resolution = self.inputs.alias_resolver.resolve(candidate_ips | {ixp_interface_ip})
        router_group = resolution.group_of(ixp_interface_ip)
        neighbours: set[int] = set()
        for ip in router_group:
            neighbours.update(adjacency_index.get(ip, set()))
        neighbours.discard(asn)
        return neighbours

    @staticmethod
    def _as_level_neighbours(
        asn: int,
        candidate_ips: set[str],
        adjacency_index: dict[str, set[int]],
    ) -> set[int]:
        """Private AS neighbours observed on any interface of the member AS."""
        neighbours: set[int] = set()
        for ip in candidate_ips:
            neighbours.update(adjacency_index.get(ip, set()))
        neighbours.discard(asn)
        return neighbours

    def _common_facilities(self, neighbours: set[int]) -> frozenset[str]:
        """Facilities shared by the majority of the neighbours with data.

        When no facility reaches a strict majority the neighbour set is
        geographically incoherent and no vote is cast — Step 5 then simply
        makes no inference for this member.
        """
        return self.geo_index.majority_facility_vote(frozenset(neighbours))

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
