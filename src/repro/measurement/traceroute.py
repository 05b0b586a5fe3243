"""Traceroute measurement campaigns.

Two kinds of traceroute corpora are needed:

* a **broad corpus** mimicking the public RIPE Atlas measurements the paper
  mines: probes hosted inside IXP member networks tracerouting towards many
  destinations.  Steps 4 and 5 extract IXP crossings, multi-IXP routers and
  private AS adjacencies from it;
* **targeted pair traceroutes** for the routing-implications study of
  Section 6.4: from probes inside a remote member of a large IXP towards
  prefixes of other members of the same IXP.

Both are produced by the :class:`TracerouteCampaign`, which routes each probe
AS towards all of its destinations with one destination-bounded BFS (it stops
once every destination has a parent) and expands only the paths it needs,
keeping large fan-outs affordable.
"""

from __future__ import annotations

import random

from repro.config import CampaignConfig
from repro.exceptions import MeasurementError, RoutingError
from repro.geo.delay_model import DelayModel
from repro.geo.worldindex import WorldDistanceIndex
from repro.measurement.results import TracerouteCorpus
from repro.routing.bgp import ASGraph, RouteSelector
from repro.routing.forwarding import ForwardingSimulator
from repro.topology.world import World


class TracerouteCampaign:
    """Generates traceroute corpora over the simulated forwarding plane."""

    def __init__(
        self,
        world: World,
        config: CampaignConfig | None = None,
        *,
        graph: ASGraph | None = None,
        delay_model: DelayModel | None = None,
        world_index: WorldDistanceIndex | None = None,
    ) -> None:
        self.world = world
        self.config = config or CampaignConfig()
        self.graph = graph or ASGraph(world)
        self.selector = RouteSelector(self.graph)
        self._rng = random.Random(world.seed * 613 + self.config.seed_offset + 4)
        # One world-level distance index serves every hop of every corpus
        # this campaign produces (callers may inject a shared one).
        self.world_index = world_index or WorldDistanceIndex(world)
        self.simulator = ForwardingSimulator(
            world,
            self.graph,
            delay_model=delay_model,
            rng=random.Random(world.seed * 613 + self.config.seed_offset + 5),
            world_index=self.world_index,
            hot_potato_compliance=self.config.hot_potato_compliance,
            hop_loss_rate=self.config.traceroute_hop_loss_rate,
        )

    # ------------------------------------------------------------------ #
    # Broad public corpus
    # ------------------------------------------------------------------ #
    def run_public_corpus(self, ixp_ids: list[str]) -> TracerouteCorpus:
        """Build the Atlas-like corpus for the studied IXPs.

        Probe ASes are sampled among the members of each studied IXP (Atlas
        probes live inside member networks); each probe traceroutes towards a
        sample of prefixes originated by members of the studied IXPs and a few
        unrelated networks.
        """
        if not ixp_ids:
            raise MeasurementError("at least one IXP is required for a traceroute corpus")
        corpus = TracerouteCorpus()

        member_asns: set[int] = set()
        probe_asns: set[int] = set()
        for ixp_id in ixp_ids:
            members = sorted({m.asn for m in self.world.active_memberships(ixp_id)})
            member_asns.update(members)
            sample_size = min(self.config.traceroute_sources_per_ixp, len(members))
            if sample_size:
                probe_asns.update(self._rng.sample(members, k=sample_size))

        other_asns = sorted(set(self.world.ases) - member_asns)
        destination_pool = sorted(member_asns)
        for probe_asn in sorted(probe_asns):
            destinations = self._pick_destinations(probe_asn, destination_pool, other_asns)
            corpus.extend(self._trace_from(probe_asn, destinations))
        return corpus

    def _pick_destinations(
        self, probe_asn: int, member_pool: list[int], other_pool: list[int]
    ) -> list[int]:
        count = self.config.traceroute_destinations_per_source
        member_count = max(1, int(count * 0.8))
        other_count = max(0, count - member_count)
        members = [asn for asn in member_pool if asn != probe_asn]
        others = [asn for asn in other_pool if asn != probe_asn]
        destinations = []
        if members:
            destinations.extend(self._rng.sample(members, k=min(member_count, len(members))))
        if others and other_count:
            destinations.extend(self._rng.sample(others, k=min(other_count, len(others))))
        return destinations

    def _trace_from(self, probe_asn: int, destination_asns: list[int]) -> list:
        paths = []
        as_paths = self.selector.paths_from(probe_asn, destination_asns)
        for destination_asn, as_path in sorted(as_paths.items()):
            if len(as_path) < 2:
                continue
            try:
                destination_ip = self.simulator.destination_ip_for(destination_asn)
            except RoutingError:  # the destination originates no prefix
                continue
            paths.append(self.simulator.traceroute_along(as_path, destination_ip))
        return paths

    # ------------------------------------------------------------------ #
    # Targeted pair traceroutes (Section 6.4)
    # ------------------------------------------------------------------ #
    def run_pairs(self, pairs: list[tuple[int, int]]) -> TracerouteCorpus:
        """Traceroute from the first AS of each pair towards the second.

        Pairs sharing no path are silently skipped (the paper likewise only
        analyses pairs for which traceroutes complete).
        """
        corpus = TracerouteCorpus()
        by_source: dict[int, list[int]] = {}
        for source, destination in pairs:
            by_source.setdefault(source, []).append(destination)
        for source in sorted(by_source):
            corpus.extend(self._trace_from(source, by_source[source]))
        return corpus
