"""End-to-end study driver.

:class:`RemotePeeringStudy` reproduces the paper's workflow in one object:

1. generate (or accept) a ground-truth world,
2. snapshot and merge the public data sources into the observed dataset,
3. plan vantage points and run the ping and traceroute campaigns,
4. run the five-step inference pipeline on the 30 largest IXPs with usable
   vantage points,
5. export validation labels and evaluate the results.

Every stage is computed lazily and cached, so experiments and examples can
share one study object and only pay for what they use.  All randomness
derives from the configuration seed, making studies fully reproducible.
"""

from __future__ import annotations

from functools import cached_property

from collections.abc import Sequence

from repro.alias.midar import AliasResolver
from repro.config import ExperimentConfig, InferenceConfig
from repro.core.engine import PipelineEngine, PipelineOutcome, SweepRunner
from repro.core.inputs import InferenceInputs
from repro.datasources.merge import MergeStatistics, ObservedDataset, build_observed_dataset
from repro.datasources.prefix2as import Prefix2ASMap, Prefix2ASSource
from repro.geo.delay_model import DelayModel
from repro.geo.distindex import GeoDistanceIndex
from repro.geo.worldindex import WorldDistanceIndex
from repro.measurement.ping import PingCampaign
from repro.measurement.results import PingCampaignResult, TracerouteCorpus
from repro.measurement.traceroute import TracerouteCampaign
from repro.measurement.vantage import VantagePoint, VantagePointPlanner
from repro.topology.generator import WorldGenerator
from repro.topology.world import World
from repro.validation.dataset import ValidationDataset, ValidationDatasetBuilder


class RemotePeeringStudy:
    """Lazily assembles the full reproduction workflow."""

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        *,
        world: World | None = None,
        delay_model: DelayModel | None = None,
    ) -> None:
        self.config = config or ExperimentConfig()
        self._world = world
        self.delay_model = delay_model or DelayModel()

    # ------------------------------------------------------------------ #
    # Ground truth and observables
    # ------------------------------------------------------------------ #
    @cached_property
    def world(self) -> World:
        """The ground-truth world (generated unless one was injected)."""
        if self._world is not None:
            return self._world
        return WorldGenerator(self.config.generator).generate()

    @cached_property
    def _merged(self) -> tuple[ObservedDataset, MergeStatistics]:
        return build_observed_dataset(self.world, self.config.noise)

    @property
    def dataset(self) -> ObservedDataset:
        """The merged observed dataset (public-database view)."""
        return self._merged[0]

    @property
    def merge_statistics(self) -> MergeStatistics:
        """Per-source contribution statistics (Table 1)."""
        return self._merged[1]

    @cached_property
    def prefix2as(self) -> Prefix2ASMap:
        """Routeviews-style IP-to-AS mapping."""
        return Prefix2ASSource(self.world).snapshot()

    @cached_property
    def alias_resolver(self) -> AliasResolver:
        """MIDAR-style alias resolution service."""
        return AliasResolver(self.world)

    # ------------------------------------------------------------------ #
    # Measurement campaigns
    # ------------------------------------------------------------------ #
    @cached_property
    def vantage_plan(self) -> dict[str, list[VantagePoint]]:
        """Planned vantage points for every IXP in the world."""
        planner = VantagePointPlanner(self.world, self.config.campaign)
        return planner.plan(sorted(self.world.ixps))

    @cached_property
    def studied_ixp_ids(self) -> list[str]:
        """The N largest IXPs that have at least one vantage point."""
        with_vps = {
            ixp_id for ixp_id, vps in self.vantage_plan.items()
            if any(not vp.is_dead for vp in vps)
        }
        ordered = [ixp.ixp_id for ixp in self.world.ixps_by_member_count()
                   if ixp.ixp_id in with_vps]
        return ordered[: self.config.studied_ixp_count]

    @cached_property
    def ping_result(self) -> PingCampaignResult:
        """The Step 2 ping campaign over the studied IXPs."""
        campaign = PingCampaign(self.world, self.config.campaign, delay_model=self.delay_model)
        plan = {ixp_id: self.vantage_plan.get(ixp_id, []) for ixp_id in self.studied_ixp_ids}
        return campaign.run(self.studied_ixp_ids, vantage_plan=plan)

    @cached_property
    def world_distance_index(self) -> WorldDistanceIndex:
        """The shared ground-truth facility-distance index.

        Serves every per-hop distance of every forwarding simulation run on
        this study (the public corpus, the Section 6.4 pair traceroutes).
        Kept strictly separate from :attr:`geo_index`, which answers for the
        *observed* dataset: ground truth must not leak into inference, nor
        observation noise into synthetic measurements.
        """
        return WorldDistanceIndex(self.world)

    @cached_property
    def traceroute_corpus(self) -> TracerouteCorpus:
        """The public (Atlas-like) traceroute corpus."""
        campaign = TracerouteCampaign(self.world, self.config.campaign,
                                      delay_model=self.delay_model,
                                      world_index=self.world_distance_index)
        return campaign.run_public_corpus(self.studied_ixp_ids)

    # ------------------------------------------------------------------ #
    # Inference and validation
    # ------------------------------------------------------------------ #
    @cached_property
    def geo_index(self) -> GeoDistanceIndex:
        """The shared geodesic-distance index over the observed facilities.

        Built once per study and threaded through the inputs bundle and the
        pipeline, so scenario sweeps that rerun the pipeline under many
        configurations (fig. 9/11 ablations) reuse one set of memoised
        distances.
        """
        return GeoDistanceIndex(self.dataset)

    @cached_property
    def inputs(self) -> InferenceInputs:
        """The observable inputs handed to the inference pipeline."""
        return InferenceInputs(
            dataset=self.dataset,
            ping_result=self.ping_result,
            corpus=self.traceroute_corpus,
            prefix2as=self.prefix2as,
            alias_resolver=self.alias_resolver,
            geo_index=self.geo_index,
        )

    @cached_property
    def engine(self) -> PipelineEngine:
        """The shared step-graph engine (one step-result cache per study).

        Everything that reruns the pipeline on this study — the cached
        :attr:`outcome`, :meth:`sweep`, ad-hoc ``study.engine.run`` calls —
        shares this engine, so any step whose declared config fields are
        unchanged between runs is reused from its cache instead of
        recomputed.
        """
        return PipelineEngine(
            self.inputs, delay_model=self.delay_model, geo_index=self.geo_index)

    @cached_property
    def outcome(self) -> PipelineOutcome:
        """The result of running the full pipeline on the studied IXPs."""
        return self.engine.run(self.config.inference, self.studied_ixp_ids)

    def sweep(
        self,
        configs: Sequence[InferenceConfig],
        ixp_ids: Sequence[str] | None = None,
    ) -> list[PipelineOutcome]:
        """Run a list of inference-config scenarios over the studied IXPs.

        The shared entry point of the fig. 9 / fig. 11 / table 4 style
        scenario sweeps: every scenario goes through :attr:`engine`, so each
        outcome reuses every step result (and memoised distance) whose
        fingerprint is unchanged since any earlier run on this study.
        """
        ids = list(self.studied_ixp_ids if ixp_ids is None else ixp_ids)
        return SweepRunner(self.engine).run(configs, ids)

    @cached_property
    def validation(self) -> ValidationDataset:
        """Ground-truth validation labels for the largest IXPs."""
        builder = ValidationDatasetBuilder(self.world)
        candidates = [ixp.ixp_id for ixp in self.world.ixps_by_member_count()]
        with_vps = set(self.studied_ixp_ids)
        return builder.build(candidates, with_vps)

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def summary(self) -> dict[str, object]:
        """A compact overview of the study, useful in examples and logs."""
        outcome = self.outcome
        return {
            "world": self.world.summary(),
            "studied_ixps": len(self.studied_ixp_ids),
            "queried_interfaces": len(self.dataset.interface_ixp),
            "inferred_interfaces": len(outcome.report.inferred()),
            "coverage": round(outcome.report.coverage(), 3),
            "remote_share": round(outcome.report.remote_share(), 3),
        }
