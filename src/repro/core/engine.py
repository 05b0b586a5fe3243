"""Step-graph execution engine for the five-step inference pipeline.

The paper's headline analyses (fig. 9 per-step ablations, fig. 11 threshold
sensitivity, table 4 agreement) are *scenario sweeps*: the same five-step
methodology rerun under many :class:`~repro.config.InferenceConfig` variants.
The seed pipeline was a monolith — every sweep point recomputed Steps 1-5 for
every IXP even when the config change only affected one downstream step.

This module decomposes the pipeline into *declared step nodes*.  Each node
names, as data (:data:`STEP_GRAPH`):

* the :class:`~repro.config.InferenceConfig` **fields it reads** — nothing
  else about the config may influence the node's result;
* its **inputs** (the upstream nodes whose results it consumes);
* its **outputs** (what the node contributes to the final
  :class:`PipelineOutcome`);
* its **scope** — ``PER_IXP`` nodes are keyed and cached once per IXP,
  independently of the other IXPs (Steps 1-3 and the RTT baseline);
  ``GLOBAL`` nodes see the whole studied set (the traceroute observables and
  Steps 4/5, whose multi-IXP routers and private adjacencies span IXPs).

Every node also names, as data, the **dataset domains and inputs-bundle
members it reads** (``data_domains`` / ``data_inputs``) — the versioning
half of the contract.

Every node result is cached in a shared :class:`StepResultCache` under a
fingerprint key derived from

``(step name, scope key, config_fingerprint(declared fields),
data version tokens, parent keys)``

so invalidation is transitive by construction, along *both* axes:

* **configuration** — changing a Step 2 threshold re-keys Steps 2, 3, 4, 5
  and the baseline but leaves Step 1 and the traceroute observables
  untouched; config fields no node declares (e.g. the analysis-only
  ``strong_remote_rtt_ms``) never cause recomputation;
* **dataset revision** — the data version tokens are the generation stamps
  of the declared dataset domains (:meth:`ObservedDataset.domain_token`) and
  inputs-bundle members (:meth:`~repro.versioning.Versioned.version_token`).
  A journalled mutation re-keys exactly the nodes whose declared data it
  touches: moving a facility re-keys Steps 3-5 but replays Steps 1-2, the
  traceroute observables and the baseline from cache; re-mapping a routed
  prefix re-keys the traceroute observables (and Steps 4-5 through them)
  while the whole per-IXP layer stays cached.

Equivalence contract (pinned by ``tests/test_core_engine.py`` and
``tests/test_versioning.py``):

1. **Bit-identical reports** — a node's cached result is the *replayable
   delta* of ``ensure``/``classify`` calls the step made.  The final report
   is a pure function of the call sequence, and the engine replays the
   per-step deltas in exactly the monolithic order (Step 1 per IXP, Step 3
   per IXP, Step 4, Step 5), so the assembled
   :class:`~repro.core.types.InferenceReport` equals the monolith's —
   including insertion order.
2. **Revision consistency** — the engine survives dataset revisions made
   through the journal-emitting mutators (and campaign appends through the
   recording mutators): the version tokens in every key guarantee a hit is
   proof of reusability.  Mutating the inputs *directly* (raw dict pokes at
   unchanged size) still requires ``invalidate_caches()`` on the mutated
   container or ``cache.clear()``, exactly like the other indexed
   subsystems.
3. **Shared immutables** — outcome containers (lists, dicts) are fresh per
   run, but the objects inside (crossings, adjacencies, routers, feasibility
   analyses, evidence values) are shared with the cache and between runs
   that hit the same keys; consumers must treat them as read-only, exactly
   as they already had to treat `PipelineOutcome` fields under the shared
   ``GeoDistanceIndex``.

:class:`StepResultCache` is unbounded: it keeps every result it stores, so it
grows with the distinct step keys an engine's runs create (configurations,
studied IXP sets and dataset revisions) until ``cache.clear()``.

Execution is serial: :meth:`PipelineEngine.run` computes each studied IXP's
per-IXP chain in ``ixp_ids`` order, then the global nodes.  The per-IXP layer
is a small share of a realistic run (the global traceroute node dominates),
so the engine starts no threads or processes of its own.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from threading import Lock
from typing import Any, Callable, NamedTuple, Sequence, cast

from repro.config import InferenceConfig, config_fingerprint
from repro.datasources.merge import (
    DOMAIN_AS_FACILITIES,
    DOMAIN_CAPACITIES,
    DOMAIN_FACILITY_LOCATIONS,
    DOMAIN_INTERFACES,
    DOMAIN_IXP_FACILITIES,
    DOMAIN_IXP_PREFIXES,
)
from repro.core.baseline import RTTBaseline
from repro.core.inputs import InferenceInputs
from repro.core.step1_port_capacity import PortCapacityStep
from repro.core.step2_rtt import RTTCampaignSummary, RTTMeasurementStep
from repro.core.step3_colocation import ColocationRTTStep, FeasibleFacilityAnalysis
from repro.core.step4_multi_ixp import MultiIXPRouter, MultiIXPRouterStep
from repro.core.step5_private_links import PrivateConnectivityStep
from repro.core.types import (
    InferenceReport,
    InferenceResult,
    InferenceStep,
    PeeringClassification,
)
from repro.exceptions import InferenceError
from repro.geo.delay_model import DelayModel
from repro.geo.distindex import GeoDistanceIndex
from repro.traixroute.detector import CorpusDetectionIndex, IXPCrossing, PrivateAdjacency

#: One recorded ``ensure``/``classify`` call — heterogeneous by design (the
#: records exist only to be replayed, never inspected field by field).
_DeltaRecord = tuple[Any, ...]
#: A step's replayable contribution: its ordered tuple of recorded calls.
_Delta = tuple[_DeltaRecord, ...]
#: The feasibility analyses Step 3 contributes, keyed by (IXP, interface).
_FeasibleMap = dict[tuple[str, str], FeasibleFacilityAnalysis]


@dataclass
class PipelineOutcome:
    """Everything a pipeline run produced."""

    ixp_ids: list[str]
    report: InferenceReport
    baseline_report: InferenceReport
    rtt_summary: RTTCampaignSummary
    feasible: dict[tuple[str, str], FeasibleFacilityAnalysis] = field(default_factory=dict)
    crossings: list[IXPCrossing] = field(default_factory=list)
    private_adjacencies: list[PrivateAdjacency] = field(default_factory=list)
    multi_ixp_routers: list[MultiIXPRouter] = field(default_factory=list)

    def remote_share(self, ixp_id: str | None = None) -> float:
        """Fraction of inferred interfaces classified remote."""
        return self.report.remote_share(ixp_id)


class StepScope(enum.Enum):
    """How a step node is keyed: once per studied IXP, or once per studied set."""

    PER_IXP = "per-ixp"
    GLOBAL = "global"


@dataclass(frozen=True)
class StepSpec:
    """Declaration of one pipeline step node.

    Attributes
    ----------
    name:
        Node identifier, also the cache-statistics label.
    scope:
        ``PER_IXP`` nodes are computed (and cached) once per studied IXP and
        are independent across IXPs; ``GLOBAL`` nodes run once per studied
        set.
    config_fields:
        The :class:`~repro.config.InferenceConfig` fields the node reads.
        This is a *contract*: the node's result must depend on no other
        config field, because only these enter its cache key.
    requires:
        Upstream nodes whose results feed this node.  A ``GLOBAL`` node
        requiring a ``PER_IXP`` node depends on that node at *every* studied
        IXP.
    provides:
        What the node contributes to the assembled
        :class:`PipelineOutcome` (documentation and introspection).
    studied_set_sensitive:
        Whether a ``GLOBAL`` node's result depends on *which* IXPs are
        studied.  The traceroute observables scan the whole corpus
        regardless, so they declare ``False`` and are shared across runs
        over different IXP subsets.  Ignored for ``PER_IXP`` nodes.
    data_domains:
        The :class:`~repro.datasources.merge.ObservedDataset` domains the
        node reads (see ``DATASET_DOMAINS``).  Like ``config_fields`` this
        is a *contract*: the node's result must depend on no other slice of
        the dataset, because only these domains' generation stamps enter its
        cache key.
    data_inputs:
        The :class:`~repro.core.inputs.InferenceInputs` members (beyond the
        dataset) whose :meth:`~repro.versioning.Versioned.version_token`
        enters the node's cache key — ``"ping_result"``, ``"corpus"`` and/or
        ``"prefix2as"``.  The alias resolver is world-backed and immutable,
        so no node declares it.
    """

    name: str
    scope: StepScope
    config_fields: tuple[str, ...]
    requires: tuple[str, ...]
    provides: tuple[str, ...]
    studied_set_sensitive: bool = True
    data_domains: tuple[str, ...] = ()
    data_inputs: tuple[str, ...] = ()


#: The declared step graph, in the paper's execution order (Section 5.2).
STEP_GRAPH: tuple[StepSpec, ...] = (
    StepSpec(
        name="step1",
        scope=StepScope.PER_IXP,
        config_fields=("enable_step1_port_capacity",),
        requires=(),
        provides=("report_delta",),
        data_domains=(DOMAIN_INTERFACES, DOMAIN_CAPACITIES),
    ),
    StepSpec(
        name="step2",
        scope=StepScope.PER_IXP,
        config_fields=("atlas_route_server_filter_ms", "lg_rounding_adjustment_ms"),
        requires=(),
        provides=("rtt_summary",),
        data_inputs=("ping_result",),
    ),
    StepSpec(
        name="step3",
        scope=StepScope.PER_IXP,
        config_fields=("enable_step3_colocation_rtt", "feasible_facility_tolerance_km"),
        requires=("step1", "step2"),
        provides=("report_delta", "feasible"),
        data_domains=(
            DOMAIN_INTERFACES,
            DOMAIN_IXP_FACILITIES,
            DOMAIN_AS_FACILITIES,
            DOMAIN_FACILITY_LOCATIONS,
        ),
    ),
    StepSpec(
        name="traceroute",
        scope=StepScope.GLOBAL,
        config_fields=(),
        requires=(),
        provides=("crossings", "private_adjacencies"),
        studied_set_sensitive=False,
        data_domains=(DOMAIN_IXP_PREFIXES, DOMAIN_INTERFACES, DOMAIN_IXP_FACILITIES),
        data_inputs=("corpus", "prefix2as"),
    ),
    StepSpec(
        name="step4",
        scope=StepScope.GLOBAL,
        config_fields=("enable_step4_multi_ixp",),
        requires=("step3", "traceroute"),
        provides=("report_delta", "multi_ixp_routers"),
        data_domains=(
            DOMAIN_INTERFACES,
            DOMAIN_IXP_FACILITIES,
            DOMAIN_AS_FACILITIES,
            DOMAIN_FACILITY_LOCATIONS,
        ),
    ),
    StepSpec(
        name="step5",
        scope=StepScope.GLOBAL,
        config_fields=(
            "enable_step5_private_links",
            "min_private_neighbours",
            "max_coherent_vote_facilities",
        ),
        requires=("step4", "traceroute"),
        provides=("report_delta",),
        data_domains=(
            DOMAIN_INTERFACES,
            DOMAIN_IXP_FACILITIES,
            DOMAIN_AS_FACILITIES,
            DOMAIN_FACILITY_LOCATIONS,
        ),
    ),
    StepSpec(
        name="baseline",
        scope=StepScope.PER_IXP,
        config_fields=("rtt_baseline_threshold_ms",),
        requires=("step2",),
        provides=("baseline_report",),
        data_domains=(DOMAIN_INTERFACES,),
    ),
)

_SPECS: dict[str, StepSpec] = {spec.name: spec for spec in STEP_GRAPH}


@dataclass
class CacheStats:
    """Hit/miss counters for one step label."""

    hits: int = 0
    misses: int = 0


class StepResultCache:
    """Shared store of step-node results keyed by fingerprint.

    The cache is safe to share across configurations, pipeline facades,
    sweep runs and journalled dataset revisions over *one* inputs bundle:
    the key of every entry already encodes everything that may legally
    influence the result (declared config fields, the version tokens of the
    declared data, and upstream keys), so a hit is a proof of reusability.
    It is **not** safe to share across different inputs bundles — the bundle
    identity is deliberately not part of the key because an engine is bound
    to one bundle for its lifetime.

    Safe to share between concurrent caller threads: lookups and inserts are
    serialised by a lock; concurrent misses on the same key compute
    duplicates (idempotent by construction) and keep the first stored value.
    """

    def __init__(self) -> None:
        self._entries: dict[str, object] = {}
        # Serialises lookups and inserts from concurrent caller threads.
        self._lock = Lock()
        self.stats: dict[str, CacheStats] = {}

    def get_or_compute(self, label: str, key: str, compute: Callable[[], object]) -> object:
        """The cached value for ``key``, computing (and storing) it if absent."""
        with self._lock:
            stats = self.stats.setdefault(label, CacheStats())
            if key in self._entries:
                stats.hits += 1
                return self._entries[key]
        value = compute()
        with self._lock:
            stats.misses += 1
            return self._entries.setdefault(key, value)

    def clear(self) -> None:
        """Drop every entry (required if the inputs were mutated directly)."""
        with self._lock:
            self._entries.clear()
            self.stats.clear()

    def __len__(self) -> int:
        return len(self._entries)


# --------------------------------------------------------------------- #
# Replayable report deltas
# --------------------------------------------------------------------- #
class _RecordingReport(InferenceReport):
    """An :class:`InferenceReport` that logs mutating calls for replay.

    The report's final state is a pure function of its ``ensure``/``classify``
    call sequence, so recording a step's calls (after replaying its
    prerequisites) captures exactly that step's contribution, and replaying
    the recorded deltas in monolithic step order rebuilds a bit-identical
    report.
    """

    def __init__(self) -> None:
        super().__init__()
        self.log: list[_DeltaRecord] | None = None

    def start_recording(self) -> None:
        self.log = []

    def ensure(self, ixp_id: str, interface_ip: str, asn: int) -> InferenceResult:
        if self.log is not None and (ixp_id, interface_ip) not in self.results:
            self.log.append(("ensure", ixp_id, interface_ip, asn))
        return super().ensure(ixp_id, interface_ip, asn)

    def classify(
        self,
        ixp_id: str,
        interface_ip: str,
        asn: int,
        classification: PeeringClassification,
        step: InferenceStep,
        evidence: dict[str, object] | None = None,
        *,
        overwrite: bool = False,
    ) -> InferenceResult:
        if self.log is not None:
            self.log.append(("classify", ixp_id, interface_ip, asn, classification,
                             step, dict(evidence) if evidence else None, overwrite))
        return super().classify(ixp_id, interface_ip, asn, classification, step,
                                evidence, overwrite=overwrite)


def _replay(report: InferenceReport, delta: _Delta) -> None:
    """Apply one recorded delta to a report, with fresh evidence dicts."""
    for record in delta:
        if record[0] == "ensure":
            report.ensure(record[1], record[2], record[3])
        else:
            _, ixp_id, interface_ip, asn, classification, step, evidence, overwrite = record
            report.classify(ixp_id, interface_ip, asn, classification, step,
                            dict(evidence) if evidence else None, overwrite=overwrite)


def _report_as_delta(report: InferenceReport) -> _Delta:
    """A standalone report (the baseline's) rendered as a replayable delta."""
    log: list[_DeltaRecord] = []
    for (ixp_id, interface_ip), result in report.results.items():
        log.append(("ensure", ixp_id, interface_ip, result.asn))
        if result.is_inferred:
            log.append(("classify", ixp_id, interface_ip, result.asn,
                        result.classification, result.step,
                        dict(result.evidence) or None, False))
    return tuple(log)


# --------------------------------------------------------------------- #
# Fingerprint keys
# --------------------------------------------------------------------- #
class _KeyResolver:
    """Derives (and memoises) the cache key of every node for one run.

    A key digests the node name, its scope token (the IXP id, or the studied
    tuple for global nodes), the fingerprint of its declared config fields,
    the version tokens of its declared data (dataset domains and
    inputs-bundle members) and the keys of its parents — so a key matches
    exactly when nothing that may legally influence the node's result
    differs.  Version tokens are sampled once per run (the engine contract
    forbids mutating the inputs mid-run); each :meth:`PipelineEngine.run`
    call builds its own resolver.
    """

    def __init__(
        self,
        config: InferenceConfig,
        ixp_ids: tuple[str, ...],
        inputs: InferenceInputs,
    ) -> None:
        self._config = config
        self._ixp_ids = ixp_ids
        self._inputs = inputs
        self._memo: dict[tuple[str, str | None], str] = {}
        self._data_tokens: dict[str, tuple[object, object]] = {}

    def _data_token(self, spec: StepSpec) -> tuple[object, object]:
        """The version stamps of everything the node declared it reads."""
        token = self._data_tokens.get(spec.name)
        if token is None:
            dataset = self._inputs.dataset
            token = (
                tuple(
                    (domain, dataset.domain_token(domain))
                    for domain in spec.data_domains
                ),
                tuple(
                    (name, getattr(self._inputs, name).version_token())
                    for name in spec.data_inputs
                ),
            )
            self._data_tokens[spec.name] = token
        return token

    def key(self, name: str, ixp_id: str | None = None) -> str:
        memo_key = (name, ixp_id)
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        spec = _SPECS[name]
        parents: list[str] = []
        for requirement in spec.requires:
            required = _SPECS[requirement]
            if required.scope is StepScope.PER_IXP and spec.scope is StepScope.PER_IXP:
                parents.append(self.key(requirement, ixp_id))
            elif required.scope is StepScope.PER_IXP:
                parents.extend(self.key(requirement, i) for i in self._ixp_ids)
            else:
                parents.append(self.key(requirement))
        if spec.scope is StepScope.PER_IXP:
            scope_token: object = ixp_id
        else:
            scope_token = self._ixp_ids if spec.studied_set_sensitive else "*"
        fingerprint = config_fingerprint(self._config, spec.config_fields)
        payload = repr((name, scope_token, fingerprint, self._data_token(spec), parents))
        digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
        self._memo[memo_key] = digest
        return digest


class _PerIXPResults(NamedTuple):
    """The cached results of one IXP's per-IXP node chain."""

    step1_delta: _Delta
    summary: RTTCampaignSummary
    step3_delta: _Delta
    feasible: _FeasibleMap
    baseline_delta: _Delta


# --------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------- #
class PipelineEngine:
    """Executes the declared step graph over one inputs bundle.

    One engine (hence one :class:`StepResultCache`, one
    :class:`GeoDistanceIndex`, one :class:`DelayModel`) serves every
    configuration run over the same inputs; :class:`SweepRunner` and
    :class:`~repro.core.pipeline.RemotePeeringPipeline` are thin layers on
    top of :meth:`run`.

    :meth:`run` is serial: it computes each studied IXP's per-IXP chain
    (Steps 1-3 and the baseline) in ``ixp_ids`` order, then the global
    nodes, then replays the deltas into the outcome.  A failing step raises
    on its first attempt; a pure computation that raised once would raise
    again.  The engine starts no threads; the shared cache and the lazily
    created corpus-detection index are lock-guarded for callers that share
    one engine across threads.
    """

    def __init__(
        self,
        inputs: InferenceInputs,
        *,
        delay_model: DelayModel | None = None,
        geo_index: GeoDistanceIndex | None = None,
    ) -> None:
        self.inputs = inputs
        self.delay_model = delay_model or DelayModel()
        if geo_index is not None and geo_index.dataset is not inputs.dataset:
            raise InferenceError("geo_index must be built over the same dataset")
        self.geo_index = geo_index if geo_index is not None else inputs.geo_index
        self.cache = StepResultCache()
        # Per-path corpus detection, maintained incrementally across
        # journalled prefix revisions (created on the first traceroute node);
        # the lock makes the lazy creation build-once when concurrent caller
        # threads run the engine.
        self._corpus_detection: CorpusDetectionIndex | None = None
        self._detection_lock = Lock()

    # ------------------------------------------------------------------ #
    def run(self, config: InferenceConfig, ixp_ids: Sequence[str]) -> PipelineOutcome:
        """Run every enabled step for the given IXPs under one configuration.

        Raises :class:`InferenceError` for an empty ``ixp_ids`` and for any
        id the inputs' dataset does not know.
        """
        if not ixp_ids:
            raise InferenceError("at least one IXP id is required")
        ixp_ids = tuple(ixp_ids)
        known = set(self.inputs.dataset.ixp_ids())
        unknown = [ixp_id for ixp_id in ixp_ids if ixp_id not in known]
        if unknown:
            raise InferenceError(f"unknown IXP ids: {', '.join(unknown)}")
        resolver = _KeyResolver(config, ixp_ids, self.inputs)
        cache = self.cache

        per_ixp = [self._per_ixp_chain(config, ixp_id, resolver) for ixp_id in ixp_ids]

        crossings, adjacencies = cast(
            "tuple[list[IXPCrossing], list[PrivateAdjacency]]",
            cache.get_or_compute(
                "traceroute", resolver.key("traceroute"),
                self._compute_traceroute))

        step1_deltas = [results.step1_delta for results in per_ixp]
        step3_deltas = [results.step3_delta for results in per_ixp]
        feasible: _FeasibleMap = {}
        for results in per_ixp:
            feasible.update(results.feasible)

        step4_delta, routers = cast(
            "tuple[_Delta, list[MultiIXPRouter]]",
            cache.get_or_compute(
                "step4", resolver.key("step4"),
                lambda: self._compute_step4(config, ixp_ids, step1_deltas,
                                            step3_deltas, crossings)))
        step5_delta = cast("_Delta", cache.get_or_compute(
            "step5", resolver.key("step5"),
            lambda: self._compute_step5(config, ixp_ids, step1_deltas,
                                        step3_deltas, step4_delta,
                                        adjacencies, routers, feasible)))

        # Assembly: replay the deltas in the monolithic step order, so the
        # final report is bit-identical to the seed single-pass pipeline.
        report = InferenceReport()
        for delta in step1_deltas:
            _replay(report, delta)
        for delta in step3_deltas:
            _replay(report, delta)
        _replay(report, step4_delta)
        _replay(report, step5_delta)

        baseline = InferenceReport()
        for results in per_ixp:
            _replay(baseline, results.baseline_delta)

        rtt_summary = RTTCampaignSummary()
        for results in per_ixp:
            rtt_summary.merge_from(results.summary)

        return PipelineOutcome(
            ixp_ids=list(ixp_ids),
            report=report,
            baseline_report=baseline,
            rtt_summary=rtt_summary,
            feasible=feasible,
            crossings=list(crossings),
            private_adjacencies=list(adjacencies),
            multi_ixp_routers=list(routers),
        )

    # ------------------------------------------------------------------ #
    # Per-IXP chains (Steps 1-3 + baseline)
    # ------------------------------------------------------------------ #
    def _per_ixp_chain(
        self, config: InferenceConfig, ixp_id: str, resolver: _KeyResolver
    ) -> _PerIXPResults:
        cache = self.cache
        step1 = cast("_Delta", cache.get_or_compute(
            "step1", resolver.key("step1", ixp_id),
            lambda: self._compute_step1(config, ixp_id)))
        summary = cast(RTTCampaignSummary, cache.get_or_compute(
            "step2", resolver.key("step2", ixp_id),
            lambda: self._compute_step2(config, ixp_id)))
        step3_delta, feasible = cast("tuple[_Delta, _FeasibleMap]", cache.get_or_compute(
            "step3", resolver.key("step3", ixp_id),
            lambda: self._compute_step3(config, ixp_id, step1, summary)))
        baseline = cast("_Delta", cache.get_or_compute(
            "baseline", resolver.key("baseline", ixp_id),
            lambda: self._compute_baseline(config, ixp_id, summary)))
        return _PerIXPResults(step1_delta=step1, summary=summary,
                              step3_delta=step3_delta, feasible=feasible,
                              baseline_delta=baseline)

    def _compute_step1(self, config: InferenceConfig, ixp_id: str) -> _Delta:
        report = _RecordingReport()
        report.start_recording()
        if config.enable_step1_port_capacity:
            PortCapacityStep(self.inputs).run([ixp_id], report)
        else:
            # Make sure every member interface is tracked even if Step 1 is
            # off (the monolith's _register_all branch).
            for interface_ip, asn in self.inputs.dataset.interfaces_of_ixp(ixp_id).items():
                report.ensure(ixp_id, interface_ip, asn)
        return tuple(report.log or ())

    def _compute_step2(self, config: InferenceConfig, ixp_id: str) -> RTTCampaignSummary:
        return RTTMeasurementStep(self.inputs, config).run([ixp_id])

    def _compute_step3(
        self,
        config: InferenceConfig,
        ixp_id: str,
        step1_delta: _Delta,
        summary: RTTCampaignSummary,
    ) -> tuple[_Delta, _FeasibleMap]:
        report = _RecordingReport()
        _replay(report, step1_delta)
        analyses: _FeasibleMap = {}
        report.start_recording()
        if config.enable_step3_colocation_rtt:
            step3 = ColocationRTTStep(self.inputs, config, self.delay_model,
                                      geo_index=self.geo_index)
            analyses = step3.run([ixp_id], report, summary)
        return tuple(report.log or ()), analyses

    def _compute_baseline(
        self, config: InferenceConfig, ixp_id: str, summary: RTTCampaignSummary
    ) -> _Delta:
        report = RTTBaseline(self.inputs, config).run([ixp_id], summary)
        return _report_as_delta(report)

    # ------------------------------------------------------------------ #
    # Global nodes (traceroute observables, Steps 4-5)
    # ------------------------------------------------------------------ #
    def _compute_traceroute(self) -> tuple[list[IXPCrossing], list[PrivateAdjacency]]:
        if self._corpus_detection is None:
            # Double-checked lazy creation: two concurrent runs must share
            # one incrementally maintained index, not race two into place.
            with self._detection_lock:
                if self._corpus_detection is None:
                    self._corpus_detection = CorpusDetectionIndex(
                        self.inputs.dataset, self.inputs.prefix2as, self.inputs.corpus)
        return self._corpus_detection.results()

    def _compute_step4(
        self,
        config: InferenceConfig,
        ixp_ids: tuple[str, ...],
        step1_deltas: list[_Delta],
        step3_deltas: list[_Delta],
        crossings: list[IXPCrossing],
    ) -> tuple[_Delta, list[MultiIXPRouter]]:
        report = _RecordingReport()
        for delta in step1_deltas:
            _replay(report, delta)
        for delta in step3_deltas:
            _replay(report, delta)
        routers: list[MultiIXPRouter] = []
        report.start_recording()
        if config.enable_step4_multi_ixp:
            step4 = MultiIXPRouterStep(self.inputs, config, geo_index=self.geo_index)
            routers = step4.run(list(ixp_ids), report, crossings)
        return tuple(report.log or ()), routers

    def _compute_step5(
        self,
        config: InferenceConfig,
        ixp_ids: tuple[str, ...],
        step1_deltas: list[_Delta],
        step3_deltas: list[_Delta],
        step4_delta: _Delta,
        adjacencies: list[PrivateAdjacency],
        routers: list[MultiIXPRouter],
        feasible: _FeasibleMap,
    ) -> _Delta:
        report = _RecordingReport()
        for delta in step1_deltas:
            _replay(report, delta)
        for delta in step3_deltas:
            _replay(report, delta)
        _replay(report, step4_delta)
        report.start_recording()
        if config.enable_step5_private_links:
            step5 = PrivateConnectivityStep(self.inputs, config, geo_index=self.geo_index)
            step5.run(list(ixp_ids), report, adjacencies, routers, feasible)
        return tuple(report.log or ())


class SweepRunner:
    """Runs a list of config scenarios through one shared engine.

    Every scenario reuses every step result whose fingerprint key is
    unchanged — a fig. 9-style ablation that only toggles Step 4 reuses
    Steps 1-3, the traceroute observables and the baseline verbatim, paying
    only for Step 4/5 and outcome assembly.
    """

    def __init__(self, engine: PipelineEngine) -> None:
        self.engine = engine

    def run(
        self, configs: Sequence[InferenceConfig], ixp_ids: Sequence[str]
    ) -> list[PipelineOutcome]:
        """One :class:`PipelineOutcome` per config, in input order."""
        return [self.engine.run(config, ixp_ids) for config in configs]
