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
half of the declaration.

The declarations are **enforced at run time**.  A node computes through
*capability views* derived from its spec: a projection of the config that
holds only the declared fields, and an inputs view whose dataset and geo
index expose only the accessors whose domains the node declares, beside the
declared versioned inputs.  Reading anything else raises
:class:`~repro.exceptions.UndeclaredReadError`, naming the node and the
member, the first time the read runs.  The traceroute observables build
their long-lived detection index over the real objects, so that node
declares what the index reads
(:data:`~repro.traixroute.detector.CORPUS_DETECTION_DOMAINS` and
:data:`~repro.traixroute.detector.CORPUS_DETECTION_INPUTS`).

The traceroute node also builds the evidence Steps 4 and 5 read, once per
detection result: the multi-IXP routers, identified from the crossings, and
a :class:`~repro.core.step5_private_links.PrivateNeighbours` table over the
private adjacencies.  Both read the alias resolver, which is world-backed and
immutable, so the node's key stays what it was and ignores the studied set.
Step 4 only classifies the routers it is handed, and Step 5 only votes.

Every node result is cached in a shared :class:`StepResultCache` under a
fingerprint key derived from

``(step name, scope key, config_fingerprint(declared fields),
data version tokens, parent keys)``

so invalidation is transitive by construction, along *both* axes:

* **configuration** — changing a Step 2 threshold re-keys Steps 2, 3, 4, 5
  and the baseline but leaves Step 1 and the traceroute observables
  untouched;
* **dataset revision** — the data version tokens are the generation stamps
  of the declared dataset domains (:meth:`ObservedDataset.domain_token`) and
  inputs-bundle members (:meth:`~repro.versioning.Versioned.version_token`).
  A journalled mutation re-keys exactly the nodes whose declared data it
  touches: moving a facility re-keys Steps 3-5 but reuses Steps 1-2, the
  traceroute observables and the baseline from cache; re-mapping a routed
  prefix re-keys the traceroute observables (and Steps 4-5 through them)
  while the whole per-IXP layer stays cached.

The cache keeps one result per node *slot*, the same derivation without the
data version tokens (parent slots in place of parent keys), so a revision
replaces the results it re-keys instead of adding to them.

Equivalence contract (pinned by ``tests/test_core_engine.py`` and
``tests/test_versioning.py``):

1. **Bit-identical reports** — each run keeps one
   :class:`~repro.core.types.InferenceReport` and visits the report-writing
   nodes in the monolithic order (Step 1 per IXP, Step 3 per IXP, Step 4,
   Step 5).  On a miss the step runs on that report while the records it
   stores are collected: its *delta*, the final record of every key it
   wrote, in first-write order, which the cache keeps.  On a hit the delta
   is inserted into the report with one ordered dict update: a new key is
   appended and an existing key keeps its place, exactly where the step's
   ``ensure``/``classify`` calls put it.  The key is the proof that the
   report held the same records when the step last ran (a per-IXP step
   reads and writes only its own IXP's results), so either way the report
   equals the monolith's — including insertion order.
2. **Revision consistency** — the inputs' public collections are read-only
   views, so every revision goes through a journal-emitting dataset mutator
   or a recording campaign mutator, and each moves a generation: the version
   tokens in every key guarantee a hit is proof of reusability, with no
   manual invalidation anywhere.
3. **Shared immutables** — a :class:`PipelineOutcome` is frozen, its
   collections are tuples and read-only mappings, and everything inside
   (report records and their evidence, feasibility analyses, crossings,
   adjacencies, routers) is immutable.  So the cache hands the same objects
   to every run that hits the same keys, and the runtime refuses any write
   through an outcome that could reach them.

Execution is serial: :meth:`PipelineEngine.run` visits the nodes one at a
time, the per-IXP ones in ``ixp_ids`` order.  The per-IXP layer is a small
share of a realistic run (the global traceroute node dominates), so the
engine starts no threads or processes of its own.
"""

from __future__ import annotations

import enum
import hashlib
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass
from threading import Lock
from types import MappingProxyType
from typing import Callable, NoReturn, Sequence, TypeVar, cast

from repro.config import InferenceConfig, config_fingerprint
from repro.datasources.merge import (
    DATASET_ACCESSOR_DOMAINS,
    DOMAIN_AS_FACILITIES,
    DOMAIN_CAPACITIES,
    DOMAIN_FACILITY_LOCATIONS,
    DOMAIN_INTERFACES,
    DOMAIN_IXP_FACILITIES,
)
from repro.core.baseline import RTTBaseline
from repro.core.inputs import InferenceInputs
from repro.core.step1_port_capacity import PortCapacityStep
from repro.core.step2_rtt import RTTCampaignSummary, RTTMeasurementStep
from repro.core.step3_colocation import ColocationRTTStep, FeasibleFacilityAnalysis
from repro.core.step4_multi_ixp import MultiIXPRouter, MultiIXPRouterStep
from repro.core.step5_private_links import PrivateConnectivityStep, PrivateNeighbours
from repro.core.types import InferenceReport, InferenceResult
from repro.exceptions import InferenceError, UndeclaredReadError
from repro.geo.delay_model import DelayModel
from repro.geo.distindex import GEO_ACCESSOR_DOMAINS, GeoDistanceIndex
from repro.traixroute.detector import (
    CORPUS_DETECTION_DOMAINS,
    CORPUS_DETECTION_INPUTS,
    CorpusDetectionIndex,
    IXPCrossing,
    PrivateAdjacency,
)

#: A node's contribution to a report: the final record of every key it
#: wrote, in first-write order.
_Delta = Mapping[tuple[str, str], InferenceResult]
#: The feasibility analyses Step 3 contributes, keyed by (IXP, interface).
_FeasibleMap = dict[tuple[str, str], FeasibleFacilityAnalysis]
#: What the traceroute node hands on: the crossings and private adjacencies,
#: the multi-IXP routers identified from them and the private-neighbour table.
_Evidence = tuple[tuple[IXPCrossing, ...], tuple[PrivateAdjacency, ...],
                  tuple[MultiIXPRouter, ...], PrivateNeighbours]
#: What a report-writing node returns besides its writes to the report.
_T = TypeVar("_T")


@dataclass(frozen=True)
class PipelineOutcome:
    """Everything a pipeline run produced.

    Frozen, with tuple and read-only mapping fields: the crossings,
    adjacencies and routers are the step cache's own tuples, and every
    object inside is immutable (equivalence contract 3).
    """

    ixp_ids: tuple[str, ...]
    report: InferenceReport
    baseline_report: InferenceReport
    rtt_summary: RTTCampaignSummary
    feasible: Mapping[tuple[str, str], FeasibleFacilityAnalysis]
    crossings: tuple[IXPCrossing, ...]
    private_adjacencies: tuple[PrivateAdjacency, ...]
    multi_ixp_routers: tuple[MultiIXPRouter, ...]

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
        Only these enter its cache key, so this is enforced at run time:
        the node sees a projection of the config holding these fields alone.
    requires:
        Upstream nodes whose results feed this node.  A ``GLOBAL`` node
        requiring a ``PER_IXP`` node depends on that node at *every* studied
        IXP.
    provides:
        What the node contributes to the assembled
        :class:`PipelineOutcome` or hands to the nodes that require it
        (documentation and introspection).
    studied_set_sensitive:
        Whether a ``GLOBAL`` node's result depends on *which* IXPs are
        studied.  The traceroute observables scan the whole corpus
        regardless, so they declare ``False`` and are shared across runs
        over different IXP subsets.  Ignored for ``PER_IXP`` nodes.
    data_domains:
        The :class:`~repro.datasources.merge.ObservedDataset` domains the
        node reads (see ``DATASET_DOMAINS``).  Only these domains'
        generation stamps enter its cache key, so like ``config_fields``
        this is enforced at run time: the node's dataset and geo index
        expose only the accessors whose domains are all declared here
        (``DATASET_ACCESSOR_DOMAINS``, ``GEO_ACCESSOR_DOMAINS``).
    data_inputs:
        The :class:`~repro.core.inputs.InferenceInputs` members (beyond the
        dataset) whose :meth:`~repro.versioning.Versioned.version_token`
        enters the node's cache key — ``"ping_result"``, ``"corpus"`` and/or
        ``"prefix2as"``; the node's inputs view holds no other.  The alias
        resolver is world-backed and immutable, so no node declares it: only
        the traceroute node reads it, from the bundle itself.
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
        provides=(
            "crossings", "private_adjacencies", "identified_routers", "private_neighbours"),
        studied_set_sensitive=False,
        data_domains=CORPUS_DETECTION_DOMAINS,
        data_inputs=CORPUS_DETECTION_INPUTS,
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
        # Step 5 reads no routers, but it reads the report Step 4 wrote.
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
    """Shared store of step-node results: one live result per node identity.

    The cache is safe to share across configurations, sweep runs and
    journalled dataset revisions over *one* inputs bundle:
    the key of every entry already encodes everything that may legally
    influence the result (declared config fields, the version tokens of the
    declared data, and upstream keys), so a hit is a proof of reusability.
    It is **not** safe to share across different inputs bundles — the bundle
    identity is deliberately not part of the key because an engine is bound
    to one bundle for its lifetime.

    Each entry sits in its node's *slot*: the key without the data version
    tokens (node name, scope token, config fingerprint and the parents'
    slots), so a slot names one node of one configuration over one studied
    set.  The slot holds ``(key, value)``; a lookup hits only when the stored
    key equals the run's key, and a miss overwrites the slot.  Every data
    token is a generation of the engine's one inputs bundle, and generations
    only grow (:mod:`repro.versioning` invariant 1), so a superseded key can
    never be computed again: dropping its result loses no hit.  So the
    cache's size is bounded by the configurations and studied sets callers
    ran, not by the revisions they went through.

    Safe to share between concurrent caller threads: lookups and stores are
    serialised by a lock.  A store whose key equals the slot's stored key
    keeps the stored value (concurrent misses compute duplicates, idempotent
    by construction, and the first store wins); any other store replaces
    it.  A racing run over older tokens can at worst cost a later
    recompute, never a wrong hit.
    """

    def __init__(self) -> None:
        self._entries: dict[str, tuple[str, object]] = {}
        # Serialises lookups and stores from concurrent caller threads.
        self._lock = Lock()
        self.stats: dict[str, CacheStats] = {}

    def get_or_compute(
        self, label: str, slot: str, key: str, compute: Callable[[], object]
    ) -> object:
        """The value cached for ``key`` in ``slot``, computing (and storing)
        it if the slot holds another key or nothing."""
        with self._lock:
            stats = self.stats.setdefault(label, CacheStats())
            entry = self._entries.get(slot)
            if entry is not None and entry[0] == key:
                stats.hits += 1
                return entry[1]
        value = compute()
        with self._lock:
            stats.misses += 1
            entry = self._entries.get(slot)
            if entry is not None and entry[0] == key:
                return entry[1]
            self._entries[slot] = (key, value)
            return value

    def clear(self) -> None:
        """Drop every entry and every hit/miss count."""
        with self._lock:
            self._entries.clear()
            self.stats.clear()

    def __len__(self) -> int:
        """The number of live slots."""
        return len(self._entries)


# --------------------------------------------------------------------- #
# Report deltas
# --------------------------------------------------------------------- #
class _RecordingReport(InferenceReport):
    """A view of a run's report that collects the records stored through it.

    The view shares the report's results and key indexes, so a step run
    through it reads and writes the run's report itself, while ``written``
    keeps the last record stored under each key, in first-write order: the
    step's delta.
    """

    def __init__(self, report: InferenceReport) -> None:
        # No super().__init__(): that would start an empty report.
        self._results = report._results
        self._as_index = report._as_index
        self._ixp_index = report._ixp_index
        self.written: dict[tuple[str, str], InferenceResult] = {}

    def _store(self, key: tuple[str, str], result: InferenceResult) -> InferenceResult:
        self.written[key] = result
        return super()._store(key, result)


# --------------------------------------------------------------------- #
# Capability views
# --------------------------------------------------------------------- #
class _View:
    """The members one node declared; reading any other raises.

    The declared members sit in the instance dict, so reading one costs one
    attribute load.  ``__getattr__`` runs only for a name the view lacks.
    """

    def __init__(self, node: str, owner: str, members: Mapping[str, object]) -> None:
        self.__dict__.update(members)
        self._node = node
        self._owner = owner

    def __getattr__(self, name: str) -> NoReturn:
        raise UndeclaredReadError(self._node, f"{self._owner}.{name}")


def _bound(
    real: object, table: Mapping[str, tuple[str, ...]], declared: frozenset[str]
) -> dict[str, object]:
    """The bound accessors of ``real`` whose domains are all declared."""
    return {
        name: getattr(real, name)
        for name, domains in table.items()
        if declared.issuperset(domains)
    }


def _inputs_view(
    spec: StepSpec, inputs: InferenceInputs, geo_index: GeoDistanceIndex
) -> InferenceInputs:
    """What node ``spec`` may read of ``inputs``.

    The view holds a dataset view, a geo view over ``geo_index`` and the
    declared versioned inputs.
    """
    declared = frozenset(spec.data_domains)
    members: dict[str, object] = {
        "dataset": _View(spec.name, "dataset",
                         _bound(inputs.dataset, DATASET_ACCESSOR_DOMAINS, declared)),
        "geo_index": _View(spec.name, "geo_index",
                           _bound(geo_index, GEO_ACCESSOR_DOMAINS, declared)),
    }
    for name in spec.data_inputs:
        members[name] = getattr(inputs, name)
    return cast(InferenceInputs, _View(spec.name, "inputs", members))


# --------------------------------------------------------------------- #
# Fingerprint keys
# --------------------------------------------------------------------- #
class _KeyResolver:
    """Derives (and memoises) the slot and cache key of every node for one run.

    A slot digests the node name, its scope token (the IXP id, or the studied
    tuple for global nodes), the fingerprint of its declared config fields
    and the slots of its parents: the node's identity, which no revision
    changes.  A key digests the slot, the version tokens of the node's
    declared data (dataset domains and inputs-bundle members) and the keys
    of its parents — so a key matches exactly when nothing that may legally
    influence the node's result differs.  Version tokens are sampled once
    per run (the engine contract forbids mutating the inputs mid-run); each
    :meth:`PipelineEngine.run` call builds its own resolver.
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
        self._memo: dict[tuple[str, str | None], tuple[str, str]] = {}
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

    def key(self, name: str, ixp_id: str | None = None) -> tuple[str, str]:
        """The node's ``(slot, key)``."""
        memo_key = (name, ixp_id)
        cached = self._memo.get(memo_key)
        if cached is not None:
            return cached
        spec = _SPECS[name]
        parents: list[tuple[str, str]] = []
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
        slot = _digest((name, scope_token, fingerprint, [parent[0] for parent in parents]))
        key = _digest((slot, self._data_token(spec), [parent[1] for parent in parents]))
        self._memo[memo_key] = (slot, key)
        return slot, key


def _digest(payload: object) -> str:
    """The hex SHA-256 of ``payload``'s repr."""
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------- #
class PipelineEngine:
    """Executes the declared step graph over one inputs bundle.

    One engine (hence one :class:`StepResultCache`, one
    :class:`GeoDistanceIndex`, one :class:`DelayModel`) serves every
    configuration run over the same inputs; :class:`SweepRunner` and
    :attr:`repro.study.RemotePeeringStudy.outcome` are thin layers on top of
    :meth:`run`.

    :meth:`run` is serial and builds one report: Step 1 for each studied IXP
    in ``ixp_ids`` order, then Steps 2 and 3 and the baseline for each, then
    the global nodes.  A failing step raises on its first attempt; a pure
    computation that raised once would raise again.  Each node but the
    traceroute observables computes through its capability views: the
    inputs views are built once per engine, a config projection on each
    miss.  The engine starts no threads; the shared cache and the lazily
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
        self._views = {
            name: _inputs_view(spec, inputs, self.geo_index) for name, spec in _SPECS.items()
        }
        # Per-path corpus detection, maintained incrementally across
        # journalled prefix revisions (created on the first traceroute node);
        # the lock makes the lazy creation build-once when concurrent caller
        # threads run the engine.
        self._corpus_detection: CorpusDetectionIndex | None = None
        self._detection_lock = Lock()

    # ------------------------------------------------------------------ #
    def run(self, config: InferenceConfig, ixp_ids: Sequence[str]) -> PipelineOutcome:
        """Run every enabled step for the given IXPs under one configuration.

        Raises :class:`InferenceError` for an empty ``ixp_ids``, naming
        every id the inputs' dataset does not know and every id given more
        than once.
        """
        if not ixp_ids:
            raise InferenceError("at least one IXP id is required")
        ixp_ids = tuple(ixp_ids)
        known = set(self.inputs.dataset.ixp_ids())
        counts = Counter(ixp_ids)
        unknown = [ixp_id for ixp_id in counts if ixp_id not in known]
        duplicates = [ixp_id for ixp_id, count in counts.items() if count > 1]
        problems: list[str] = []
        if unknown:
            problems.append(f"unknown IXP ids: {', '.join(unknown)}")
        if duplicates:
            problems.append(f"duplicate IXP ids: {', '.join(duplicates)}")
        if problems:
            raise InferenceError("; ".join(problems))
        resolver = _KeyResolver(config, ixp_ids, self.inputs)
        cache = self.cache

        # The report-writing nodes go in the monolithic order (Step 1 per
        # IXP, Step 3 per IXP, Step 4, Step 5), so the report is
        # bit-identical to the seed single-pass pipeline's.  Each miss
        # computes through the node's capability views.
        reads = self._capabilities
        report = InferenceReport()
        for ixp_id in ixp_ids:
            self._write(report, "step1", resolver.key("step1", ixp_id),
                        lambda view: self._compute_step1(
                            *reads("step1", config), ixp_id, view))

        baseline = InferenceReport()
        rtt_summary = RTTCampaignSummary()
        feasible: _FeasibleMap = {}
        for ixp_id in ixp_ids:
            summary = cast(RTTCampaignSummary, cache.get_or_compute(
                "step2", *resolver.key("step2", ixp_id),
                lambda: self._compute_step2(*reads("step2", config), ixp_id)))
            rtt_summary.merge_from(summary)
            feasible.update(self._write(
                report, "step3", resolver.key("step3", ixp_id),
                lambda view: self._compute_step3(
                    *reads("step3", config), ixp_id, view, summary)))
            baseline._results.update(cast(_Delta, cache.get_or_compute(
                "baseline", *resolver.key("baseline", ixp_id),
                lambda: self._compute_baseline(
                    *reads("baseline", config), ixp_id, summary))))

        crossings, adjacencies, identified, neighbours = cast(_Evidence, cache.get_or_compute(
            "traceroute", *resolver.key("traceroute"), self._compute_traceroute))
        routers = self._write(
            report, "step4", resolver.key("step4"),
            lambda view: self._compute_step4(
                *reads("step4", config), ixp_ids, view, identified))
        self._write(
            report, "step5", resolver.key("step5"),
            lambda view: self._compute_step5(
                *reads("step5", config), ixp_ids, view, neighbours, feasible))

        return PipelineOutcome(
            ixp_ids=ixp_ids,
            report=report,
            baseline_report=baseline,
            rtt_summary=rtt_summary,
            feasible=MappingProxyType(feasible),
            crossings=crossings,
            private_adjacencies=adjacencies,
            multi_ixp_routers=routers,
        )

    def _capabilities(
        self, name: str, config: InferenceConfig
    ) -> tuple[InferenceConfig, InferenceInputs]:
        """What node ``name`` may read: a projection of ``config`` onto its
        declared fields, and its inputs view."""
        fields = {field: getattr(config, field) for field in _SPECS[name].config_fields}
        return cast(InferenceConfig, _View(name, "config", fields)), self._views[name]

    def _write(
        self,
        report: InferenceReport,
        label: str,
        key: tuple[str, str],
        step: Callable[[InferenceReport], _T],
    ) -> _T:
        """Bring one report-writing node's writes into the run's report.

        On a miss, ``step`` runs on ``report`` through a recording view, and
        the records it stored are cached with the step's return value.  On a
        hit, those shared records are inserted into ``report`` in one
        ordered update.  Either way the step's return value comes back.
        """
        computed = False

        def compute() -> tuple[_Delta, _T]:
            nonlocal computed
            computed = True
            view = _RecordingReport(report)
            result = step(view)
            return view.written, result

        delta, result = cast(
            "tuple[_Delta, _T]", self.cache.get_or_compute(label, *key, compute))
        if not computed:
            report._results.update(delta)
        return result

    # ------------------------------------------------------------------ #
    # Per-IXP nodes (Steps 1-3 + baseline)
    # ------------------------------------------------------------------ #
    def _compute_step1(
        self,
        config: InferenceConfig,
        inputs: InferenceInputs,
        ixp_id: str,
        report: InferenceReport,
    ) -> None:
        if config.enable_step1_port_capacity:
            PortCapacityStep(inputs).run([ixp_id], report)
        else:
            # Make sure every member interface is tracked even if Step 1 is
            # off (the monolith's _register_all branch).
            for interface_ip, asn in inputs.dataset.interfaces_of_ixp(ixp_id).items():
                report.ensure(ixp_id, interface_ip, asn)

    def _compute_step2(
        self, config: InferenceConfig, inputs: InferenceInputs, ixp_id: str
    ) -> RTTCampaignSummary:
        return RTTMeasurementStep(inputs, config).run([ixp_id])

    def _compute_step3(
        self,
        config: InferenceConfig,
        inputs: InferenceInputs,
        ixp_id: str,
        report: InferenceReport,
        summary: RTTCampaignSummary,
    ) -> _FeasibleMap:
        if config.enable_step3_colocation_rtt:
            step3 = ColocationRTTStep(inputs, config, self.delay_model)
            return step3.run([ixp_id], report, summary)
        return {}

    def _compute_baseline(
        self,
        config: InferenceConfig,
        inputs: InferenceInputs,
        ixp_id: str,
        summary: RTTCampaignSummary,
    ) -> _Delta:
        # A standalone report: every record in it is the baseline's delta.
        return dict(RTTBaseline(inputs, config).run([ixp_id], summary).results)

    # ------------------------------------------------------------------ #
    # Global nodes (traceroute observables, Steps 4-5)
    # ------------------------------------------------------------------ #
    def _compute_traceroute(self) -> _Evidence:
        """The detection results and the evidence built from them.

        Built even when a run disables Steps 4 and 5: the node's key does
        not see those switches, and the result serves every configuration.
        """
        if self._corpus_detection is None:
            # Double-checked lazy creation: two concurrent runs must share
            # one incrementally maintained index, not race two into place.
            with self._detection_lock:
                if self._corpus_detection is None:
                    self._corpus_detection = CorpusDetectionIndex(
                        self.inputs.dataset, self.inputs.prefix2as, self.inputs.corpus)
        crossings, adjacencies = self._corpus_detection.results()
        routers = MultiIXPRouterStep(self.inputs).identify_routers(crossings)
        neighbours = PrivateNeighbours(adjacencies, self.inputs.alias_resolver)
        return tuple(crossings), tuple(adjacencies), tuple(routers), neighbours

    def _compute_step4(
        self,
        config: InferenceConfig,
        inputs: InferenceInputs,
        ixp_ids: tuple[str, ...],
        report: InferenceReport,
        routers: tuple[MultiIXPRouter, ...],
    ) -> tuple[MultiIXPRouter, ...]:
        if config.enable_step4_multi_ixp:
            step4 = MultiIXPRouterStep(inputs, config)
            return tuple(step4.run(list(ixp_ids), report, routers))
        return ()

    def _compute_step5(
        self,
        config: InferenceConfig,
        inputs: InferenceInputs,
        ixp_ids: tuple[str, ...],
        report: InferenceReport,
        neighbours: PrivateNeighbours,
        feasible: _FeasibleMap,
    ) -> None:
        if config.enable_step5_private_links:
            step5 = PrivateConnectivityStep(inputs, config)
            step5.run(list(ixp_ids), report, neighbours, feasible)


class SweepRunner:
    """Runs a list of config scenarios through one shared engine.

    Every scenario reuses every step result whose fingerprint key is
    unchanged — a fig. 9-style ablation that only toggles Step 4 reuses
    Steps 1-3, the traceroute observables and the baseline verbatim, paying
    only for Steps 4/5 and one dict update per reused delta.
    """

    def __init__(self, engine: PipelineEngine) -> None:
        self.engine = engine

    def run(
        self, configs: Sequence[InferenceConfig], ixp_ids: Sequence[str]
    ) -> list[PipelineOutcome]:
        """One :class:`PipelineOutcome` per config, in input order."""
        return [self.engine.run(config, ixp_ids) for config in configs]
