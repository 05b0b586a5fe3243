"""The benchmark's three workloads over a default-scale study.

Each workload is a closed loop with one client: :meth:`Workload.operation`
runs one timed operation, :meth:`Workload.check` verifies its output
untimed, and :meth:`Workload.counters` reads, also untimed, the layer
counters before and after each traced operation.  Everything goes through
the library's public entry points; engines are built exactly as
``RemotePeeringStudy.engine`` builds them (no executor or worker
arguments), so every run is single-process and serial.
"""

from __future__ import annotations

import hashlib
import ipaddress
import random
from dataclasses import replace

import repro.validation.metrics as validation_metrics
from repro.config import ExperimentConfig, GeneratorConfig, InferenceConfig
from repro.core.engine import PipelineEngine, PipelineOutcome, SweepRunner
from repro.core.inputs import InferenceInputs
from repro.core.types import InferenceReport
from repro.datasources.merge import ObservedDataset
from repro.datasources.prefix2as import Prefix2ASMap
from repro.experiments import fig9, fig11, table4
from repro.geo.coordinates import GeoPoint
from repro.geo.distindex import GeoDistanceIndex
from repro.study import RemotePeeringStudy

DEFAULT_SEED = 20180901

#: Classification digest of the default-seed study (see :func:`report_digest`).
GOLDEN_DIGESTS: dict[int, str] = {
    DEFAULT_SEED: "bfa723cad351fea6c8fc5e030abcfb30cb95e32826ead7ff12d72caec59f0de0",
}


def study_config(seed: int) -> ExperimentConfig:
    """The ``default``-scale configuration with the world seeded by ``seed``."""
    return ExperimentConfig(generator=GeneratorConfig(seed=seed))


def report_digest(report: InferenceReport) -> str:
    """sha256 over every (IXP, interface, ASN, classification, step) result."""
    digest = hashlib.sha256()
    for (ixp_id, interface_ip), result in sorted(report.results.items()):
        step = result.step.name if result.step is not None else "-"
        digest.update(
            f"{ixp_id}|{interface_ip}|{result.asn}|"
            f"{result.classification.name}|{step}\n".encode())
    return digest.hexdigest()


def evaluate(study: RemotePeeringStudy, report: InferenceReport) -> tuple[float, float]:
    """(accuracy, coverage) of a report on the study's validation test subset."""
    validation = study.validation
    metrics = validation_metrics.evaluate_report(
        report, validation, ixp_ids=validation.test_ixps())
    return metrics.accuracy, metrics.coverage


def layer_counters(
    prefix2as: Prefix2ASMap, engine: PipelineEngine | None = None
) -> dict[str, float]:
    """Cumulative layer counters of a prefix map and the engine reading it.

    Counters of an engine that does not exist yet are left out, so they
    read as 0.  Reads the engine's private corpus-detection index, so it is
    only ever called outside timed regions.
    """
    counters: dict[str, float] = {
        "netindex.incremental_patches": prefix2as.incremental_patches,
        "netindex.full_rebuilds": prefix2as.full_rebuilds,
    }
    if engine is None:
        return counters
    stats = engine.cache.stats.values()
    counters["core.cache_hits"] = sum(s.hits for s in stats)
    counters["core.cache_misses"] = sum(s.misses for s in stats)
    counters["geo.incremental_evictions"] = engine.geo_index.incremental_evictions
    counters["geo.wholesale_invalidations"] = engine.geo_index.wholesale_invalidations
    detection = engine._corpus_detection
    if detection is not None:
        counters["traixroute.full_scans"] = detection.full_scans
        counters["traixroute.paths_redetected"] = detection.paths_redetected
    return counters


def dataset_copy(dataset: ObservedDataset) -> ObservedDataset:
    """A cold structural copy of the observed dataset's public fields."""
    return ObservedDataset(
        ixp_prefixes=dict(dataset.ixp_prefixes),
        interface_ixp=dict(dataset.interface_ixp),
        interface_asn=dict(dataset.interface_asn),
        ixp_facilities={k: set(v) for k, v in dataset.ixp_facilities.items()},
        as_facilities={k: set(v) for k, v in dataset.as_facilities.items()},
        facility_locations=dict(dataset.facility_locations),
        port_capacities=dict(dataset.port_capacities),
        min_physical_capacity=dict(dataset.min_physical_capacity),
        traffic_levels=dict(dataset.traffic_levels),
        user_populations=dict(dataset.user_populations),
        customer_cone_sizes=dict(dataset.customer_cone_sizes),
        countries=dict(dataset.countries),
    )


def fresh_engine(
    study: RemotePeeringStudy,
    dataset: ObservedDataset | None = None,
    prefix2as: Prefix2ASMap | None = None,
) -> PipelineEngine:
    """An engine over the study's inputs with a fresh geo index and cache.

    Built the way ``RemotePeeringStudy.engine`` builds one; ``dataset`` and
    ``prefix2as`` replace the study's own when given.
    """
    dataset = study.dataset if dataset is None else dataset
    geo_index = GeoDistanceIndex(dataset)
    inputs = InferenceInputs(
        dataset=dataset,
        ping_result=study.ping_result,
        corpus=study.traceroute_corpus,
        prefix2as=study.prefix2as if prefix2as is None else prefix2as,
        alias_resolver=study.alias_resolver,
        geo_index=geo_index,
    )
    return PipelineEngine(inputs, delay_model=study.delay_model, geo_index=geo_index)


class Workload:
    """One named workload: set-up, timed operation, untimed checks."""

    name = ""
    #: Fewest timed operations per run, whatever ``--seconds`` says.
    min_operations = 1
    #: Workload-specific names of end-to-end metrics, printed beside them.
    aliases: dict[str, str] = {}

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.config = study_config(seed)
        self.accuracy = 0.0
        self.coverage = 0.0
        #: Paths in the traceroute corpus the operations detect over.
        self.corpus_paths = 0

    def setup(self) -> None:
        """Preparation before the loop (timed as ``setup_s``)."""

    def warm_up(self) -> None:
        """One untimed operation before the timed ones, if the workload needs it."""

    def prepare(self) -> None:
        """Untimed work the next operation needs, such as drawing its inputs."""

    def operation(self) -> list[PipelineOutcome]:
        """One timed operation; its outcomes, the base configuration's first."""
        raise NotImplementedError

    def check(self, outcomes: list[PipelineOutcome]) -> list[str]:
        """Failure messages for one operation's output (empty when correct)."""
        return []

    def counters(self) -> dict[str, float]:
        """Cumulative layer counters of the objects operations use.

        Read before and after each traced operation; an object the
        operation has not created yet is left out, so it reads as 0.
        """
        return {}

    def finish(self) -> list[str]:
        """Failure messages of the end-of-run checks."""
        return []


class StudyWorkload(Workload):
    """``study_default``: one fresh default-scale study per operation."""

    name = "study_default"
    aliases = {"study_s": "op_p50_s"}

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.digests: set[str] = set()
        self.study: RemotePeeringStudy | None = None

    def prepare(self) -> None:
        self.study = None  # the last study is garbage before the next one starts

    def operation(self) -> list[PipelineOutcome]:
        study = RemotePeeringStudy(self.config)
        outcome = study.outcome
        self.accuracy, self.coverage = evaluate(study, outcome.report)
        self.study = study
        return [outcome]

    def check(self, outcomes: list[PipelineOutcome]) -> list[str]:
        report = outcomes[0].report
        digest = report_digest(report)
        self.digests.add(digest)
        golden = GOLDEN_DIGESTS.get(self.seed)
        failures = []
        if golden is not None and digest != golden:
            failures.append(f"classification digest {digest} != golden {golden}")
        if len(self.digests) > 1:
            failures.append("classification digest differs between operations")
        if not report.inferred():
            failures.append("the study inferred no interface")
        return failures

    def counters(self) -> dict[str, float]:
        study = self.study
        if study is None:
            return {}
        paths = study.traceroute_corpus.paths
        self.corpus_paths = len(paths)
        return {
            "measurement.paths": len(paths),
            "measurement.hops": sum(len(path.hops) for path in paths),
            **layer_counters(study.prefix2as, study.engine),
        }


def scenario_configs(base: InferenceConfig) -> list[InferenceConfig]:
    """The base config, then every distinct fig. 9 / fig. 11 / table 4 scenario."""
    scenarios = [replace(base, **overrides) for _, overrides in fig9.ABLATION_SCENARIOS]
    scenarios += [replace(base, feasible_facility_tolerance_km=tolerance)
                  for tolerance in fig11.TOLERANCE_SWEEP_KM]
    scenarios += [replace(base, **overrides) for _, overrides in table4.AGREEMENT_SCENARIOS]
    distinct: list[InferenceConfig] = []
    for config in scenarios:
        if config not in distinct:
            distinct.append(config)
    return [base, *distinct]


class SweepWorkload(Workload):
    """``sweep_default``: the paper's scenario sweep on a fresh engine."""

    name = "sweep_default"
    aliases = {"sweep_s": "op_p50_s"}
    min_operations = 6

    def setup(self) -> None:
        self.study = study = RemotePeeringStudy(self.config)
        self.accuracy, self.coverage = evaluate(study, study.outcome.report)
        self.ixp_ids = list(study.studied_ixp_ids)
        self.corpus_paths = len(study.traceroute_corpus.paths)
        self.configs = scenario_configs(self.config.inference)
        self.engine: PipelineEngine | None = None
        self.expected_digests: list[str] = []

    def warm_up(self) -> None:
        # Also leaves every memo in the shared inputs (dataset views, the
        # prefix map's LPM table, the delay model) as each timed operation
        # will find it.
        self.expected_digests = [report_digest(o.report) for o in self.operation()]

    def prepare(self) -> None:
        self.engine = None

    def operation(self) -> list[PipelineOutcome]:
        engine = self.engine = fresh_engine(self.study)
        return SweepRunner(engine).run(self.configs, self.ixp_ids)

    def check(self, outcomes: list[PipelineOutcome]) -> list[str]:
        failures = []
        if outcomes[0].report != self.study.outcome.report:
            failures.append("fresh-engine base report differs from study.outcome.report")
        if [report_digest(o.report) for o in outcomes] != self.expected_digests:
            failures.append("scenario digests differ from the warm-up operation's")
        return failures

    def counters(self) -> dict[str, float]:
        # The prefix map is the study's, shared by every operation; the
        # engine, its cache and geo index are the operation's own.
        return layer_counters(self.study.prefix2as, self.engine)


#: Share of routed prefixes one revision re-maps.
REMAP_FRACTION = 0.01
#: Every ``HEAVY_EVERY``-th revision also removes prefixes and re-owns an
#: interface, the two edits that force a full LPM rebuild and a corpus re-scan.
HEAVY_EVERY = 5

Edit = tuple[str, tuple[object, ...]]


class RefreshWorkload(Workload):
    """``refresh_default``: journalled revisions re-run on the warm engine."""

    name = "refresh_default"
    aliases = {"refresh_p50_s": "op_p50_s", "refresh_p90_s": "op_tail_s"}
    # 100 revisions leave 10 samples beyond the reported tail, their p90.
    min_operations = 100

    def setup(self) -> None:
        self.study = study = RemotePeeringStudy(self.config)
        self.accuracy, self.coverage = evaluate(study, study.outcome.report)
        self.ixp_ids = list(study.studied_ixp_ids)
        self.corpus_paths = len(study.traceroute_corpus.paths)
        world = study.world
        # The benchmark's own model of the prefix map, updated alongside
        # every journalled edit; the cold rebuild at the end is built from it.
        self.prefixes: dict[str, int] = {
            str(ipaddress.ip_network(prefix)): asn
            for prefix, asn in [*world.routed_prefixes.items(),
                                *world.infrastructure_prefixes.items()]
        }
        self.routed = sorted(str(ipaddress.ip_network(p)) for p in world.routed_prefixes)
        self.asns = sorted(world.ases)
        self.removed: list[str] = []
        self.rng = random.Random(self.seed)
        self.revision = 0
        self.edits: list[Edit] = []
        self.last: PipelineOutcome | None = None

    def _plan(self) -> list[Edit]:
        """The next revision's edits, drawn from the seeded generator."""
        rng = self.rng
        dataset = self.study.dataset
        edits: list[Edit] = []
        live = [p for p in self.routed if p in self.prefixes]
        count = max(1, int(len(self.routed) * REMAP_FRACTION))
        for prefix in rng.sample(live, count):
            asn = rng.choice(self.asns)
            if asn != self.prefixes[prefix]:
                edits.append(("prefix_add", (prefix, asn)))
        if self.revision % HEAVY_EVERY == HEAVY_EVERY - 1:
            for prefix in self.removed:
                edits.append(("prefix_add", (prefix, rng.choice(self.asns))))
            edits.extend(("prefix_remove", (prefix,)) for prefix in rng.sample(live, 2))
            ip = rng.choice(sorted(dataset.interface_ixp))
            ixp_id = dataset.interface_ixp[ip]
            members = sorted(dataset.members_of_ixp(ixp_id))
            edits.append(("set_interface", (ip, ixp_id, rng.choice(members))))
        facilities = sorted(dataset.facility_locations)
        facility = rng.choice(facilities)
        point = dataset.facility_locations[facility]
        moved = GeoPoint(
            max(-90.0, min(90.0, point.latitude + rng.uniform(-0.5, 0.5))),
            max(-180.0, min(180.0, point.longitude + rng.uniform(-0.5, 0.5))))
        edits.append(("set_facility_location", (facility, moved)))
        asn = rng.choice(sorted(a for a, held in dataset.as_facilities.items() if held))
        held = sorted(dataset.as_facilities[asn])
        edits.append(("remove_as_facility", (asn, rng.choice(held))))
        edits.append(("add_as_facility", (asn, rng.choice(facilities))))
        return edits

    def _apply(self, edits: list[Edit]) -> None:
        """Every edit goes through a journal-emitting mutator."""
        prefix2as = self.study.prefix2as
        dataset = self.study.dataset
        for kind, args in edits:
            if kind == "prefix_add":
                prefix2as.add(*args)
            elif kind == "prefix_remove":
                prefix2as.remove(*args)
            else:
                getattr(dataset, kind)(*args)

    def _record(self, edits: list[Edit]) -> None:
        for kind, args in edits:
            if kind == "prefix_add":
                prefix, asn = args
                self.prefixes[prefix] = asn
                if prefix in self.removed:
                    self.removed.remove(prefix)
            elif kind == "prefix_remove":
                (prefix,) = args
                del self.prefixes[prefix]
                self.removed.append(prefix)

    def prepare(self) -> None:
        self.edits = self._plan()

    def operation(self) -> list[PipelineOutcome]:
        self._apply(self.edits)
        outcome = self.study.engine.run(self.config.inference, self.ixp_ids)
        self._record(self.edits)
        self.revision += 1
        self.last = outcome
        return [outcome]

    def counters(self) -> dict[str, float]:
        return layer_counters(self.study.prefix2as, self.study.engine)

    def finish(self) -> list[str]:
        """The warm engine's last outcome must equal a cold rebuild.

        The rebuild runs a fresh engine over copies of the current inputs:
        the dataset's public fields and the benchmark's own prefix model.
        """
        prefix2as = Prefix2ASMap()
        for prefix, asn in self.prefixes.items():
            prefix2as.add(prefix, asn)
        engine = fresh_engine(self.study, dataset_copy(self.study.dataset), prefix2as)
        cold = engine.run(self.config.inference, self.ixp_ids)
        last = self.last
        if last is None or (cold.report, cold.baseline_report) != (
                last.report, last.baseline_report):
            return ["warm-engine outcome differs from a cold rebuild"]
        return []


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload
    for workload in (StudyWorkload, SweepWorkload, RefreshWorkload)
}
