"""Dynamic cross-check: record what a real pipeline run actually reads.

The static rule (:mod:`repro.contracts.stepdecl`) proves properties of the
*source*; this module checks the same contract against an *execution*.  It
runs a genuine :class:`~repro.core.engine.PipelineEngine` whose inputs
bundle, dataset, geo index and config are wrapped in observation-only
recording proxies, and asserts that the set of config fields, dataset
domains and versioned inputs each step node touched is a **subset** of the
node's ``STEP_GRAPH`` declaration.  (The reverse direction — declarations
never exercised — is the static rule's job: a single run over a small world
legitimately skips branches that other datasets take.)

The proxies observe and forward; they never copy, coerce or reorder, and
both engines run serially, so the proxied run's outcome must be
bit-identical to an unproxied run over the same inputs — the harness
returns both outcomes so callers can assert equality.  Accesses are mapped
to domains through the same tables (:mod:`repro.contracts.accessors`) the
static rule uses, so the two halves cannot disagree about what an access
means.

Identity is preserved across the proxy layer where the pipeline checks it:
``inputs.dataset``, ``inputs.geo_index`` and ``geo_index.dataset`` all
return the *same* proxy objects, so the engine's and the steps'
``geo_index.dataset is not inputs.dataset`` guards behave exactly as on the
real objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable, Sequence

from repro.config import InferenceConfig
from repro.contracts.accessors import (
    DATASET_ACCESSOR_DOMAINS,
    DATASET_FIELD_DOMAINS,
    DATASET_NEUTRAL_MEMBERS,
    GEO_ACCESSOR_DOMAINS,
    GEO_NEUTRAL_MEMBERS,
    NEUTRAL_INPUT_MEMBERS,
    STEP_IMPLEMENTATIONS,
    VERSIONED_INPUT_MEMBERS,
)
from repro.contracts.model import ContractCheckError, Violation
from repro.core.engine import STEP_GRAPH, PipelineEngine, PipelineOutcome
from repro.core.inputs import InferenceInputs

_CONFIG_FIELD_NAMES = frozenset(f.name for f in fields(InferenceConfig))


@dataclass
class ObservedAccesses:
    """What one step node actually read during the recorded run."""

    config: set[str] = field(default_factory=set)
    domains: set[str] = field(default_factory=set)
    inputs: set[str] = field(default_factory=set)


class _Recorder:
    """Per-node access log, active only inside wrapped compute calls."""

    def __init__(self) -> None:
        self.node: str | None = None
        self.observed: dict[str, ObservedAccesses] = {}

    def start(self, node: str) -> None:
        if self.node is not None:  # pragma: no cover - engine never nests
            raise ContractCheckError(
                f"nested compute recording: {node} inside {self.node}"
            )
        self.node = node
        self.observed.setdefault(node, ObservedAccesses())

    def stop(self) -> None:
        self.node = None

    def config_read(self, name: str) -> None:
        if self.node is not None:
            self.observed[self.node].config.add(name)

    def domains_read(self, domains: tuple[str, ...]) -> None:
        if self.node is not None:
            self.observed[self.node].domains.update(domains)

    def input_read(self, name: str) -> None:
        if self.node is not None:
            self.observed[self.node].inputs.add(name)


class _RecordingMethod:
    """A bound accessor that records its table domains, then forwards."""

    def __init__(
        self,
        recorder: _Recorder,
        domains: tuple[str, ...],
        bound: Callable[..., Any],
    ) -> None:
        self._recorder = recorder
        self._domains = domains
        self._bound = bound

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        self._recorder.domains_read(self._domains)
        return self._bound(*args, **kwargs)


class _DatasetProxy:
    """ObservedDataset stand-in mapping member reads to domains."""

    def __init__(self, real: Any, recorder: _Recorder) -> None:
        object.__setattr__(self, "_real", real)
        object.__setattr__(self, "_recorder", recorder)

    def __getattr__(self, name: str) -> Any:
        real = object.__getattribute__(self, "_real")
        recorder = object.__getattribute__(self, "_recorder")
        accessor = DATASET_ACCESSOR_DOMAINS.get(name)
        if accessor is not None:
            return _RecordingMethod(recorder, accessor, getattr(real, name))
        domains = DATASET_FIELD_DOMAINS.get(name)
        if domains is not None:
            recorder.domains_read(domains)
            return getattr(real, name)
        if name in DATASET_NEUTRAL_MEMBERS:
            return getattr(real, name)
        raise ContractCheckError(
            f"dynamic cross-check: unmapped ObservedDataset member {name!r} — "
            "extend the tables in repro.contracts.accessors"
        )


class _GeoIndexProxy:
    """GeoDistanceIndex stand-in recording per-accessor domain reads."""

    def __init__(
        self, real: Any, dataset_proxy: _DatasetProxy, recorder: _Recorder
    ) -> None:
        object.__setattr__(self, "_real", real)
        object.__setattr__(self, "_dataset_proxy", dataset_proxy)
        object.__setattr__(self, "_recorder", recorder)

    def __getattr__(self, name: str) -> Any:
        real = object.__getattribute__(self, "_real")
        recorder = object.__getattribute__(self, "_recorder")
        accessor = GEO_ACCESSOR_DOMAINS.get(name)
        if accessor is not None:
            return _RecordingMethod(recorder, accessor, getattr(real, name))
        if name == "dataset":
            # Identity-preserving: the steps' `geo_index.dataset is not
            # inputs.dataset` guards must see the same proxy object.
            return object.__getattribute__(self, "_dataset_proxy")
        if name in GEO_NEUTRAL_MEMBERS:
            return getattr(real, name)
        raise ContractCheckError(
            f"dynamic cross-check: unmapped GeoDistanceIndex member {name!r} — "
            "extend the tables in repro.contracts.accessors"
        )


class _InputsProxy:
    """InferenceInputs stand-in routing members through the proxies."""

    def __init__(
        self,
        real: InferenceInputs,
        dataset_proxy: _DatasetProxy,
        geo_proxy: _GeoIndexProxy,
        recorder: _Recorder,
    ) -> None:
        object.__setattr__(self, "_real", real)
        object.__setattr__(self, "_dataset_proxy", dataset_proxy)
        object.__setattr__(self, "_geo_proxy", geo_proxy)
        object.__setattr__(self, "_recorder", recorder)

    def __getattr__(self, name: str) -> Any:
        real = object.__getattribute__(self, "_real")
        recorder = object.__getattribute__(self, "_recorder")
        if name in VERSIONED_INPUT_MEMBERS:
            recorder.input_read(name)
            return getattr(real, name)
        if name == "dataset":
            return object.__getattribute__(self, "_dataset_proxy")
        if name == "geo_index":
            return object.__getattribute__(self, "_geo_proxy")
        if name in NEUTRAL_INPUT_MEMBERS:
            return getattr(real, name)
        # Helper methods (e.g. interfaces_for) re-bound to the proxy, so
        # their internal dataset/input reads are recorded too.
        member = getattr(type(real), name, None)
        if callable(member):
            return member.__get__(self, type(real))
        raise ContractCheckError(
            f"dynamic cross-check: unmapped InferenceInputs member {name!r} — "
            "extend the tables in repro.contracts.accessors"
        )


class _ConfigProxy:
    """InferenceConfig stand-in recording per-field reads."""

    def __init__(self, real: InferenceConfig, recorder: _Recorder) -> None:
        object.__setattr__(self, "_real", real)
        object.__setattr__(self, "_recorder", recorder)

    def __getattr__(self, name: str) -> Any:
        real = object.__getattribute__(self, "_real")
        if name in _CONFIG_FIELD_NAMES:
            object.__getattribute__(self, "_recorder").config_read(name)
        return getattr(real, name)


@dataclass
class DynamicCrossCheck:
    """The outcome of one recorded run against the declarations."""

    observed: dict[str, ObservedAccesses]
    violations: list[Violation]
    outcome: PipelineOutcome
    reference_outcome: PipelineOutcome

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def bit_identical(self) -> bool:
        """Whether the proxied run reproduced the unproxied outcome exactly."""
        return self.outcome == self.reference_outcome


def _compare(observed: dict[str, ObservedAccesses]) -> list[Violation]:
    violations: list[Violation] = []

    def emit(node: str, kind: str, detail: str, message: str) -> None:
        violations.append(
            Violation(
                rule="dynamic",
                kind=kind,
                path="src/repro/core/engine.py",
                line=0,
                context=node,
                detail=detail,
                message=message,
            )
        )

    for spec in STEP_GRAPH:
        accesses = observed.get(spec.name)
        if accesses is None:
            continue  # node disabled / not reached in this run
        for name in sorted(accesses.config - set(spec.config_fields)):
            emit(
                spec.name,
                "undeclared-config-read",
                name,
                f"step {spec.name!r} read config field {name!r} at runtime but "
                "does not declare it in STEP_GRAPH config_fields",
            )
        for domain in sorted(accesses.domains - set(spec.data_domains)):
            emit(
                spec.name,
                "undeclared-domain-read",
                domain,
                f"step {spec.name!r} read dataset domain {domain!r} at runtime "
                "but does not declare it in STEP_GRAPH data_domains",
            )
        for name in sorted(accesses.inputs - set(spec.data_inputs)):
            emit(
                spec.name,
                "undeclared-input-read",
                name,
                f"step {spec.name!r} read versioned input {name!r} at runtime "
                "but does not declare it in STEP_GRAPH data_inputs",
            )
    return violations


def run_dynamic_cross_check(
    inputs: InferenceInputs,
    config: InferenceConfig,
    ixp_ids: Sequence[str],
) -> DynamicCrossCheck:
    """Run the pipeline twice — recorded and plain — and diff the contract.

    Both runs are serial over the same (unmutated) inputs, so the recorded
    outcome must equal the reference outcome exactly; callers should assert
    :attr:`DynamicCrossCheck.bit_identical` alongside
    :attr:`DynamicCrossCheck.ok`.
    """
    recorder = _Recorder()
    dataset_proxy = _DatasetProxy(inputs.dataset, recorder)
    geo_proxy = _GeoIndexProxy(inputs.geo_index, dataset_proxy, recorder)
    inputs_proxy = _InputsProxy(inputs, dataset_proxy, geo_proxy, recorder)
    config_proxy = _ConfigProxy(config, recorder)

    engine = PipelineEngine(inputs_proxy, geo_index=geo_proxy)
    for node, method_name in STEP_IMPLEMENTATIONS.items():
        original = getattr(engine, method_name)
        setattr(
            engine,
            method_name,
            _wrap_compute(node, original, recorder, config_proxy),
        )
    outcome = engine.run(config, list(ixp_ids))

    reference = PipelineEngine(inputs).run(config, list(ixp_ids))
    return DynamicCrossCheck(
        observed=recorder.observed,
        violations=_compare(recorder.observed),
        outcome=outcome,
        reference_outcome=reference,
    )


def _wrap_compute(
    node: str,
    original: Callable[..., Any],
    recorder: _Recorder,
    config_proxy: _ConfigProxy,
) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        recorder.start(node)
        try:
            if args and isinstance(args[0], InferenceConfig):
                # Every compute but the traceroute node takes the config as
                # its first argument; substitute the recording proxy.
                return original(config_proxy, *args[1:], **kwargs)
            return original(*args, **kwargs)
        finally:
            recorder.stop()

    return wrapper
