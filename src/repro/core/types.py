"""Result types shared by the inference steps."""

from __future__ import annotations

import enum
from collections import Counter
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

from repro.exceptions import InferenceError
from repro.versioning import GenerationGuardedIndex


class PeeringClassification(enum.Enum):
    """Outcome of the inference for one IXP member interface."""

    LOCAL = "local"
    REMOTE = "remote"
    UNKNOWN = "unknown"


class InferenceStep(enum.Enum):
    """Which part of the methodology produced a classification."""

    PORT_CAPACITY = "port-capacity"
    RTT_COLOCATION = "rtt+colocation"
    MULTI_IXP_ROUTER = "multi-ixp-router"
    PRIVATE_CONNECTIVITY = "private-connectivity"
    RTT_BASELINE = "rtt-baseline"


#: The evidence of a record that has none (read-only, so one is shared).
_NO_EVIDENCE: Mapping[str, object] = MappingProxyType({})


class InferenceResult(NamedTuple):
    """Classification of one (IXP, member interface) pair.

    Immutable, so one record can be shared by the step cache, every report
    that holds it and every outcome built from those reports.

    Attributes
    ----------
    ixp_id / interface_ip / asn:
        The peering interface being classified and its member AS.
    classification:
        Local, remote, or unknown (no inference possible).
    step:
        The methodology step that produced the classification (``None`` while
        unknown).
    evidence:
        Step-specific details (RTT, feasible facilities, router ids, votes...)
        kept for reporting and debugging: a read-only mapping whose values
        are immutable (numbers, strings and tuples).
    """

    ixp_id: str
    interface_ip: str
    asn: int
    classification: PeeringClassification = PeeringClassification.UNKNOWN
    step: InferenceStep | None = None
    evidence: Mapping[str, object] = _NO_EVIDENCE

    @property
    def is_inferred(self) -> bool:
        """True when the interface has been classified local or remote."""
        return self.classification is not PeeringClassification.UNKNOWN

    @property
    def is_remote(self) -> bool:
        """True when the interface was classified remote."""
        return self.classification is PeeringClassification.REMOTE


class InferenceReport:
    """The collection of classifications produced by a pipeline run.

    ``results`` is a read-only view: :meth:`ensure` and :meth:`classify` are
    the only writers, and neither ever drops a key, so the key count is an
    exact version token.  :meth:`results_for_as` and :meth:`results_for_ixp`
    are served from lazily built key indexes guarded by that count
    (:class:`~repro.versioning.GenerationGuardedIndex`): Step 4 queries the
    ASN index once per (router, IXP) combination and sweep reporting
    queries the IXP index once per (scenario, IXP), which on a corpus is far
    too hot for a linear scan.  The indexes store keys, so a replaced record
    stays visible without a rebuild.
    """

    def __init__(
        self, results: Mapping[tuple[str, str], InferenceResult] = MappingProxyType({})
    ) -> None:
        self._results = dict(results)
        self._as_index: GenerationGuardedIndex[dict[int, list[tuple[str, str]]]] = (
            GenerationGuardedIndex())
        self._ixp_index: GenerationGuardedIndex[dict[str, list[tuple[str, str]]]] = (
            GenerationGuardedIndex())

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._results == other._results

    @property
    def results(self) -> Mapping[tuple[str, str], InferenceResult]:
        """(IXP id, interface IP) -> result, in first-``ensure`` order."""
        return MappingProxyType(self._results)

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def ensure(self, ixp_id: str, interface_ip: str, asn: int) -> InferenceResult:
        """Get (or create as UNKNOWN) the result for one interface."""
        key = (ixp_id, interface_ip)
        result = self._results.get(key)
        if result is None:
            result = self._store(key, InferenceResult(ixp_id, interface_ip, asn))
        return result

    def classify(
        self,
        ixp_id: str,
        interface_ip: str,
        asn: int,
        classification: PeeringClassification,
        step: InferenceStep,
        evidence: Mapping[str, object] | None = None,
    ) -> InferenceResult:
        """Record a classification; the first classification of an interface wins.

        The interface's record is replaced, never changed in place, so a
        record handed out earlier keeps its value.  An interface already
        tracked keeps its ASN.
        """
        if classification is PeeringClassification.UNKNOWN:
            raise InferenceError("classify() must not be called with UNKNOWN")
        key = (ixp_id, interface_ip)
        result = self._results.get(key)
        if result is not None:
            if result.classification is not PeeringClassification.UNKNOWN:
                return result
            asn = result.asn
        return self._store(key, InferenceResult(
            ixp_id, interface_ip, asn, classification, step,
            MappingProxyType(dict(evidence)) if evidence else _NO_EVIDENCE))

    def _store(self, key: tuple[str, str], result: InferenceResult) -> InferenceResult:
        """The one place a record enters the report.

        A new key is appended; an existing key keeps its place.
        """
        self._results[key] = result
        return result

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def result_for(self, ixp_id: str, interface_ip: str) -> InferenceResult | None:
        """The result for one interface, if tracked."""
        return self._results.get((ixp_id, interface_ip))

    def classification_of(self, ixp_id: str, interface_ip: str) -> PeeringClassification:
        """Classification for one interface (UNKNOWN if never seen)."""
        result = self._results.get((ixp_id, interface_ip))
        return result.classification if result else PeeringClassification.UNKNOWN

    def _build_ixp_index(self) -> dict[str, list[tuple[str, str]]]:
        index: dict[str, list[tuple[str, str]]] = {}
        for key in self._results:
            index.setdefault(key[0], []).append(key)
        return index

    def _build_as_index(self) -> dict[int, list[tuple[str, str]]]:
        index: dict[int, list[tuple[str, str]]] = {}
        for key, result in self._results.items():
            index.setdefault(result.asn, []).append(key)
        return index

    def results_for_ixp(self, ixp_id: str) -> list[InferenceResult]:
        """All results at one IXP."""
        results = self._results
        index = self._ixp_index.get(len(results), self._build_ixp_index)
        return [results[key] for key in index.get(ixp_id, ())]

    def results_for_as(self, asn: int, ixp_id: str | None = None) -> list[InferenceResult]:
        """All results for one member AS, optionally restricted to an IXP."""
        results = self._results
        index = self._as_index.get(len(results), self._build_as_index)
        return [
            results[key] for key in index.get(asn, ())
            if ixp_id is None or key[0] == ixp_id
        ]

    def inferred(self) -> list[InferenceResult]:
        """Every classified (non-unknown) result."""
        return [r for r in self._results.values() if r.is_inferred]

    def unknown(self) -> list[InferenceResult]:
        """Every result still lacking a classification."""
        return [r for r in self._results.values() if not r.is_inferred]

    def remote_share(self, ixp_id: str | None = None) -> float:
        """Fraction of inferred interfaces classified remote."""
        pool = [
            r for r in self.inferred() if ixp_id is None or r.ixp_id == ixp_id
        ]
        if not pool:
            return 0.0
        return sum(1 for r in pool if r.is_remote) / len(pool)

    def coverage(self, ixp_id: str | None = None) -> float:
        """Fraction of tracked interfaces that received a classification."""
        pool = [
            r for r in self._results.values() if ixp_id is None or r.ixp_id == ixp_id
        ]
        if not pool:
            return 0.0
        return sum(1 for r in pool if r.is_inferred) / len(pool)

    def step_contributions(self, ixp_id: str | None = None) -> dict[InferenceStep, int]:
        """How many classifications each step contributed."""
        counter: Counter[InferenceStep] = Counter()
        for result in self.inferred():
            if ixp_id is not None and result.ixp_id != ixp_id:
                continue
            if result.step is not None:
                counter[result.step] += 1
        return dict(counter)

    def classification_of_as(self, asn: int) -> str:
        """Member-level label: ``"local"``, ``"remote"``, ``"hybrid"`` or ``"unknown"``.

        A member AS is *hybrid* when it holds both local and remote
        connections across its inferred interfaces (Section 6.2).
        """
        classes = {
            r.classification for r in self.results_for_as(asn) if r.is_inferred
        }
        if not classes:
            return "unknown"
        if classes == {PeeringClassification.LOCAL}:
            return "local"
        if classes == {PeeringClassification.REMOTE}:
            return "remote"
        return "hybrid"

    def __len__(self) -> int:
        return len(self._results)
