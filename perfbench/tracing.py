"""In-memory span recording for the traced benchmark run.

The library carries no instrumentation of its own, so the traced run wraps
the public entry point of each layer from here: every wrapped call records
one span ``(name, start, end, parent, rep)``, where ``parent`` is the index
of the innermost enclosing span (``-1`` at the root) and ``rep`` the
repetition id of the benchmark operation that caused it.  Spans stay in
memory until :meth:`Tracer.dump` writes them out at the end of the run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from types import ModuleType

def layer_entry_points() -> list[tuple[str, type | ModuleType, str]]:
    """Every public entry point the traced run wraps, as (span, owner, attribute).

    ``owner`` is the class or module whose attribute the library resolves at
    call time, so a module-level function is patched in the module that
    calls it (``repro.study`` imports ``build_observed_dataset`` by name).
    """
    import repro.study
    import repro.validation.metrics
    from repro.core.baseline import RTTBaseline
    from repro.core.engine import PipelineEngine
    from repro.core.step1_port_capacity import PortCapacityStep
    from repro.core.step2_rtt import RTTMeasurementStep
    from repro.core.step3_colocation import ColocationRTTStep
    from repro.core.step4_multi_ixp import MultiIXPRouterStep
    from repro.core.step5_private_links import PrivateConnectivityStep
    from repro.datasources.prefix2as import Prefix2ASSource
    from repro.geo.worldindex import WorldDistanceIndex
    from repro.measurement.ping import PingCampaign
    from repro.measurement.traceroute import TracerouteCampaign
    from repro.routing.bgp import ASGraph, RouteSelector
    from repro.routing.forwarding import ForwardingSimulator
    from repro.topology.generator import WorldGenerator
    from repro.traixroute.detector import CorpusDetectionIndex
    from repro.validation.dataset import ValidationDatasetBuilder

    return [
        ("topology.generate", WorldGenerator, "generate"),
        ("datasources.merge", repro.study, "build_observed_dataset"),
        ("datasources.prefix2as", Prefix2ASSource, "snapshot"),
        ("measurement.ping", PingCampaign, "run"),
        ("measurement.traceroute", TracerouteCampaign, "run_public_corpus"),
        ("routing.graph_build", ASGraph, "__init__"),
        ("routing.paths_from", RouteSelector, "paths_from"),
        ("routing.traceroute_along", ForwardingSimulator, "traceroute_along"),
        ("geo.world_pair_km", WorldDistanceIndex, "facility_pair_km"),
        ("core.engine_run", PipelineEngine, "run"),
        ("core.step1", PortCapacityStep, "run"),
        ("core.step2", RTTMeasurementStep, "run"),
        ("core.step3", ColocationRTTStep, "run"),
        ("core.step4", MultiIXPRouterStep, "run"),
        ("core.step5", PrivateConnectivityStep, "run"),
        ("core.baseline", RTTBaseline, "run"),
        ("traixroute.results", CorpusDetectionIndex, "results"),
        ("validation.build", ValidationDatasetBuilder, "build"),
        ("validation.evaluate", repro.validation.metrics, "evaluate_report"),
    ]


class Tracer:
    """Records spans around wrapped callables; restores them on exit."""

    def __init__(self) -> None:
        # A slot is reserved when a span opens, so a child can name its
        # parent by index before the parent has ended.
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.rep = -1
        self._stack: list[int] = []
        self._patched: list[tuple[type | ModuleType, str, object]] = []

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _close(self, name: str, index: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.rep)

    def wrap(self, name: str, owner: type | ModuleType, attribute: str) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        original = vars(owner)[attribute]
        tracer = self

        def traced(*args: object, **kwargs: object) -> object:
            index, parent = tracer._open()
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                tracer._close(name, index, parent, start)

        setattr(owner, attribute, traced)
        self._patched.append((owner, attribute, original))

    def install(self) -> None:
        """Wrap every layer entry point (see :func:`layer_entry_points`)."""
        for name, owner, attribute in layer_entry_points():
            self.wrap(name, owner, attribute)

    def uninstall(self) -> None:
        """Put every wrapped callable back, newest first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def totals(self, rep: int) -> dict[str, tuple[float, float, int]]:
        """Per span name in one repetition: (seconds, self seconds, calls).

        Self time is a span's duration minus its direct children's; spans
        on one thread nest, so the children never overlap.
        """
        spans = self.spans
        child_seconds: dict[int, float] = defaultdict(float)
        for span in spans:
            if span is not None and span[4] == rep and span[3] >= 0:
                child_seconds[span[3]] += span[2] - span[1]
        result: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
        for index, span in enumerate(spans):
            if span is None or span[4] != rep:
                continue
            duration = span[2] - span[1]
            entry = result[span[0]]
            entry[0] += duration
            entry[1] += duration - child_seconds.get(index, 0.0)
            entry[2] += 1
        return {name: (s, self_s, int(calls)) for name, (s, self_s, calls) in result.items()}

    def dump(self, path: Path) -> None:
        """Write every recorded span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as stream:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent, rep = span
                stream.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "rep": rep}) + "\n")
