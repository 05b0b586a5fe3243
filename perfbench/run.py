#!/usr/bin/env python3
"""Whole-study benchmark of the remote-peering reproduction.

Runs one named workload over a ``default``-scale study built from the seed,
checks every output, and prints each metric by name with its unit; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``::

    python3 perfbench/run.py --workload study_default --seed 20180901 \\
        --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics with no instrumentation.
``--trace 1`` alternates untraced and traced operations, reports the
per-layer metrics from the traced ones plus the tracing overhead, and writes
every span to ``.bench_out/`` under the checkout root.  Every timing is
scaled to a reference host speed by the probes of ``calibration.py``.
Workloads, metrics and the layer each metric belongs to are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from pathlib import Path

from calibration import REFERENCE_S, measure, probe, scaled

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
#: Fresh interpreters that time the library import; ``setup_s`` takes the median.
IMPORT_REPEATS = 5
#: A run stops starting operations after this long, even below its minimum
#: operation count, so it always ends well inside its time limit.
MAX_LOOP_S = 120.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "accuracy": "fraction",
    "coverage": "fraction",
    "peak_rss_mb": "MB",
}

#: Per-layer span metrics: metric name -> (span name, field), where field 0
#: is the span's total seconds, 1 its self seconds and 2 its call count.
SPAN_METRICS: dict[str, tuple[str, int]] = {
    "topology.generate_s": ("topology.generate", 0),
    "datasources.merge_s": ("datasources.merge", 0),
    "datasources.prefix2as_s": ("datasources.prefix2as", 0),
    "measurement.ping_s": ("measurement.ping", 0),
    "measurement.traceroute_s": ("measurement.traceroute", 0),
    "measurement.traceroute_self_s": ("measurement.traceroute", 1),
    "routing.graph_build_s": ("routing.graph_build", 0),
    "routing.paths_from_s": ("routing.paths_from", 0),
    "routing.paths_from_calls": ("routing.paths_from", 2),
    "routing.traceroute_along_s": ("routing.traceroute_along", 0),
    "routing.traceroute_along_calls": ("routing.traceroute_along", 2),
    "geo.world_pair_km_s": ("geo.world_pair_km", 0),
    "geo.world_pair_km_calls": ("geo.world_pair_km", 2),
    "core.engine_run_s": ("core.engine_run", 0),
    "core.step1_s": ("core.step1", 0),
    "core.step2_s": ("core.step2", 0),
    "core.step3_s": ("core.step3", 0),
    "core.step4_s": ("core.step4", 0),
    "core.step5_s": ("core.step5", 0),
    "core.baseline_s": ("core.baseline", 0),
    "core.engine_self_s": ("core.engine_run", 1),
    "traixroute.results_s": ("traixroute.results", 0),
    "validation.build_s": ("validation.build", 0),
    "validation.evaluate_s": ("validation.evaluate", 0),
}

#: Per-layer counters, as per-operation deltas.
COUNTER_METRICS = (
    "measurement.paths",
    "measurement.hops",
    "geo.incremental_evictions",
    "geo.wholesale_invalidations",
    "core.cache_hits",
    "core.cache_misses",
    "traixroute.full_scans",
    "traixroute.paths_redetected",
    "netindex.incremental_patches",
    "netindex.full_rebuilds",
)


def tail(values: list[float]) -> float:
    """The highest percentile with at least ten samples beyond it.

    That is the ``1 - 10/n`` quantile (linear interpolation), the p90 of
    100 samples; with 20 samples or fewer no percentile above the median
    has ten beyond it, so it is the median.
    """
    ordered = sorted(values)
    share = max(0.5, 1.0 - 10.0 / len(ordered))
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "fraction"
    return "count"


def timed(call: Callable[[], object]) -> tuple[float, object]:
    started = time.perf_counter()
    value = call()
    return time.perf_counter() - started, value


def quiesce() -> None:
    """Collect garbage, then freeze every survivor out of the collector.

    Called before each timed region, so a full collection over the study's
    heap (hundreds of MB on ``refresh_default``) never lands at an arbitrary
    point inside it; the run unfreezes once its loop ends.
    """
    gc.collect()
    gc.freeze()


def import_seconds() -> float:
    """Median scaled time of a fresh interpreter importing the benchmark."""
    code = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; "
            "import workloads, tracing")
    samples = []
    for _ in range(IMPORT_REPEATS):
        before = probe()
        elapsed, _ = timed(lambda: subprocess.run(
            [sys.executable, "-c", code], check=True, stdout=subprocess.DEVNULL))
        samples.append(scaled(elapsed, before, probe()))
    return statistics.median(samples)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=20180901)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    sys.path.insert(0, str(ROOT / "src"))
    try:
        from tracing import Tracer
        from workloads import WORKLOADS
    except ImportError as error:
        print(f"cannot import the library from {ROOT / 'src'}: {error}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    # Set-up is the library import, repeated in fresh interpreters, plus the
    # workload's own set-up, which is a whole study build on sweep and
    # refresh and so runs once.
    workload = WORKLOADS[args.workload](args.seed)
    import_s = import_seconds()
    setup_s = import_s + measure(workload.setup)[0]
    workload.warm_up()

    tracer = Tracer() if args.trace else None
    op_times: list[float] = []
    wall_times: list[float] = []
    traced_times: list[float] = []
    layer_samples: dict[str, list[float]] = {}
    attempted = failed = 0

    def run_operation(traced: bool) -> float | None:
        """One checked operation; its latency, or None when it failed."""
        nonlocal attempted, failed
        attempted += 1
        workload.prepare()
        before = workload.counters()
        quiesce()
        if traced:
            assert tracer is not None
            tracer.rep = attempted
            tracer.install()
        try:
            elapsed, wall, outcomes = measure(workload.operation)
        except Exception as error:  # a failed operation is counted, not fatal
            print(f"operation {attempted} raised {error!r}", file=sys.stderr)
            failed += 1
            return None
        finally:
            if traced:
                assert tracer is not None
                tracer.uninstall()
        problems = workload.check(outcomes)
        if problems:
            print(f"operation {attempted}: {'; '.join(problems)}", file=sys.stderr)
            failed += 1
            return None
        if traced:
            assert tracer is not None
            after = workload.counters()
            totals = tracer.totals(attempted)
            for metric, (span, index) in SPAN_METRICS.items():
                value = totals.get(span, (0.0, 0.0, 0))[index]
                if index < 2:
                    # Spans hold the kernel samples taken inside them, in
                    # proportion to their length; the operation's scaled
                    # over wall-clock ratio takes those and the host out.
                    value *= elapsed / wall
                layer_samples.setdefault(metric, []).append(value)
            for metric in COUNTER_METRICS:
                delta = after.get(metric, 0) - before.get(metric, 0)
                layer_samples.setdefault(metric, []).append(delta)
        else:
            wall_times.append(wall)
        return elapsed

    loop_started = time.perf_counter()
    while True:
        looped = time.perf_counter() - loop_started
        # The minimum serves the latency percentiles, which a traced run
        # does not report.
        needed = workload.min_operations if tracer is None else 1
        if looped >= MAX_LOOP_S or (
                attempted >= needed and looped >= args.seconds):
            break
        elapsed = run_operation(traced=False)
        if elapsed is not None:
            op_times.append(elapsed)
        if tracer is not None:
            elapsed = run_operation(traced=True)
            if elapsed is not None:
                traced_times.append(elapsed)

    gc.unfreeze()
    finish_failures = workload.finish()
    if finish_failures:
        print("end of run: " + "; ".join(finish_failures), file=sys.stderr)
        failed += 1
        attempted += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if not op_times or (tracer is not None and not traced_times):
        print("no operation succeeded", file=sys.stderr)
        values: dict[str, float] = {}
    elif tracer is None:
        values = {
            "setup_s": setup_s,
            "op_p50_s": statistics.median(op_times),
            "op_tail_s": tail(op_times),
            "accuracy": workload.accuracy,
            "coverage": workload.coverage,
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        values = {name: statistics.median(samples) for name, samples in layer_samples.items()}
        hits = sum(layer_samples["core.cache_hits"])
        lookups = hits + sum(layer_samples["core.cache_misses"])
        values["core.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        redetected = sum(layer_samples["traixroute.paths_redetected"])
        scanned = workload.corpus_paths * len(layer_samples["traixroute.paths_redetected"])
        values["traixroute.redetect_ratio"] = redetected / scanned if scanned else 0.0
        values["trace.untraced_op_s"] = statistics.median(op_times)
        values["trace.traced_op_s"] = statistics.median(traced_times)
        values["trace.overhead_ratio"] = (
            values["trace.traced_op_s"] / values["trace.untraced_op_s"] - 1.0)
        values["trace.spans_per_op"] = len(tracer.spans) / len(traced_times)
        out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(out)
        print(f"spans written to {out.relative_to(ROOT)}")

    units = END_TO_END_UNITS if tracer is None else {
        name: per_layer_unit(name) for name in values}
    print(f"workload {args.workload}, seed {args.seed}: {attempted} operations "
          f"attempted, {failed} failed; {len(op_times)} latency samples")
    print(f"timings scaled to a {REFERENCE_S} s kernel, which took {probe():.4f} s at the "
          f"end; median wall-clock operation {statistics.median(wall_times or [0.0]):.4f} s")
    for name, value in values.items():
        print(f"  {name:<32} {value:>14.6f} {units[name]}")
    if tracer is None and values:
        for alias, name in workload.aliases.items():
            print(f"  {alias + ' (' + name + ')':<32} {values[name]:>14.6f} {units[name]}")
        print(f"  {'error_rate':<32} {failed / attempted:>14.6f} fraction")
    result = {
        "correct": failed == 0 and bool(values),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
