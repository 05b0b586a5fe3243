"""Benchmark for cross-revision reuse under the dataset-versioning layer.

The production scenario the versioning layer exists for: a feed refresh
re-maps a small fraction (~1%) of the routed prefixes, and the study must be
re-run.  Before this layer every refresh meant rebuild-everything — a fresh
step-result cache, a fresh geodesic-distance index, a fresh LPM table.  With
generation-stamped cache keys the shared engine recomputes only the nodes
whose declared data changed (the traceroute observables and Steps 4/5), the
per-IXP layer (Steps 1-3 and the baseline — the bulk of the work) replays
from cache, and the prefix map absorbs the delta as an overlay patch instead
of a rebuild.

The test pins the incremental re-run at >=3x over rebuild-everything across
five refresh rounds, timed with the garbage collector off, and asserts the
two paths produce bit-identical classifications in every round before their
speed is compared.
"""

from __future__ import annotations

import gc
import time

import pytest

from repro.config import ExperimentConfig
from repro.core.engine import PipelineEngine
from repro.core.inputs import InferenceInputs
from repro.geo.distindex import GeoDistanceIndex
from repro.study import RemotePeeringStudy
from tests.helpers import dataset_copy, prefix2as_copy

#: Fraction of routed prefixes each refresh round re-maps.
MUTATION_FRACTION = 0.01
#: Refresh rounds summed on both sides — enough that one scheduler stall on
#: a (short) incremental round cannot swing the ratio below the floor.
ROUNDS = 5
REQUIRED_SPEEDUP = 3.0


@pytest.fixture(scope="module")
def refresh_study() -> RemotePeeringStudy:
    """A private study this module may mutate across refresh rounds."""
    study = RemotePeeringStudy(ExperimentConfig.small(seed=17))
    study.outcome  # warm the shared engine, geo index and dataset views
    return study


def _mutate_prefixes(study: RemotePeeringStudy, round_index: int) -> int:
    """Re-map ~1% of the routed prefixes through the journalled path."""
    prefixes = sorted(study.prefix2as._prefixes)
    count = max(1, int(len(prefixes) * MUTATION_FRACTION))
    victims = prefixes[round_index * count:(round_index + 1) * count]
    for prefix in victims:
        study.prefix2as.add(prefix, study.prefix2as._prefixes[prefix] + 1_000)
    return len(victims)


def _rebuild_everything(study: RemotePeeringStudy):
    """The pre-versioning refresh path: every cache torn down and rebuilt."""
    dataset = dataset_copy(study.dataset)
    inputs = InferenceInputs(
        dataset=dataset,
        ping_result=study.ping_result,
        corpus=study.traceroute_corpus,
        prefix2as=prefix2as_copy(study.prefix2as),
        alias_resolver=study.alias_resolver,
        geo_index=GeoDistanceIndex(dataset),
    )
    engine = PipelineEngine(inputs, delay_model=study.delay_model)
    return engine.run(study.config.inference, study.studied_ixp_ids)


def _timed(run):
    """``run()``'s result and wall time, collected first, collector off.

    A full collection over the test session's live objects costs as much as
    a whole incremental round; with the collector on, one lands in a timed
    call, on whichever side it happens to fall.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run()
        return result, time.perf_counter() - start
    finally:
        gc.enable()


def test_incremental_refresh_speedup_and_equivalence(refresh_study):
    """Journalled 1% prefix refresh: >=3x over rebuild-everything, bit-identical."""
    study = refresh_study
    config = study.config.inference
    incremental_elapsed = 0.0
    rebuild_elapsed = 0.0

    for round_index in range(ROUNDS):
        mutated = _mutate_prefixes(study, round_index)
        assert mutated >= 1

        incremental, elapsed = _timed(
            lambda: study.engine.run(config, study.studied_ixp_ids))
        incremental_elapsed += elapsed

        rebuilt, elapsed = _timed(lambda: _rebuild_everything(study))
        rebuild_elapsed += elapsed

        # The refresh must be invisible in the results: classifications are
        # bit-identical between the incremental and rebuild-everything paths.
        assert incremental.report == rebuilt.report
        assert incremental.baseline_report == rebuilt.baseline_report
        assert incremental.report.inferred()

    # The delta stayed on the LPM overlay path (no interval-table rebuild).
    assert study.prefix2as.incremental_patches >= ROUNDS
    # The corpus detection was patched per path, never fully re-scanned.
    detection = study.engine._corpus_detection
    assert detection is not None and detection.full_scans == 1
    assert detection.paths_redetected > 0
    # The per-IXP layer replayed from cache in every refresh round.
    stats = study.engine.cache.stats
    for label in ("step1", "step2", "step3", "baseline"):
        assert stats[label].misses <= len(study.studied_ixp_ids), (
            f"{label} must not recompute across prefix refreshes")

    speedup = rebuild_elapsed / incremental_elapsed
    assert speedup >= REQUIRED_SPEEDUP, (
        f"incremental refresh is only {speedup:.1f}x faster than "
        f"rebuild-everything ({incremental_elapsed:.3f}s vs {rebuild_elapsed:.3f}s)"
    )
