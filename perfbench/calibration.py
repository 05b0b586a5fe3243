"""Host-speed calibration of the benchmark's timings.

On a shared host a neighbour's load slows every pure-Python loop by up to
1.8x for seconds to minutes at a time, and that moves wall-clock timings
between runs far more than any change worth measuring.  The benchmark
therefore times a fixed kernel right before and right after every timed
region, and every :data:`SAMPLE_INTERVAL_S` inside it from a ``SIGALRM``
handler, and reports the region's duration scaled to a host on which the
kernel takes :data:`REFERENCE_S`:

    scaled = (elapsed - kernel time inside) * REFERENCE_S * mean(1 / kernel time)

Sampling inside matters for the long regions (a study build takes ~15 s):
probes at its two ends miss a change of host speed half-way.  The mean of
reciprocals weights each sample by the share of the region it stands for,
and a sample that a collection or an interrupt made slow moves it little.
The kernel is the benchmark's own code and calls nothing in the library, so
a change to the library moves ``elapsed`` and leaves the kernel alone.  It
does the library's kind of work: attribute reads on slotted objects, tuple
keys, dict inserts and lookups, and a keyed sort, over a graph large enough
(~35 MB) to leave the CPU caches the way the library's heap does.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from collections.abc import Callable
from typing import TypeVar

T = TypeVar("T")

#: Median kernel time on an idle 2-core Xeon (Sapphire Rapids) KVM guest,
#: Python 3.11; only the unit of the scaled timings depends on it.
REFERENCE_S = 0.008
#: Seconds between two kernel samples inside a timed region.
SAMPLE_INTERVAL_S = 0.25

_GRAPH_SIZE = 200_000
_WALK_SIZE = 2_250
_DEGREE = 4


class _Node:
    __slots__ = ("key", "weight", "links")

    def __init__(self, key: int, weight: float) -> None:
        self.key = key
        self.weight = weight
        self.links: list[_Node] = []


def _walk() -> list[_Node]:
    """A fixed, seeded sample of nodes spread over a large random graph."""
    rng = random.Random(7)
    nodes = [_Node(key, rng.random()) for key in range(_GRAPH_SIZE)]
    for node in nodes:
        node.links = [nodes[rng.randrange(_GRAPH_SIZE)] for _ in range(_DEGREE)]
    return rng.sample(nodes, _WALK_SIZE)


_WALK = _walk()


def kernel() -> float:
    """One pass of the fixed kernel; the same result on every call."""
    seen: dict[tuple[int, int], float] = {}
    for node in _WALK:
        for other in node.links:
            key = (node.key, other.key) if node.key < other.key else (other.key, node.key)
            if key not in seen:
                seen[key] = node.weight + other.weight
    ordered = sorted(seen, key=seen.__getitem__)
    return seen[ordered[0]] + seen[ordered[-1]]


def probe() -> float:
    """Seconds one pass of the kernel takes right now."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


def scaled(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` on the reference host, from the probes around it."""
    return elapsed * REFERENCE_S * (1.0 / before + 1.0 / after) / 2.0


def measure(call: Callable[[], T]) -> tuple[float, float, T]:
    """Run ``call``; its scaled and wall-clock seconds and its value.

    The kernel is probed before and after the call and, from a ``SIGALRM``
    handler on the main thread, every :data:`SAMPLE_INTERVAL_S` during it.
    The scaled seconds leave out the time those inner samples took; the
    wall-clock ones include it.  An exception from ``call`` propagates once
    the timer is stopped.
    """
    samples = [probe()]
    inner: list[float] = []

    def sample(signum: int, frame: object) -> None:
        inner.append(probe())

    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    started = time.perf_counter()
    try:
        value = call()
    finally:
        elapsed = time.perf_counter() - started
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    samples += inner
    samples.append(probe())
    own = elapsed - sum(inner)
    speed = statistics.fmean(1.0 / seconds for seconds in samples)
    return own * REFERENCE_S * speed, elapsed, value
