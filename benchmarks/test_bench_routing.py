"""Benchmark: the AS graph build against the pairwise reference.

The graph once stored one realization list per directed adjacent pair, so
every co-member pair of every IXP got two dict entries (181,892 keys at
default scale).  It now stores one list per transit or private pair and
derives IXP crossings from one bitmask per AS over IXP positions.  This pins the build at >=3x faster and >=2x
smaller (bytes retained, under :mod:`tracemalloc`) than an inline copy of
the pairwise build, with the same adjacency and the same realizations.
"""

from __future__ import annotations

import gc
import statistics
import time
import tracemalloc
from collections import defaultdict

from repro.routing.bgp import ASGraph, EdgeRealization, RealizationKind


def _pairwise_build(world):
    """The pairwise build: ranked ASNs, adjacency masks, per-pair realizations."""
    neighbours = defaultdict(set)
    realizations = defaultdict(list)

    def add_edge(a, b, realization):
        neighbours[a].add(b)
        neighbours[b].add(a)
        realizations[(a, b)].append(realization)
        realizations[(b, a)].append(realization)

    transit = EdgeRealization(kind=RealizationKind.TRANSIT)
    for asn in world.ases:
        neighbours.setdefault(asn, set())
        for provider in world.relationships.providers_of(asn):
            add_edge(asn, provider, transit)
    for index, link in enumerate(world.private_links):
        add_edge(link.asn_a, link.asn_b, EdgeRealization(
            kind=RealizationKind.PRIVATE, private_link_index=index))
    for ixp_id in world.ixps:
        crossing = EdgeRealization(kind=RealizationKind.IXP, ixp_id=ixp_id)
        asns = sorted({m.asn for m in world.active_memberships(ixp_id)})
        for i, a in enumerate(asns):
            for b in asns[i + 1:]:
                add_edge(a, b, crossing)

    ranked = tuple(sorted(neighbours))
    rank = {asn: r for r, asn in enumerate(ranked)}

    def mask_of(asns):
        mask = 0
        for asn in asns:
            if asn in rank:
                mask |= 1 << rank[asn]
        return mask

    masks = tuple(mask_of(neighbours[asn]) for asn in ranked)
    return ranked, rank, masks, realizations


def _speedup(fast, slow, rounds: int = 15) -> float:
    """Median over rounds of ``slow``'s wall time over ``fast``'s.

    Each round times the two builds back to back, so a slow stretch of the
    machine hits both sides of one ratio, and the median drops the rounds
    a scheduler stall lands in.  The collector is off, so a full collection
    over the test session's live objects cannot land in one timed build.
    """
    ratios = []
    gc.disable()
    try:
        for _ in range(rounds):
            start = time.perf_counter()
            fast()
            middle = time.perf_counter()
            slow()
            ratios.append((time.perf_counter() - middle) / (middle - start))
    finally:
        gc.enable()
    return statistics.median(ratios)


def _retained_bytes(build):
    """What ``build()`` returns, and the bytes still allocated once it has."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        built = build()
        return built, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_bench_graph_build(run_once, study):
    """One AS graph build over the shared study's world."""
    assert run_once(ASGraph, study.world).edge_count > 0


def test_graph_build_vs_pairwise_reference(study):
    """The bitmask build equals the pairwise one, >=3x faster and >=2x smaller."""
    world = study.world
    graph, graph_bytes = _retained_bytes(lambda: ASGraph(world))
    (ranked, _, masks, realizations), pairwise_bytes = _retained_bytes(
        lambda: _pairwise_build(world))

    # Same adjacency and same realizations before comparing cost.
    assert graph._asns == ranked
    assert graph._masks == masks
    for (a, b), expected in realizations.items():
        assert graph.realizations(a, b) == expected, (a, b)

    speedup = _speedup(lambda: ASGraph(world), lambda: _pairwise_build(world))
    assert speedup >= 3.0, (
        f"the bitmask build is only {speedup:.1f}x faster than the pairwise build")
    shrink = pairwise_bytes / graph_bytes
    assert shrink >= 2.0, (
        f"the bitmask graph retains only {shrink:.1f}x fewer bytes than the "
        f"pairwise build ({graph_bytes} vs {pairwise_bytes})"
    )
