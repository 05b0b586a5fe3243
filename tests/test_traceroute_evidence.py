"""Steps 4 and 5's traceroute evidence against the per-call searches it replaced.

The engine's traceroute node identifies the multi-IXP routers and builds a
:class:`PrivateNeighbours` table once per detection result, both from one
``router_of`` answer per address.  The references below are the algorithms
the steps ran on every miss before, kept inline:

* ``_resolve``: the alias resolver's old ``resolve()``, which grouped a set
  of addresses into router groups (by router id), then lone addresses
  (ascending), reading the world and the resolver's unresolvable draw;
* ``_reference_routers``: Step 4's per-AS identification through it;
* ``_reference_of_router``: Step 5's per-interface search, the interface's
  group in ``resolve(candidates | {ip})``, and ``_reference_of_as``, its
  AS-level union over the candidates.

Step 5's candidates were each AS's adjacency ends plus the interfaces of its
multi-IXP routers; the table reads no routers, so both candidate sets are
checked.  No simulated corpus shows a router with two entry addresses, so
only the drawn inputs reach a real alias group.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alias.midar import AliasResolver
from repro.config import ExperimentConfig
from repro.core.step4_multi_ixp import MultiIXPRouterStep
from repro.core.step5_private_links import PrivateNeighbours
from repro.study import RemotePeeringStudy
from repro.traixroute.detector import IXPCrossing, PrivateAdjacency

MISS_RATES = (0.0, 0.3, 1.0)


def _resolve(resolver, ips):
    """The old ``AliasResolver.resolve(ips).groups``."""
    by_router = defaultdict(set)
    singletons = []
    for ip in sorted(set(ips)):
        interface = resolver.world.interfaces.get(ip)
        if interface is None or ip in resolver._unresolvable:
            singletons.append(frozenset({ip}))
            continue
        by_router[interface.router_id].add(ip)
    return [frozenset(group) for _, group in sorted(by_router.items())] + singletons


def _reference_routers(crossings, resolver):
    """The old per-AS identification, as ``(asn, interfaces, ixps)``."""
    ixps_per_interface = defaultdict(set)
    interfaces_per_asn = defaultdict(set)
    for crossing in crossings:
        ixps_per_interface[crossing.entry_ip].add(crossing.ixp_id)
        interfaces_per_asn[crossing.entry_asn].add(crossing.entry_ip)
    routers = []
    for asn, interfaces in sorted(interfaces_per_asn.items()):
        observed_ixps = set().union(*(ixps_per_interface[ip] for ip in interfaces))
        if len(observed_ixps) < 2:
            continue
        for group in _resolve(resolver, interfaces):
            group_ixps = set()
            for ip in group:
                group_ixps.update(ixps_per_interface.get(ip, set()))
            if len(group_ixps) >= 2:
                routers.append((asn, frozenset(group), frozenset(group_ixps)))
    return routers


def _candidates(adjacencies, routers):
    """Step 5's old candidate addresses per AS: adjacency ends plus the
    interfaces of the given ``(asn, interfaces, ixps)`` routers."""
    interfaces = defaultdict(set)
    for adjacency in adjacencies:
        interfaces[adjacency.near_asn].add(adjacency.near_ip)
        interfaces[adjacency.far_asn].add(adjacency.far_ip)
    for asn, router_ips, _ in routers:
        interfaces[asn].update(router_ips)
    return interfaces


def _adjacency_index(adjacencies):
    index = defaultdict(set)
    for adjacency in adjacencies:
        index[adjacency.near_ip].add(adjacency.far_asn)
        index[adjacency.far_ip].add(adjacency.near_asn)
    return index


def _reference_of_router(resolver, asn, ip, candidates, index):
    groups = _resolve(resolver, candidates | {ip})
    group = next(group for group in groups if ip in group)
    return set().union(*(index.get(member, set()) for member in group)) - {asn}


def _reference_of_as(asn, candidates, index):
    return set().union(*(index.get(ip, set()) for ip in candidates)) - {asn}


def _check_evidence(crossings, adjacencies, resolver, queries, inputs):
    """Compare the new routers and table with the references on every
    ``(asn, interface)`` query, candidates built with and without routers."""
    routers = MultiIXPRouterStep(replace(inputs, alias_resolver=resolver)).identify_routers(
        crossings)
    expected = _reference_routers(crossings, resolver)
    assert [(r.asn, r.interface_ips, r.ixp_ids) for r in routers] == expected

    table = PrivateNeighbours(adjacencies, resolver)
    index = _adjacency_index(adjacencies)
    for candidates in (_candidates(adjacencies, ()), _candidates(adjacencies, expected)):
        for asn, ip in queries:
            own = candidates.get(asn, set())
            assert table.of_router(asn, ip) == _reference_of_router(
                resolver, asn, ip, own, index), (asn, ip)
            assert table.of_as(asn) == _reference_of_as(asn, own, index), asn
    return routers


# --------------------------------------------------------------------- #
# Simulated studies
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def small_seed7_study() -> RemotePeeringStudy:
    return RemotePeeringStudy(ExperimentConfig.small(seed=7))


@pytest.mark.parametrize("scale", ["tiny", "small"])
def test_study_evidence_matches_the_references(scale, tiny_study, small_seed7_study):
    """Every studied interface of the tiny and small seed-7 studies, under
    the study's resolver and at each reference miss rate."""
    study = tiny_study if scale == "tiny" else small_seed7_study
    outcome = study.outcome
    dataset = study.inputs.dataset
    queries = sorted(
        (asn, ip)
        for ixp_id in study.studied_ixp_ids
        for ip, asn in dataset.interfaces_of_ixp(ixp_id).items()
    )
    resolvers = [study.alias_resolver] + [
        AliasResolver(study.world, miss_rate=rate) for rate in MISS_RATES]
    for resolver in resolvers:
        routers = _check_evidence(
            outcome.crossings, outcome.private_adjacencies, resolver, queries, study.inputs)
        if resolver is study.alias_resolver:
            # The engine's routers are these, in this order.
            assert [(r.asn, r.interface_ips, r.ixp_ids) for r in outcome.multi_ixp_routers] \
                == [(r.asn, r.interface_ips, r.ixp_ids) for r in routers]
            assert routers, "the comparison must cover multi-IXP routers"


# --------------------------------------------------------------------- #
# Drawn crossings and adjacencies
# --------------------------------------------------------------------- #
_UNKNOWN = ["203.0.113.1", "203.0.113.2", "203.0.113.3"]
_ASNS = [64500, 64501, 64502]
_IXPS = ["ixp-a", "ixp-b", "ixp-c"]


@pytest.fixture(scope="module")
def drawn_setting(tiny_world):
    """Addresses of multi-interface world routers plus unknown ones, and one
    resolver per miss rate over the world."""
    routers = sorted(
        (router for router in tiny_world.routers.values()
         if sum(ip in tiny_world.interfaces for ip in router.interface_ips) == 3),
        key=lambda router: router.router_id,
    )[:4]
    assert len(routers) == 4
    known = sorted(
        ip for router in routers for ip in router.interface_ips if ip in tiny_world.interfaces)
    resolvers = {rate: AliasResolver(tiny_world, miss_rate=rate) for rate in MISS_RATES}
    return known + _UNKNOWN, resolvers


@st.composite
def _evidence(draw, addresses):
    """Crossings and adjacencies over ``addresses``, each address in one AS
    (the detection index gives each address one AS answer)."""
    asn_of = {ip: draw(st.sampled_from(_ASNS)) for ip in addresses}
    address = st.sampled_from(addresses)
    crossings = draw(st.lists(
        st.builds(
            lambda ixp_id, entry_ip: IXPCrossing(
                ixp_id=ixp_id, entry_ip=entry_ip, entry_asn=asn_of[entry_ip],
                ixp_interface_ip="185.1.0.1", far_asn=64999, exit_ip="198.51.100.1"),
            st.sampled_from(_IXPS), address),
        max_size=24))
    adjacencies = draw(st.lists(
        st.builds(
            lambda near_ip, far_ip: PrivateAdjacency(
                near_ip=near_ip, near_asn=asn_of[near_ip], far_ip=far_ip,
                far_asn=asn_of[far_ip]),
            address, address),
        max_size=24))
    return crossings, adjacencies


@pytest.mark.parametrize("miss_rate", MISS_RATES)
def test_drawn_evidence_matches_the_references(miss_rate, drawn_setting, tiny_study):
    addresses, resolvers = drawn_setting
    resolver = resolvers[miss_rate]
    queries = [(asn, ip) for asn in _ASNS for ip in addresses]

    @settings(max_examples=100, deadline=None)
    @given(_evidence(addresses))
    def check(evidence):
        crossings, adjacencies = evidence
        _check_evidence(crossings, adjacencies, resolver, queries, tiny_study.inputs)

    check()
