"""Hypothesis strategies for small traceroute-detection inputs.

Shared by the full-scan-versus-reference tests in ``test_traixroute.py``
and the incremental corpus-detection tests in ``test_versioning.py``.  The
pools are small so drawn hops, prefixes and interface records overlap
often, and they cover the shapes the corpus index must agree with the
per-path detector on: unanswered hops anywhere in a path, paths of any
length from 0, repeated addresses, nested LAN and routed prefixes, IPv6
hops, interface-listed addresses outside every LAN, IXPs that only
interface records name (so they are outside ``ixp_ids()``), ASN 0 and
4-byte ASNs.
"""

from __future__ import annotations

from collections.abc import Iterable

from hypothesis import strategies as st

from repro.datasources.merge import ObservedDataset
from repro.datasources.prefix2as import Prefix2ASMap
from repro.measurement.results import TracerouteCorpus
from repro.routing.forwarding import ForwardingHop, ForwardingPath
from repro.traixroute.detector import CrossingDetector

IXPS = ["ixp-a", "ixp-b", "ixp-c"]
FACILITIES = ["fac-1", "fac-2"]
#: ASN 0 and 4-byte ASNs are legal values, so neither may mean "no ASN".
ASNS = [0, 65001, 2**32 - 1]
LAN_PREFIXES = [
    "185.1.0.0/16",
    "185.1.0.0/24",
    "185.1.0.128/25",
    "2001:7f8::/32",
    "2001:7f8::/64",
]
ROUTED_PREFIXES = [
    "10.0.0.0/8",
    "10.1.0.0/16",
    "10.1.0.0/24",
    "10.2.0.0/16",
    "185.1.0.0/24",
    "2001:db8::/32",
    "2001:db8:1::/48",
]
LAN_ADDRESSES = [
    "185.1.0.1",
    "185.1.0.2",
    "185.1.0.200",
    "185.1.7.7",
    "2001:7f8::1",
    "2001:7f8::2",
    "2001:7f8:1::3",
]
ROUTED_ADDRESSES = [
    "10.1.0.9",
    "10.1.5.9",
    "10.2.0.9",
    "10.3.0.9",
    "2001:db8::9",
    "2001:db8:1::9",
    "198.51.100.1",
    "203.0.113.7",
]
ADDRESSES = LAN_ADDRESSES + ROUTED_ADDRESSES

#: One hop as a run: an address, or None for a hop that did not answer.
single_hops = st.one_of(st.none(), st.sampled_from(ADDRESSES)).map(lambda ip: [ip])


def paths_of(runs: st.SearchStrategy[list[str | None]]) -> st.SearchStrategy:
    """Lists of paths (hop address lists), each joined from drawn runs."""
    joined = st.lists(runs, max_size=4).map(
        lambda parts: [ip for run in parts for ip in run]
    )
    return st.lists(joined, max_size=6)


def forwarding_path(hop_ips: list[str | None]) -> ForwardingPath:
    """A path over the given hop addresses (None for an unanswered hop)."""
    return ForwardingPath(
        source_asn=65001,
        destination_asn=65002,
        destination_ip="10.2.0.9",
        hops=[ForwardingHop(ip=ip, asn=None, rtt_ms=1.0) for ip in hop_ips],
    )


@st.composite
def detection_inputs(
    draw: st.DrawFn,
) -> tuple[ObservedDataset, Prefix2ASMap, TracerouteCorpus]:
    """A dataset, a prefix2as map and a corpus, all built by their mutators.

    The corpus mixes random hops with runs planted to almost cross
    (:func:`_planted_runs`): random hops alone rarely line up into a
    crossing, so without them few drawn corpora would hold one.
    """
    dataset = ObservedDataset()
    lans = draw(st.dictionaries(st.sampled_from(LAN_PREFIXES), st.sampled_from(IXPS)))
    for prefix, ixp_id in lans.items():
        dataset.set_ixp_prefix(prefix, ixp_id)
    # Most LAN hops have an interface record; a few routed addresses do too.
    records = st.tuples(st.sampled_from(IXPS), st.sampled_from(ASNS))
    lan_records = st.dictionaries(st.sampled_from(LAN_ADDRESSES), records, min_size=3)
    routed_records = st.dictionaries(
        st.sampled_from(ROUTED_ADDRESSES), records, max_size=2
    )
    for ip, (ixp_id, asn) in {**draw(lan_records), **draw(routed_records)}.items():
        dataset.set_interface(ip, ixp_id, asn)
    for ixp_id in draw(st.sets(st.sampled_from(IXPS))):
        dataset.add_ixp_facility(ixp_id, FACILITIES[0])
    prefix2as = Prefix2ASMap()
    routes = draw(
        st.dictionaries(
            st.sampled_from(ROUTED_PREFIXES), st.sampled_from(ASNS), min_size=2
        )
    )
    for prefix, asn in routes.items():
        prefix2as.add(prefix, asn)
    runs = st.one_of(
        single_hops,
        *(st.sampled_from(kind) for kind in _planted_runs(dataset, prefix2as) if kind),
    )
    corpus = TracerouteCorpus(
        paths=[forwarding_path(ips) for ips in draw(paths_of(runs))]
    )
    return dataset, prefix2as, corpus


def reference_answers(
    dataset: ObservedDataset, prefix2as: Prefix2ASMap, ips: Iterable[str]
) -> dict[str, tuple[str | None, int | None, int | None]]:
    """Each address's LAN owner, interface AS and AS, from a fresh detector."""
    detector = CrossingDetector(dataset, prefix2as)
    return {
        ip: (
            detector.ixp_of_ip(ip),
            dataset.asn_of_interface(ip),
            detector.asn_of_ip(ip),
        )
        for ip in ips
    }


def _planted_runs(
    dataset: ObservedDataset, prefix2as: Prefix2ASMap
) -> tuple[list[list[str | None]], list[list[str | None]]]:
    """Hop triples that rule 3 alone decides, and adjacent hop pairs.

    A triple's middle is a LAN address with an interface record, its exit
    maps to that record's AS and its entry to another AS, so it crosses
    exactly when both ASes are members of the LAN hop's IXP.  A pair holds
    a private adjacency.  The ASes come from a throwaway per-path detector.
    """
    detector = CrossingDetector(dataset, prefix2as)
    far = {ip: dataset.asn_of_interface(ip) for ip in LAN_ADDRESSES}
    triples = [
        [first, middle, last]
        for middle in LAN_ADDRESSES
        if far[middle] is not None
        for last in ADDRESSES
        if detector.asn_of_ip(last) == far[middle]
        for first in ADDRESSES
        if detector.asn_of_ip(first) not in (None, far[middle])
    ]
    pairs = [[a, b] for a in ADDRESSES for b in ADDRESSES]
    return triples, [
        run for run in pairs if detector.private_adjacencies(forwarding_path(run))
    ]


#: One journalled edit to the detection inputs: a mutator name and its
#: arguments ("extend" appends paths of random hops to the corpus).
edits = st.one_of(
    st.tuples(
        st.just("prefix_add"),
        st.tuples(st.sampled_from(ROUTED_PREFIXES), st.sampled_from(ASNS)),
    ),
    st.tuples(st.just("prefix_remove"), st.tuples(st.sampled_from(ROUTED_PREFIXES))),
    st.tuples(
        st.just("set_ixp_prefix"),
        st.tuples(st.sampled_from(LAN_PREFIXES), st.sampled_from(IXPS)),
    ),
    st.tuples(
        st.just("set_interface"),
        st.tuples(
            st.sampled_from(ADDRESSES), st.sampled_from(IXPS), st.sampled_from(ASNS)
        ),
    ),
    st.tuples(st.just("remove_interface"), st.tuples(st.sampled_from(ADDRESSES))),
    st.tuples(
        st.just("add_ixp_facility"),
        st.tuples(st.sampled_from(IXPS), st.sampled_from(FACILITIES)),
    ),
    st.tuples(st.just("extend"), st.tuples(paths_of(single_hops))),
)
