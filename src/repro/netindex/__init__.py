"""Shared longest-prefix-match index subsystem.

Every IP classification the reproduction performs — IP-to-AS mapping
(:mod:`repro.datasources.prefix2as`), IXP peering-LAN membership
(:meth:`repro.datasources.merge.ObservedDataset.ixp_for_ip`) and the per-hop
classification inside :class:`repro.traixroute.detector.CrossingDetector` —
funnels through the :class:`~repro.netindex.lpm.LPMIndex` defined here.

The index guarantees *true* longest-prefix-match semantics (the most specific
registered prefix containing an address wins, regardless of insertion order)
and answers lookups with a single binary search over integer ranges.  It is
built from prefixes already parsed by :func:`~repro.netindex.lpm.parse_prefix`,
so an owner that changes its prefix set keeps the parsed triples and rebuilds
without parsing again.  See :mod:`repro.netindex.lpm` for the data-structure
details and the invariants consumers rely on.
"""

from repro.netindex.lpm import LPMIndex, ParsedPrefix, parse_prefix

__all__ = [
    "LPMIndex",
    "ParsedPrefix",
    "parse_prefix",
]
