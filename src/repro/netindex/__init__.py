"""Shared longest-prefix-match index subsystem.

Every IP classification the reproduction performs — IP-to-AS mapping
(:mod:`repro.datasources.prefix2as`), IXP peering-LAN membership
(:meth:`repro.datasources.merge.ObservedDataset.ixp_for_ip`) and the per-hop
classification inside :class:`repro.traixroute.detector.CrossingDetector` —
funnels through the :class:`~repro.netindex.lpm.LPMIndex` defined here.

The index guarantees *true* longest-prefix-match semantics (the most specific
registered prefix containing an address wins, regardless of insertion order)
and answers lookups with a single binary search over pre-parsed integer
ranges instead of re-parsing every prefix on every probe.
:class:`~repro.netindex.lpm.LPMDeltaView` is the incremental companion: a
frozen index plus a small add/replace overlay, compacted into a full rebuild
past :data:`~repro.netindex.lpm.DELTA_COMPACTION_THRESHOLD`, so journalled
prefix-map refreshes patch the LPM path instead of tearing it down.  See
:mod:`repro.netindex.lpm` for the data-structure details and the invariants
consumers rely on.

The ``(size-when-built, payload)`` lazy-cache helper that used to live here
(``SizeGuardedIndex``) was retired by the dataset-versioning layer; the
result containers now guard their derived views with
:class:`repro.versioning.GenerationGuardedIndex` tokens instead.
"""

from repro.netindex.lpm import DELTA_COMPACTION_THRESHOLD, LPMDeltaView, LPMIndex

__all__ = [
    "DELTA_COMPACTION_THRESHOLD",
    "LPMDeltaView",
    "LPMIndex",
]
