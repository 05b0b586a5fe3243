"""Simulated Routeviews ``prefix2as`` dataset.

Step 5 of the paper performs IP-to-AS mapping of traceroute hops using
CAIDA's Routeviews prefix-to-AS dataset.  The simulated equivalent exports
the routed prefixes originated by each AS plus the per-AS infrastructure
blocks, and offers a fast longest-prefix-match lookup backed by the shared
:class:`~repro.netindex.LPMIndex` (a single binary search per lookup, with
memoisation of repeated probes).

The map is **generation-stamped** (:class:`~repro.versioning.Versioned`):
every mutation bumps its generation, which the step-graph engine folds into
its cache keys so cached step results survive exactly the revisions that
cannot affect them.  Small post-build deltas — a feed refresh re-mapping a
handful of prefixes — are served through an incremental
:class:`~repro.netindex.LPMDeltaView` overlay instead of a full interval
rebuild; the overlay is compacted into a fresh index past
:data:`~repro.netindex.DELTA_COMPACTION_THRESHOLD` patches, and removals
always rebuild (the flattened table cannot un-shadow a dropped range).
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field

from repro.netindex import DELTA_COMPACTION_THRESHOLD, LPMDeltaView, LPMIndex
from repro.topology.world import World
from repro.versioning import Change, ChangeKind, Versioned

#: The single journal domain of a prefix map (see :class:`ChangeJournal`).
DOMAIN_PREFIXES = "prefixes"


@dataclass
class Prefix2ASMap(Versioned):
    """Longest-prefix-match IP-to-AS mapping with an incremental delta path.

    Prefixes are accumulated with :meth:`add`; the backing
    :class:`~repro.netindex.LPMIndex` is (re)built lazily on the first lookup
    after a bulk mutation, so bulk loading stays cheap and the steady-state
    lookup path is a memoised binary search.  Mutations *after* the index was
    built patch it through an :class:`~repro.netindex.LPMDeltaView` overlay
    (keeping the warm base memo) until the overlay outgrows its compaction
    threshold; :attr:`incremental_patches` and :attr:`full_rebuilds` account
    which path served each revision.
    """

    _prefixes: dict[str, int] = field(default_factory=dict)
    _view: LPMIndex | LPMDeltaView | None = field(
        default=None, init=False, repr=False, compare=False)
    #: How many post-build mutations were absorbed as overlay patches.
    incremental_patches: int = field(default=0, init=False, repr=False, compare=False)
    #: How many times the full interval table was (re)built.
    full_rebuilds: int = field(default=0, init=False, repr=False, compare=False)

    def add(self, prefix: str, asn: int) -> None:
        """Register one prefix -> ASN mapping (latest registration wins).

        Re-registering a prefix with its current ASN is a no-op (no
        generation bump), so idempotent feed refreshes never invalidate
        downstream caches.
        """
        network = ipaddress.ip_network(prefix)
        key = str(network)
        old = self._prefixes.get(key)
        if old == asn:
            return
        kind = ChangeKind.ADD if key not in self._prefixes else ChangeKind.REPLACE
        self._prefixes[key] = asn
        self.record_change(Change(kind, DOMAIN_PREFIXES, key, old, asn))
        view = self._view
        if view is None:
            return
        if isinstance(view, LPMIndex):
            view = LPMDeltaView(view)
        if view.delta_size >= DELTA_COMPACTION_THRESHOLD:
            # Compact: the next lookup rebuilds the full table.
            self._view = None
            return
        self._view = view.patched(key, asn)
        self.incremental_patches += 1

    def remove(self, prefix: str) -> bool:
        """Drop one prefix; returns whether it was registered.

        Removal cannot be patched incrementally (the flattened interval table
        no longer knows which outer prefix inherits the range), so the next
        lookup rebuilds the index.
        """
        key = str(ipaddress.ip_network(prefix))
        if key not in self._prefixes:
            return False
        old = self._prefixes.pop(key)
        self.record_change(Change(ChangeKind.REMOVE, DOMAIN_PREFIXES, key, old, None))
        self._view = None
        return True

    def lookup(self, ip: str) -> int | None:
        """Return the ASN originating the longest matching prefix, if any."""
        view = self._view
        if view is None:
            view = self._view = LPMIndex(self._prefixes)
            self.full_rebuilds += 1
        return view.lookup(ip)

    def __len__(self) -> int:
        return len(self._prefixes)


class Prefix2ASSource:
    """Builds a :class:`Prefix2ASMap` from the world's address plan."""

    def __init__(self, world: World) -> None:
        self.world = world

    def snapshot(self) -> Prefix2ASMap:
        """Export routed and infrastructure prefixes as an IP-to-AS map."""
        mapping = Prefix2ASMap()
        for prefix, asn in self.world.routed_prefixes.items():
            mapping.add(prefix, asn)
        for prefix, asn in self.world.infrastructure_prefixes.items():
            mapping.add(prefix, asn)
        return mapping
