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
cannot affect them.  Each prefix is parsed once, when it is added; the index
is rebuilt from those parsed triples on the first lookup after any change.
"""

from __future__ import annotations

import ipaddress
from dataclasses import dataclass, field
from typing import ClassVar

from repro.netindex import LPMIndex, ParsedPrefix
from repro.topology.world import World
from repro.versioning import Change, ChangeKind, GenerationGuardedIndex, Versioned

#: The single journal domain of a prefix map (see :class:`ChangeJournal`).
DOMAIN_PREFIXES = "prefixes"


@dataclass
class Prefix2ASMap(Versioned):
    """Longest-prefix-match IP-to-AS mapping.

    Prefixes enter only through :meth:`add`, which parses each one once and
    keeps its ``(version, network int, length)`` triple beside the canonical
    prefix.  The backing :class:`~repro.netindex.LPMIndex` is rebuilt from
    those triples on the first lookup after any add, replace or remove, so
    bulk loading stays cheap and the steady-state lookup path is a memoised
    binary search.  The index is keyed on the map's generation
    (:class:`~repro.versioning.GenerationGuardedIndex`), so caller threads
    that meet on that first lookup share one build.
    :attr:`full_rebuilds` counts the builds.
    """

    _prefixes: dict[str, int] = field(default_factory=dict, init=False)
    _parsed: dict[str, ParsedPrefix] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _index: GenerationGuardedIndex[LPMIndex[int]] = field(
        default_factory=GenerationGuardedIndex, init=False, repr=False, compare=False)
    #: Overlay patches absorbed without a rebuild; always 0, since every
    #: change rebuilds.  Kept because perfbench reports it.
    incremental_patches: ClassVar[int] = 0
    #: How many times the index was (re)built.
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
        self._parsed[key] = (
            network.version, int(network.network_address), network.prefixlen)
        self.record_change(Change(kind, DOMAIN_PREFIXES, key, old, asn))

    def remove(self, prefix: str) -> bool:
        """Drop one prefix; returns whether it was registered."""
        key = str(ipaddress.ip_network(prefix))
        if key not in self._prefixes:
            return False
        old = self._prefixes.pop(key)
        del self._parsed[key]
        self.record_change(Change(ChangeKind.REMOVE, DOMAIN_PREFIXES, key, old, None))
        return True

    def lookup(self, ip: str) -> int | None:
        """Return the ASN originating the longest matching prefix, if any."""
        return self._index.get(self._generation, self._build_index).lookup(ip)

    def _build_index(self) -> LPMIndex[int]:
        self.full_rebuilds += 1
        parsed = self._parsed
        return LPMIndex((parsed[key], asn) for key, asn in self._prefixes.items())

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
