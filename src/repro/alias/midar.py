"""MIDAR-style alias resolution.

Alias resolution answers "which of these interface addresses sit on the same
physical router?".  The real MIDAR infers this from IP-ID time series; the
paper uses the MIDAR+iffinder dataset, which has very few false positives but
misses some aliases.  Like the ITDK node file built from it, that dataset
gives each resolved interface one router node.  The simulated resolver
reproduces that error profile:

* :meth:`AliasResolver.router_of` answers the ground-truth router of an
  interface, except that each interface independently fails to be resolved
  with probability ``miss_rate`` (it then has no router and stays alone);
* no false aliases are produced by default, matching the "accuracy over
  completeness" dataset choice of the paper (footnote 8).
"""

from __future__ import annotations

import random

from repro.topology.world import World


class AliasResolver:
    """Maps interface addresses to routers with a MIDAR-like error profile.

    Two addresses are aliases exactly when :meth:`router_of` gives both the
    same router; an address whose answer is ``None`` is alone.
    """

    def __init__(self, world: World, *, miss_rate: float = 0.12, seed: int | None = None) -> None:
        if not 0.0 <= miss_rate <= 1.0:
            raise ValueError(f"miss_rate must be in [0, 1], got {miss_rate}")
        self.world = world
        self.miss_rate = miss_rate
        self._rng = random.Random(world.seed * 449 + (seed if seed is not None else 6))
        # The set of interfaces that MIDAR persistently fails to resolve is a
        # property of the routers/probing conditions, so it is drawn once and
        # every answer, in Steps 4 and 5 alike, reads the same draw.
        self._unresolvable: set[str] = {
            ip for ip in world.interfaces if self._rng.random() < miss_rate
        }

    def router_of(self, ip: str) -> str | None:
        """The router of a known, resolvable interface; ``None`` for an
        unknown or unresolvable address."""
        interface = self.world.interfaces.get(ip)
        if interface is None or ip in self._unresolvable:
            return None
        return interface.router_id
