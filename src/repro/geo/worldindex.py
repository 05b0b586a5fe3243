"""World-level geodesic-distance index for ground-truth consumers.

The traceroute forwarding simulator re-ran the Vincenty solver for every hop
it emitted — the same (facility, facility) legs recur across every path of a
corpus, since traffic moves between a fixed set of ground-truth facilities.
:class:`WorldDistanceIndex` memoises those facility-pair distances once per
world.

It is deliberately **separate** from
:class:`repro.geo.distindex.GeoDistanceIndex`: that index answers for the
*observed* dataset (noisy, incomplete, possibly mislocated facilities) and
participates in the dataset-versioning layer, while this one answers for the
ground truth the measurement simulators are allowed to see.  Mixing the two
would let observation noise leak into synthetic measurements — or ground
truth leak into inference.

Invariants:

1. **Bit-identical distances** — every value is produced by
   :func:`repro.geo.coordinates.geodesic_distance_km` on the facilities'
   ground-truth coordinates, exactly as the per-call path computed it (the
   function is exactly symmetric, so the order-independent memo key cannot
   change results).
2. **Immutability** — the ground-truth world never mutates after generation,
   so the memo needs no invalidation path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.geo.coordinates import geodesic_distance_km

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.topology.world import World


class WorldDistanceIndex:
    """Memoised facility-pair distances over a ground-truth world."""

    __slots__ = ("_world", "_pair_km")

    def __init__(self, world: "World") -> None:
        self._world = world
        self._pair_km: dict[tuple[str, str], float] = {}

    @property
    def world(self) -> "World":
        """The ground-truth world this index answers for."""
        return self._world

    def facility_pair_km(self, facility_a: str, facility_b: str) -> float:
        """Geodesic distance between two ground-truth facilities."""
        key = (
            (facility_a, facility_b)
            if facility_a <= facility_b
            else (facility_b, facility_a)
        )
        distance = self._pair_km.get(key)
        if distance is None:
            distance = geodesic_distance_km(
                self._world.facility_location(key[0]),
                self._world.facility_location(key[1]),
            )
            self._pair_km[key] = distance
        return distance

    def __len__(self) -> int:
        """Number of memoised facility pairs (mainly for tests)."""
        return len(self._pair_km)
