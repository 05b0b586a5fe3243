"""RTT <-> distance model.

Two directions of the same physical relation are needed:

* **Synthesis** — the measurement simulators need to produce a realistic RTT
  for a probe travelling a given geodesic distance (plus access/queueing
  noise).
* **Inversion** — Step 3 of the inference algorithm needs to translate a
  measured minimum RTT into a *feasible distance ring* ``[d_min, d_max]``
  around the vantage point (Fig. 7 in the paper).

The paper anchors both directions in two empirical speed bounds:

* Katz-Bassett et al.: the end-to-end probe packet speed is at most
  ``v_max = 4/9 * c``; and
* a lower bound fitted on the NL-IX / NET-IX Y.1731 inter-facility delay
  dataset, increasing with distance (short paths take relatively more
  detours and per-hop overhead than long-haul paths).

We use the same functional form for the lower bound,
``v_min(d) = max(v_floor, k * (ln(d) - 3))`` with ``d`` in kilometres, and
keep every synthesised RTT strictly inside the band implied by the two bounds
so that the inversion used by Step 3 is sound by construction.  Out-of-band
outliers (the paper's footnote 7) can be injected explicitly by the noise
configuration of the measurement layer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from threading import Lock

from repro.constants import MAX_PROBE_SPEED_KM_S
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class FeasibleRing:
    """The ring (annulus) of feasible target locations around a vantage point.

    Attributes
    ----------
    min_distance_km:
        Minimum distance compatible with the measured RTT.
    max_distance_km:
        Maximum distance compatible with the measured RTT.
    """

    min_distance_km: float
    max_distance_km: float

    def __post_init__(self) -> None:
        if self.min_distance_km < 0 or self.max_distance_km < 0:
            raise ConfigurationError("feasible distances must be non-negative")
        if self.min_distance_km > self.max_distance_km:
            raise ConfigurationError(
                "min_distance_km must not exceed max_distance_km "
                f"({self.min_distance_km} > {self.max_distance_km})"
            )

    def contains(self, distance_km: float) -> bool:
        """Return True if ``distance_km`` lies inside the ring (inclusive)."""
        return self.min_distance_km <= distance_km <= self.max_distance_km

    @property
    def width_km(self) -> float:
        """Width of the ring in kilometres."""
        return self.max_distance_km - self.min_distance_km


class DelayModel:
    """Physical model linking geodesic distance and round-trip time.

    Parameters
    ----------
    v_max_km_s:
        Maximum end-to-end probe speed (defaults to 4/9 of the speed of
        light, per Katz-Bassett et al.).
    v_min_coefficient_km_s:
        The ``k`` of the fitted lower-bound speed ``v_min(d) = k*(ln(d)-3)``.
    v_min_floor_km_s:
        Lower clamp for ``v_min`` so the bound stays positive for short
        distances (``d < e^3 ~= 20 km``), where the logarithmic fit is not
        meaningful.
    base_overhead_ms:
        Fixed per-measurement overhead (forwarding, serialisation, last-mile
        access) added to every synthesised RTT, independent of distance.
    inversion_slack_ms:
        Extra RTT budget subtracted before inverting an RTT into a *minimum*
        distance.  It absorbs queueing jitter and forwarding overhead so that
        a sub-millisecond RTT remains compatible with distance zero (a member
        colocated in the very facility hosting the vantage point) — without
        it, every measurement would imply a spuriously positive lower bound.
    """

    #: Largest distance (km) considered when inverting RTT to distance; half
    #: the Earth's circumference.
    MAX_EARTH_DISTANCE_KM = 20_037.5

    def __init__(
        self,
        *,
        v_max_km_s: float = MAX_PROBE_SPEED_KM_S,
        v_min_coefficient_km_s: float = 10_000.0,
        v_min_floor_km_s: float = 5_000.0,
        base_overhead_ms: float = 0.15,
        inversion_slack_ms: float = 1.0,
    ) -> None:
        if v_max_km_s <= 0:
            raise ConfigurationError("v_max_km_s must be positive")
        if v_min_floor_km_s <= 0:
            raise ConfigurationError("v_min_floor_km_s must be positive")
        if v_min_coefficient_km_s <= 0:
            raise ConfigurationError("v_min_coefficient_km_s must be positive")
        if base_overhead_ms < 0:
            raise ConfigurationError("base_overhead_ms must be non-negative")
        if inversion_slack_ms < 0:
            raise ConfigurationError("inversion_slack_ms must be non-negative")
        self.v_max_km_s = v_max_km_s
        self.v_min_coefficient_km_s = v_min_coefficient_km_s
        self.v_min_floor_km_s = v_min_floor_km_s
        self.base_overhead_ms = base_overhead_ms
        self.inversion_slack_ms = inversion_slack_ms
        # Memo for the bisection-based RTT -> minimum-distance inversion.
        # Looking glasses report integer milliseconds, so Step 3 inverts the
        # same RTT values over and over; the model's parameters are fixed at
        # construction, making the inversion a pure function of the RTT.
        self._min_distance_memo: dict[float, float] = {}
        # Serialises memo stores from concurrent caller threads.
        self._lock = Lock()

    # ------------------------------------------------------------------ #
    # Speed bounds
    # ------------------------------------------------------------------ #
    def v_min_km_s(self, distance_km: float) -> float:
        """Lower bound on the effective end-to-end speed for a distance."""
        if distance_km <= 0:
            return self.v_min_floor_km_s
        fitted = self.v_min_coefficient_km_s * (math.log(distance_km) - 3.0)
        return max(self.v_min_floor_km_s, fitted)

    # ------------------------------------------------------------------ #
    # RTT bounds for a known distance
    # ------------------------------------------------------------------ #
    def min_rtt_ms(self, distance_km: float) -> float:
        """The smallest physically possible RTT for a geodesic distance."""
        if distance_km < 0:
            raise ConfigurationError("distance_km must be non-negative")
        if distance_km == 0:
            return 0.0
        return 2.0 * distance_km / self.v_max_km_s * 1_000.0

    def max_rtt_ms(self, distance_km: float) -> float:
        """The largest RTT the lower speed bound allows for a distance."""
        if distance_km < 0:
            raise ConfigurationError("distance_km must be non-negative")
        if distance_km == 0:
            return self.base_overhead_ms
        return 2.0 * distance_km / self.v_min_km_s(distance_km) * 1_000.0

    # ------------------------------------------------------------------ #
    # Synthesis
    # ------------------------------------------------------------------ #
    def sample_rtt_ms(
        self,
        distance_km: float,
        rng: random.Random,
        *,
        jitter_ms: float = 0.3,
        path_stretch: float = 1.0,
    ) -> float:
        """Draw a plausible RTT (ms) for a path covering ``distance_km``.

        The propagation component is drawn from a speed uniformly distributed
        in the inner 90% of the ``[v_min, v_max]`` band, then a fixed access
        overhead and an exponential jitter term are added.  ``path_stretch``
        (>= 1) inflates the effective distance to model circuitous layer-2
        paths (e.g. resold transport that does not follow the geodesic).
        """
        if distance_km < 0:
            raise ConfigurationError("distance_km must be non-negative")
        if path_stretch < 1.0:
            raise ConfigurationError("path_stretch must be >= 1")
        if jitter_ms < 0:
            raise ConfigurationError("jitter_ms must be non-negative")

        effective_km = distance_km * path_stretch
        if effective_km == 0.0:
            propagation_ms = rng.uniform(0.02, 0.25)
        else:
            v_low = self.v_min_km_s(effective_km)
            v_high = self.v_max_km_s
            # Keep away from the exact bounds so the inversion always brackets
            # the true distance.
            margin = 0.05 * (v_high - v_low)
            speed = rng.uniform(v_low + margin, v_high - margin)
            propagation_ms = 2.0 * effective_km / speed * 1_000.0
        jitter = rng.expovariate(1.0 / jitter_ms) if jitter_ms > 0 else 0.0
        return propagation_ms + self.base_overhead_ms + jitter

    # ------------------------------------------------------------------ #
    # Inversion (Step 3)
    # ------------------------------------------------------------------ #
    def max_distance_km(self, rtt_ms: float) -> float:
        """Largest geodesic distance compatible with a measured RTT."""
        if rtt_ms < 0:
            raise ConfigurationError("rtt_ms must be non-negative")
        propagation_ms = max(0.0, rtt_ms)
        return min(
            self.MAX_EARTH_DISTANCE_KM,
            propagation_ms / 1_000.0 * self.v_max_km_s / 2.0,
        )

    def min_distance_km(self, rtt_ms: float) -> float:
        """Smallest geodesic distance compatible with a measured RTT.

        Memoised per model instance (the parameters are fixed at
        construction); :meth:`invert_min_distance_km` is the raw,
        memo-bypassing bisection.
        """
        cached = self._min_distance_memo.get(rtt_ms)
        if cached is not None:
            return cached
        # The bisection is a pure function of the fixed parameters, so it is
        # computed outside the lock; only the memo store is serialised and
        # the hit path above stays lock-free.
        distance = self.invert_min_distance_km(rtt_ms)
        with self._lock:
            self._min_distance_memo[rtt_ms] = distance
        return distance

    def invert_min_distance_km(self, rtt_ms: float) -> float:
        """The raw RTT -> minimum-distance bisection (no memoisation).

        Solves ``max_rtt_ms(d) = rtt_ms`` for ``d`` by bisection: any target
        closer than the returned distance would have produced a smaller RTT
        even along the slowest plausible path.  The fixed overhead is
        subtracted first; RTTs at or below the overhead are compatible with
        distance zero.
        """
        if rtt_ms < 0:
            raise ConfigurationError("rtt_ms must be non-negative")
        effective = rtt_ms - self.base_overhead_ms - self.inversion_slack_ms
        if effective <= 0:
            return 0.0
        # max_rtt_ms is strictly increasing in d, so bisection applies.
        lo, hi = 0.0, self.MAX_EARTH_DISTANCE_KM
        if self.max_rtt_ms(hi) <= effective:
            return hi
        for _ in range(80):
            mid = (lo + hi) / 2.0
            if self.max_rtt_ms(mid) < effective:
                lo = mid
            else:
                hi = mid
        return lo

    def feasible_ring(self, rtt_ms: float) -> FeasibleRing:
        """Feasible distance ring around a vantage point for a measured RTT."""
        return FeasibleRing(
            min_distance_km=self.min_distance_km(rtt_ms),
            max_distance_km=self.max_distance_km(rtt_ms),
        )
