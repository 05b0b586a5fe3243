"""Geographic coordinates and geodesic distance computation.

The paper computes distances between colocation facilities with Karney's
geodesic algorithm.  We implement the Vincenty inverse formula on the WGS-84
ellipsoid, which agrees with Karney's method to well below a kilometre for the
distances that matter here (tens to thousands of kilometres), and fall back to
the spherical haversine formula for the rare antipodal cases where Vincenty
does not converge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import ConfigurationError

#: WGS-84 semi-major axis (metres).
_WGS84_A = 6_378_137.0
#: WGS-84 flattening.
_WGS84_F = 1.0 / 298.257223563
#: WGS-84 semi-minor axis (metres).
_WGS84_B = _WGS84_A * (1.0 - _WGS84_F)
#: Ellipsoid terms of the final Vincenty series.
_A2_MINUS_B2 = _WGS84_A**2 - _WGS84_B**2
_B2 = _WGS84_B**2
#: Vincenty iterations before the haversine fallback takes over.
_MAX_ITERATIONS = 200

#: Mean Earth radius (kilometres) used by the haversine fallback.
EARTH_RADIUS_KM = 6_371.0088


@dataclass(frozen=True, order=True)
class GeoPoint:
    """A point on the Earth's surface.

    Attributes
    ----------
    latitude:
        Latitude in decimal degrees, in ``[-90, 90]``.
    longitude:
        Longitude in decimal degrees, in ``[-180, 180]``.
    """

    latitude: float
    longitude: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.latitude <= 90.0:
            raise ConfigurationError(f"latitude out of range: {self.latitude!r}")
        if not -180.0 <= self.longitude <= 180.0:
            raise ConfigurationError(f"longitude out of range: {self.longitude!r}")

    def distance_km(self, other: "GeoPoint") -> float:
        """Geodesic distance to ``other`` in kilometres."""
        return geodesic_distance_km(self, other)

    def as_tuple(self) -> tuple[float, float]:
        """Return ``(latitude, longitude)``."""
        return (self.latitude, self.longitude)


def haversine_distance_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in kilometres.

    Uses the haversine formula on a sphere of mean Earth radius.  Accurate to
    ~0.5% which is more than enough as a fallback.
    """
    lat1, lon1 = math.radians(a.latitude), math.radians(a.longitude)
    lat2, lon2 = math.radians(b.latitude), math.radians(b.longitude)
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = (
        math.sin(dlat / 2.0) ** 2
        + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def geodesic_distance_km(a: GeoPoint, b: GeoPoint) -> float:
    """Geodesic (ellipsoidal) distance between two points, in kilometres.

    Implements the Vincenty inverse formula on WGS-84.  Falls back to the
    haversine distance when the iteration fails to converge (nearly antipodal
    points), which keeps the function total.

    The result is *exactly* symmetric in its arguments: the endpoints are
    put in a canonical order before evaluating, because the raw Vincenty
    iteration can differ in the last ulp under argument swap, and consumers
    (notably :class:`repro.geo.distindex.GeoDistanceIndex`) memoise distances
    under order-independent keys and compare them with strict inequalities.
    """
    if a == b:
        return 0.0
    if b < a:
        a, b = b, a

    phi1 = math.radians(a.latitude)
    phi2 = math.radians(b.latitude)
    lam = math.radians(b.longitude - a.longitude)

    u1 = math.atan((1.0 - _WGS84_F) * math.tan(phi1))
    u2 = math.atan((1.0 - _WGS84_F) * math.tan(phi2))
    sin_u1, cos_u1 = math.sin(u1), math.cos(u1)
    sin_u2, cos_u2 = math.sin(u2), math.cos(u2)

    lam_current = lam
    for _ in range(_MAX_ITERATIONS):
        sin_lam = math.sin(lam_current)
        cos_lam = math.cos(lam_current)
        # Squares are written as explicit multiplications (not ``**2``):
        # libm pow() can differ from a single multiply in the last ulp, and
        # that ulp would move every pinned digest (hop RTTs derive from these
        # distances).
        cross = cos_u2 * sin_lam
        along = cos_u1 * sin_u2 - sin_u1 * cos_u2 * cos_lam
        sin_sigma = math.sqrt(cross * cross + along * along)
        if sin_sigma == 0.0:
            return 0.0  # coincident points
        cos_sigma = sin_u1 * sin_u2 + cos_u1 * cos_u2 * cos_lam
        sigma = math.atan2(sin_sigma, cos_sigma)
        sin_alpha = cos_u1 * cos_u2 * sin_lam / sin_sigma
        cos_sq_alpha = 1.0 - sin_alpha * sin_alpha
        if cos_sq_alpha == 0.0:
            cos_2sigma_m = 0.0  # equatorial line
        else:
            cos_2sigma_m = cos_sigma - 2.0 * sin_u1 * sin_u2 / cos_sq_alpha
        c = (
            _WGS84_F
            / 16.0
            * cos_sq_alpha
            * (4.0 + _WGS84_F * (4.0 - 3.0 * cos_sq_alpha))
        )
        lam_prev = lam_current
        lam_current = lam + (1.0 - c) * _WGS84_F * sin_alpha * (
            sigma
            + c
            * sin_sigma
            * (
                cos_2sigma_m
                + c * cos_sigma * (-1.0 + 2.0 * (cos_2sigma_m * cos_2sigma_m))
            )
        )
        if abs(lam_current - lam_prev) < 1e-12:
            break
    else:
        # Vincenty failed to converge (nearly antipodal); haversine is fine.
        return haversine_distance_km(a, b)

    u_sq = cos_sq_alpha * _A2_MINUS_B2 / _B2
    big_a = 1.0 + u_sq / 16384.0 * (
        4096.0 + u_sq * (-768.0 + u_sq * (320.0 - 175.0 * u_sq))
    )
    big_b = u_sq / 1024.0 * (256.0 + u_sq * (-128.0 + u_sq * (74.0 - 47.0 * u_sq)))
    delta_sigma = (
        big_b
        * sin_sigma
        * (
            cos_2sigma_m
            + big_b
            / 4.0
            * (
                cos_sigma * (-1.0 + 2.0 * (cos_2sigma_m * cos_2sigma_m))
                - big_b
                / 6.0
                * cos_2sigma_m
                * (-3.0 + 4.0 * (sin_sigma * sin_sigma))
                * (-3.0 + 4.0 * (cos_2sigma_m * cos_2sigma_m))
            )
        )
    )
    distance_m = _WGS84_B * big_a * (sigma - delta_sigma)
    return distance_m / 1_000.0


def midpoint(a: GeoPoint, b: GeoPoint) -> GeoPoint:
    """Approximate midpoint of the great-circle segment between two points."""
    lat1, lon1 = math.radians(a.latitude), math.radians(a.longitude)
    lat2, lon2 = math.radians(b.latitude), math.radians(b.longitude)
    bx = math.cos(lat2) * math.cos(lon2 - lon1)
    by = math.cos(lat2) * math.sin(lon2 - lon1)
    lat_mid = math.atan2(
        math.sin(lat1) + math.sin(lat2),
        math.sqrt((math.cos(lat1) + bx) ** 2 + by**2),
    )
    lon_mid = lon1 + math.atan2(by, math.cos(lat1) + bx)
    lon_deg = math.degrees(lon_mid)
    # Normalise longitude into [-180, 180].
    lon_deg = (lon_deg + 180.0) % 360.0 - 180.0
    return GeoPoint(math.degrees(lat_mid), lon_deg)


def offset_point(origin: GeoPoint, distance_km: float, bearing_deg: float) -> GeoPoint:
    """Return the point ``distance_km`` away from ``origin`` along ``bearing_deg``.

    Uses the spherical direct formula, which is accurate enough for placing
    synthetic facilities around a city centre.
    """
    if distance_km < 0:
        raise ConfigurationError("distance_km must be non-negative")
    angular = distance_km / EARTH_RADIUS_KM
    bearing = math.radians(bearing_deg)
    lat1 = math.radians(origin.latitude)
    lon1 = math.radians(origin.longitude)
    lat2 = math.asin(
        math.sin(lat1) * math.cos(angular)
        + math.cos(lat1) * math.sin(angular) * math.cos(bearing)
    )
    lon2 = lon1 + math.atan2(
        math.sin(bearing) * math.sin(angular) * math.cos(lat1),
        math.cos(angular) - math.sin(lat1) * math.sin(lat2),
    )
    lat_deg = max(-90.0, min(90.0, math.degrees(lat2)))
    lon_deg = (math.degrees(lon2) + 180.0) % 360.0 - 180.0
    return GeoPoint(lat_deg, lon_deg)
