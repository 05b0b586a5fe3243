"""Unit tests for geographic coordinates and geodesic distances."""

import math
import random

import pytest

from repro.exceptions import ConfigurationError
from repro.geo.cities import city_by_name
from repro.geo.coordinates import (
    GeoPoint,
    geodesic_distance_km,
    haversine_distance_km,
    midpoint,
    offset_point,
)


class TestGeoPoint:
    def test_valid_point(self):
        point = GeoPoint(52.37, 4.89)
        assert point.latitude == pytest.approx(52.37)
        assert point.longitude == pytest.approx(4.89)

    def test_as_tuple(self):
        assert GeoPoint(1.0, 2.0).as_tuple() == (1.0, 2.0)

    @pytest.mark.parametrize("lat", [-91.0, 91.0, 1000.0])
    def test_invalid_latitude(self, lat):
        with pytest.raises(ConfigurationError):
            GeoPoint(lat, 0.0)

    @pytest.mark.parametrize("lon", [-181.0, 181.0, 720.0])
    def test_invalid_longitude(self, lon):
        with pytest.raises(ConfigurationError):
            GeoPoint(0.0, lon)

    def test_distance_method_matches_function(self):
        a, b = GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0)
        assert a.distance_km(b) == pytest.approx(geodesic_distance_km(a, b))


class TestDistances:
    def test_zero_distance(self):
        point = GeoPoint(10.0, 10.0)
        assert geodesic_distance_km(point, point) == 0.0
        assert haversine_distance_km(point, point) == 0.0

    def test_equator_degree_is_about_111km(self):
        a, b = GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0)
        assert geodesic_distance_km(a, b) == pytest.approx(111.32, rel=0.01)

    def test_amsterdam_rotterdam_is_about_57km(self):
        # The paper's own example of a nearby-but-remote peer.
        ams = city_by_name("Amsterdam").location
        rot = city_by_name("Rotterdam").location
        assert geodesic_distance_km(ams, rot) == pytest.approx(57.0, abs=8.0)

    def test_london_bucharest_is_over_1300km(self):
        # The paper's NL-IX example of facilities more than 1,300 km apart.
        lon = city_by_name("London").location
        buc = city_by_name("Bucharest").location
        assert geodesic_distance_km(lon, buc) > 1_300.0

    def test_symmetry(self):
        a = city_by_name("Tokyo").location
        b = city_by_name("Sydney").location
        assert geodesic_distance_km(a, b) == pytest.approx(geodesic_distance_km(b, a), rel=1e-9)

    def test_geodesic_close_to_haversine(self):
        a = city_by_name("Paris").location
        b = city_by_name("New York").location
        geo = geodesic_distance_km(a, b)
        hav = haversine_distance_km(a, b)
        assert abs(geo - hav) / geo < 0.01

    def test_antipodal_fallback_is_finite(self):
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(0.0, 179.999999)
        distance = geodesic_distance_km(a, b)
        assert math.isfinite(distance)
        assert distance > 19_000.0

    def test_triangle_inequality_on_cities(self):
        a = city_by_name("Madrid").location
        b = city_by_name("Vienna").location
        c = city_by_name("Warsaw").location
        assert geodesic_distance_km(a, c) <= (
            geodesic_distance_km(a, b) + geodesic_distance_km(b, c) + 1e-6
        )


def _edge_case_pairs() -> list[tuple[GeoPoint, GeoPoint]]:
    """A deterministic grid concentrated on the Vincenty kernel's hard regions."""
    rng = random.Random(20260807)
    pairs: list[tuple[GeoPoint, GeoPoint]] = []
    # Broad seeded coverage.
    for _ in range(300):
        pairs.append((
            GeoPoint(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)),
            GeoPoint(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0)),
        ))
    # Identical points: the coincident short-circuit.
    for _ in range(20):
        point = GeoPoint(rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0))
        pairs.append((point, point))
    # Equatorial pairs: cos_sq_alpha == 0 guards the 0/0 division.
    for _ in range(40):
        pairs.append((
            GeoPoint(0.0, rng.uniform(-180.0, 180.0)),
            GeoPoint(0.0, rng.uniform(-180.0, 180.0)),
        ))
    # Near-antipodal and exactly antipodal: slow/failed convergence.
    for _ in range(40):
        lat = rng.uniform(-89.0, 89.0)
        lon = rng.uniform(-179.0, 179.0)
        wobble_lat = rng.uniform(-0.01, 0.01)
        wobble_lon = rng.uniform(-0.01, 0.01)
        anti_lon = lon + 180.0 if lon < 0.0 else lon - 180.0
        pairs.append((
            GeoPoint(lat, lon),
            GeoPoint(
                max(-90.0, min(90.0, -lat + wobble_lat)),
                max(-180.0, min(180.0, anti_lon + wobble_lon)),
            ),
        ))
    pairs.append((GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0)))
    pairs.append((GeoPoint(0.0, 0.0), GeoPoint(0.0, 179.999999)))
    pairs.append((GeoPoint(90.0, 0.0), GeoPoint(-90.0, 0.0)))
    # Tiny separations: first-iteration convergence.
    for _ in range(30):
        lat = rng.uniform(-89.0, 89.0)
        lon = rng.uniform(-179.0, 179.0)
        pairs.append((
            GeoPoint(lat, lon),
            GeoPoint(lat + rng.uniform(-1e-7, 1e-7),
                     lon + rng.uniform(-1e-7, 1e-7)),
        ))
    # Signed zero: -0.0 == 0.0, but the sign survives the trigonometry.
    pairs.append((GeoPoint(-0.0, 10.0), GeoPoint(0.0, 20.0)))
    pairs.append((GeoPoint(0.0, -0.0), GeoPoint(-0.0, 0.0)))
    # Swapped duplicates: the canonical endpoint ordering must make the
    # result independent of argument order.
    for a, b in rng.sample(pairs, 100):
        pairs.append((b, a))
    return pairs


class TestEdgeCaseGrid:
    """The kernel's contract over its hard regions, which random draws rarely hit."""

    def test_symmetry_is_exact(self):
        for a, b in _edge_case_pairs():
            assert geodesic_distance_km(a, b) == geodesic_distance_km(b, a), (a, b)

    def test_identical_points_are_zero_apart(self):
        pairs = _edge_case_pairs()
        assert sum(a == b for a, b in pairs) >= 20
        for a, b in pairs:
            assert geodesic_distance_km(a, a) == 0.0, a
            if a == b:
                assert geodesic_distance_km(a, b) == 0.0, (a, b)

    def test_distances_are_finite_and_non_negative(self):
        for a, b in _edge_case_pairs():
            distance = geodesic_distance_km(a, b)
            assert math.isfinite(distance) and distance >= 0.0, (a, b)


class TestOffsetAndMidpoint:
    def test_offset_distance_roundtrip(self):
        origin = city_by_name("Berlin").location
        moved = offset_point(origin, 25.0, 90.0)
        assert geodesic_distance_km(origin, moved) == pytest.approx(25.0, rel=0.02)

    def test_offset_zero_distance(self):
        origin = GeoPoint(10.0, 20.0)
        moved = offset_point(origin, 0.0, 123.0)
        assert geodesic_distance_km(origin, moved) < 0.001

    def test_offset_negative_distance_rejected(self):
        with pytest.raises(ConfigurationError):
            offset_point(GeoPoint(0.0, 0.0), -1.0, 0.0)

    def test_offset_longitude_wraps(self):
        origin = GeoPoint(0.0, 179.9)
        moved = offset_point(origin, 100.0, 90.0)
        assert -180.0 <= moved.longitude <= 180.0

    def test_midpoint_between_equator_points(self):
        a, b = GeoPoint(0.0, 0.0), GeoPoint(0.0, 10.0)
        mid = midpoint(a, b)
        assert mid.latitude == pytest.approx(0.0, abs=1e-6)
        assert mid.longitude == pytest.approx(5.0, abs=1e-6)

    def test_midpoint_is_roughly_equidistant(self):
        a = city_by_name("Lisbon").location
        b = city_by_name("Athens").location
        mid = midpoint(a, b)
        d1 = geodesic_distance_km(a, mid)
        d2 = geodesic_distance_km(mid, b)
        assert d1 == pytest.approx(d2, rel=0.02)
