"""Geographic primitives: coordinates, geodesic distances, delay models.

The paper's Step 3 translates a measured minimum RTT into a feasible distance
ring around a vantage point and intersects it with the geographic footprint of
the IXP (its colocation facilities).  Everything geographic lives here:

* :mod:`repro.geo.coordinates` — latitude/longitude points and geodesic
  distance (Vincenty inverse formula on the WGS-84 ellipsoid, with a haversine
  fallback), approximating Karney's method used in the paper.
* :mod:`repro.geo.cities` — a built-in gazetteer of world cities used by the
  synthetic topology generator.
* :mod:`repro.geo.regions` — metropolitan-area grouping and RIR service
  regions.
* :mod:`repro.geo.delay_model` — the RTT <-> distance model (Katz-Bassett
  maximum probe speed, the paper's fitted minimum speed curve) used both to
  synthesise realistic RTTs and to invert measured RTTs into feasible distance
  intervals.
* :mod:`repro.geo.distindex` — the shared, memoised geodesic-distance index
  (point-to-facility and facility-pair distances, sorted distance profiles,
  footprint span aggregates) that serves the geometry hot path of inference
  Steps 3 and 4.  It reads the observed dataset's domain names, so it is
  imported from its module, not re-exported here: the dataset module
  imports this package.
"""

from repro.geo.coordinates import GeoPoint, geodesic_distance_km, haversine_distance_km
from repro.geo.cities import City, WORLD_CITIES, city_by_name, cities_in_region
from repro.geo.regions import RIRRegion, region_for_country, same_metro_area
from repro.geo.delay_model import DelayModel, FeasibleRing

__all__ = [
    "GeoPoint",
    "geodesic_distance_km",
    "haversine_distance_km",
    "City",
    "WORLD_CITIES",
    "city_by_name",
    "cities_in_region",
    "RIRRegion",
    "region_for_country",
    "same_metro_area",
    "DelayModel",
    "FeasibleRing",
]
