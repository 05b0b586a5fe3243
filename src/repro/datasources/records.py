"""Record types shared by all simulated data sources.

A :class:`SourceSnapshot` is what one database "knows" at collection time.
Snapshots are deliberately plain containers of primitive values (IPs, ASNs,
facility ids, CIDR strings) — the same granularity the real databases expose —
so that the merge logic and the inference pipeline cannot accidentally peek at
ground-truth objects.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.geo.coordinates import GeoPoint
from repro.topology.entities import TrafficLevel


class SourceName(enum.Enum):
    """Identifier of a simulated database."""

    WEBSITE = "IXP websites"
    HE = "Hurricane Electric"
    PDB = "PeeringDB"
    PCH = "Packet Clearing House"
    INFLECT = "Inflect"
    CAIDA = "CAIDA"
    APNIC = "APNIC"


@dataclass(frozen=True)
class PrefixRecord:
    """One IXP peering-LAN prefix as reported by a source."""

    prefix: str
    ixp_id: str
    source: SourceName


@dataclass(frozen=True)
class InterfaceRecord:
    """One IXP interface (IP inside a peering LAN assigned to a member AS)."""

    ip: str
    asn: int
    ixp_id: str
    source: SourceName


@dataclass(frozen=True)
class FacilityRecord:
    """One colocation facility as reported by a source."""

    facility_id: str
    name: str
    city: str
    country: str
    location: GeoPoint
    source: SourceName


@dataclass(frozen=True)
class ASFacilityRecord:
    """Presence of an AS in a facility as reported by a source."""

    asn: int
    facility_id: str
    source: SourceName


@dataclass(frozen=True)
class PortCapacityRecord:
    """Port capacity of one IXP member as reported by a source."""

    ixp_id: str
    asn: int
    capacity_mbps: int
    source: SourceName


@dataclass
class SourceSnapshot:
    """Everything one database reports about the world.

    Attributes map one-to-one onto the data the paper pulls from each source:
    peering-LAN prefixes, IXP interfaces (IP-to-AS mappings), IXP and AS
    colocation, facility coordinates, member port capacities, the minimum
    physical port capacity advertised in IXP pricing pages, and per-AS
    attributes (traffic levels, user populations).
    """

    source: SourceName
    prefixes: list[PrefixRecord] = field(default_factory=list)
    interfaces: list[InterfaceRecord] = field(default_factory=list)
    facilities: list[FacilityRecord] = field(default_factory=list)
    ixp_facilities: dict[str, set[str]] = field(default_factory=dict)
    as_facilities: list[ASFacilityRecord] = field(default_factory=list)
    port_capacities: list[PortCapacityRecord] = field(default_factory=list)
    min_physical_capacity: dict[str, int] = field(default_factory=dict)
    traffic_levels: dict[int, TrafficLevel] = field(default_factory=dict)
    user_populations: dict[int, int] = field(default_factory=dict)
    countries: dict[int, str] = field(default_factory=dict)

    def as_facility_map(self) -> dict[int, set[str]]:
        """AS -> set of facility ids, aggregated from the records."""
        result: dict[int, set[str]] = {}
        for record in self.as_facilities:
            result.setdefault(record.asn, set()).add(record.facility_id)
        return result
