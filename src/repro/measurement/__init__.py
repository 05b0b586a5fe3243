"""Active measurement substrate: vantage points, pings, traceroutes, Y.1731.

The paper's methodology consumes four kinds of active measurements, all of
which are simulated here against the ground-truth world:

* **Vantage points** (:mod:`repro.measurement.vantage`) — looking glasses
  attached to IXP peering LANs and RIPE-Atlas-style probes colocated in IXP
  facilities, including the pathological ones the paper has to filter out
  (dead probes, probes in management LANs with inflated RTTs).
* **Ping campaigns** (:mod:`repro.measurement.ping`) — repeated rounds of
  pings from every vantage point of an IXP towards every member peering
  interface, producing raw RTT/TTL samples.  The looking-glass queries the
  paper automates through Periscope are these pings, sent from the
  looking-glass vantage points.
* **Traceroute campaigns** (:mod:`repro.measurement.traceroute`) — corpora of
  simulated traceroutes whose hops exhibit the IXP crossing and private
  interconnection signatures Steps 4-5 rely on.
* **Y.1731 inter-facility delay** (:mod:`repro.measurement.y1731`) — the
  facility-to-facility performance-monitoring measurements wide-area IXPs run
  on their own backbones (Fig. 2a / Fig. 6).
"""

from repro.measurement.results import (
    PingCampaignResult,
    PingSample,
    PingSeries,
    TracerouteCorpus,
)
from repro.measurement.vantage import VantagePoint, VantagePointKind, VantagePointPlanner
from repro.measurement.ping import PingCampaign
from repro.measurement.traceroute import TracerouteCampaign
from repro.measurement.y1731 import InterFacilityDelayMatrix, Y1731Monitor

__all__ = [
    "PingCampaignResult",
    "PingSample",
    "PingSeries",
    "TracerouteCorpus",
    "VantagePoint",
    "VantagePointKind",
    "VantagePointPlanner",
    "PingCampaign",
    "TracerouteCampaign",
    "InterFacilityDelayMatrix",
    "Y1731Monitor",
]
