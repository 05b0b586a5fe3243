"""repro — a full reproduction of "O Peer, Where Art Thou? Uncovering Remote
Peering Interconnections at IXPs" (IMC 2018).

The package is organised in layers:

* ``repro.geo`` / ``repro.topology`` — the synthetic ground-truth Internet
  (facilities, IXPs, ASes, routers, resellers, memberships);
* ``repro.datasources`` — noisy simulated views of the public databases the
  paper merges (IXP websites, Hurricane Electric, PeeringDB, PCH, Inflect,
  CAIDA, APNIC, Routeviews prefix2as);
* ``repro.measurement`` / ``repro.routing`` / ``repro.traixroute`` /
  ``repro.alias`` — the active-measurement substrate (ping and traceroute
  campaigns, vantage points, Y.1731 monitors, IXP-crossing detection, alias
  resolution);
* ``repro.core`` — the paper's contribution: the five-step remote-peering
  inference pipeline and the RTT-threshold baseline;
* ``repro.validation`` / ``repro.analysis`` / ``repro.experiments`` —
  validation metrics, the Section 6 analyses and one experiment module per
  paper table/figure;
* ``repro.portal`` — snapshot/GeoJSON exports mirroring the paper's portal.

Quick start::

    from repro import ExperimentConfig, RemotePeeringStudy

    study = RemotePeeringStudy(ExperimentConfig.small())
    outcome = study.outcome
    print(outcome.report.remote_share())
"""

from repro.config import (
    CampaignConfig,
    DataSourceNoiseConfig,
    ExperimentConfig,
    GeneratorConfig,
    InferenceConfig,
)
from repro.core.engine import PipelineOutcome
from repro.core.types import (
    InferenceReport,
    InferenceResult,
    InferenceStep,
    PeeringClassification,
)
from repro.study import RemotePeeringStudy
from repro.topology.generator import WorldGenerator
from repro.topology.world import World

__version__ = "1.0.0"

__all__ = [
    "CampaignConfig",
    "DataSourceNoiseConfig",
    "ExperimentConfig",
    "GeneratorConfig",
    "InferenceConfig",
    "PipelineOutcome",
    "InferenceReport",
    "InferenceResult",
    "InferenceStep",
    "PeeringClassification",
    "RemotePeeringStudy",
    "WorldGenerator",
    "World",
    "__version__",
]
