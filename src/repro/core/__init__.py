"""The paper's primary contribution: the five-step remote-peering inference.

The pipeline classifies every IXP member interface as *local* or *remote* by
combining, in order:

1. :mod:`repro.core.step1_port_capacity` — reseller customers identified by
   fractional port capacities (below the IXP's minimum physical capacity);
2. :mod:`repro.core.step2_rtt` — the ping campaign post-processing: TTL
   filters, unusable-vantage-point removal, minimum-RTT extraction;
3. :mod:`repro.core.step3_colocation` — colocation-informed RTT
   interpretation over feasible facility rings;
4. :mod:`repro.core.step4_multi_ixp` — multi-IXP router inference from
   traceroute crossings and alias resolution;
5. :mod:`repro.core.step5_private_links` — private-connectivity localisation
   (Constrained-Facility-Search style voting).

:mod:`repro.core.baseline` implements the RTT-threshold-only state of the art
(Castro et al.) used as the comparison baseline.  :mod:`repro.core.engine`
executes the steps as a declared graph of fingerprint-keyed, cacheable nodes
(the scenario-sweep hot path) and returns each run's :class:`PipelineOutcome`.
"""

from repro.core.types import (
    InferenceReport,
    InferenceResult,
    InferenceStep,
    PeeringClassification,
)
from repro.core.inputs import InferenceInputs
from repro.core.step1_port_capacity import PortCapacityStep
from repro.core.step2_rtt import RTTCampaignSummary, RTTObservation, RTTMeasurementStep
from repro.core.step3_colocation import ColocationRTTStep, FeasibleFacilityAnalysis
from repro.core.step4_multi_ixp import MultiIXPRouterStep, MultiIXPRouter, MultiIXPRouterKind
from repro.core.step5_private_links import PrivateConnectivityStep
from repro.core.baseline import RTTBaseline
from repro.core.engine import (
    STEP_GRAPH,
    PipelineEngine,
    PipelineOutcome,
    StepResultCache,
    StepScope,
    StepSpec,
    SweepRunner,
)

__all__ = [
    "STEP_GRAPH",
    "PipelineEngine",
    "StepResultCache",
    "StepScope",
    "StepSpec",
    "SweepRunner",
    "InferenceReport",
    "InferenceResult",
    "InferenceStep",
    "PeeringClassification",
    "InferenceInputs",
    "PortCapacityStep",
    "RTTCampaignSummary",
    "RTTObservation",
    "RTTMeasurementStep",
    "ColocationRTTStep",
    "FeasibleFacilityAnalysis",
    "MultiIXPRouterStep",
    "MultiIXPRouter",
    "MultiIXPRouterKind",
    "PrivateConnectivityStep",
    "RTTBaseline",
    "PipelineOutcome",
]
