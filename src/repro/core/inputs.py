"""Bundle of observable inputs consumed by the inference pipeline.

The pipeline never touches the ground-truth world.  Everything it may use is
listed here: the merged public-database view, the raw ping campaign output,
the traceroute corpus, the IP-to-AS mapping and the alias-resolution service
(the latter two are external tools in the paper — Routeviews prefix2as and
MIDAR — and are simulated elsewhere in this library).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.alias.midar import AliasResolver
from repro.datasources.merge import ObservedDataset
from repro.datasources.prefix2as import Prefix2ASMap
from repro.exceptions import InferenceError
from repro.geo.distindex import GeoDistanceIndex
from repro.measurement.results import PingCampaignResult, TracerouteCorpus


@dataclass
class InferenceInputs:
    """Everything the five-step pipeline is allowed to look at.

    ``geo_index`` is the shared :class:`~repro.geo.distindex.GeoDistanceIndex`
    over the dataset's facilities; one index is created per inputs bundle (or
    injected) so that every pipeline run over the same inputs — scenario
    sweeps rerun the pipeline under many configurations — reuses the same
    memoised distances.

    The bundle's members are generation-stamped
    (:class:`~repro.versioning.Versioned`) and expose only read-only
    collections, so their mutators are the only way to revise them.  The
    step-graph engine folds the version tokens of each step's declared data
    into its cache keys, so one bundle (and one engine) survives every
    dataset and campaign revision — steps whose declared inputs are
    untouched are served from cache.
    """

    dataset: ObservedDataset
    ping_result: PingCampaignResult
    corpus: TracerouteCorpus
    prefix2as: Prefix2ASMap
    alias_resolver: AliasResolver
    geo_index: GeoDistanceIndex | None = None

    def __post_init__(self) -> None:
        if not self.dataset.interface_ixp:
            raise InferenceError("the observed dataset contains no IXP interfaces")
        if self.geo_index is None:
            self.geo_index = GeoDistanceIndex(self.dataset)
        elif self.geo_index.dataset is not self.dataset:
            raise InferenceError("geo_index must be built over the same dataset")
