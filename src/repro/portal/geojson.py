"""GeoJSON export of IXP footprints and member inferences (portal map view)."""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.engine import PipelineOutcome
from repro.datasources.merge import ObservedDataset
from repro.exceptions import ReproError


class GeoJSONExporter:
    """Renders the geographic footprint of IXPs and their inferred members."""

    def __init__(self, dataset: ObservedDataset) -> None:
        self.dataset = dataset

    # ------------------------------------------------------------------ #
    def facility_features(self, ixp_id: str) -> list[dict]:
        """Point features for every located facility of one IXP."""
        features = []
        for facility_id in sorted(self.dataset.facilities_of_ixp(ixp_id)):
            location = self.dataset.facility_location(facility_id)
            if location is None:
                continue
            features.append(
                {
                    "type": "Feature",
                    "geometry": {
                        "type": "Point",
                        "coordinates": [location.longitude, location.latitude],
                    },
                    "properties": {"kind": "ixp-facility", "ixp": ixp_id,
                                   "facility": facility_id},
                }
            )
        return features

    def member_features(self, outcome: PipelineOutcome, ixp_id: str) -> list[dict]:
        """Point features for inferred members, located at their observed facilities."""
        features = []
        for result in outcome.report.results_for_ixp(ixp_id):
            if not result.is_inferred:
                continue
            for facility_id in sorted(self.dataset.facilities_of_as(result.asn)):
                location = self.dataset.facility_location(facility_id)
                if location is None:
                    continue
                features.append(
                    {
                        "type": "Feature",
                        "geometry": {
                            "type": "Point",
                            "coordinates": [location.longitude, location.latitude],
                        },
                        "properties": {
                            "kind": "member",
                            "ixp": ixp_id,
                            "asn": result.asn,
                            "classification": result.classification.value,
                            "facility": facility_id,
                        },
                    }
                )
                break  # one representative location per member
        return features

    def feature_collection(self, outcome: PipelineOutcome, ixp_id: str) -> dict:
        """A GeoJSON FeatureCollection for one IXP."""
        if ixp_id not in outcome.ixp_ids:
            raise ReproError(f"the outcome does not cover IXP {ixp_id!r}")
        return {
            "type": "FeatureCollection",
            "features": self.facility_features(ixp_id) + self.member_features(outcome, ixp_id),
        }

    def write(self, outcome: PipelineOutcome, ixp_id: str, path: str | Path) -> Path:
        """Write the FeatureCollection of one IXP to disk."""
        collection = self.feature_collection(outcome, ixp_id)
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(collection, indent=2, sort_keys=True), encoding="utf-8")
        return target
