"""JSON snapshots of the remote-peering inferences (portal backend)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.engine import PipelineOutcome
from repro.datasources.merge import ObservedDataset
from repro.exceptions import ReproError


@dataclass
class InferenceSnapshot:
    """One exportable snapshot of the inferences for a set of IXPs."""

    label: str
    generated_from_seed: int
    ixps: dict[str, dict[str, object]] = field(default_factory=dict)

    def to_json(self, *, indent: int = 2) -> str:
        """Serialise the snapshot to JSON."""
        return json.dumps(
            {
                "label": self.label,
                "seed": self.generated_from_seed,
                "ixps": self.ixps,
            },
            indent=indent,
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "InferenceSnapshot":
        """Parse a snapshot previously produced by :meth:`to_json`."""
        payload = json.loads(text)
        return cls(
            label=payload["label"],
            generated_from_seed=payload["seed"],
            ixps=payload["ixps"],
        )

    def remote_share(self, ixp_id: str) -> float:
        """Remote share recorded for one IXP."""
        if ixp_id not in self.ixps:
            raise ReproError(f"snapshot has no IXP {ixp_id!r}")
        return float(self.ixps[ixp_id]["remote_share"])


class SnapshotExporter:
    """Builds and writes portal snapshots from pipeline outcomes."""

    def __init__(self, dataset: ObservedDataset, *, seed: int = 0) -> None:
        self.dataset = dataset
        self.seed = seed

    def build(self, outcome: PipelineOutcome, *, label: str = "snapshot") -> InferenceSnapshot:
        """Build a snapshot covering every IXP of the outcome."""
        snapshot = InferenceSnapshot(label=label, generated_from_seed=self.seed)
        for ixp_id in outcome.ixp_ids:
            results = outcome.report.results_for_ixp(ixp_id)
            inferred = [r for r in results if r.is_inferred]
            members = []
            for result in sorted(results, key=lambda r: r.interface_ip):
                members.append(
                    {
                        "interface": result.interface_ip,
                        "asn": result.asn,
                        "classification": result.classification.value,
                        "step": result.step.value if result.step else None,
                    }
                )
            snapshot.ixps[ixp_id] = {
                "interfaces": len(results),
                "inferred": len(inferred),
                "remote_share": outcome.report.remote_share(ixp_id),
                "members": members,
            }
        return snapshot

    def write(self, outcome: PipelineOutcome, path: str | Path, *,
              label: str = "snapshot") -> Path:
        """Write a snapshot to disk and return its path."""
        snapshot = self.build(outcome, label=label)
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(snapshot.to_json(), encoding="utf-8")
        return target
