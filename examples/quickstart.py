#!/usr/bin/env python3
"""Quickstart: infer remote peers at the largest simulated IXPs.

This is the five-minute tour of the library:

1. build a study (synthetic world + public-database views + measurement
   campaigns),
2. run the paper's five-step inference pipeline,
3. look at the headline results (remote share, coverage) and validate them
   against the exported ground-truth labels.

Run with::

    python examples/quickstart.py [--scale tiny|small|default] [--seed N]
"""

from __future__ import annotations

import argparse

from repro import ExperimentConfig, GeneratorConfig, RemotePeeringStudy
from repro.validation.metrics import evaluate_report


def build_config(scale: str, seed: int) -> ExperimentConfig:
    """Pick one of the bundled configuration scales, seeded with ``seed``."""
    if scale == "tiny":
        return ExperimentConfig.tiny(seed=seed)
    if scale == "small":
        return ExperimentConfig.small(seed=seed)
    return ExperimentConfig(generator=GeneratorConfig(seed=seed))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", choices=("tiny", "small", "default"), default="small")
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args()

    study = RemotePeeringStudy(build_config(args.scale, args.seed))
    print("Generating the world and running the measurement campaigns...")
    outcome = study.outcome

    print("\n=== Study summary ===")
    for key, value in study.summary().items():
        print(f"  {key}: {value}")

    print("\n=== Per-IXP inference results ===")
    print(f"{'IXP':<22} {'members':>8} {'inferred':>9} {'remote share':>13}")
    for ixp_id in study.studied_ixp_ids:
        results = outcome.report.results_for_ixp(ixp_id)
        inferred = [r for r in results if r.is_inferred]
        share = outcome.report.remote_share(ixp_id)
        print(f"{study.world.ixp(ixp_id).name:<22} {len(results):>8} "
              f"{len(inferred):>9} {share:>12.1%}")

    metrics = evaluate_report(outcome.report, study.validation,
                              ixp_ids=study.validation.test_ixps())
    baseline = evaluate_report(outcome.baseline_report, study.validation,
                               ixp_ids=study.validation.test_ixps())
    print("\n=== Validation against operator/website ground truth (test subset) ===")
    print(f"  five-step methodology : accuracy {metrics.accuracy:.1%}, "
          f"coverage {metrics.coverage:.1%}, precision {metrics.precision:.1%}")
    print(f"  RTT-threshold baseline: accuracy {baseline.accuracy:.1%}, "
          f"coverage {baseline.coverage:.1%}, precision {baseline.precision:.1%}")


if __name__ == "__main__":
    main()
