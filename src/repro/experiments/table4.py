"""Table 4 — validation of each step of the algorithm and of the baseline.

:func:`run_table4_agreement` additionally reruns ablated pipeline variants
through :meth:`RemotePeeringStudy.sweep` and reports, per variant, the
validation accuracy and the classification agreement with the full pipeline
on identical measurements.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.engine import PipelineOutcome
from repro.experiments.base import ExperimentResult
from repro.study import RemotePeeringStudy
from repro.validation.metrics import evaluate_report
from repro.validation.report import per_step_metrics

#: The variants compared against the full methodology.
AGREEMENT_SCENARIOS: tuple[tuple[str, dict[str, bool]], ...] = (
    ("full", {}),
    ("no_step4_multi_ixp", {"enable_step4_multi_ixp": False}),
    ("no_step5_private_links", {"enable_step5_private_links": False}),
    ("no_traceroute_steps", {"enable_step4_multi_ixp": False,
                             "enable_step5_private_links": False}),
)

_ROW_LABELS = {
    "rtt_baseline": "RTTmin threshold (Castro et al. baseline)",
    "step1_port_capacity": "Step 1: Port capacity",
    "step2_3_rtt_colocation": "Step 2+3: RTTmin + colocation",
    "step4_multi_ixp": "Step 4: Multi-IXP routers",
    "step5_private_links": "Step 5: Private links",
    "combined": "Combined (all steps)",
}


def run(study: RemotePeeringStudy) -> ExperimentResult:
    """Regenerate Table 4 on the test subset of the validation dataset."""
    validation = study.validation
    test_ixps = validation.test_ixps()
    metrics = per_step_metrics(study.outcome, validation, ixp_ids=test_ixps)
    rows = []
    for key, label in _ROW_LABELS.items():
        row = {"methodology_feature": label}
        row.update({k: round(v, 3) for k, v in metrics[key].as_row().items()})
        rows.append(row)
    combined = metrics["combined"]
    baseline = metrics["rtt_baseline"]
    return ExperimentResult(
        experiment_id="table4",
        title="Validation of each step of the algorithm",
        paper_reference="Table 4",
        headline={
            "combined_accuracy": combined.accuracy,
            "combined_coverage": combined.coverage,
            "baseline_accuracy": baseline.accuracy,
            "accuracy_gain_over_baseline": combined.accuracy - baseline.accuracy,
        },
        rows=rows,
        notes=(
            "Step rows evaluate only the classifications each step contributed inside the "
            "full pipeline run (so per-step coverage is that step's own contribution); the "
            "paper evaluates steps on partially overlapping subsets, so per-step coverage "
            "levels are not directly comparable, but the ordering of accuracies and the "
            "combined-vs-baseline gap are."
        ),
    )


def _agreement(reference: PipelineOutcome, variant: PipelineOutcome) -> float:
    """Share of interfaces classified by both runs that agree."""
    both = 0
    agree = 0
    for key, result in reference.report.results.items():
        if not result.is_inferred:
            continue
        other = variant.report.result_for(*key)
        if other is None or not other.is_inferred:
            continue
        both += 1
        if other.classification is result.classification:
            agree += 1
    return agree / both if both else 0.0


def run_table4_agreement(study: RemotePeeringStudy) -> ExperimentResult:
    """Table 4 companion: ablated variants vs the full pipeline, as one sweep."""
    base = study.config.inference
    configs = [replace(base, **overrides) for _, overrides in AGREEMENT_SCENARIOS]
    outcomes = study.sweep(configs)
    test_ixps = study.validation.test_ixps()
    reference = outcomes[0]
    rows = []
    for (label, _), outcome in zip(AGREEMENT_SCENARIOS, outcomes):
        metrics = evaluate_report(outcome.report, study.validation, ixp_ids=test_ixps)
        rows.append(
            {
                "scenario": label,
                "coverage": round(metrics.coverage, 3),
                "accuracy": round(metrics.accuracy, 3),
                "agreement_with_full": round(_agreement(reference, outcome), 3),
            }
        )
    return ExperimentResult(
        experiment_id="table4_agreement",
        title="Agreement of ablated pipeline variants with the full methodology",
        paper_reference="Table 4 / Section 5.3 (agreement)",
        headline={
            "scenarios": len(rows),
            "full_accuracy": rows[0]["accuracy"],
            "min_agreement": min(r["agreement_with_full"] for r in rows),
        },
        rows=rows,
        notes=(
            "Agreement counts only interfaces classified by both the full pipeline and "
            "the variant; the variants run as one engine-backed sweep sharing Steps 1-3 "
            "and the traceroute observables."
        ),
    )
