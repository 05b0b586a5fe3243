"""Higher-level validation reporting: per IXP (Fig. 8) and per step (Table 4)."""

from __future__ import annotations

from repro.core.engine import PipelineOutcome
from repro.core.types import InferenceStep
from repro.validation.dataset import ValidationDataset
from repro.validation.metrics import ValidationMetrics, evaluate_report


def per_ixp_metrics(
    outcome: PipelineOutcome,
    validation: ValidationDataset,
    ixp_ids: list[str] | None = None,
) -> dict[str, ValidationMetrics]:
    """Precision/accuracy per validated IXP (the data behind Fig. 8)."""
    targets = ixp_ids if ixp_ids is not None else validation.ixp_ids()
    return {
        ixp_id: evaluate_report(outcome.report, validation, ixp_ids=[ixp_id])
        for ixp_id in targets
    }


def per_step_metrics(
    outcome: PipelineOutcome,
    validation: ValidationDataset,
    ixp_ids: list[str] | None = None,
) -> dict[str, ValidationMetrics]:
    """Validation of each step and of the combined methodology (Table 4).

    The baseline row evaluates the standalone RTT-threshold report; each step
    row evaluates only the classifications that step contributed within the
    full pipeline run (its coverage is therefore the share of validated
    interfaces that step itself classified); the combined row evaluates the
    full report.
    """
    rows: dict[str, ValidationMetrics] = {}
    rows["rtt_baseline"] = evaluate_report(
        outcome.baseline_report, validation, ixp_ids=ixp_ids)
    step_keys = {
        "step1_port_capacity": {InferenceStep.PORT_CAPACITY},
        "step2_3_rtt_colocation": {InferenceStep.RTT_COLOCATION},
        "step4_multi_ixp": {InferenceStep.MULTI_IXP_ROUTER},
        "step5_private_links": {InferenceStep.PRIVATE_CONNECTIVITY},
    }
    for key, steps in step_keys.items():
        rows[key] = evaluate_report(outcome.report, validation, ixp_ids=ixp_ids, steps=steps)
    rows["combined"] = evaluate_report(outcome.report, validation, ixp_ids=ixp_ids)
    return rows
