"""Benchmarks of the inference pipeline itself, including step ablations.

These measure the cost of the paper's methodology (and of each design choice
called out in DESIGN.md) on identical, pre-computed measurement inputs:

* the full five-step pipeline,
* the RTT+colocation core only (no port capacities, no traceroute steps),
* the traceroute-dependent steps disabled (what an operator without a
  traceroute corpus could run),
* the standalone RTT-threshold baseline.
"""

from repro.config import InferenceConfig
from repro.core.engine import PipelineEngine


def _run(study, config: InferenceConfig):
    engine = PipelineEngine(study.inputs, delay_model=study.delay_model)
    return engine.run(config, study.studied_ixp_ids)


def test_bench_pipeline_full(run_once, study):
    outcome = run_once(_run, study, InferenceConfig())
    assert outcome.report.coverage() > 0.5


def test_bench_pipeline_rtt_colocation_only(run_once, study):
    config = InferenceConfig(enable_step1_port_capacity=False,
                             enable_step4_multi_ixp=False,
                             enable_step5_private_links=False)
    outcome = run_once(_run, study, config)
    full_coverage = study.outcome.report.coverage()
    assert outcome.report.coverage() <= full_coverage + 1e-9


def test_bench_pipeline_without_traceroute_steps(run_once, study):
    config = InferenceConfig(enable_step4_multi_ixp=False,
                             enable_step5_private_links=False)
    outcome = run_once(_run, study, config)
    assert outcome.report.coverage() > 0.0


def test_bench_pipeline_step_ordering_invariant(run_once, study):
    """Ablation: Step 1 first (as in the paper) never loses reseller customers."""
    outcome = run_once(_run, study, InferenceConfig())
    from repro.core.types import InferenceStep
    step1 = outcome.report.step_contributions().get(InferenceStep.PORT_CAPACITY, 0)
    reference = study.outcome.report.step_contributions().get(InferenceStep.PORT_CAPACITY, 0)
    assert step1 == reference


def test_bench_measurement_postprocessing(run_once, study):
    """Step 2 alone: turning half a million raw samples into RTT observations."""
    from repro.core.step2_rtt import RTTMeasurementStep
    summary = run_once(
        RTTMeasurementStep(study.inputs, study.config.inference).run, study.studied_ixp_ids)
    assert summary.observations
