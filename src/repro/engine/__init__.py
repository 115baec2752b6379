"""repro.engine — the unified sampling execution engine.

One engine under every sampler.  The layering is::

    ExecutionConfig          how a run executes (batching, plan cache,
       |                     seed policy, progress callbacks)
    SamplingPipeline         the stratify -> explore -> allocate ->
       |                     exploit -> estimate loop, owned once
    Allocation/Estimator     pluggable per-sampler strategies (two-stage,
       |  policies           uniform, sequential, until-width, ...)
    SamplingSession          step-driven execution: streaming partial
                             estimates, checkpoint/resume, budget top-ups

The monolithic ``run_*`` functions in :mod:`repro.core` are thin wrappers
over the builders in :mod:`repro.engine.builders`; every knob they used
to thread by hand now travels inside an :class:`ExecutionConfig`.
"""

from repro.engine.config import (
    ExecutionConfig,
    ExecutionConfigError,
    ProgressEvent,
    resolve_execution_config,
)
from repro.engine.pipeline import (
    AllocationPolicy,
    EstimatorPolicy,
    PipelineState,
    SamplingPipeline,
    StratifiedEstimator,
    StratumPool,
    draw_stratum_sample,
    normalize_statistic,
)
from repro.engine.policies import (
    BoundedExploitPolicy,
    SequentialAllocationPolicy,
    TwoStageAllocationPolicy,
    TwoStageEstimator,
    UniformAllocationPolicy,
    UniformEstimator,
    UntilWidthAllocationPolicy,
    UntilWidthEstimator,
    marginal_variance_reduction,
)
from repro.engine.builders import (
    exploit_continuation_pipeline,
    multipred_pipeline,
    sequential_pipeline,
    two_stage_pipeline,
    uniform_pipeline,
    until_width_pipeline,
)
from repro.engine.session import CheckpointError, SamplingSession

__all__ = [
    "ExecutionConfig",
    "ExecutionConfigError",
    "ProgressEvent",
    "resolve_execution_config",
    "AllocationPolicy",
    "EstimatorPolicy",
    "PipelineState",
    "SamplingPipeline",
    "SamplingSession",
    "CheckpointError",
    "StratifiedEstimator",
    "StratumPool",
    "draw_stratum_sample",
    "normalize_statistic",
    "TwoStageAllocationPolicy",
    "TwoStageEstimator",
    "UniformAllocationPolicy",
    "UniformEstimator",
    "SequentialAllocationPolicy",
    "UntilWidthAllocationPolicy",
    "UntilWidthEstimator",
    "BoundedExploitPolicy",
    "marginal_variance_reduction",
    "two_stage_pipeline",
    "uniform_pipeline",
    "sequential_pipeline",
    "until_width_pipeline",
    "multipred_pipeline",
    "exploit_continuation_pipeline",
]
