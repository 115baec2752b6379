"""Uniform-sampling baseline.

The only baseline applicable without precomputing predicate results
(Section 5.1): draw records uniformly at random, pay the oracle per draw,
and average the statistic over the draws that satisfy the predicate.  The
same bootstrap machinery provides its confidence intervals, so the Figure-5
comparison is apples to apples.

Like every sampler, this is a thin wrapper over the unified execution
engine: a degenerate single-stratum
:class:`~repro.engine.pipeline.SamplingPipeline` with the
:class:`~repro.engine.policies.UniformAllocationPolicy` /
:class:`~repro.engine.policies.UniformEstimator` pair.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.abae import StatisticLike
from repro.core.results import EstimateResult
from repro.engine.builders import uniform_pipeline
from repro.engine.config import ExecutionConfig, resolve_execution_config
from repro.stats.rng import RandomState

__all__ = ["run_uniform", "UniformSampler"]


def run_uniform(
    num_records: int,
    oracle: Callable[[int], bool],
    statistic: StatisticLike,
    budget: int,
    with_ci: bool = False,
    alpha: float = 0.05,
    num_bootstrap: int = 1000,
    rng: Optional[RandomState] = None,
    config: Optional[ExecutionConfig] = None,
) -> EstimateResult:
    """Estimate the aggregate by uniform sampling without replacement.

    ``config`` carries the execution knobs exactly as in
    :func:`repro.core.abae.run_abae`.  Results are identical for all
    settings.
    """
    pipeline = uniform_pipeline(
        num_records=num_records,
        oracle=oracle,
        statistic=statistic,
        budget=budget,
        with_ci=with_ci,
        alpha=alpha,
        num_bootstrap=num_bootstrap,
        config=config,
    )
    return pipeline.run(rng)


class UniformSampler:
    """Facade mirroring :class:`repro.core.abae.ABae` for the baseline."""

    def __init__(
        self,
        num_records: int,
        oracle: Callable[[int], bool],
        statistic: StatisticLike,
        config: Optional[ExecutionConfig] = None,
    ):
        if num_records <= 0:
            raise ValueError(f"num_records must be positive, got {num_records}")
        self.config = resolve_execution_config(config, "UniformSampler")
        self.num_records = num_records
        self.oracle = oracle
        self.statistic = statistic

    def estimate(
        self,
        budget: int,
        with_ci: bool = False,
        alpha: float = 0.05,
        num_bootstrap: int = 1000,
        rng: Optional[RandomState] = None,
        seed: Optional[int] = None,
        config: Optional[ExecutionConfig] = None,
    ) -> EstimateResult:
        """Run the baseline; seeding and ``config`` work as in ``ABae.estimate``."""
        if rng is None and seed is not None:
            rng = RandomState(seed)
        run_config = self.config if config is None else config
        return run_uniform(
            num_records=self.num_records,
            oracle=self.oracle,
            statistic=self.statistic,
            budget=budget,
            with_ci=with_ci,
            alpha=alpha,
            num_bootstrap=num_bootstrap,
            rng=rng,
            config=run_config,
        )

    def session(
        self,
        budget: int,
        with_ci: bool = False,
        alpha: float = 0.05,
        num_bootstrap: int = 1000,
        rng: Optional[RandomState] = None,
        seed: Optional[int] = None,
        config: Optional[ExecutionConfig] = None,
    ):
        """A streaming / resumable session; bit-identical to :meth:`estimate`."""
        if rng is None and seed is not None:
            rng = RandomState(seed)
        run_config = self.config if config is None else config
        pipeline = uniform_pipeline(
            num_records=self.num_records,
            oracle=self.oracle,
            statistic=self.statistic,
            budget=budget,
            with_ci=with_ci,
            alpha=alpha,
            num_bootstrap=num_bootstrap,
            config=run_config,
        )
        return pipeline.session(rng)
