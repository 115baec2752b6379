"""Adaptive extensions of ABae.

The paper's discussion (Section 4.6) points at two natural extensions that
it defers to future work; both are implemented here so they can be compared
against the two-stage algorithm empirically:

* :func:`run_abae_sequential` — a bandit-style sampler that re-estimates
  ``p_k`` and ``sigma_k`` after every batch of draws and always sends the
  next batch to the stratum whose marginal variance reduction is largest.
  The two-stage algorithm is the special case of one re-allocation point;
  the sequential variant can adapt earlier when the pilot estimates are
  poor, at the price of more estimator updates.

* :func:`run_abae_until_width` — an online-aggregation-style driver that
  keeps sampling (with the same allocation machinery) until the bootstrap
  confidence interval is narrower than a user-specified target width or the
  oracle budget runs out.  This supports the "how many samples to reach a
  target error" metric the paper reports alongside fixed-budget RMSE.

Both are expressed as pipelines over the unified execution engine: the
allocation loops live in
:class:`~repro.engine.policies.SequentialAllocationPolicy` and
:class:`~repro.engine.policies.UntilWidthAllocationPolicy`; this module
only keeps the validated, documented entry points.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

from repro.core.abae import StatisticLike
from repro.core.results import EstimateResult
from repro.engine.builders import sequential_pipeline, until_width_pipeline
from repro.engine.config import ExecutionConfig
from repro.proxy.base import Proxy
from repro.stats.rng import RandomState

__all__ = ["run_abae_sequential", "run_abae_until_width"]


def run_abae_sequential(
    proxy: Union[Proxy, Sequence[float]],
    oracle: Callable[[int], bool],
    statistic: StatisticLike,
    budget: int,
    num_strata: int = 5,
    warmup_per_stratum: int = 20,
    batch_size: int = 50,
    with_ci: bool = False,
    alpha: float = 0.05,
    num_bootstrap: int = 1000,
    rng: Optional[RandomState] = None,
    config: Optional[ExecutionConfig] = None,
) -> EstimateResult:
    """Bandit-style ABae: re-allocate after every batch instead of once.

    Parameters mirror :func:`repro.core.abae.run_abae`; ``warmup_per_stratum``
    plays the role of a (much smaller) Stage 1, and ``batch_size`` controls
    how often the allocation is revisited.  It is the re-allocation
    cadence, not an execution knob: records per oracle invocation batch
    are ``config.batch_size``, which like every execution knob never
    changes results.
    """
    pipeline = sequential_pipeline(
        proxy=proxy,
        oracle=oracle,
        statistic=statistic,
        budget=budget,
        num_strata=num_strata,
        warmup_per_stratum=warmup_per_stratum,
        reallocation_batch=batch_size,
        with_ci=with_ci,
        alpha=alpha,
        num_bootstrap=num_bootstrap,
        config=config,
    )
    return pipeline.run(rng)


def run_abae_until_width(
    proxy: Union[Proxy, Sequence[float]],
    oracle: Callable[[int], bool],
    statistic: StatisticLike,
    target_width: float,
    max_budget: int,
    num_strata: int = 5,
    batch_size: int = 200,
    alpha: float = 0.05,
    num_bootstrap: int = 300,
    rng: Optional[RandomState] = None,
    config: Optional[ExecutionConfig] = None,
) -> EstimateResult:
    """Sample until the bootstrap CI is narrower than ``target_width``.

    The driver runs the sequential sampler in batches and recomputes the
    bootstrap CI after each batch; it stops as soon as the CI width drops to
    the target or ``max_budget`` oracle calls have been spent.  The result's
    ``details["trace"]`` records the (budget, width) checkpoints, which is
    what a "samples needed to reach error X" comparison consumes.
    """
    pipeline = until_width_pipeline(
        proxy=proxy,
        oracle=oracle,
        statistic=statistic,
        target_width=target_width,
        max_budget=max_budget,
        num_strata=num_strata,
        reallocation_batch=batch_size,
        alpha=alpha,
        num_bootstrap=num_bootstrap,
        config=config,
    )
    return pipeline.run(rng)
