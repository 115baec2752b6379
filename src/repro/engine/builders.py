"""Pipeline builders: assemble a configured pipeline per sampler family.

These are the constructors behind the ``run_*`` wrappers in
:mod:`repro.core` — and the entry points for users who want *sessions*
(streaming / resumable execution) rather than one-shot runs::

    from repro.engine import ExecutionConfig, two_stage_pipeline

    pipeline = two_stage_pipeline(
        proxy=scores, oracle=oracle, statistic=values, budget=10_000,
        config=ExecutionConfig(batch_size=None),
    )
    session = pipeline.session(rng)
    while session.step():
        print(session.partial_estimate().estimate)   # streaming estimates
    result = session.result()

Each builder performs exactly the validation and stratification its
monolithic predecessor performed, in the same order, so error messages
and the deterministic draw sequence are preserved bit-for-bit.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core.stratification import Stratification
from repro.core.types import SamplingBudget, StratumSample
from repro.engine.config import ExecutionConfig
from repro.engine.pipeline import (
    SamplingPipeline,
    StatisticLike,
    StratifiedEstimator,
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
)
from repro.proxy.base import PrecomputedProxy, Proxy

__all__ = [
    "as_proxy",
    "two_stage_pipeline",
    "uniform_pipeline",
    "sequential_pipeline",
    "until_width_pipeline",
    "multipred_pipeline",
    "exploit_continuation_pipeline",
]


def as_proxy(proxy: Union[Proxy, Sequence[float]], name: str = "scores") -> Proxy:
    """Wrap raw scores or a backend column as a :class:`Proxy`.

    Proxies pass through; dataset-backend column handles wrap in a
    :class:`~repro.proxy.base.BackedProxy` (scores gathered through the
    backend); anything else is treated as a dense score vector.
    """
    if isinstance(proxy, Proxy):
        return proxy
    from repro.data.backend import is_column_handle

    if is_column_handle(proxy):
        from repro.proxy.base import BackedProxy

        return BackedProxy(proxy, name=name)
    return PrecomputedProxy(np.asarray(proxy, dtype=float), name=name)


def two_stage_pipeline(
    proxy: Union[Proxy, Sequence[float]],
    oracle: Callable[[int], bool],
    statistic: StatisticLike,
    budget: int,
    num_strata: int = 5,
    stage1_fraction: float = 0.5,
    reuse_samples: bool = True,
    stratification: Optional[Stratification] = None,
    with_ci: bool = False,
    alpha: float = 0.05,
    num_bootstrap: int = 1000,
    config: Optional[ExecutionConfig] = None,
    method: Optional[str] = None,
) -> SamplingPipeline:
    """Algorithm 1 as a pipeline: pilot, plug-in allocation, exploitation."""
    proxy_obj = as_proxy(proxy)
    if stratification is None:
        stratification = Stratification.by_proxy_quantile(proxy_obj, num_strata)
    elif stratification.num_records != len(proxy_obj):
        raise ValueError(
            "provided stratification covers a different number of records "
            f"({stratification.num_records}) than the proxy ({len(proxy_obj)})"
        )
    split = SamplingBudget.from_fraction(
        budget, stratification.num_strata, stage1_fraction
    )
    return SamplingPipeline(
        oracle=oracle,
        statistic=statistic,
        policy=TwoStageAllocationPolicy(split),
        estimator=TwoStageEstimator(reuse_samples=reuse_samples, method=method),
        budget=budget,
        stratification=stratification,
        config=config,
        with_ci=with_ci,
        alpha=alpha,
        num_bootstrap=num_bootstrap,
    )


def uniform_pipeline(
    num_records: int,
    oracle: Callable[[int], bool],
    statistic: StatisticLike,
    budget: int,
    with_ci: bool = False,
    alpha: float = 0.05,
    num_bootstrap: int = 1000,
    config: Optional[ExecutionConfig] = None,
) -> SamplingPipeline:
    """The uniform baseline as a degenerate single-stratum pipeline."""
    if num_records <= 0:
        raise ValueError(f"num_records must be positive, got {num_records}")
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    return SamplingPipeline(
        oracle=oracle,
        statistic=statistic,
        policy=UniformAllocationPolicy(budget),
        estimator=UniformEstimator(num_records),
        budget=budget,
        strata=[np.arange(num_records, dtype=np.int64)],
        config=config,
        with_ci=with_ci,
        alpha=alpha,
        num_bootstrap=num_bootstrap,
    )


def sequential_pipeline(
    proxy: Union[Proxy, Sequence[float]],
    oracle: Callable[[int], bool],
    statistic: StatisticLike,
    budget: int,
    num_strata: int = 5,
    warmup_per_stratum: int = 20,
    reallocation_batch: int = 50,
    with_ci: bool = False,
    alpha: float = 0.05,
    num_bootstrap: int = 1000,
    config: Optional[ExecutionConfig] = None,
) -> SamplingPipeline:
    """The bandit-style sequential sampler as a pipeline."""
    if budget < 0:
        raise ValueError(f"budget must be non-negative, got {budget}")
    if warmup_per_stratum < 1:
        raise ValueError(
            f"warmup_per_stratum must be positive, got {warmup_per_stratum}"
        )
    if reallocation_batch < 1:
        raise ValueError(f"batch_size must be positive, got {reallocation_batch}")
    stratification = Stratification.by_proxy_quantile(as_proxy(proxy), num_strata)
    return SamplingPipeline(
        oracle=oracle,
        statistic=statistic,
        policy=SequentialAllocationPolicy(warmup_per_stratum, reallocation_batch),
        estimator=StratifiedEstimator("abae-sequential"),
        budget=budget,
        stratification=stratification,
        config=config,
        with_ci=with_ci,
        alpha=alpha,
        num_bootstrap=num_bootstrap,
    )


def until_width_pipeline(
    proxy: Union[Proxy, Sequence[float]],
    oracle: Callable[[int], bool],
    statistic: StatisticLike,
    target_width: float,
    max_budget: int,
    num_strata: int = 5,
    reallocation_batch: int = 200,
    alpha: float = 0.05,
    num_bootstrap: int = 300,
    config: Optional[ExecutionConfig] = None,
) -> SamplingPipeline:
    """The online-aggregation driver (sample until the CI is narrow)."""
    if target_width <= 0:
        raise ValueError(f"target_width must be positive, got {target_width}")
    if max_budget <= 0:
        raise ValueError(f"max_budget must be positive, got {max_budget}")
    if reallocation_batch <= 0:
        raise ValueError(f"batch_size must be positive, got {reallocation_batch}")
    stratification = Stratification.by_proxy_quantile(as_proxy(proxy), num_strata)
    return SamplingPipeline(
        oracle=oracle,
        statistic=statistic,
        policy=UntilWidthAllocationPolicy(
            target_width, reallocation_batch, alpha, num_bootstrap
        ),
        estimator=UntilWidthEstimator(),
        budget=max_budget,
        stratification=stratification,
        config=config,
        with_ci=False,
        alpha=alpha,
        num_bootstrap=num_bootstrap,
    )


def multipred_pipeline(
    expression,
    statistic: StatisticLike,
    budget: int,
    num_strata: int = 5,
    stage1_fraction: float = 0.5,
    with_ci: bool = False,
    alpha: float = 0.05,
    num_bootstrap: int = 1000,
    config: Optional[ExecutionConfig] = None,
) -> SamplingPipeline:
    """ABae over a predicate expression tree, as a pipeline.

    The leaf proxies combine into one score vector (negation ``1 - s``,
    conjunction product, disjunction max) driving the stratification; the
    composite oracle answers the full Boolean expression.  The expression
    is a :class:`repro.core.multipred.PredicateExpr`.
    """
    combined_scores = np.clip(expression.combined_scores(), 0.0, 1.0)
    combined_proxy = PrecomputedProxy(combined_scores, name="multipred_proxy")
    return two_stage_pipeline(
        proxy=combined_proxy,
        oracle=expression.build_oracle(),
        statistic=statistic,
        budget=budget,
        num_strata=num_strata,
        stage1_fraction=stage1_fraction,
        with_ci=with_ci,
        alpha=alpha,
        num_bootstrap=num_bootstrap,
        config=config,
        method="abae-multipred",
    )


def exploit_continuation_pipeline(
    stratification: Stratification,
    oracle: Callable[[int], bool],
    statistic: StatisticLike,
    weights: Sequence[float],
    stage2_total: int,
    initial_samples: Sequence[StratumSample],
    method: str = "abae",
    config: Optional[ExecutionConfig] = None,
) -> SamplingPipeline:
    """Resume exploitation on top of existing per-stratum samples.

    Primes the pool with ``initial_samples`` (marking their records drawn)
    and spends ``stage2_total`` further draws spread over strata
    proportional to ``weights``, bounded by remaining capacity — the
    shared stage-2 continuation used by the group-by extensions and by
    budget top-ups on restored sessions.
    """
    initial_spent = sum(s.num_draws for s in initial_samples)
    return SamplingPipeline(
        oracle=oracle,
        statistic=statistic,
        policy=BoundedExploitPolicy(weights, stage2_total),
        estimator=StratifiedEstimator(method),
        budget=initial_spent + int(stage2_total),
        stratification=stratification,
        config=config,
        initial_samples=initial_samples,
        initial_spent=initial_spent,
    )
