"""The ABae two-stage sampling algorithm (Algorithm 1).

This is the paper's primary contribution: accelerate ``AVG`` / ``SUM`` /
``COUNT`` queries with an expensive predicate by

1. stratifying records by proxy-score quantile,
2. spending a pilot fraction of the oracle budget uniformly across strata
   to estimate each stratum's positive rate ``p_k`` and statistic spread
   ``sigma_k``,
3. spending the rest proportional to ``sqrt(p_hat_k) * sigma_hat_k``
   (the plug-in optimal allocation of Proposition 1), and
4. combining per-stratum estimates into
   ``sum_k p_hat_k mu_hat_k / sum_k p_hat_k``,
   reusing samples from both stages (the lesion study shows reuse matters).

The public entry points are the :class:`ABae` facade (construct once, call
:meth:`ABae.estimate`) and the lower-level :func:`run_abae` function used by
the extensions.  Both are thin wrappers over the unified execution engine
(:mod:`repro.engine`): the algorithm itself is the
:class:`~repro.engine.policies.TwoStageAllocationPolicy` /
:class:`~repro.engine.policies.TwoStageEstimator` pair plugged into the
shared :class:`~repro.engine.pipeline.SamplingPipeline`.  Execution knobs
travel in an :class:`~repro.engine.config.ExecutionConfig` passed as
``config=``.  For streaming or resumable execution, use
:func:`repro.engine.two_stage_pipeline` and drive the session directly.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Union

import numpy as np

from repro.core.allocation import bounded_allocation
from repro.core.results import EstimateResult
from repro.core.stratification import Stratification
from repro.engine.builders import two_stage_pipeline
from repro.engine.config import ExecutionConfig, resolve_execution_config
from repro.engine.pipeline import (
    StatisticLike,
    _ArrayStatistic,
    draw_stratum_sample,
    normalize_statistic,
)
from repro.proxy.base import PrecomputedProxy, Proxy
from repro.stats.rng import RandomState

__all__ = ["ABae", "run_abae", "draw_stratum_sample", "bounded_allocation"]

# Backward-compatible aliases: these moved into the engine, but the
# extensions (and downstream code) historically imported them from here.
_normalize_statistic = normalize_statistic
_ArrayStatistic = _ArrayStatistic  # noqa: PLW0127 - re-exported name


def run_abae(
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
    rng: Optional[RandomState] = None,
    config: Optional[ExecutionConfig] = None,
) -> EstimateResult:
    """Execute Algorithm 1 once and return the estimate (optionally with a CI).

    Parameters
    ----------
    proxy:
        A :class:`~repro.proxy.base.Proxy` or a raw score vector in [0, 1].
    oracle:
        The expensive predicate, ``record_index -> bool``.  Each draw calls
        it exactly once per distinct record.
    statistic:
        The expression aggregated over (callable or precomputed array).  It
        is only evaluated for records satisfying the predicate.
    budget:
        Total number of oracle invocations allowed (the ORACLE LIMIT).
    num_strata:
        K, the number of proxy-quantile strata.
    stage1_fraction:
        C, the fraction of the budget spent in the pilot stage.
    reuse_samples:
        Whether Stage-1 samples are folded into the final estimates (the
        paper's default; turning this off reproduces the lesion study).
    stratification:
        Pre-built stratification to use instead of proxy quantiles (used by
        ablations); when given, ``proxy`` is only used for its length check.
    with_ci / alpha / num_bootstrap:
        Bootstrap confidence-interval controls (Algorithm 2).
    rng:
        Source of randomness; defaults to a fresh generator seeded by
        ``config.seed`` (historically seed 0).
    config:
        The :class:`~repro.engine.config.ExecutionConfig` with every
        physical execution knob.  Purely performance: results and oracle
        accounting are bit-identical for every setting.
    """
    pipeline = two_stage_pipeline(
        proxy=proxy,
        oracle=oracle,
        statistic=statistic,
        budget=budget,
        num_strata=num_strata,
        stage1_fraction=stage1_fraction,
        reuse_samples=reuse_samples,
        stratification=stratification,
        with_ci=with_ci,
        alpha=alpha,
        num_bootstrap=num_bootstrap,
        config=config,
    )
    return pipeline.run(rng)


class ABae:
    """User-facing facade around :func:`run_abae`.

    Construct it once with the dataset's proxy, oracle and statistic; call
    :meth:`estimate` per query/budget.  The facade exists so examples and
    the query executor read naturally::

        sampler = ABae(proxy=proxy, oracle=oracle, statistic=views)
        result = sampler.estimate(budget=10_000, with_ci=True)

    Execution knobs live in ``self.config`` (an
    :class:`~repro.engine.config.ExecutionConfig`).
    """

    def __init__(
        self,
        proxy: Union[Proxy, Sequence[float]],
        oracle: Callable[[int], bool],
        statistic: StatisticLike,
        num_strata: int = 5,
        stage1_fraction: float = 0.5,
        reuse_samples: bool = True,
        config: Optional[ExecutionConfig] = None,
    ):
        if num_strata <= 0:
            raise ValueError(f"num_strata must be positive, got {num_strata}")
        if not 0.0 < stage1_fraction < 1.0:
            raise ValueError(
                f"stage1_fraction must be strictly between 0 and 1, got {stage1_fraction}"
            )
        self.config = resolve_execution_config(config, "ABae")
        self.proxy = proxy
        self.oracle = oracle
        self.statistic = statistic
        self.num_strata = num_strata
        self.stage1_fraction = stage1_fraction
        self.reuse_samples = reuse_samples
        # Proxy-quantile stratification is deterministic in (proxy, K), so
        # the facade builds it once and reuses it across estimate() calls —
        # repeated queries skip the O(n log n) sort of the score vector.
        # The cache is keyed on (proxy identity, num_strata) so reassigning
        # either public attribute transparently rebuilds it; mutating a score
        # array in place is not detected.
        self._stratification: Optional[Stratification] = None
        self._stratification_key = None

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
        """Run the two-stage sampler with the configured parameters.

        ``config`` replaces the instance-level execution config for this
        run when given.  ``rng`` wins over ``seed``; with neither, the run
        is seeded by the config's ``seed`` exactly as :func:`run_abae` is.
        """
        if rng is None and seed is not None:
            rng = RandomState(seed)
        run_config = self.config if config is None else config
        cache_valid = (
            self._stratification is not None
            and self._stratification_key is not None
            and self._stratification_key[0] is self.proxy
            and self._stratification_key[1] == self.num_strata
        )
        if not cache_valid:
            proxy_obj = (
                self.proxy
                if isinstance(self.proxy, Proxy)
                else PrecomputedProxy(np.asarray(self.proxy, dtype=float), name="scores")
            )
            self._stratification = Stratification.by_proxy_quantile(
                proxy_obj, self.num_strata
            )
            self._stratification_key = (self.proxy, self.num_strata)
        return run_abae(
            proxy=self.proxy,
            oracle=self.oracle,
            statistic=self.statistic,
            budget=budget,
            num_strata=self.num_strata,
            stage1_fraction=self.stage1_fraction,
            reuse_samples=self.reuse_samples,
            stratification=self._stratification,
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
        """A streaming / resumable session for one estimate.

        Bit-identical to :meth:`estimate` when stepped to completion:
        ``session.run()`` and ``estimate()`` perform the same draws against
        the same random stream.  See
        :class:`~repro.engine.session.SamplingSession`.
        """
        if rng is None and seed is not None:
            rng = RandomState(seed)
        run_config = self.config if config is None else config
        pipeline = two_stage_pipeline(
            proxy=self.proxy,
            oracle=self.oracle,
            statistic=self.statistic,
            budget=budget,
            num_strata=self.num_strata,
            stage1_fraction=self.stage1_fraction,
            reuse_samples=self.reuse_samples,
            with_ci=with_ci,
            alpha=alpha,
            num_bootstrap=num_bootstrap,
            config=run_config,
        )
        return pipeline.session(rng)
