"""Percentile bootstrap for confidence intervals (Algorithm 2).

The per-stratum samples across both stages are i.i.d. within each stratum,
so we resample *within each stratum* with replacement, recompute the
combined estimate, and take empirical percentiles across bootstrap trials.
The paper argues the bootstrap's CPU cost is negligible next to oracle
calls; our implementation vectorizes the resampling so 1,000 trials over
typical sample sizes run in milliseconds.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.results import ConfidenceInterval
from repro.core.types import StratumSample
from repro.stats.rng import RandomState

__all__ = [
    "bootstrap_estimates",
    "bootstrap_confidence_interval",
    "bootstrap_aggregate_estimates",
    "bootstrap_aggregate_interval",
]


def _resample_stats(
    mask: np.ndarray, values: np.ndarray, resample_idx: np.ndarray
) -> tuple:
    """Per-trial positive counts and positive-value sums for one stratum.

    ``mask`` is the stratum's boolean match mask, ``values`` its statistic
    column with unmatched entries already zeroed, and ``resample_idx`` the
    ``(num_bootstrap, n)`` resampled position matrix.  Because unmatched
    values are zero, one gather of ``values`` gives the positive-value sums
    directly; the counts come back as float64.  Row sums use NumPy's
    pairwise summation.
    """
    positives = np.count_nonzero(mask[resample_idx], axis=1).astype(np.float64)
    sums = values[resample_idx].sum(axis=1)
    return positives, sums


def _resample_strata(
    samples: Sequence[StratumSample],
    num_bootstrap: int,
    rng: Optional[RandomState],
) -> tuple:
    """The resampling core: bootstrap matrices of ``p*_k`` and ``mu*_k``.

    Every stratum with draws costs exactly one ``(num_bootstrap, n)``
    index draw from ``rng`` and one resample pass; strata are visited in
    order, so the stream position after the call depends only on the
    per-stratum draw counts.
    """
    if num_bootstrap <= 0:
        raise ValueError(f"num_bootstrap must be positive, got {num_bootstrap}")
    if not samples:
        raise ValueError("bootstrap requires at least one stratum of samples")
    rng = rng or RandomState(0)
    num_strata = len(samples)
    p_star = np.zeros((num_bootstrap, num_strata))
    mu_star = np.zeros((num_bootstrap, num_strata))
    for k, sample in enumerate(samples):
        n = sample.num_draws
        if n == 0:
            # Nothing was drawn from this stratum; it contributes p* = 0.
            continue
        values = np.where(sample.matches, sample.values, 0.0)
        # (num_bootstrap, n) index matrix of resampled positions.
        resample_idx = rng.integers(0, n, size=(num_bootstrap, n))
        positives, sums = _resample_stats(sample.matches, values, resample_idx)
        p_star[:, k] = positives / n
        with np.errstate(invalid="ignore", divide="ignore"):
            mu_star[:, k] = np.where(positives > 0, sums / np.maximum(positives, 1), 0.0)
    return p_star, mu_star


def _percentile_interval(estimates: np.ndarray, alpha: float) -> ConfidenceInterval:
    """The two-sided percentile CI at level ``1 - alpha`` of a bootstrap draw."""
    lower, upper = np.percentile(
        estimates, [100.0 * (alpha / 2.0), 100.0 * (1.0 - alpha / 2.0)]
    )
    return ConfidenceInterval(lower=float(lower), upper=float(upper), alpha=alpha)


def bootstrap_estimates(
    samples: Sequence[StratumSample],
    num_bootstrap: int = 1000,
    rng: Optional[RandomState] = None,
) -> np.ndarray:
    """Return the bootstrap distribution of the combined ABae estimate.

    Each bootstrap trial resamples every stratum's draws (positives and
    negatives together) with replacement, recomputes ``p*_k`` and ``mu*_k``,
    and forms ``sum_k p*_k mu*_k / sum_k p*_k``.  Trials where no stratum
    yields a positive record produce an estimate of 0.0, mirroring the point
    estimator's convention.
    """
    p_star, mu_star = _resample_strata(samples, num_bootstrap, rng)
    denominators = p_star.sum(axis=1)
    numerators = (p_star * mu_star).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        estimates = np.where(denominators > 0, numerators / np.maximum(denominators, 1e-300), 0.0)
    return estimates


def bootstrap_confidence_interval(
    samples: Sequence[StratumSample],
    alpha: float = 0.05,
    num_bootstrap: int = 1000,
    rng: Optional[RandomState] = None,
) -> ConfidenceInterval:
    """Percentile bootstrap CI at level ``1 - alpha`` (Algorithm 2)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    estimates = bootstrap_estimates(samples, num_bootstrap=num_bootstrap, rng=rng)
    return _percentile_interval(estimates, alpha)


def bootstrap_aggregate_estimates(
    samples: Sequence[StratumSample],
    stratum_sizes: Sequence[int],
    kind: str = "avg",
    num_bootstrap: int = 1000,
    rng: Optional[RandomState] = None,
) -> np.ndarray:
    """Bootstrap distribution of the AVG / SUM / COUNT estimator.

    ``stratum_sizes`` is the number of dataset records in each stratum,
    needed to scale per-stratum positive rates into absolute counts:

    * ``count`` — ``sum_k p*_k |S_k|``
    * ``sum`` — ``sum_k p*_k |S_k| mu*_k``
    * ``avg`` — ``sum / count`` (the Algorithm-2 estimator when strata are
      equal-size, and the size-weighted generalization otherwise)
    """
    if kind not in ("avg", "sum", "count"):
        raise ValueError(f"kind must be 'avg', 'sum' or 'count', got {kind!r}")
    sizes = np.asarray(stratum_sizes, dtype=float)
    if sizes.shape[0] != len(samples):
        raise ValueError("stratum_sizes must have one entry per stratum")
    p_star, mu_star = _resample_strata(samples, num_bootstrap, rng)
    counts = (p_star * sizes[None, :]).sum(axis=1)
    sums = (p_star * sizes[None, :] * mu_star).sum(axis=1)
    if kind == "count":
        return counts
    if kind == "sum":
        return sums
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(counts > 0, sums / np.maximum(counts, 1e-300), 0.0)


def bootstrap_aggregate_interval(
    samples: Sequence[StratumSample],
    stratum_sizes: Sequence[int],
    kind: str = "avg",
    alpha: float = 0.05,
    num_bootstrap: int = 1000,
    rng: Optional[RandomState] = None,
) -> ConfidenceInterval:
    """Percentile CI for the AVG / SUM / COUNT estimator."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    estimates = bootstrap_aggregate_estimates(
        samples, stratum_sizes, kind=kind, num_bootstrap=num_bootstrap, rng=rng
    )
    return _percentile_interval(estimates, alpha)
