"""Pure-NumPy reference implementations of the sampler inner-loop kernels.

These bodies are the *contract*: extracted verbatim (then, where safe,
vectorized) from the engine's hot loops, they define the exact floats and
integers every other backend must reproduce bit-for-bit.  Keep them free
of convenience branches — argument validation belongs to the callers,
which already own the error contracts; a kernel is the inner loop only.

Determinism notes, for anyone adding a backend:

* integer and boolean work (gathers, searchsorted, bucketing, floor /
  argmax spreads) is exactly reproducible by construction;
* element-wise float arithmetic is IEEE-exact, so loops that apply the
  same operations in the same per-element order match bitwise;
* float *reductions* are not portable: NumPy's ``sum``/``dot`` use
  pairwise/blocked accumulation whose order a naive sequential loop
  cannot reproduce.  Kernels below that reduce floats
  (``bootstrap_resample_stats``, the minimax objectives,
  ``largest_remainder``'s argsort tie order) therefore stay on this
  reference implementation for every backend; the dispatch layer only
  swaps in native bodies for the provably-exact kernels.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.kernels.registry import register_kernel

__all__ = [
    "gather_candidates",
    "mark_drawn",
    "filter_undrawn",
    "bucket_by_stratum",
    "priority_core",
    "floor_spread",
    "largest_remainder",
    "bootstrap_resample_stats",
    "minimax_single_objective",
    "minimax_multi_objective",
]


@register_kernel("gather_candidates")
def gather_candidates(stratum: np.ndarray, available: np.ndarray) -> np.ndarray:
    """Record indices of a stratum not yet drawn, in ascending order.

    ``stratum`` is the stratum's sorted, read-only index view;
    ``available`` the aligned boolean availability mask
    (see :class:`repro.engine.pipeline.StratumPool`).
    """
    return stratum[available]


@register_kernel("mark_drawn")
def mark_drawn(
    stratum: np.ndarray, available: np.ndarray, drawn: np.ndarray
) -> int:
    """Flip the availability mask off for ``drawn``; returns the count.

    ``stratum`` is sorted, so each drawn record's mask position is a
    binary search (``searchsorted``).  Mutates ``available`` in place.
    """
    positions = np.searchsorted(stratum, drawn)
    available[positions] = False
    return int(drawn.shape[0])


@register_kernel("filter_undrawn")
def filter_undrawn(stratum: np.ndarray, drawn_mask: np.ndarray) -> np.ndarray:
    """Stratum members not yet drawn, via a dataset-length drawn mask.

    The group-by Stage 2 "fresh candidate" filter: one O(1) gather per
    candidate instead of a sort-based ``np.isin``.
    """
    return stratum[~drawn_mask[stratum]]


@register_kernel("bucket_by_stratum")
def bucket_by_stratum(
    assignment: np.ndarray,
    indices: np.ndarray,
    matched: np.ndarray,
    values: np.ndarray,
    num_strata: int,
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Bucket labelled draws into strata, preserving draw order.

    ``assignment`` maps record index -> stratum; ``indices`` / ``matched``
    / ``values`` are the aligned draw columns.  Returns one
    ``(indices, matches, values)`` triple per stratum, where values of
    unmatched draws are masked to NaN — exactly the per-group bucketing
    of :mod:`repro.core.groupby`.
    """
    stratum_of = assignment[indices]
    masked_values = np.where(matched, values, np.nan)
    out: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for k in range(num_strata):
        in_k = stratum_of == k
        out.append((indices[in_k], matched[in_k], masked_values[in_k]))
    return out


@register_kernel("priority_core")
def priority_core(
    p: np.ndarray,
    sigma: np.ndarray,
    mu: np.ndarray,
    draws: np.ndarray,
    p_all: float,
    mu_all: float,
) -> np.ndarray:
    """Element-wise core of the marginal-variance-reduction priority.

    The caller (:func:`repro.engine.policies.marginal_variance_reduction`)
    supplies the two reductions — ``p_all = p.sum()`` and the weighted
    overall mean ``mu_all`` — so the kernel itself is purely element-wise
    and exactly reproducible on every backend.
    """
    w = p / p_all
    with np.errstate(divide="ignore", invalid="ignore"):
        within = np.where(p > 0, w**2 * sigma**2 / np.maximum(p, 1e-12), 0.0)
        weight_uncertainty = ((mu - mu_all) / p_all) ** 2 * p * (1.0 - p)
        contribution = (within + weight_uncertainty) / np.maximum(draws, 1.0)
        priority = contribution / np.maximum(draws + 1.0, 1.0)
    return priority


@register_kernel("floor_spread")
def floor_spread(weights: np.ndarray, batch: int) -> np.ndarray:
    """Spread ``batch`` draws proportionally to normalized ``weights``.

    Floor allocation with the integer shortfall topped up at the argmax
    weight — the sequential / until-width policies' per-round spread.
    ``weights`` must already sum to 1 (the caller normalizes, keeping the
    one float reduction out of the kernel).
    """
    counts = np.floor(weights * batch).astype(np.int64)
    counts[int(np.argmax(weights))] += batch - int(counts.sum())
    return counts


@register_kernel("largest_remainder")
def largest_remainder(weights: np.ndarray, total: int) -> np.ndarray:
    """Largest-remainder integer split of ``total`` by positive weights.

    ``weights`` must be validated (non-empty, non-negative, not all zero)
    by the caller — :func:`repro.stats.sampling
    .proportional_integer_allocation` owns that contract.  Stays on the
    reference implementation for every backend: the argsort tie order for
    equal remainders is part of the bitwise contract.
    """
    w = weights / weights.sum()
    raw = w * total
    base = np.floor(raw).astype(np.int64)
    leftover = total - int(base.sum())
    if leftover > 0:
        remainders = raw - base
        order = np.argsort(-remainders)
        for idx in order[:leftover]:
            base[idx] += 1
    return base


@register_kernel("bootstrap_resample_stats")
def bootstrap_resample_stats(
    mask: np.ndarray, values: np.ndarray, resample_idx: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-trial positive counts and positive-value sums for one stratum.

    ``mask`` is the stratum's boolean match mask, ``values`` its
    statistic column with unmatched entries already zeroed, and
    ``resample_idx`` the ``(num_bootstrap, n)`` resampled position
    matrix.  Because unmatched values are zero, one gather of ``values``
    gives the positive-value sums directly; the positive counts are a
    ``count_nonzero`` over the gathered mask, returned as float64.  Row
    sums use NumPy's pairwise summation — part of the bitwise contract,
    hence reference-only (see module docstring).
    """
    positives = np.count_nonzero(mask[resample_idx], axis=1).astype(np.float64)
    sums = values[resample_idx].sum(axis=1)
    return positives, sums


@register_kernel("minimax_single_objective")
def minimax_single_objective(
    error_terms: np.ndarray,
    usable: np.ndarray,
    informative: np.ndarray,
    lam: np.ndarray,
    n2: int,
    eps: float,
) -> float:
    """Eq. 10's worst-group objective, vectorized over the S-term matrix.

    ``error_terms[l, g]`` is stratification *l*'s S term for group *g*;
    ``usable`` masks the finite, positive terms and ``informative`` the
    groups that participate in the worst case (both precomputed once per
    solve).  Each group's variance is the inverse-variance combination
    across stratifications of ``term / max(lam_l * n2, eps)``.
    """
    denom = np.maximum(lam * n2, eps)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inverse = np.where(usable, 1.0 / (error_terms / denom[:, None]), 0.0)
        inverse_sum = inverse.sum(axis=0)
        combined = np.where(inverse_sum > 0, 1.0 / inverse_sum, np.inf)
    contenders = combined[informative]
    return float(contenders.max()) if contenders.size else 0.0


@register_kernel("minimax_multi_objective")
def minimax_multi_objective(
    error_terms: np.ndarray,
    informative: np.ndarray,
    lam: np.ndarray,
    n2: int,
    eps: float,
) -> float:
    """Eq. 11's worst-group objective: per-group isolated variances."""
    terms = error_terms[informative]
    if terms.size == 0:
        return 0.0
    variance = terms / np.maximum(lam[informative] * n2, eps)
    return float(variance.max())
