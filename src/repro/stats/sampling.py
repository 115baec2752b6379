"""Sampling primitives used by Algorithm 1.

ABae samples *without* replacement within a stratum (the Stage 1 and
Stage 2 draws) and splits and rounds its oracle budget across stages and
strata.  The bootstrap of Algorithm 2 resamples with replacement in
:mod:`repro.core.bootstrap`, which draws from the stratum's category
counts directly.

Randomness comes in as an explicit :class:`~repro.stats.rng.RandomState`
argument so callers never touch global numpy randomness.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.stats.rng import RandomState

__all__ = [
    "sample_without_replacement",
    "split_budget",
    "proportional_integer_allocation",
]


def sample_without_replacement(
    population: Sequence[int], n: int, rng: RandomState
) -> np.ndarray:
    """Draw ``min(n, len(population))`` distinct items from ``population``.

    The paper's SampleFn (Algorithm 1, line 24) is sampling without
    replacement within a stratum.  If the requested sample size exceeds the
    population we return the whole population in random order, which is the
    natural exhaustion behaviour for a finite stratum.
    """
    if n < 0:
        raise ValueError(f"sample size must be non-negative, got {n}")
    pop = np.asarray(population)
    if n == 0 or pop.size == 0:
        return np.empty(0, dtype=pop.dtype if pop.size else np.int64)
    take = min(n, pop.size)
    return rng.choice(pop, size=take, replace=False)


def split_budget(total: int, stage1_fraction: float) -> tuple:
    """Split a total oracle budget into (Stage 1, Stage 2) sample counts.

    The paper parameterizes the split by ``C`` (the fraction of samples in
    Stage 1, recommended 0.3–0.5).  Stage 1 receives ``floor(C * total)``
    and Stage 2 the remainder, so the two stages always sum to ``total``.
    """
    if total < 0:
        raise ValueError(f"budget must be non-negative, got {total}")
    if not 0.0 <= stage1_fraction <= 1.0:
        raise ValueError(
            f"stage1_fraction must be in [0, 1], got {stage1_fraction}"
        )
    n1 = int(np.floor(total * stage1_fraction))
    n2 = total - n1
    return n1, n2


def proportional_integer_allocation(
    weights: Sequence[float], total: int
) -> List[int]:
    """Allocate ``total`` integer samples proportionally to ``weights``.

    Implements the floor-based allocation of Algorithm 1, line 16
    (``⌊N2 * T_k⌋``) followed by a largest-remainder top-up so that the full
    budget is spent.  The paper notes (Section 4.4.2, "Fractional
    allocations") that rounding down does not change the convergence rate;
    distributing the leftover samples to the largest fractional remainders
    is a standard, strictly-no-worse refinement.
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    w = np.asarray(weights, dtype=float)
    if w.size == 0:
        return []
    if not np.all(np.isfinite(w)):
        raise ValueError("allocation weights must be finite")
    if np.any(w < 0):
        raise ValueError("allocation weights must be non-negative")
    if np.all(w == 0):
        # Degenerate case: nothing informative, spread evenly.
        w = np.ones_like(w)
    total = int(total)
    raw = (w / w.sum()) * total
    base = np.floor(raw).astype(np.int64)
    leftover = total - int(base.sum())
    if leftover > 0:
        # Equal remainders keep default-kind argsort's tie order.
        order = np.argsort(-(raw - base))
        for idx in order[:leftover]:
            base[idx] += 1
    return base.tolist()
