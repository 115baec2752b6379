"""Budget allocation: closed forms, solvers and integerization helpers.

These are used four ways in the reproduction:

* Algorithm 1's Stage 2 allocates samples proportional to
  ``sqrt(p_hat_k) * sigma_hat_k`` (Proposition 1 with plug-in estimates),
  then integerizes the weights against finite stratum capacities with
  :func:`bounded_allocation`;
* the proxy-selection procedure (Section 3.4) ranks candidate proxies by the
  Proposition-2 MSE their stratification would achieve;
* the group-by extension's minimax objectives (Eqs. 10–11) are solved here
  (:func:`solve_minimax_single_oracle` / :func:`solve_minimax_multi_oracle`)
  on top of the same per-stratification error formula;
* every sampler that turns fractional weights into integer draw counts goes
  through :func:`integerize_allocation` (largest-remainder rounding).

The uniform-sampling MSE and the derived expected speedup are included so
examples and tests can verify the paper's analytical comparison (the
K-fold improvement example in Section 4.2).
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.stats.sampling import proportional_integer_allocation

__all__ = [
    "optimal_allocation",
    "optimal_stratified_mse",
    "uniform_sampling_mse",
    "expected_speedup",
    "allocation_from_estimates",
    "bounded_allocation",
    "integerize_allocation",
    "solve_minimax_single_oracle",
    "solve_minimax_multi_oracle",
]

_EPS = 1e-12


def _validate_p_sigma(p: np.ndarray, sigma: np.ndarray) -> None:
    if p.shape != sigma.shape:
        raise ValueError(
            f"p and sigma must have the same shape, got {p.shape} vs {sigma.shape}"
        )
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p and sigma must be non-empty 1-D arrays")
    if not (np.all(p >= 0) and np.all(p <= 1)):
        raise ValueError("per-stratum positive rates must lie in [0, 1]")
    if not np.all(np.isfinite(sigma)):
        raise ValueError("per-stratum standard deviations must be finite")
    if np.any(sigma < 0):
        raise ValueError("per-stratum standard deviations must be non-negative")


def optimal_allocation(
    p: Sequence[float], sigma: Sequence[float]
) -> np.ndarray:
    """Proposition 1: ``T*_k = sqrt(p_k) sigma_k / sum_i sqrt(p_i) sigma_i``.

    If every stratum has ``sqrt(p_k) * sigma_k == 0`` (no signal at all) the
    allocation falls back to uniform across strata, which is the only
    sensible choice and keeps downstream code free of special cases.
    """
    p_arr = np.asarray(p, dtype=float)
    sigma_arr = np.asarray(sigma, dtype=float)
    _validate_p_sigma(p_arr, sigma_arr)
    weights = np.sqrt(p_arr) * sigma_arr
    total = weights.sum()
    if total == 0:
        return np.full(p_arr.shape, 1.0 / p_arr.size)
    return weights / total


def optimal_stratified_mse(
    p: Sequence[float], sigma: Sequence[float], budget: int
) -> float:
    """Proposition 2: MSE under the optimal allocation.

    ``MSE = (sum_k sqrt(p_k) sigma_k)^2 / (N * p_all^2)``.

    Returns ``inf`` when ``p_all == 0`` (no stratum contains positives — the
    query's predicate selects nothing and no sampling strategy can help).
    """
    p_arr = np.asarray(p, dtype=float)
    sigma_arr = np.asarray(sigma, dtype=float)
    _validate_p_sigma(p_arr, sigma_arr)
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    p_all = p_arr.sum()
    if p_all == 0:
        return float("inf")
    # Divide by p_all before squaring: ``budget * p_all**2`` underflows into
    # the subnormal range below p_all ~ 1e-154 and loses precision.  An MSE
    # beyond float range overflows to inf, as the old zero denominator did.
    with np.errstate(over="ignore"):
        return float(((np.sqrt(p_arr) * sigma_arr).sum() / p_all) ** 2 / budget)


def uniform_sampling_mse(
    p: Sequence[float], sigma: Sequence[float], budget: int,
    mu: Sequence[float] = None,
) -> float:
    """MSE of uniform sampling with deterministic draws (Section 4.2).

    The paper states the rate ``sigma^2 / (N * p_avg)`` where ``sigma^2`` is
    the overall variance of the statistic among positive records and
    ``p_avg = sum_k p_k / K``.  When per-stratum means are provided the
    overall variance includes the between-strata component (law of total
    variance); otherwise we use the p-weighted average of within-stratum
    variances, which is exact when all strata share the same mean.
    """
    p_arr = np.asarray(p, dtype=float)
    sigma_arr = np.asarray(sigma, dtype=float)
    _validate_p_sigma(p_arr, sigma_arr)
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    p_all = p_arr.sum()
    if p_all == 0:
        return float("inf")
    p_avg = p_all / p_arr.size
    weights = p_arr / p_all
    within = float(np.dot(weights, sigma_arr**2))
    if mu is not None:
        mu_arr = np.asarray(mu, dtype=float)
        if mu_arr.shape != p_arr.shape:
            raise ValueError("mu must have the same shape as p")
        overall_mean = float(np.dot(weights, mu_arr))
        between = float(np.dot(weights, (mu_arr - overall_mean) ** 2))
    else:
        between = 0.0
    overall_variance = within + between
    return float(overall_variance / (budget * p_avg))


def expected_speedup(
    p: Sequence[float], sigma: Sequence[float], mu: Sequence[float] = None
) -> float:
    """Ratio of uniform-sampling MSE to optimal stratified MSE (budget cancels).

    This is the "relative gain of using a given proxy" formula the paper
    uses for proxy selection; a value of 2.0 means the stratification is
    expected to need half as many oracle calls for the same error.
    """
    stratified = optimal_stratified_mse(p, sigma, budget=1)
    uniform = uniform_sampling_mse(p, sigma, budget=1, mu=mu)
    if stratified == 0:
        return float("inf")
    if not np.isfinite(stratified) or not np.isfinite(uniform):
        return 1.0
    return float(uniform / stratified)


def allocation_from_estimates(estimates) -> np.ndarray:
    """Stage-2 allocation from plug-in estimates (Algorithm 1, line 14)."""
    p = np.array([e.p_hat for e in estimates], dtype=float)
    sigma = np.array([e.sigma_hat for e in estimates], dtype=float)
    return optimal_allocation(p, sigma)


def bounded_allocation(
    weights: Sequence[float], total: int, capacities: Sequence[int]
) -> List[int]:
    """Proportional integer allocation that respects per-stratum capacities.

    Strata are finite; Stage 2 cannot draw more records from a stratum than
    remain unsampled.  We allocate proportionally, clip at each capacity,
    and redistribute the clipped budget among strata that still have room,
    repeating until either the budget is exhausted or no capacity remains.
    """
    caps = np.asarray(capacities, dtype=np.int64)
    w = np.asarray(weights, dtype=float)
    if caps.shape != w.shape:
        raise ValueError("weights and capacities must have the same shape")
    allocation = np.zeros_like(caps)
    remaining_budget = int(total)
    active = caps > 0
    while remaining_budget > 0 and active.any():
        active_weights = np.where(active, w, 0.0)
        if active_weights.sum() == 0:
            active_weights = active.astype(float)
        proposal = np.array(
            proportional_integer_allocation(active_weights, remaining_budget),
            dtype=np.int64,
        )
        headroom = caps - allocation
        granted = np.minimum(proposal, headroom)
        if granted.sum() == 0:
            # Weights point only at full strata; spread one sample at a time.
            for k in np.nonzero(headroom > 0)[0]:
                if remaining_budget == 0:
                    break
                allocation[k] += 1
                remaining_budget -= 1
            break
        allocation += granted
        remaining_budget -= int(granted.sum())
        active = (caps - allocation) > 0
    return allocation.tolist()


def integerize_allocation(weights: Sequence[float], total: int) -> List[int]:
    """Largest-remainder integer split of ``total`` according to ``weights``.

    The group-by extension uses this to turn the minimax Λ (a point on the
    probability simplex) into per-group Stage-2 draw counts that sum to the
    Stage-2 budget exactly.
    """
    return proportional_integer_allocation(weights, total)


def solve_minimax_single_oracle(error_terms: np.ndarray, n2: int) -> np.ndarray:
    """Minimize Eq. 10 over Λ on the probability simplex.

    ``error_terms[l, g]`` is the per-(stratification, group) S term of
    Eq. 10; every stratification's estimator informs every group (the
    single-oracle setting reveals each drawn record's group key), so a
    group's combined variance is the inverse-variance combination across
    stratifications and the objective is the worst group's.

    Degenerate groups are excluded from the worst-case before the solver
    runs: a group whose every S term is non-finite (no positives drawn
    anywhere — the empty-group case) cannot be helped by *any*
    allocation, and a group with a zero S term is already estimated with
    zero variance.  Pre-guard, either case froze the objective at a
    constant (``inf``), starving the Nelder–Mead simplex of any descent
    signal — it churned through inf-inf = NaN arithmetic for the full
    iteration budget and returned an arbitrary Λ.  When no informative
    group remains the allocation falls back to uniform.
    """
    from repro.optim.simplex import minimize_on_simplex

    error_terms = np.asarray(error_terms, dtype=float)
    if error_terms.ndim != 2 or error_terms.shape[0] != error_terms.shape[1]:
        raise ValueError(
            f"error_terms must be a square (stratification x group) matrix, "
            f"got shape {error_terms.shape}"
        )
    num_groups = error_terms.shape[0]
    # A (stratification, group) cell is usable when its S term is finite
    # and positive; a group is informative when any of its cells is (zero
    # terms mean zero variance: nothing to optimize).  Both masks are
    # computed once — the solver evaluates the objective hundreds of
    # times, so the per-evaluation work is vectorized over the S-term
    # matrix instead of a nested Python loop.
    usable = np.isfinite(error_terms) & (error_terms > 0)
    informative = usable.any(axis=0)
    if not informative.any():
        return np.full(num_groups, 1.0 / num_groups)

    def objective(lam: np.ndarray) -> float:
        # Each group's variance is the inverse-variance combination across
        # stratifications of ``term / max(lam_l * n2, eps)``.
        denom = np.maximum(lam * n2, _EPS)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            inverse = np.where(usable, 1.0 / (error_terms / denom[:, None]), 0.0)
            inverse_sum = inverse.sum(axis=0)
            combined = np.where(inverse_sum > 0, 1.0 / inverse_sum, np.inf)
        return float(combined[informative].max())

    result = minimize_on_simplex(objective, num_groups)
    return result.x


def solve_minimax_multi_oracle(error_terms: np.ndarray, n2: int) -> np.ndarray:
    """Minimize Eq. 11 over Λ on the probability simplex.

    ``error_terms[g]`` is group *g*'s S term; with per-group membership
    oracles a sample drawn for one group informs no other, so each group's
    variance depends only on its own budget share and the objective is the
    worst single group.

    As in the single-oracle solver, groups whose S term is non-finite
    (empty / all-negative groups no allocation can help) are excluded
    from the worst-case so they cannot freeze the objective at a
    constant ``inf``; with no informative group left, Λ is uniform.
    """
    from repro.optim.simplex import minimize_on_simplex

    error_terms = np.asarray(error_terms, dtype=float)
    if error_terms.ndim != 1 or error_terms.size == 0:
        raise ValueError(
            f"error_terms must be a non-empty 1-D vector, got shape "
            f"{error_terms.shape}"
        )
    num_groups = error_terms.shape[0]
    informative = np.isfinite(error_terms) & (error_terms > 0)
    if not informative.any():
        return np.full(num_groups, 1.0 / num_groups)
    terms = error_terms[informative]

    def objective(lam: np.ndarray) -> float:
        # Per-group isolated variances; the worst one is the objective.
        return float((terms / np.maximum(lam[informative] * n2, _EPS)).max())

    result = minimize_on_simplex(objective, num_groups)
    return result.x
