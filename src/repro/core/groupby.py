"""ABae-GroupBy: aggregation queries with a group-by key (Section 3.2, 4.5).

Two settings are supported, mirroring the paper:

* **Single oracle** (:func:`run_groupby_single_oracle`) — one oracle call
  returns the record's group key directly, so a sample drawn for any group
  informs every group.  Stage 1 samples uniformly; Stage 2 splits the
  budget across the per-group stratifications by minimizing the minimax
  error objective of Eq. 10, and the final per-group estimates combine the
  per-stratification estimators by inverse-variance weighting.

* **Multiple oracles** (:func:`run_groupby_multi_oracle`) — each group has
  its own binary membership oracle; samples drawn for group *g* only inform
  group *g*.  Stage 1 pilots each group independently; Stage 2 splits the
  budget across groups by minimizing Eq. 11.

Both functions accept ``allocation_method`` of ``"minimax"`` (the paper's
method), ``"equal"`` (equal budget per group / stratification — the
"Equal" baseline in Figures 7–8), or ``"uniform"`` (no stratification at
all: plain uniform sampling, the "Uniform" baseline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Union

import numpy as np

from repro.core.abae import (
    StatisticLike,
    _normalize_statistic,
    run_abae,
)
from repro.core.allocation import (
    bounded_allocation,
    integerize_allocation,
    optimal_allocation,
    solve_minimax_multi_oracle,
    solve_minimax_single_oracle,
)
from repro.core.batching import (
    batch_slices,
    require_finite_statistic,
    statistic_batch,
)
from repro.engine.builders import exploit_continuation_pipeline
from repro.engine.config import ExecutionConfig, resolve_execution_config
from repro.oracle.base import evaluate_oracle_batch
from repro.core.estimators import (
    combine_estimates,
    estimate_all_strata,
    estimate_mse_plugin,
)
from repro.core.results import EstimateResult, GroupByResult
from repro.core.stratification import Stratification
from repro.core.uniform import run_uniform
from repro.oracle.groupkey import GroupKeyOracle, PerGroupOracles, membership_column
from repro.proxy.base import Proxy, memoized_proxy_object
from repro.stats.descriptive import safe_mean
from repro.stats.rng import RandomState
from repro.stats.sampling import sample_without_replacement
from repro.core.types import StratumSample

__all__ = [
    "GroupSpec",
    "run_groupby_single_oracle",
    "run_groupby_multi_oracle",
]

_EPS = 1e-12

VALID_ALLOCATION_METHODS = ("minimax", "equal", "uniform")


@dataclass
class GroupSpec:
    """One group of a GROUP BY query: its key and its proxy."""

    key: Hashable
    proxy: Union[Proxy, Sequence[float]]

    def proxy_object(self) -> Proxy:
        """The group's proxy as a :class:`Proxy` (memoized).

        Raw score sequences are wrapped once and reused, so repeated
        stratifications of the same group hit the plan-level cache by
        proxy identity instead of re-wrapping (and re-fingerprinting) the
        scores every run.
        """
        return memoized_proxy_object(self, self.proxy, name=f"proxy[{self.key}]")


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _validate_allocation_method(method: str) -> None:
    if method not in VALID_ALLOCATION_METHODS:
        raise ValueError(
            f"unknown allocation_method {method!r}; expected one of "
            f"{VALID_ALLOCATION_METHODS}"
        )


class _DrawLog:
    """Columnar log of labelled draws: indices / revealed keys / statistics.

    Replaces the per-record ``_LabelledDraw`` dataclass list: draws are
    appended one *batch* at a time (a few bulk array appends) and exposed
    as three aligned columns.  Group membership columns — the expensive
    per-draw Python ``==`` against arbitrary hashable keys — are memoized
    per group; an append invalidates the memo, so each column is rebuilt
    (over all draws) at most once per group per sampling stage, and the
    bucketing of draws into (group, stratification) samples stays pure
    NumPy.
    """

    __slots__ = ("_index_chunks", "_key_chunks", "_value_chunks", "_columns", "_membership")

    def __init__(self):
        self._index_chunks: List[np.ndarray] = []
        self._key_chunks: List[np.ndarray] = []
        self._value_chunks: List[np.ndarray] = []
        self._columns = None
        self._membership: Dict[Hashable, np.ndarray] = {}

    def __len__(self) -> int:
        return sum(c.shape[0] for c in self._index_chunks)

    def append(self, indices: np.ndarray, keys: Sequence[Hashable], values: np.ndarray) -> None:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.shape[0] == 0:
            return
        key_col = np.empty(idx.shape[0], dtype=object)
        key_col[:] = keys  # per-element fill keeps tuples and Nones intact
        self._index_chunks.append(idx)
        self._key_chunks.append(key_col)
        self._value_chunks.append(np.asarray(values, dtype=float))
        self._columns = None
        self._membership.clear()

    def columns(self):
        """The (indices, keys, values) columns, concatenated lazily."""
        if self._columns is None:
            if self._index_chunks:
                self._columns = (
                    np.concatenate(self._index_chunks),
                    np.concatenate(self._key_chunks),
                    np.concatenate(self._value_chunks),
                )
            else:
                self._columns = (
                    np.empty(0, dtype=np.int64),
                    np.empty(0, dtype=object),
                    np.empty(0, dtype=float),
                )
        return self._columns

    def membership(self, group: Hashable) -> np.ndarray:
        """Boolean column: does each draw's revealed key equal ``group``?"""
        cached = self._membership.get(group)
        if cached is None:
            _, keys, _ = self.columns()
            cached = membership_column(keys, group)
            self._membership[group] = cached
        return cached


def _label_group_draws(
    record_indices: np.ndarray,
    oracle: GroupKeyOracle,
    statistic_fn: Callable[[int], float],
    group_keys: Sequence[Hashable],
    batch_size: Optional[int],
):
    """Reveal group keys for drawn records through the batched engine.

    Returns the ``(indices, keys, values)`` columns for the drawn records;
    the statistic is only extracted for records whose revealed key belongs
    to one of the query's groups, mirroring the sequential path exactly.
    ``batch_size=1`` reproduces the legacy per-record oracle calls.
    """
    idx = np.asarray(record_indices, dtype=np.int64)
    key_set = set(group_keys)
    values = np.full(idx.shape[0], np.nan, dtype=float)
    in_group = np.zeros(idx.shape[0], dtype=bool)
    if batch_size == 1:
        keys: List[Hashable] = []
        for i, record_index in enumerate(idx.tolist()):
            key = oracle(record_index)
            keys.append(key)
            if key in key_set:
                in_group[i] = True
                values[i] = float(statistic_fn(record_index))
    else:
        keys = []
        for chunk in batch_slices(idx.shape[0], batch_size):
            chunk_idx = idx[chunk]
            chunk_keys = evaluate_oracle_batch(oracle, chunk_idx)
            chunk_in_group = np.fromiter(
                (k in key_set for k in chunk_keys), dtype=bool, count=len(chunk_keys)
            )
            in_group[chunk] = chunk_in_group
            if chunk_in_group.any():
                # ``values[chunk]`` is a slice view; writing through it
                # fills the right rows of the full column.
                values[chunk][chunk_in_group] = statistic_batch(
                    statistic_fn, chunk_idx[chunk_in_group]
                )
            keys.extend(chunk_keys)
    require_finite_statistic(idx, values, in_group)
    return idx, keys, values


def _draws_to_stratum_samples(
    log: _DrawLog,
    group: Hashable,
    assignment: np.ndarray,
    num_strata: int,
) -> List[StratumSample]:
    """Bucket labelled draws into strata of one stratification, for one group.

    One stratum-assignment gather and one memoized group membership
    column; draw order is preserved within each stratum, exactly as the
    per-record append loop produced.  Values of draws outside ``group``
    are masked to NaN.
    """
    indices, _, values = log.columns()
    matched = log.membership(group)
    stratum_of = assignment[indices]
    masked_values = np.where(matched, values, np.nan)
    samples = []
    for k in range(num_strata):
        in_k = stratum_of == k
        samples.append(StratumSample(
            stratum=k,
            indices=indices[in_k],
            matches=matched[in_k],
            values=masked_values[in_k],
        ))
    return samples


def _per_group_estimates(
    log: _DrawLog,
    groups: Sequence[Hashable],
    assignment: np.ndarray,
    num_strata: int,
) -> Dict[Hashable, List]:
    """Per-group, per-stratum plug-in estimates from labelled draws."""
    estimates: Dict[Hashable, List] = {}
    for group in groups:
        samples = _draws_to_stratum_samples(log, group, assignment, num_strata)
        estimates[group] = estimate_all_strata(samples)
    return estimates


def _stratification_error_term(
    estimates: Sequence, allocation: np.ndarray
) -> float:
    """The S term of Eqs. 10–11: sum_k w_hat_k^2 sigma_hat_k^2 / (p_hat_k T_k).

    Multiplying by 1 / (Λ_l N2) gives the per-stratification, per-group
    variance estimate.  Guarded so strata with no information contribute
    nothing rather than dividing by zero.
    """
    p = np.array([e.p_hat for e in estimates], dtype=float)
    sigma = np.array([e.sigma_hat for e in estimates], dtype=float)
    p_all = p.sum()
    if p_all == 0:
        return float("inf")
    w = p / p_all
    denom = p * np.maximum(allocation, _EPS)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, w**2 * sigma**2 / np.maximum(denom, _EPS), 0.0)
    return float(terms.sum())


# ---------------------------------------------------------------------------
# Single-oracle setting
# ---------------------------------------------------------------------------


def run_groupby_single_oracle(
    groups: Sequence[GroupSpec],
    oracle: GroupKeyOracle,
    statistic: StatisticLike,
    budget: int,
    num_strata: int = 5,
    stage1_fraction: float = 0.5,
    allocation_method: str = "minimax",
    rng: Optional[RandomState] = None,
    config: Optional[ExecutionConfig] = None,
) -> GroupByResult:
    """GROUP BY estimation when one oracle call reveals the group key.

    ``budget`` is the total number of oracle invocations.  Returns per-group
    estimates plus the Stage-2 allocation Λ chosen for each stratification.
    ``config`` carries the execution knobs (oracle batching, plan cache —
    see :mod:`repro.engine`).  No knob ever changes results.
    """
    config = resolve_execution_config(config, "run_groupby_single_oracle")
    batch_size = config.batch_size
    _validate_allocation_method(allocation_method)
    if not groups:
        raise ValueError("run_groupby_single_oracle requires at least one group")
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    rng = config.make_rng(rng)
    statistic_fn = _normalize_statistic(statistic)
    group_keys = [g.key for g in groups]
    num_groups = len(groups)

    proxies = [g.proxy_object() for g in groups]
    num_records = len(proxies[0])
    if any(len(p) != num_records for p in proxies):
        raise ValueError("all group proxies must score the same number of records")

    if allocation_method == "uniform":
        return _groupby_uniform_single_oracle(
            group_keys, oracle, statistic_fn, budget, num_records, rng, batch_size
        )

    stratifications = [
        Stratification.by_proxy_quantile(proxy, num_strata) for proxy in proxies
    ]
    assignments = [s.stratum_of() for s in stratifications]

    # ---- Stage 1: uniform pilot over the whole dataset --------------------------
    n1 = int(np.floor(budget * stage1_fraction))
    n2 = budget - n1
    pilot_indices = sample_without_replacement(
        np.arange(num_records, dtype=np.int64), n1, rng
    )
    log = _DrawLog()
    log.append(*_label_group_draws(
        pilot_indices, oracle, statistic_fn, group_keys, batch_size
    ))
    drawn_mask = np.zeros(num_records, dtype=bool)
    drawn_mask[pilot_indices] = True

    # ---- Per-stratification estimates and within-stratification allocations -----
    per_strat_estimates = [
        _per_group_estimates(log, group_keys, assignments[l], num_strata)
        for l in range(num_groups)
    ]
    within_allocations = []
    for l, group in enumerate(group_keys):
        own_estimates = per_strat_estimates[l][group]
        p = np.array([e.p_hat for e in own_estimates])
        sigma = np.array([e.sigma_hat for e in own_estimates])
        within_allocations.append(optimal_allocation(p, sigma))

    error_terms = np.zeros((num_groups, num_groups))  # [stratification l, group g]
    for l in range(num_groups):
        for g, group in enumerate(group_keys):
            error_terms[l, g] = _stratification_error_term(
                per_strat_estimates[l][group], within_allocations[l]
            )

    # ---- Choose Λ across stratifications -----------------------------------------
    if allocation_method == "equal" or n2 == 0:
        lam = np.full(num_groups, 1.0 / num_groups)
    else:
        lam = solve_minimax_single_oracle(error_terms, n2)

    # ---- Stage 2: sample each stratification with its share of the budget --------
    lam_counts = integerize_allocation(lam, n2)
    for l in range(num_groups):
        stratification = stratifications[l]
        # Dataset-length membership mask instead of np.isin per stratum:
        # one O(1) gather per candidate rather than a sort per stratum.
        strata = [stratification.stratum(k) for k in range(num_strata)]
        fresh_per_stratum = [stratum[~drawn_mask[stratum]] for stratum in strata]
        capacities = [int(fresh.size) for fresh in fresh_per_stratum]
        counts = bounded_allocation(within_allocations[l], lam_counts[l], capacities)
        for k in range(num_strata):
            chosen = sample_without_replacement(fresh_per_stratum[k], counts[k], rng)
            log.append(*_label_group_draws(
                chosen, oracle, statistic_fn, group_keys, batch_size
            ))
            drawn_mask[chosen] = True

    # ---- Combine: inverse-variance weighting across stratifications --------------
    total_draws = len(log)
    group_results: Dict[Hashable, EstimateResult] = {}
    for group in group_keys:
        estimates_per_l = []
        variances_per_l = []
        samples_per_l = []
        for l in range(num_groups):
            samples = _draws_to_stratum_samples(
                log, group, assignments[l], num_strata
            )
            estimates = estimate_all_strata(samples)
            stage_draws = [s.num_draws for s in samples]
            mse = estimate_mse_plugin(estimates, stage_draws)
            estimates_per_l.append(combine_estimates(estimates))
            variances_per_l.append(mse)
            samples_per_l.append(samples)
        estimate = _inverse_variance_combine(estimates_per_l, variances_per_l)
        group_results[group] = EstimateResult(
            estimate=estimate,
            oracle_calls=total_draws,
            samples=[s for samples in samples_per_l for s in samples],
            method=f"abae-groupby-single-{allocation_method}",
            details={
                "per_stratification_estimates": estimates_per_l,
                "per_stratification_variances": variances_per_l,
            },
        )

    return GroupByResult(
        group_results=group_results,
        allocation={group_keys[l]: float(lam[l]) for l in range(num_groups)},
        oracle_calls=total_draws,
        method=f"abae-groupby-single-{allocation_method}",
        details={"stage1_draws": n1, "stage2_draws": n2},
    )


def _groupby_uniform_single_oracle(
    group_keys: Sequence[Hashable],
    oracle: GroupKeyOracle,
    statistic_fn: Callable[[int], float],
    budget: int,
    num_records: int,
    rng: RandomState,
    batch_size: Optional[int] = None,
) -> GroupByResult:
    """The Uniform baseline: one uniform sample, split by revealed group key."""
    indices = sample_without_replacement(
        np.arange(num_records, dtype=np.int64), budget, rng
    )
    log = _DrawLog()
    log.append(*_label_group_draws(
        indices, oracle, statistic_fn, group_keys, batch_size
    ))
    _, _, values = log.columns()
    group_results = {
        group: EstimateResult(
            estimate=safe_mean(values[log.membership(group)]),
            oracle_calls=len(indices),
            method="uniform-groupby-single",
        )
        for group in group_keys
    }
    return GroupByResult(
        group_results=group_results,
        allocation={g: 1.0 / len(group_keys) for g in group_keys},
        oracle_calls=len(indices),
        method="uniform-groupby-single",
    )


# ---------------------------------------------------------------------------
# Multiple-oracle setting
# ---------------------------------------------------------------------------


def run_groupby_multi_oracle(
    groups: Sequence[GroupSpec],
    oracles: Union[PerGroupOracles, Dict[Hashable, Callable[[int], bool]]],
    statistic: StatisticLike,
    budget: int,
    num_strata: int = 5,
    stage1_fraction: float = 0.5,
    allocation_method: str = "minimax",
    rng: Optional[RandomState] = None,
    config: Optional[ExecutionConfig] = None,
) -> GroupByResult:
    """GROUP BY estimation when each group has its own membership oracle.

    ``budget`` is the *total* number of oracle invocations across all
    groups' oracles (the paper normalizes by the number of groups when
    plotting; the benchmark harness does the same).  ``config`` carries the
    execution knobs; no knob changes results.
    """
    config = resolve_execution_config(config, "run_groupby_multi_oracle")
    _validate_allocation_method(allocation_method)
    if not groups:
        raise ValueError("run_groupby_multi_oracle requires at least one group")
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    rng = config.make_rng(rng)
    statistic_fn = _normalize_statistic(statistic)
    group_keys = [g.key for g in groups]
    num_groups = len(groups)

    def oracle_for(group: Hashable) -> Callable[[int], bool]:
        if isinstance(oracles, PerGroupOracles):
            return oracles.oracle_for(group)
        try:
            return oracles[group]
        except (KeyError, TypeError):
            raise ValueError(f"no oracle provided for group {group!r}") from None

    proxies = [g.proxy_object() for g in groups]
    num_records = len(proxies[0])
    if any(len(p) != num_records for p in proxies):
        raise ValueError("all group proxies must score the same number of records")

    per_group_budget = budget // num_groups

    if allocation_method == "uniform":
        group_results = {}
        total_calls = 0
        for spec, rng_child in zip(groups, rng.spawn(num_groups)):
            result = run_uniform(
                num_records=num_records,
                oracle=oracle_for(spec.key),
                statistic=statistic_fn,
                budget=per_group_budget,
                rng=rng_child,
                config=config,
            )
            result.method = "uniform-groupby-multi"
            group_results[spec.key] = result
            total_calls += result.oracle_calls
        return GroupByResult(
            group_results=group_results,
            allocation={g: 1.0 / num_groups for g in group_keys},
            oracle_calls=total_calls,
            method="uniform-groupby-multi",
        )

    # ---- Stage 1: pilot each group independently ---------------------------------
    stage1_per_group = int(np.floor(per_group_budget * stage1_fraction))
    stage2_total = budget - stage1_per_group * num_groups

    pilot_results = []
    for spec, rng_child in zip(groups, rng.spawn(num_groups)):
        pilot = run_abae(
            proxy=spec.proxy_object(),
            oracle=oracle_for(spec.key),
            statistic=statistic_fn,
            budget=stage1_per_group,
            num_strata=num_strata,
            stage1_fraction=1.0,  # the whole per-group pilot budget is Stage 1
            rng=rng_child,
            config=config,
        )
        pilot_results.append(pilot)

    error_terms = np.zeros(num_groups)
    within_allocations = []
    for g, pilot in enumerate(pilot_results):
        p = np.array([e.p_hat for e in pilot.strata_estimates])
        sigma = np.array([e.sigma_hat for e in pilot.strata_estimates])
        allocation = optimal_allocation(p, sigma)
        within_allocations.append(allocation)
        error_terms[g] = _stratification_error_term(
            pilot.strata_estimates, allocation
        )

    # ---- Choose Λ across groups ---------------------------------------------------
    if allocation_method == "equal" or stage2_total == 0:
        lam = np.full(num_groups, 1.0 / num_groups)
    else:
        lam = solve_minimax_multi_oracle(error_terms, stage2_total)

    lam_counts = integerize_allocation(lam, stage2_total)

    # ---- Stage 2: each group continues sampling with its share --------------------
    # Each group's continuation is the engine's shared exploitation
    # pipeline: prime a pool with the pilot samples, spend the group's Λ
    # share over strata proportional to its within-group allocation.
    group_results: Dict[Hashable, EstimateResult] = {}
    total_calls = 0
    for g, (spec, rng_child) in enumerate(zip(groups, rng.spawn(num_groups))):
        stratification = Stratification.by_proxy_quantile(
            spec.proxy_object(), num_strata
        )
        pipeline = exploit_continuation_pipeline(
            stratification=stratification,
            oracle=oracle_for(spec.key),
            statistic=statistic_fn,
            weights=within_allocations[g],
            stage2_total=lam_counts[g],
            initial_samples=pilot_results[g].samples,
            method=f"abae-groupby-multi-{allocation_method}",
            config=config,
        )
        result = pipeline.run(rng_child)
        total_calls += result.oracle_calls
        group_results[spec.key] = result

    return GroupByResult(
        group_results=group_results,
        allocation={group_keys[g]: float(lam[g]) for g in range(num_groups)},
        oracle_calls=total_calls,
        method=f"abae-groupby-multi-{allocation_method}",
        details={
            "stage1_per_group": stage1_per_group,
            "stage2_total": stage2_total,
        },
    )


# ---------------------------------------------------------------------------
# Small numeric helpers
# ---------------------------------------------------------------------------

# Compatibility aliases: the solvers and the integerizer were extracted to
# :mod:`repro.core.allocation` (where they have direct unit tests); keep the
# historical private names importable from here.
_solve_minimax_single_oracle = solve_minimax_single_oracle
_solve_minimax_multi_oracle = solve_minimax_multi_oracle
_integerize = integerize_allocation


def _inverse_variance_combine(
    estimates: Sequence[float], variances: Sequence[float]
) -> float:
    """Inverse-variance weighted average, robust to zero / infinite variances."""
    est = np.asarray(estimates, dtype=float)
    var = np.asarray(variances, dtype=float)
    finite = np.isfinite(var)
    if not finite.any():
        return float(est.mean()) if est.size else 0.0
    est, var = est[finite], var[finite]
    weights = 1.0 / np.maximum(var, _EPS)
    return float(np.dot(weights, est) / weights.sum())
