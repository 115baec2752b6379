"""Trial runner: sweep (method, budget, trial) grids and collect metrics.

Every figure experiment boils down to: for each budget, run each method
``num_trials`` times with independent seeds, and summarize the estimates
against the scenario's ground truth with the figure's metric (RMSE, CI
width, normalized Q-error, ...).  The generic machinery lives here so the
per-figure functions stay short and declarative.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.abae import run_abae
from repro.core.results import EstimateResult
from repro.core.stratification import Stratification
from repro.core.uniform import run_uniform
from repro.engine.config import ExecutionConfig
from repro.experiments.config import ExperimentConfig, SweepResult
from repro.stats.metrics import coverage_rate, normalized_q_error, rmse
from repro.stats.rng import RandomState
from repro.synth.base import Scenario

__all__ = ["run_trials", "run_single_predicate_sweep", "summarize_estimates"]

MethodFn = Callable[[Scenario, int, RandomState], EstimateResult]


def _abae_method(
    num_strata: int, stage1_fraction: float, reuse_samples: bool = True,
    with_ci: bool = False, alpha: float = 0.05, num_bootstrap: int = 200,
    execution: Optional[ExecutionConfig] = None,
) -> MethodFn:
    def method(scenario: Scenario, budget: int, rng: RandomState) -> EstimateResult:
        # Stratification is a pure function of (proxy, K): build it through
        # the plan-level cache and hand it to every trial explicitly, so a
        # budget x seed x trial grid sorts the score vector once instead of
        # once per cell.  Passing it in (rather than relying on run_abae's
        # internal lookup) also keeps the per-trial path free of cache-key
        # hashing.
        stratification = Stratification.by_proxy_quantile(
            scenario.proxy, num_strata
        )
        return run_abae(
            proxy=scenario.proxy,
            oracle=scenario.make_oracle(),
            statistic=scenario.statistic_values,
            budget=budget,
            num_strata=num_strata,
            stage1_fraction=stage1_fraction,
            reuse_samples=reuse_samples,
            stratification=stratification,
            with_ci=with_ci,
            alpha=alpha,
            num_bootstrap=num_bootstrap,
            rng=rng,
            config=execution,
        )

    return method


def _uniform_method(
    with_ci: bool = False, alpha: float = 0.05, num_bootstrap: int = 200,
    execution: Optional[ExecutionConfig] = None,
) -> MethodFn:
    def method(scenario: Scenario, budget: int, rng: RandomState) -> EstimateResult:
        return run_uniform(
            num_records=scenario.num_records,
            oracle=scenario.make_oracle(),
            statistic=scenario.statistic_values,
            budget=budget,
            with_ci=with_ci,
            alpha=alpha,
            num_bootstrap=num_bootstrap,
            rng=rng,
            config=execution,
        )

    return method


def default_methods(
    config: ExperimentConfig,
    with_ci: bool = False,
    include_no_reuse: bool = False,
    execution: Optional[ExecutionConfig] = None,
) -> Dict[str, MethodFn]:
    """The standard method set: ABae and uniform (plus the lesion variant).

    ``execution`` is the shared :class:`~repro.engine.config.ExecutionConfig`
    every trial runs under (batching / plan cache); it never
    changes a trial's result, only how fast the sweep finishes.
    """
    methods: Dict[str, MethodFn] = {
        "abae": _abae_method(
            config.num_strata, config.stage1_fraction, True, with_ci, config.alpha,
            execution=execution,
        ),
        "uniform": _uniform_method(with_ci, config.alpha, execution=execution),
    }
    if include_no_reuse:
        methods["abae-no-reuse"] = _abae_method(
            config.num_strata, config.stage1_fraction, False, with_ci, config.alpha,
            execution=execution,
        )
    return methods


def run_trials(
    scenario: Scenario,
    method: MethodFn,
    budget: int,
    num_trials: int,
    seed: int = 0,
) -> List[EstimateResult]:
    """Run one method ``num_trials`` times with independent child seeds."""
    children = RandomState(seed).spawn(num_trials)
    return [method(scenario, budget, child) for child in children]


def summarize_estimates(
    results: Sequence[EstimateResult], truth: float, metric: str
) -> tuple:
    """Reduce repeated trials to (value, std) for the requested metric."""
    estimates = np.array([r.estimate for r in results], dtype=float)
    if metric == "rmse":
        value = rmse(estimates, truth)
        spread = float(np.std(np.abs(estimates - truth), ddof=1)) if len(estimates) > 1 else 0.0
        return value, spread
    if metric == "q_error":
        q_errors = np.array(
            [normalized_q_error(max(e, 1e-12), max(truth, 1e-12)) for e in estimates]
        )
        return float(q_errors.mean()), float(q_errors.std(ddof=1)) if len(q_errors) > 1 else 0.0
    if metric == "ci_width":
        widths = np.array([r.ci.width for r in results if r.ci is not None])
        if widths.size == 0:
            raise ValueError("ci_width metric requires results carrying CIs")
        return float(widths.mean()), float(widths.std(ddof=1)) if widths.size > 1 else 0.0
    if metric == "coverage":
        lowers = [r.ci.lower for r in results if r.ci is not None]
        uppers = [r.ci.upper for r in results if r.ci is not None]
        if not lowers:
            raise ValueError("coverage metric requires results carrying CIs")
        return coverage_rate(lowers, uppers, truth), 0.0
    raise ValueError(
        f"unknown metric {metric!r}; expected rmse, q_error, ci_width or coverage"
    )


def run_single_predicate_sweep(
    scenario: Scenario,
    config: ExperimentConfig,
    metric: str = "rmse",
    methods: Optional[Dict[str, MethodFn]] = None,
    with_ci: bool = False,
    execution: Optional[ExecutionConfig] = None,
) -> SweepResult:
    """Sweep budgets x methods on one scenario and summarize with ``metric``.

    ``execution`` threads one shared engine config through every default
    method's trials; ignored when an explicit ``methods`` dict is given.
    """
    truth = scenario.ground_truth()
    if methods is None:
        methods = default_methods(config, with_ci=with_ci, execution=execution)
    sweep = SweepResult(name=scenario.name, metric=metric, ground_truth=truth)
    for method_name, method in methods.items():
        curve = sweep.curve(method_name)
        for budget in config.budgets:
            trial_seed = _stable_seed(config.seed, scenario.name, method_name, budget)
            results = run_trials(
                scenario, method, budget, config.num_trials, seed=trial_seed
            )
            value, spread = summarize_estimates(results, truth, metric)
            curve.add(budget, value, spread)
    return sweep


def _stable_seed(base: int, *labels) -> int:
    """Deterministic seed per (dataset, method, budget) combination."""
    acc = int(base) & 0x7FFFFFFF
    for label in labels:
        for char in str(label):
            acc = (acc * 1000003 + ord(char)) & 0x7FFFFFFF
    return acc
