"""Core ABae algorithms: the paper's primary contribution.

Public surface:

* :class:`~repro.core.abae.ABae` / :func:`~repro.core.abae.run_abae` —
  single-predicate aggregation (Algorithm 1);
* :mod:`~repro.core.adaptive` — bandit-style sequential re-allocation and the
  sample-until-CI-width-target driver (the paper's deferred extensions);
* :func:`~repro.core.uniform.run_uniform` — the uniform-sampling baseline;
* :func:`~repro.core.bootstrap.bootstrap_confidence_interval` — Algorithm 2;
* :mod:`~repro.core.allocation` — Propositions 1–2 closed forms;
* :mod:`~repro.core.multipred` — ABae-MultiPred (complex predicates);
* :mod:`~repro.core.groupby` — ABae-GroupBy (single / multiple oracles);
* :mod:`~repro.core.proxy_selection` — proxy ranking and combination;
* :mod:`~repro.core.batching` — the batched execution engine under every
  sampler's oracle hot path.
"""

from repro.core.abae import ABae, run_abae
from repro.core.adaptive import run_abae_sequential, run_abae_until_width
from repro.core.allocation import (
    allocation_from_estimates,
    bounded_allocation,
    expected_speedup,
    integerize_allocation,
    optimal_allocation,
    optimal_stratified_mse,
    solve_minimax_multi_oracle,
    solve_minimax_single_oracle,
    uniform_sampling_mse,
)
from repro.core.bootstrap import bootstrap_confidence_interval, bootstrap_estimates
from repro.core.estimators import (
    combine_estimates,
    estimate_all_strata,
    estimate_mse_plugin,
    estimate_stratum,
)
from repro.core.groupby import (
    GroupSpec,
    run_groupby_multi_oracle,
    run_groupby_single_oracle,
)
from repro.core.multipred import (
    And,
    Not,
    Or,
    PredicateExpr,
    PredicateLeaf,
    run_abae_multipred,
)
from repro.core.proxy_selection import (
    PilotSample,
    ProxyScore,
    combine_proxies,
    draw_pilot_sample,
    rank_proxies,
    select_proxy,
)
from repro.core.results import ConfidenceInterval, EstimateResult, GroupByResult
from repro.core.stratification import Stratification
from repro.core.types import SamplingBudget, StratumEstimate, StratumSample
from repro.core.uniform import UniformSampler, run_uniform

__all__ = [
    "ABae",
    "run_abae",
    "run_abae_sequential",
    "run_abae_until_width",
    "UniformSampler",
    "run_uniform",
    "bootstrap_confidence_interval",
    "bootstrap_estimates",
    "optimal_allocation",
    "optimal_stratified_mse",
    "uniform_sampling_mse",
    "expected_speedup",
    "allocation_from_estimates",
    "bounded_allocation",
    "integerize_allocation",
    "solve_minimax_single_oracle",
    "solve_minimax_multi_oracle",
    "combine_estimates",
    "estimate_all_strata",
    "estimate_stratum",
    "estimate_mse_plugin",
    "GroupSpec",
    "run_groupby_single_oracle",
    "run_groupby_multi_oracle",
    "PredicateExpr",
    "PredicateLeaf",
    "And",
    "Or",
    "Not",
    "run_abae_multipred",
    "PilotSample",
    "ProxyScore",
    "draw_pilot_sample",
    "rank_proxies",
    "select_proxy",
    "combine_proxies",
    "ConfidenceInterval",
    "EstimateResult",
    "GroupByResult",
    "Stratification",
    "SamplingBudget",
    "StratumEstimate",
    "StratumSample",
]
