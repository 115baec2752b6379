"""Property-based tests (hypothesis) on core invariants.

These cover the algebraic properties the paper's analysis relies on:
allocation vectors are distributions, stratifications are partitions,
estimators respect their bounds, the bootstrap stays within the sample's
convex hull, and the simplex projection is idempotent — plus end-to-end
sampler invariants over randomized scenario grids: budget conservation
(no sampler ever spends more oracle calls than its budget), confidence
-interval ordering (``lower <= estimate <= upper``), and allocation
non-negativity / sum constraints.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.abae import bounded_allocation, run_abae
from repro.core.adaptive import run_abae_sequential
from repro.core.allocation import (
    optimal_allocation,
    optimal_stratified_mse,
    uniform_sampling_mse,
)
from repro.core.uniform import run_uniform
from repro.oracle.simulated import LabelColumnOracle
from repro.core.estimators import combine_estimates, estimate_all_strata, estimate_stratum
from repro.core.stratification import Stratification
from repro.core.types import StratumSample
from repro.optim.simplex import project_to_simplex, softmax_parameterization
from repro.stats.rng import RandomState
from repro.stats.sampling import proportional_integer_allocation, split_budget
from repro.core.bootstrap import bootstrap_estimates


# -- Strategies -------------------------------------------------------------------

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
positive_floats = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
strata_counts = st.integers(min_value=1, max_value=8)


@st.composite
def p_sigma_arrays(draw):
    k = draw(strata_counts)
    p = draw(hnp.arrays(float, k, elements=probabilities))
    sigma = draw(hnp.arrays(float, k, elements=positive_floats))
    return p, sigma


@st.composite
def stratum_samples(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    matches = draw(hnp.arrays(bool, n))
    values = draw(
        hnp.arrays(float, n, elements=st.floats(-100, 100, allow_nan=False))
    )
    values = np.where(matches, values, np.nan)
    return StratumSample(stratum=0, indices=np.arange(n), matches=matches, values=values)


# -- Allocation -------------------------------------------------------------------


class TestAllocationProperties:
    @given(p_sigma_arrays())
    @settings(max_examples=80, deadline=None)
    def test_allocation_is_a_distribution(self, p_sigma):
        p, sigma = p_sigma
        allocation = optimal_allocation(p, sigma)
        assert allocation.shape == p.shape
        assert np.all(allocation >= 0)
        assert allocation.sum() == pytest.approx(1.0)

    @given(p_sigma_arrays(), st.integers(min_value=1, max_value=10_000))
    @example((np.array([7.19680825e-160]), np.array([1.0])), 1)
    @settings(max_examples=80, deadline=None)
    def test_optimal_never_worse_than_uniform_for_equal_means(self, p_sigma, budget):
        p, sigma = p_sigma
        stratified = optimal_stratified_mse(p, sigma, budget)
        uniform = uniform_sampling_mse(p, sigma, budget)
        if np.isfinite(stratified) and np.isfinite(uniform):
            # Relative tolerance: with extreme (near-underflow) p values the
            # two formulas agree only up to floating-point rounding.
            assert stratified <= uniform * (1.0 + 1e-9) + 1e-9

    @given(p_sigma_arrays())
    @settings(max_examples=50, deadline=None)
    def test_mse_scales_inversely_with_budget(self, p_sigma):
        p, sigma = p_sigma
        small = optimal_stratified_mse(p, sigma, 100)
        large = optimal_stratified_mse(p, sigma, 200)
        if np.isfinite(small):
            assert large == pytest.approx(small / 2.0, rel=1e-9)


# -- Integer allocation and budget splitting ---------------------------------------


class TestBudgetProperties:
    @given(
        hnp.arrays(float, st.integers(1, 10), elements=st.floats(0, 100, allow_nan=False)),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_integer_allocation_spends_exactly_total(self, weights, total):
        allocation = proportional_integer_allocation(weights, total)
        assert sum(allocation) == total
        assert all(a >= 0 for a in allocation)

    @given(st.integers(0, 10**6), st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_split_budget_conserves_total(self, total, fraction):
        n1, n2 = split_budget(total, fraction)
        assert n1 + n2 == total
        assert n1 >= 0 and n2 >= 0


# -- Stratification -----------------------------------------------------------------


class TestStratificationProperties:
    @given(
        hnp.arrays(float, st.integers(1, 300), elements=st.floats(0, 1, allow_nan=False)),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_quantile_stratification_is_a_partition(self, scores, k):
        if k > scores.shape[0]:
            k = scores.shape[0]
        strat = Stratification.from_scores(scores, k)
        combined = np.concatenate(strat.strata())
        assert sorted(combined.tolist()) == list(range(scores.shape[0]))
        assert strat.sizes().max() - strat.sizes().min() <= 1


# -- Estimators ---------------------------------------------------------------------


class TestEstimatorProperties:
    @given(stratum_samples())
    @settings(max_examples=100, deadline=None)
    def test_stratum_estimate_bounds(self, sample):
        est = estimate_stratum(sample)
        assert 0.0 <= est.p_hat <= 1.0
        assert est.sigma_hat >= 0.0
        assert est.num_positive <= est.num_draws
        positives = sample.positive_values
        if positives.size:
            assert positives.min() - 1e-9 <= est.mu_hat <= positives.max() + 1e-9

    @given(st.lists(stratum_samples(), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_combined_estimate_within_positive_value_range(self, samples):
        samples = [
            StratumSample(
                stratum=k, indices=s.indices, matches=s.matches, values=s.values
            )
            for k, s in enumerate(samples)
        ]
        estimates = estimate_all_strata(samples)
        combined = combine_estimates(estimates)
        all_positives = np.concatenate([s.positive_values for s in samples])
        if all_positives.size == 0:
            assert combined == 0.0
        else:
            # The combined estimate is a convex combination of per-stratum
            # means, each of which lies within its stratum's positive range.
            assert all_positives.min() - 1e-9 <= combined <= all_positives.max() + 1e-9


# -- Bootstrap ----------------------------------------------------------------------


class TestBootstrapProperties:
    @given(st.lists(stratum_samples(), min_size=1, max_size=3), st.integers(5, 40))
    @settings(max_examples=40, deadline=None)
    def test_bootstrap_estimates_within_convex_hull(self, samples, num_bootstrap):
        samples = [
            StratumSample(
                stratum=k, indices=s.indices, matches=s.matches, values=s.values
            )
            for k, s in enumerate(samples)
        ]
        estimates = bootstrap_estimates(
            samples, num_bootstrap=num_bootstrap, rng=RandomState(0)
        )
        assert estimates.shape == (num_bootstrap,)
        all_positives = np.concatenate([s.positive_values for s in samples])
        if all_positives.size == 0:
            assert np.all(estimates == 0.0)
        else:
            lo = min(all_positives.min(), 0.0) - 1e-9
            hi = max(all_positives.max(), 0.0) + 1e-9
            assert np.all(estimates >= lo) and np.all(estimates <= hi)


# -- Simplex helpers ----------------------------------------------------------------


class TestSimplexProperties:
    @given(hnp.arrays(float, st.integers(1, 10), elements=st.floats(-50, 50, allow_nan=False)))
    @settings(max_examples=100, deadline=None)
    def test_projection_lands_on_simplex(self, v):
        projected = project_to_simplex(v)
        assert np.all(projected >= -1e-12)
        assert projected.sum() == pytest.approx(1.0)

    @given(hnp.arrays(float, st.integers(1, 10), elements=st.floats(-50, 50, allow_nan=False)))
    @settings(max_examples=60, deadline=None)
    def test_projection_is_idempotent(self, v):
        once = project_to_simplex(v)
        twice = project_to_simplex(once)
        assert np.allclose(once, twice, atol=1e-9)

    @given(hnp.arrays(float, st.integers(1, 10), elements=st.floats(-30, 30, allow_nan=False)))
    @settings(max_examples=100, deadline=None)
    def test_softmax_lands_on_simplex(self, logits):
        point = softmax_parameterization(logits)
        assert np.all(point > 0)
        assert point.sum() == pytest.approx(1.0)


# -- End-to-end sampler invariants over randomized scenario grids -------------------


@st.composite
def sampler_scenarios(draw):
    """A randomized (dataset, proxy, statistic, budget) scenario.

    Small enough to run a full sampler per example, varied enough to probe
    the corners: positive rates from rare to dominant, proxies from sharp
    to useless, budgets from a pilot-sized trickle to a fifth of the data.
    """
    seed = draw(st.integers(min_value=0, max_value=2**16))
    size = draw(st.integers(min_value=400, max_value=1_500))
    rate = draw(st.floats(min_value=0.05, max_value=0.9))
    noise = draw(st.floats(min_value=0.05, max_value=0.6))
    budget = draw(st.integers(min_value=50, max_value=300))
    num_strata = draw(st.integers(min_value=2, max_value=6))
    rng = np.random.default_rng(seed)
    labels = rng.random(size) < rate
    scores = np.clip(labels.astype(float) + rng.normal(0.0, noise, size), 0.0, 1.0)
    values = rng.gamma(2.0, 2.0, size)
    return {
        "seed": seed,
        "labels": labels,
        "scores": scores,
        "values": values,
        "budget": budget,
        "num_strata": num_strata,
    }


# derandomize=True: hypothesis explores a fixed example set, so these
# end-to-end tests cannot flake in CI while still sweeping a genuine grid.
SAMPLER_SETTINGS = settings(max_examples=12, deadline=None, derandomize=True)


class TestSamplerBudgetConservation:
    """Total oracle invocations never exceed the budget, for every sampler."""

    @given(sampler_scenarios())
    @SAMPLER_SETTINGS
    def test_run_abae_conserves_budget(self, sc):
        oracle = LabelColumnOracle(sc["labels"])
        result = run_abae(
            sc["scores"],
            oracle,
            sc["values"],
            budget=sc["budget"],
            num_strata=sc["num_strata"],
            rng=RandomState(sc["seed"]),
        )
        assert oracle.num_calls <= sc["budget"]
        assert result.oracle_calls == oracle.num_calls
        assert oracle.total_cost == oracle.num_calls  # unit cost

    @given(sampler_scenarios())
    @SAMPLER_SETTINGS
    def test_run_uniform_conserves_budget(self, sc):
        oracle = LabelColumnOracle(sc["labels"])
        result = run_uniform(
            sc["labels"].shape[0],
            oracle,
            sc["values"],
            budget=sc["budget"],
            rng=RandomState(sc["seed"]),
        )
        assert oracle.num_calls == min(sc["budget"], sc["labels"].shape[0])
        assert result.oracle_calls == oracle.num_calls

    @given(sampler_scenarios())
    @SAMPLER_SETTINGS
    def test_run_abae_sequential_conserves_budget(self, sc):
        oracle = LabelColumnOracle(sc["labels"])
        result = run_abae_sequential(
            sc["scores"],
            oracle,
            sc["values"],
            budget=sc["budget"],
            num_strata=sc["num_strata"],
            warmup_per_stratum=5,
            batch_size=25,
            rng=RandomState(sc["seed"]),
        )
        assert oracle.num_calls <= sc["budget"]
        assert result.oracle_calls == oracle.num_calls


class TestConfidenceIntervalOrdering:
    """Bootstrap CIs bracket the point estimate: lower <= estimate <= upper."""

    @given(sampler_scenarios())
    @SAMPLER_SETTINGS
    def test_abae_ci_brackets_estimate(self, sc):
        result = run_abae(
            sc["scores"],
            LabelColumnOracle(sc["labels"]),
            sc["values"],
            budget=sc["budget"],
            num_strata=sc["num_strata"],
            with_ci=True,
            num_bootstrap=100,
            rng=RandomState(sc["seed"]),
        )
        assert result.ci is not None
        assert result.ci.lower <= result.ci.upper
        assert result.ci.lower - 1e-9 <= result.estimate <= result.ci.upper + 1e-9

    @given(sampler_scenarios())
    @SAMPLER_SETTINGS
    def test_uniform_ci_brackets_estimate(self, sc):
        result = run_uniform(
            sc["labels"].shape[0],
            LabelColumnOracle(sc["labels"]),
            sc["values"],
            budget=sc["budget"],
            with_ci=True,
            num_bootstrap=100,
            rng=RandomState(sc["seed"]),
        )
        assert result.ci.lower <= result.ci.upper
        assert result.ci.lower - 1e-9 <= result.estimate <= result.ci.upper + 1e-9


class TestBoundedAllocationProperties:
    @given(
        hnp.arrays(float, st.integers(1, 8), elements=st.floats(0, 50, allow_nan=False)),
        st.integers(min_value=0, max_value=2_000),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_respects_capacities_and_total(self, weights, total, data):
        capacities = data.draw(
            hnp.arrays(
                np.int64,
                weights.shape[0],
                elements=st.integers(min_value=0, max_value=500),
            )
        )
        allocation = np.asarray(
            bounded_allocation(weights, total, capacities), dtype=np.int64
        )
        assert np.all(allocation >= 0)
        assert np.all(allocation <= capacities)
        assert allocation.sum() <= total

    @given(
        hnp.arrays(
            float, st.integers(1, 8), elements=st.floats(0.01, 50, allow_nan=False)
        ),
        st.integers(min_value=0, max_value=2_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_spends_everything_with_positive_weights(self, weights, total):
        capacities = np.full(weights.shape[0], 1_000, dtype=np.int64)
        allocation = np.asarray(bounded_allocation(weights, total, capacities))
        # With positive weights and ample capacity the whole budget is spent.
        assert allocation.sum() == min(total, int(capacities.sum()))

    @given(sampler_scenarios())
    @SAMPLER_SETTINGS
    def test_abae_stage2_allocation_invariants(self, sc):
        result = run_abae(
            sc["scores"],
            LabelColumnOracle(sc["labels"]),
            sc["values"],
            budget=sc["budget"],
            num_strata=sc["num_strata"],
            rng=RandomState(sc["seed"]),
        )
        counts = np.asarray(result.details["stage2_counts"])
        weights = np.asarray(result.details["allocation_weights"])
        assert np.all(counts >= 0)
        assert counts.sum() <= result.details["stage2_total"]
        assert np.all(weights >= 0)
