"""Tests for repro.core.bootstrap and repro.core.uniform."""

import numpy as np
import pytest

from repro.core.abae import run_abae
from repro.core.bootstrap import (
    bootstrap_aggregate_estimates,
    bootstrap_aggregate_interval,
    bootstrap_confidence_interval,
    bootstrap_estimates,
)
from repro.core.types import StratumSample
from repro.core.uniform import UniformSampler, run_uniform
from repro.query import QueryContext, exact_answer, execute_query
from repro.stats.rng import RandomState


def make_sample(stratum, matches, values):
    matches = np.asarray(matches, dtype=bool)
    values = np.where(matches, np.asarray(values, dtype=float), np.nan)
    return StratumSample(
        stratum=stratum, indices=np.arange(len(matches)), matches=matches, values=values
    )


@pytest.fixture()
def two_strata_samples():
    rng = RandomState(0)
    matches_a = rng.random(200) < 0.6
    values_a = rng.normal(3.0, 1.0, 200)
    matches_b = rng.random(200) < 0.2
    values_b = rng.normal(5.0, 2.0, 200)
    return [
        make_sample(0, matches_a, values_a),
        make_sample(1, matches_b, values_b),
    ]


class TestBootstrapEstimates:
    def test_output_length(self, two_strata_samples):
        estimates = bootstrap_estimates(two_strata_samples, num_bootstrap=50, rng=RandomState(0))
        assert estimates.shape == (50,)

    def test_centered_near_point_estimate(self, two_strata_samples):
        from repro.core.estimators import combined_estimate_from_samples

        point = combined_estimate_from_samples(two_strata_samples)
        estimates = bootstrap_estimates(
            two_strata_samples, num_bootstrap=500, rng=RandomState(0)
        )
        assert estimates.mean() == pytest.approx(point, rel=0.05)

    def test_reproducible(self, two_strata_samples):
        a = bootstrap_estimates(two_strata_samples, num_bootstrap=20, rng=RandomState(1))
        b = bootstrap_estimates(two_strata_samples, num_bootstrap=20, rng=RandomState(1))
        assert np.array_equal(a, b)

    def test_empty_stratum_tolerated(self):
        samples = [make_sample(0, [True, True], [1.0, 2.0]), StratumSample(stratum=1)]
        estimates = bootstrap_estimates(samples, num_bootstrap=10, rng=RandomState(0))
        assert np.isfinite(estimates).all()

    def test_no_positive_draws_gives_zero(self):
        samples = [make_sample(0, [False, False], [0, 0])]
        estimates = bootstrap_estimates(samples, num_bootstrap=10, rng=RandomState(0))
        assert np.all(estimates == 0.0)

    def test_invalid_inputs_raise(self, two_strata_samples):
        with pytest.raises(ValueError):
            bootstrap_estimates(two_strata_samples, num_bootstrap=0)
        with pytest.raises(ValueError):
            bootstrap_estimates([], num_bootstrap=10)


class TestBootstrapConfidenceInterval:
    def test_interval_ordering(self, two_strata_samples):
        ci = bootstrap_confidence_interval(
            two_strata_samples, alpha=0.05, num_bootstrap=200, rng=RandomState(0)
        )
        assert ci.lower <= ci.upper
        assert ci.alpha == 0.05

    def test_smaller_alpha_wider_interval(self, two_strata_samples):
        narrow = bootstrap_confidence_interval(
            two_strata_samples, alpha=0.2, num_bootstrap=400, rng=RandomState(0)
        )
        wide = bootstrap_confidence_interval(
            two_strata_samples, alpha=0.01, num_bootstrap=400, rng=RandomState(0)
        )
        assert wide.width >= narrow.width

    def test_invalid_alpha_raises(self, two_strata_samples):
        with pytest.raises(ValueError):
            bootstrap_confidence_interval(two_strata_samples, alpha=0.0)

    def test_nominal_coverage_on_abae(self, medium_scenario):
        """CIs cover the truth at roughly the nominal rate (Figure 5 check)."""
        truth = medium_scenario.ground_truth()
        covered = 0
        trials = 40
        for seed in range(trials):
            result = run_abae(
                proxy=medium_scenario.proxy,
                oracle=medium_scenario.make_oracle(),
                statistic=medium_scenario.statistic_values,
                budget=1500,
                with_ci=True,
                alpha=0.05,
                num_bootstrap=200,
                rng=RandomState(seed),
            )
            covered += int(result.ci.covers(truth))
        assert covered / trials >= 0.85

    @pytest.mark.parametrize("kind", ["SUM", "COUNT"])
    def test_nominal_coverage_of_sum_and_count_queries(self, medium_scenario, kind):
        """SUM / COUNT CIs through ``execute_query`` cover the exact answer."""
        context = QueryContext(medium_scenario.num_records)
        context.register_statistic("stat", medium_scenario.statistic_values)
        context.register_predicate(
            "pred", medium_scenario.make_oracle(), medium_scenario.proxy,
            labels=medium_scenario.labels,
        )
        text = (
            f"SELECT {kind}(stat(rec)) FROM t WHERE pred(rec) "
            "ORACLE LIMIT 1500 USING proxy WITH PROBABILITY 0.95"
        )
        truth = exact_answer(text, context)
        trials = 40
        covered = sum(
            int(execute_query(text, context, num_bootstrap=200, seed=seed).ci.covers(truth))
            for seed in range(trials)
        )
        assert covered / trials >= 0.85


class TestBootstrapAggregates:
    def test_count_scaling(self):
        samples = [make_sample(0, [True, False, True, False], [1.0, 0, 1.0, 0])]
        counts = bootstrap_aggregate_estimates(
            samples, stratum_sizes=[1000], kind="count", num_bootstrap=300, rng=RandomState(0)
        )
        assert counts.mean() == pytest.approx(500.0, rel=0.15)

    def test_sum_equals_avg_times_count(self, two_strata_samples):
        sizes = [500, 500]
        rng_a, rng_b, rng_c = RandomState(7).spawn(3)
        sums = bootstrap_aggregate_estimates(
            two_strata_samples, sizes, kind="sum", num_bootstrap=300, rng=rng_a
        )
        counts = bootstrap_aggregate_estimates(
            two_strata_samples, sizes, kind="count", num_bootstrap=300, rng=rng_b
        )
        avgs = bootstrap_aggregate_estimates(
            two_strata_samples, sizes, kind="avg", num_bootstrap=300, rng=rng_c
        )
        assert sums.mean() == pytest.approx(counts.mean() * avgs.mean(), rel=0.05)

    def test_interval_valid(self, two_strata_samples):
        ci = bootstrap_aggregate_interval(
            two_strata_samples, [500, 500], kind="count", rng=RandomState(0), num_bootstrap=100
        )
        assert ci.lower <= ci.upper

    def test_unknown_kind_raises(self, two_strata_samples):
        with pytest.raises(ValueError):
            bootstrap_aggregate_estimates(two_strata_samples, [1, 1], kind="max")

    def test_size_mismatch_raises(self, two_strata_samples):
        with pytest.raises(ValueError):
            bootstrap_aggregate_estimates(two_strata_samples, [100], kind="count")


class TestUniformSampling:
    def test_estimate_close_to_truth(self, medium_scenario):
        result = run_uniform(
            num_records=medium_scenario.num_records,
            oracle=medium_scenario.make_oracle(),
            statistic=medium_scenario.statistic_values,
            budget=4000,
            rng=RandomState(0),
        )
        truth = medium_scenario.ground_truth()
        assert abs(result.estimate - truth) / truth < 0.1

    def test_budget_respected(self, small_scenario):
        oracle = small_scenario.make_oracle()
        result = run_uniform(
            num_records=small_scenario.num_records,
            oracle=oracle,
            statistic=small_scenario.statistic_values,
            budget=300,
            rng=RandomState(0),
        )
        assert oracle.num_calls == 300
        assert result.oracle_calls == 300

    def test_method_label(self, small_scenario):
        result = run_uniform(
            num_records=small_scenario.num_records,
            oracle=small_scenario.make_oracle(),
            statistic=small_scenario.statistic_values,
            budget=100,
            rng=RandomState(0),
        )
        assert result.method == "uniform"

    def test_zero_budget(self, small_scenario):
        result = run_uniform(
            num_records=small_scenario.num_records,
            oracle=small_scenario.make_oracle(),
            statistic=small_scenario.statistic_values,
            budget=0,
            rng=RandomState(0),
        )
        assert result.estimate == 0.0

    def test_with_ci(self, small_scenario):
        result = run_uniform(
            num_records=small_scenario.num_records,
            oracle=small_scenario.make_oracle(),
            statistic=small_scenario.statistic_values,
            budget=500,
            with_ci=True,
            num_bootstrap=100,
            rng=RandomState(0),
        )
        assert result.ci is not None
        assert result.ci.covers(result.estimate)

    def test_facade(self, small_scenario):
        sampler = UniformSampler(
            num_records=small_scenario.num_records,
            oracle=small_scenario.make_oracle(),
            statistic=small_scenario.statistic_values,
        )
        a = sampler.estimate(budget=200, seed=1)
        b = sampler.estimate(budget=200, seed=1)
        assert a.estimate == b.estimate

    def test_invalid_inputs_raise(self, small_scenario):
        with pytest.raises(ValueError):
            run_uniform(0, small_scenario.make_oracle(), small_scenario.statistic_values, 10)
        with pytest.raises(ValueError):
            run_uniform(
                small_scenario.num_records,
                small_scenario.make_oracle(),
                small_scenario.statistic_values,
                -1,
            )
