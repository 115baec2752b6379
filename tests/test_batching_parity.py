"""Batched vs sequential execution parity.

The batched execution engine's contract: for any ``batch_size`` (strictly
sequential ``1``, chunked, or whole-draw ``None``), every sampler produces
bit-identical estimates, confidence intervals, per-stratum samples and
oracle call counts under a fixed seed, because record selection never
shares the random stream with labeling and all accounting flows through
``Oracle._record``.

The grid sweeps run through the statistical-equivalence harness
(``tests/harness.py``) on the plain oracle, so this file isolates the
*batching* axis; ``tests/test_parallel_parity.py`` crosses it with the
remote endpoint's ``max_in_flight`` axis.  The accounting unit tests at the bottom pin the
``_record`` invariant directly.
"""

from __future__ import annotations

import numpy as np
import pytest

from harness import (
    assert_statistically_equivalent,
    estimate_fingerprint,
    groupby_fingerprint,
    query_fingerprint,
)
from repro.core.abae import ABae, run_abae
from repro.core.adaptive import run_abae_sequential, run_abae_until_width
from repro.core.groupby import GroupSpec, run_groupby_multi_oracle, run_groupby_single_oracle
from repro.core.multipred import And, Not, Or, PredicateLeaf, run_abae_multipred
from repro.core.uniform import UniformSampler, run_uniform
from repro.engine.config import ExecutionConfig
from repro.oracle.base import StatisticOracle, evaluate_oracle_batch
from repro.oracle.budget import BudgetedOracle, OracleBudget, OracleBudgetExceededError
from repro.oracle.composite import AndOracle, OrOracle
from repro.oracle.simulated import LabelColumnOracle, ThresholdOracle
from repro.query.executor import QueryContext, execute_query
from repro.serve.cache import SharedCachingOracle, SharedOracleCache
from repro.stats.rng import RandomState
from repro.synth import make_dataset, make_groupby_scenario, make_multipred_scenario

BATCH_SIZES = (1, 7, 64, None)


@pytest.fixture(scope="module")
def scenario():
    return make_dataset("synthetic", seed=0)


class TestSinglePredicateParity:
    def test_run_abae_identical_across_batch_sizes(self, scenario):
        call_counts = set()

        def run(seed, batch_size, wrap):
            oracle = scenario.make_oracle()
            result = run_abae(
                scenario.proxy,
                oracle,
                scenario.statistic_values,
                budget=1_500,
                with_ci=True,
                num_bootstrap=50,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size),
            )
            call_counts.add(oracle.num_calls)
            return result

        assert_statistically_equivalent(
            run, seeds=(42, 43), batch_sizes=BATCH_SIZES
        )
        assert call_counts == {1_500}

    def test_facade_override_and_default(self, scenario):
        sampler = ABae(
            scenario.proxy, scenario.make_oracle(), scenario.statistic_values,
            config=ExecutionConfig(batch_size=1),
        )
        sequential = sampler.estimate(budget=800, rng=RandomState(3))
        batched = sampler.estimate(
            budget=800, rng=RandomState(3), config=ExecutionConfig(batch_size=None)
        )
        assert sequential.estimate == batched.estimate
        assert sequential.oracle_calls == batched.oracle_calls

    def test_run_uniform_identical_across_batch_sizes(self, scenario):
        def run(seed, batch_size, wrap):
            return run_uniform(
                scenario.num_records,
                scenario.make_oracle(),
                scenario.statistic_values,
                budget=1_000,
                with_ci=True,
                num_bootstrap=50,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size),
            )

        assert_statistically_equivalent(
            run, seeds=(7, 8), batch_sizes=BATCH_SIZES
        )

    def test_uniform_sampler_facade(self, scenario):
        results = [
            UniformSampler(
                scenario.num_records,
                scenario.make_oracle(),
                scenario.statistic_values,
                config=ExecutionConfig(batch_size=batch_size),
            ).estimate(budget=500, rng=RandomState(5))
            for batch_size in (1, None)
        ]
        assert results[0].estimate == results[1].estimate


class TestAdaptiveParity:
    def test_sequential_sampler(self, scenario):
        def run(seed, batch_size, wrap):
            return run_abae_sequential(
                scenario.proxy,
                scenario.make_oracle(),
                scenario.statistic_values,
                budget=600,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size),
            )

        assert_statistically_equivalent(
            run, seeds=(11, 12), batch_sizes=(1, 16, None)
        )

    def test_until_width_driver(self, scenario):
        def run(seed, batch_size, wrap):
            return run_abae_until_width(
                scenario.proxy,
                scenario.make_oracle(),
                scenario.statistic_values,
                target_width=0.5,
                max_budget=1_200,
                num_bootstrap=100,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size),
            )

        assert_statistically_equivalent(
            run, seeds=(13, 14), batch_sizes=(1, None)
        )


class TestGroupByParity:
    @pytest.mark.parametrize("allocation_method", ["minimax", "equal", "uniform"])
    def test_single_oracle(self, allocation_method):
        scenario = make_groupby_scenario("synthetic", seed=3)
        specs = [GroupSpec(key=g, proxy=scenario.proxies[g]) for g in scenario.groups]

        def run(seed, batch_size, wrap):
            return run_groupby_single_oracle(
                specs,
                scenario.make_single_oracle(),
                scenario.statistic_values,
                budget=1_200,
                allocation_method=allocation_method,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size),
            )

        assert_statistically_equivalent(
            run,
            seeds=(17,),
            batch_sizes=(1, 33, None),
            fingerprint=groupby_fingerprint,
        )

    @pytest.mark.parametrize("allocation_method", ["minimax", "equal", "uniform"])
    def test_multi_oracle(self, allocation_method):
        scenario = make_groupby_scenario("synthetic", seed=3)
        specs = [GroupSpec(key=g, proxy=scenario.proxies[g]) for g in scenario.groups]

        def run(seed, batch_size, wrap):
            return run_groupby_multi_oracle(
                specs,
                scenario.make_per_group_oracles(),
                scenario.statistic_values,
                budget=1_200,
                allocation_method=allocation_method,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size),
            )

        assert_statistically_equivalent(
            run,
            seeds=(19,),
            batch_sizes=(1, 33, None),
            fingerprint=groupby_fingerprint,
        )


class TestMultiPredicateParity:
    def test_constituent_call_counts_preserve_short_circuit(self):
        scenario = make_multipred_scenario("synthetic", seed=5)

        def run(seed, batch_size, wrap):
            expression = And(
                [
                    PredicateLeaf(scenario.proxies[name], scenario.make_oracle(name), name=name)
                    for name in scenario.predicate_names
                ]
            )
            return run_abae_multipred(
                expression,
                scenario.statistic_values,
                budget=1_000,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size),
            )

        assert_statistically_equivalent(
            run,
            seeds=(23, 24),
            batch_sizes=(1, 33, None),
            fingerprint=lambda r: estimate_fingerprint(r)
            + repr(r.details["constituent_oracle_calls"]),
        )

    def test_nested_expression(self):
        scenario = make_multipred_scenario("synthetic", seed=6)
        names = scenario.predicate_names

        def run(seed, batch_size, wrap):
            leaves = [
                PredicateLeaf(scenario.proxies[n], scenario.make_oracle(n), name=n)
                for n in names
            ]
            expression = Or([And(leaves[:1] + [Not(leaves[-1])]), leaves[0]])
            return run_abae_multipred(
                expression,
                scenario.statistic_values,
                budget=600,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size),
            )

        assert_statistically_equivalent(
            run, seeds=(29, 30), batch_sizes=(1, None)
        )


class TestQueryExecutorParity:
    def test_single_predicate_query(self, scenario):
        context = QueryContext(scenario.num_records)
        context.register_statistic("views", scenario.statistic_values)
        context.register_predicate("is_match", scenario.make_oracle(), scenario.proxy)
        query = (
            "SELECT AVG(views(rec)) FROM t WHERE is_match(rec) "
            "ORACLE LIMIT 800 USING proxy WITH PROBABILITY 0.95"
        )

        def run(seed, batch_size, wrap):
            return execute_query(
                query,
                context,
                seed=seed,
                config=ExecutionConfig(batch_size=batch_size),
                num_bootstrap=50,
            )

        assert_statistically_equivalent(
            run,
            seeds=(31, 33),
            batch_sizes=(1, 33, None),
            fingerprint=query_fingerprint,
        )


class TestOracleAccountingParity:
    """The `_record` invariant: a batch of n == n sequential calls."""

    def test_call_log_and_counters_match(self):
        rng = np.random.default_rng(0)
        labels = rng.random(500) < 0.4
        idx = rng.integers(0, 500, size=200)

        sequential = LabelColumnOracle(labels, keep_log=True)
        for i in idx:
            sequential(int(i))
        batched = LabelColumnOracle(labels, keep_log=True)
        answers = batched.evaluate_batch(idx)

        assert [bool(a) for a in answers] == [bool(labels[i]) for i in idx]
        assert sequential.num_calls == batched.num_calls == 200
        assert sequential.total_cost == batched.total_cost
        got, want = sequential.call_log_columns, batched.call_log_columns
        assert got.indices.tolist() == want.indices.tolist()
        assert [bool(r) for r in got.results] == [bool(r) for r in want.results]
        assert got.costs.tolist() == want.costs.tolist()

    def test_total_cost_is_partition_invariant(self):
        # cost_per_call = 0.1 is not exactly representable; accumulating it
        # per batch would drift by partition.  total_cost must not.
        labels = np.zeros(1000, dtype=bool)
        one_shot = LabelColumnOracle(labels, cost_per_call=0.1)
        one_shot.evaluate_batch(np.arange(1000))
        chunked = LabelColumnOracle(labels, cost_per_call=0.1)
        for start in range(0, 1000, 7):
            chunked.evaluate_batch(np.arange(start, min(start + 7, 1000)))
        assert one_shot.total_cost == chunked.total_cost == 0.1 * 1000

    def test_composite_short_circuit_counts(self):
        rng = np.random.default_rng(1)
        a = rng.random(400) < 0.3
        b = rng.random(400) < 0.6
        idx = rng.integers(0, 400, size=300)

        for combinator in (AndOracle, OrOracle):
            oa1, ob1 = LabelColumnOracle(a), LabelColumnOracle(b)
            sequential = [combinator([oa1, ob1])(int(i)) for i in idx]
            oa2, ob2 = LabelColumnOracle(a), LabelColumnOracle(b)
            batched = combinator([oa2, ob2]).evaluate_batch(idx)
            assert [bool(x) for x in batched] == sequential
            assert (oa1.num_calls, ob1.num_calls) == (oa2.num_calls, ob2.num_calls)
            # The second child is only consulted when the first doesn't decide.
            assert ob1.num_calls < len(idx)

    def test_shared_caching_oracle_batch_with_duplicates(self):
        values = np.arange(100.0)
        inner = ThresholdOracle(values, threshold=50.0)
        store = SharedOracleCache()
        cache = SharedCachingOracle(inner, store)
        batch = np.array([1, 2, 1, 99, 2, 1], dtype=np.int64)
        answers = cache.evaluate_batch(batch)
        assert [bool(a) for a in answers] == [False, False, False, True, False, False]
        assert cache.misses == 3 and cache.hits == 3
        assert cache.num_calls == 3 and inner.num_calls == 3
        # A second identical batch is all hits and charges nothing.
        cache.evaluate_batch(batch)
        assert cache.num_calls == 3 and cache.hits == 9
        assert (store.stats().misses, store.stats().hits) == (3, 9)

    def test_budgeted_oracle_batch_is_all_or_nothing(self):
        labels = np.zeros(50, dtype=bool)
        budget = OracleBudget(10)
        oracle = BudgetedOracle(LabelColumnOracle(labels), budget)
        oracle.evaluate_batch(np.arange(10, dtype=np.int64))
        assert budget.remaining == 0
        with pytest.raises(OracleBudgetExceededError):
            oracle.evaluate_batch(np.array([0], dtype=np.int64))
        assert oracle.num_calls == 10  # the failed batch evaluated nothing

    def test_plain_callable_fallback(self):
        calls = []

        def oracle(i):
            calls.append(i)
            return i % 2 == 0

        out = evaluate_oracle_batch(oracle, np.array([0, 1, 2], dtype=np.int64))
        assert out == [True, False, True]
        assert calls == [0, 1, 2]

    def test_statistic_oracle_batch(self):
        column = StatisticOracle.from_column([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(
            column.batch(np.array([3, 0], dtype=np.int64)), [4.0, 1.0]
        )
        fn = StatisticOracle(lambda i: float(i) * 2.0)
        np.testing.assert_array_equal(
            fn.batch(np.array([1, 2], dtype=np.int64)), [2.0, 4.0]
        )


class TestProxyBatchScores:
    def test_scores_batch_matches_scores(self, scenario):
        proxy = scenario.proxy
        idx = np.array([0, 5, 17, 3], dtype=np.int64)
        np.testing.assert_array_equal(proxy.scores_batch(idx), proxy.scores()[idx])
