"""Parallel execution parity: the (seed × batch_size × num_workers) matrix.

Every sampler and the query executor must produce bit-identical estimates,
confidence intervals, samples and oracle accounting for every worker count
(`num_workers ∈ {1, 2, 4}`) crossed with every batching mode
(`batch_size ∈ {1, 7, None}`) under a fixed seed — the determinism
contract of :mod:`repro.core.parallel`.  The grid sweeps run through the
statistical-equivalence harness (``tests/harness.py``); unit tests at the
bottom pin the parallel machinery itself (sharding, pool reuse, accounting
merge, wrapper composition, the process backend).

The tier-1 grids here are deliberately small-budget; ``@pytest.mark.slow``
widens them (more seeds, CIs everywhere) for the tier-2 job.
"""

from __future__ import annotations

import numpy as np
import pytest

from harness import (
    WIDE_GRID_SEEDS,
    assert_statistically_equivalent,
    estimate_fingerprint,
    groupby_fingerprint,
    query_fingerprint,
)
from repro.core.abae import ABae, run_abae
from repro.core.adaptive import run_abae_sequential, run_abae_until_width
from repro.core.groupby import (
    GroupSpec,
    run_groupby_multi_oracle,
    run_groupby_single_oracle,
)
from repro.core.batching import label_records
from repro.core.multipred import And, Not, Or, PredicateLeaf, run_abae_multipred
from repro.core.parallel import (
    ParallelOracle,
    parallel_map,
    parallelize_oracle,
    resolve_num_workers,
    shard_slices,
)
from repro.core.uniform import UniformSampler, run_uniform
from repro.engine.config import ExecutionConfig
from repro.oracle.budget import BudgetedOracle, OracleBudget
from repro.oracle.cache import CachingOracle
from repro.oracle.composite import AndOracle
from repro.oracle.simulated import LabelColumnOracle
from repro.query.executor import QueryContext, execute_query
from repro.stats.rng import RandomState
from repro.synth import make_dataset, make_groupby_scenario, make_multipred_scenario

MATRIX_BATCH_SIZES = (1, 7, None)
MATRIX_NUM_WORKERS = (1, 2, 4)


@pytest.fixture(scope="module")
def scenario():
    return make_dataset("synthetic", seed=0, size=8_000)


@pytest.fixture(scope="module")
def groupby_scenario():
    return make_groupby_scenario("synthetic", seed=3, size=8_000)


@pytest.fixture(scope="module")
def multipred_scenario():
    return make_multipred_scenario("synthetic", seed=5, size=8_000)


class TestSamplerMatrix:
    """Every sampler, full {1,2,4} × {1,7,None} grid, two seeds."""

    def test_run_abae(self, scenario):
        def run(seed, batch_size, num_workers):
            return run_abae(
                scenario.proxy,
                scenario.make_oracle(),
                scenario.statistic_values,
                budget=800,
                with_ci=True,
                num_bootstrap=30,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size, num_workers=num_workers),
            )

        assert_statistically_equivalent(
            run, seeds=(0, 42), batch_sizes=MATRIX_BATCH_SIZES,
            num_workers=MATRIX_NUM_WORKERS,
        )

    def test_run_uniform(self, scenario):
        def run(seed, batch_size, num_workers):
            return run_uniform(
                scenario.num_records,
                scenario.make_oracle(),
                scenario.statistic_values,
                budget=600,
                with_ci=True,
                num_bootstrap=30,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size, num_workers=num_workers),
            )

        assert_statistically_equivalent(
            run, seeds=(0, 7), batch_sizes=MATRIX_BATCH_SIZES,
            num_workers=MATRIX_NUM_WORKERS,
        )

    def test_run_abae_sequential(self, scenario):
        def run(seed, batch_size, num_workers):
            return run_abae_sequential(
                scenario.proxy,
                scenario.make_oracle(),
                scenario.statistic_values,
                budget=450,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size, num_workers=num_workers),
            )

        assert_statistically_equivalent(
            run, seeds=(0, 11), batch_sizes=MATRIX_BATCH_SIZES,
            num_workers=MATRIX_NUM_WORKERS,
        )

    def test_run_abae_until_width(self, scenario):
        def run(seed, batch_size, num_workers):
            return run_abae_until_width(
                scenario.proxy,
                scenario.make_oracle(),
                scenario.statistic_values,
                target_width=0.6,
                max_budget=800,
                num_bootstrap=60,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size, num_workers=num_workers),
            )

        assert_statistically_equivalent(
            run, seeds=(13, 14), batch_sizes=(1, None),
            num_workers=MATRIX_NUM_WORKERS,
        )

    def test_run_abae_multipred(self, multipred_scenario):
        sc = multipred_scenario

        def run(seed, batch_size, num_workers):
            leaves = [
                PredicateLeaf(sc.proxies[n], sc.make_oracle(n), name=n)
                for n in sc.predicate_names
            ]
            expression = Or([And(leaves), Not(leaves[0])])
            return run_abae_multipred(
                expression,
                sc.statistic_values,
                budget=500,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size, num_workers=num_workers),
            )

        # Fold the per-constituent short-circuit counts into the digest:
        # sharding must preserve them exactly.
        assert_statistically_equivalent(
            run,
            seeds=(23, 29),
            batch_sizes=MATRIX_BATCH_SIZES,
            num_workers=MATRIX_NUM_WORKERS,
            fingerprint=lambda r: estimate_fingerprint(r)
            + repr(r.details["constituent_oracle_calls"]),
        )

    @pytest.mark.parametrize("allocation_method", ["minimax", "equal", "uniform"])
    def test_groupby_single_oracle(self, groupby_scenario, allocation_method):
        sc = groupby_scenario
        specs = [GroupSpec(key=g, proxy=sc.proxies[g]) for g in sc.groups]

        def run(seed, batch_size, num_workers):
            return run_groupby_single_oracle(
                specs,
                sc.make_single_oracle(),
                sc.statistic_values,
                budget=900,
                allocation_method=allocation_method,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size, num_workers=num_workers),
            )

        assert_statistically_equivalent(
            run,
            seeds=(17,),
            batch_sizes=MATRIX_BATCH_SIZES,
            num_workers=MATRIX_NUM_WORKERS,
            fingerprint=groupby_fingerprint,
        )

    @pytest.mark.parametrize("allocation_method", ["minimax", "equal", "uniform"])
    def test_groupby_multi_oracle(self, groupby_scenario, allocation_method):
        sc = groupby_scenario
        specs = [GroupSpec(key=g, proxy=sc.proxies[g]) for g in sc.groups]

        def run(seed, batch_size, num_workers):
            return run_groupby_multi_oracle(
                specs,
                sc.make_per_group_oracles(),
                sc.statistic_values,
                budget=900,
                allocation_method=allocation_method,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size, num_workers=num_workers),
            )

        assert_statistically_equivalent(
            run,
            seeds=(19,),
            batch_sizes=MATRIX_BATCH_SIZES,
            num_workers=MATRIX_NUM_WORKERS,
            fingerprint=groupby_fingerprint,
        )


class TestFacadeAndExecutorMatrix:
    def test_abae_facade_override(self, scenario):
        sampler = ABae(
            scenario.proxy,
            scenario.make_oracle(),
            scenario.statistic_values,
            config=ExecutionConfig(num_workers=4),
        )

        def run(seed, batch_size, num_workers):
            return sampler.estimate(
                budget=500,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size, num_workers=num_workers),
            )

        assert_statistically_equivalent(
            run, seeds=(3, 4), batch_sizes=(1, None), num_workers=(None, 1, 2, 4)
        )

    def test_uniform_facade_override(self, scenario):
        sampler = UniformSampler(
            scenario.num_records,
            scenario.make_oracle(),
            scenario.statistic_values,
            config=ExecutionConfig(num_workers=2),
        )

        def run(seed, batch_size, num_workers):
            return sampler.estimate(
                budget=400,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size, num_workers=num_workers),
            )

        assert_statistically_equivalent(
            run, seeds=(5, 6), batch_sizes=(1, None), num_workers=(None, 1, 4)
        )

    def test_execute_query_single_predicate(self, scenario):
        context = QueryContext(scenario.num_records)
        context.register_statistic("views", scenario.statistic_values)
        context.register_predicate("is_match", scenario.make_oracle(), scenario.proxy)
        query = (
            "SELECT AVG(views(rec)) FROM t WHERE is_match(rec) "
            "ORACLE LIMIT 500 USING proxy WITH PROBABILITY 0.95"
        )

        def run(seed, batch_size, num_workers):
            return execute_query(
                query,
                context,
                seed=seed,
                config=ExecutionConfig(batch_size=batch_size, num_workers=num_workers),
                num_bootstrap=30,
            )

        assert_statistically_equivalent(
            run,
            seeds=(31, 32),
            batch_sizes=MATRIX_BATCH_SIZES,
            num_workers=MATRIX_NUM_WORKERS,
            fingerprint=query_fingerprint,
        )


@pytest.mark.slow
class TestWideMatrix:
    """Tier-2: spawn-key seeds, larger budgets, CIs on, both backends.

    The seeds come from the shared derandomized list in ``tests/harness.py``
    (``WIDE_GRID_SEEDS``), so every run — local or CI — sweeps the same
    grid and any failure reproduces exactly.
    """

    def test_run_abae_wide(self, scenario):
        def run(seed, batch_size, num_workers):
            return run_abae(
                scenario.proxy,
                scenario.make_oracle(),
                scenario.statistic_values,
                budget=2_500,
                with_ci=True,
                num_bootstrap=200,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size, num_workers=num_workers),
            )

        assert_statistically_equivalent(
            run,
            seeds=WIDE_GRID_SEEDS,
            batch_sizes=(1, 7, 64, None),
            num_workers=(1, 2, 8),
        )

    def test_process_backend_wide(self, scenario):
        def run(seed, batch_size, num_workers):
            return run_abae(
                scenario.proxy,
                scenario.make_oracle(),
                scenario.statistic_values,
                budget=1_200,
                rng=RandomState(seed),
                config=ExecutionConfig(
                    batch_size=batch_size,
                    num_workers=num_workers,
                    parallel_backend="process",
                ),
            )

        assert_statistically_equivalent(
            run,
            seeds=WIDE_GRID_SEEDS[:2],
            batch_sizes=(None,),
            num_workers=(1, 2, 4),
        )


class TestParallelPrimitives:
    """Unit coverage of the sharding machinery itself."""

    def test_resolve_num_workers(self):
        assert resolve_num_workers(None) == 1
        assert resolve_num_workers(1) == 1
        assert resolve_num_workers(7) == 7
        assert resolve_num_workers(np.int64(3)) == 3
        # No silent coercion: floats, strings and bools are configuration
        # bugs, matching plan_query's validation.
        for bad in (0, -1, -100, 2.5, "4", True, False):
            with pytest.raises(ValueError):
                resolve_num_workers(bad)

    def test_label_records_with_wrapped_oracle_parity(self, scenario):
        # The documented composition for direct label_records users: wrap
        # the oracle once, and every batch fans out with identical output.
        from repro.core.abae import _normalize_statistic

        drawn = np.arange(0, 4_000, 7, dtype=np.int64)
        statistic = _normalize_statistic(scenario.statistic_values)
        baseline = None
        for workers in (None, 1, 2, 4):
            oracle = scenario.make_oracle()
            wrapped = parallelize_oracle(oracle, workers)
            matches, values = label_records(drawn, wrapped, statistic, None)
            digest = (matches.tolist(), np.nan_to_num(values, nan=-1.0).tolist(),
                      oracle.num_calls)
            if baseline is None:
                baseline = digest
            assert digest == baseline

    def test_shard_slices_partition(self):
        for total in (0, 1, 5, 31, 32, 100, 101):
            for shards in (1, 2, 4, 7, 200):
                slices = list(shard_slices(total, shards))
                covered = [i for s in slices for i in range(s.start, s.stop)]
                assert covered == list(range(total))
                sizes = [s.stop - s.start for s in slices]
                assert all(size > 0 for size in sizes)
                if sizes:
                    assert max(sizes) - min(sizes) <= 1
                assert len(slices) <= shards
        with pytest.raises(ValueError):
            list(shard_slices(10, 0))

    def test_parallel_oracle_accounting_matches_serial(self):
        rng = np.random.default_rng(0)
        labels = rng.random(2_000) < 0.4
        idx = rng.integers(0, 2_000, size=500)

        serial = LabelColumnOracle(labels, keep_log=True)
        serial_answers = serial.evaluate_batch(idx)
        parallel_inner = LabelColumnOracle(labels, keep_log=True)
        parallel = ParallelOracle(parallel_inner, num_workers=4)
        parallel_answers = parallel.evaluate_batch(idx)

        np.testing.assert_array_equal(serial_answers, parallel_answers)
        assert parallel.num_calls == serial.num_calls == 500
        assert parallel.total_cost == serial.total_cost
        serial_log, parallel_log = serial.call_log_columns, parallel.call_log_columns
        assert serial_log.indices.tolist() == parallel_log.indices.tolist()
        assert [bool(r) for r in serial_log.results] == [
            bool(r) for r in parallel_log.results
        ]
        assert parallel.sharded_batches == 1
        assert parallel.sharded_records == 500

    def test_small_batches_stay_serial(self):
        labels = np.zeros(100, dtype=bool)
        parallel = ParallelOracle(LabelColumnOracle(labels), num_workers=4)
        parallel.evaluate_batch(np.arange(5))
        assert parallel.serial_batches == 1
        assert parallel.sharded_batches == 0
        assert parallel.num_calls == 5

    def test_parallel_call_delegates(self):
        labels = np.array([True, False, True])
        parallel = ParallelOracle(LabelColumnOracle(labels), num_workers=2)
        assert parallel(0) is True and parallel(1) is False
        assert parallel.num_calls == 2

    def test_reset_accounting_delegates(self):
        labels = np.ones(64, dtype=bool)
        parallel = ParallelOracle(LabelColumnOracle(labels), num_workers=2)
        parallel.evaluate_batch(np.arange(64))
        assert parallel.num_calls == 64
        parallel.reset_accounting()
        assert parallel.num_calls == 0

    def test_caching_composes_outside(self):
        labels = np.arange(4_000) % 5 == 0
        serial = CachingOracle(LabelColumnOracle(labels))
        sharded = CachingOracle(ParallelOracle(LabelColumnOracle(labels), num_workers=4))
        for batch in (np.arange(300), np.arange(150, 450), np.arange(300)):
            np.testing.assert_array_equal(
                np.asarray(serial.evaluate_batch(batch)),
                np.asarray(sharded.evaluate_batch(batch)),
            )
        assert (serial.num_calls, serial.hits, serial.misses) == (
            sharded.num_calls,
            sharded.hits,
            sharded.misses,
        )

    def test_budget_composes_outside(self):
        labels = np.zeros(500, dtype=bool)
        budget = OracleBudget(200)
        oracle = BudgetedOracle(
            ParallelOracle(LabelColumnOracle(labels), num_workers=4), budget
        )
        oracle.evaluate_batch(np.arange(200))
        assert budget.remaining == 0
        assert oracle.num_calls == 200

    def test_stateful_wrappers_rejected_inside(self):
        labels = np.zeros(10, dtype=bool)
        cache = CachingOracle(LabelColumnOracle(labels))
        budgeted = BudgetedOracle(LabelColumnOracle(labels), OracleBudget(5))
        for stateful in (cache, budgeted):
            with pytest.raises(ValueError, match="OUTSIDE"):
                ParallelOracle(stateful, num_workers=2)
            # ... while the tolerant sampler entry point leaves them serial.
            assert parallelize_oracle(stateful, 4) is stateful

    def test_nested_parallel_rejected(self):
        labels = np.zeros(10, dtype=bool)
        parallel = ParallelOracle(LabelColumnOracle(labels), num_workers=2)
        with pytest.raises(ValueError, match="already"):
            ParallelOracle(parallel, num_workers=2)
        assert parallelize_oracle(parallel, 4) is parallel

    def test_unknown_backend_rejected(self):
        labels = np.zeros(10, dtype=bool)
        with pytest.raises(ValueError, match="backend"):
            ParallelOracle(LabelColumnOracle(labels), num_workers=2, backend="gpu")

    def test_composite_with_stateful_children_stays_serial(self):
        # A CachingOracle hidden as a composite leaf would race its
        # unlocked hit/miss bookkeeping on worker threads; the shard-safety
        # check recurses into children (and nested composites) and refuses.
        labels = np.zeros(50, dtype=bool)
        cached = AndOracle(
            [LabelColumnOracle(labels), CachingOracle(LabelColumnOracle(labels))]
        )
        nested = AndOracle([AndOracle([CachingOracle(LabelColumnOracle(labels))])])
        for composite in (cached, nested):
            assert parallelize_oracle(composite, 4) is composite
            with pytest.raises(ValueError, match="OUTSIDE"):
                ParallelOracle(composite, num_workers=2)
        # All-plain children still shard.
        plain = AndOracle([LabelColumnOracle(labels), LabelColumnOracle(labels)])
        assert isinstance(parallelize_oracle(plain, 4), ParallelOracle)

    def test_composite_rejected_on_process_backend(self):
        # Constituent accounting happens inside worker processes on
        # throwaway copies, so composites are thread-only; the tolerant
        # entry point falls back to serial instead.
        composite = AndOracle([LabelColumnOracle(np.zeros(10, dtype=bool))])
        with pytest.raises(ValueError, match="thread"):
            ParallelOracle(composite, num_workers=2, backend="process")
        assert parallelize_oracle(composite, 4, backend="process") is composite
        # The thread backend shards composites with exact child accounting
        # (covered by the multipred matrix above).
        assert isinstance(
            parallelize_oracle(composite, 4, backend="thread"), ParallelOracle
        )

    def test_plain_callable_sharding(self):
        values = np.arange(200)
        parallel = ParallelOracle(
            lambda i: bool(values[i] % 2 == 0), num_workers=4, min_sharded_records=8
        )
        answers = parallel.evaluate_batch(np.arange(200))
        assert answers == [bool(v % 2 == 0) for v in values]

    def test_parallel_map_orders_and_streams(self):
        def draw(item, rng):
            return (item, float(rng.random()))

        serial = parallel_map(draw, range(12), num_workers=1, rng=RandomState(9))
        threaded = parallel_map(draw, range(12), num_workers=4, rng=RandomState(9))
        assert serial == threaded
        assert [item for item, _ in serial] == list(range(12))
        # Distinct items get independent streams.
        assert len({value for _, value in serial}) == 12

    def test_parallel_map_without_rng(self):
        assert parallel_map(abs, [-3, 2, -1], num_workers=2) == [3, 2, 1]

    def test_nested_parallel_map_raises_instead_of_hanging(self):
        def outer(item):
            return parallel_map(abs, [item, -item], num_workers=2)

        with pytest.raises(RuntimeError, match="nested"):
            parallel_map(outer, [1, 2, 3, 4], num_workers=2)
        # Serial inner level (the documented alternative) composes fine.
        def outer_serial(item):
            return parallel_map(abs, [-item], num_workers=None)

        assert parallel_map(outer_serial, [1, 2], num_workers=2) == [[1], [2]]

    def test_facades_validate_backend_at_construction(self, scenario):
        for factory in (
            lambda: ABae(
                scenario.proxy,
                scenario.make_oracle(),
                scenario.statistic_values,
                config=ExecutionConfig(parallel_backend="thraed"),
            ),
            lambda: UniformSampler(
                scenario.num_records,
                scenario.make_oracle(),
                scenario.statistic_values,
                config=ExecutionConfig(parallel_backend="gpu"),
            ),
        ):
            with pytest.raises(ValueError, match="backend"):
                factory()

    def test_parallel_map_composes_with_sharded_samplers(self, scenario):
        # Mapped trials that themselves shard oracle batches draw on a
        # separate pool, so saturating the map pool cannot deadlock the
        # oracle shards.  Run in a worker thread so a regression fails the
        # test instead of hanging the suite.
        import threading

        def trial(seed, rng):
            return run_abae(
                scenario.proxy,
                scenario.make_oracle(),
                scenario.statistic_values,
                budget=300,
                rng=rng,
                config=ExecutionConfig(num_workers=2),
            ).estimate

        outcome = {}

        def sweep():
            outcome["parallel"] = parallel_map(
                trial, range(4), num_workers=2, rng=RandomState(5)
            )

        worker = threading.Thread(target=sweep, daemon=True)
        worker.start()
        worker.join(timeout=60)
        if worker.is_alive():
            pytest.fail("parallel_map over sharded samplers deadlocked")
        serial = parallel_map(trial, range(4), num_workers=1, rng=RandomState(5))
        assert outcome["parallel"] == serial
