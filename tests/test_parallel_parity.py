"""Concurrent oracle call parity: the (seed × batch_size × max_in_flight) grid.

Concurrent oracle calls have one mechanism: a blocking
:class:`~repro.oracle.remote.AsyncOracle` splits each batch into
``min(max_in_flight, n)`` contiguous sub-requests, its
:class:`~repro.oracle.remote.RemoteEndpoint` runs them on up to
``max_in_flight`` threads, and the adapter joins the answers in record
order and records the batch once.  Every sampler family and the query
executor must therefore produce bit-identical estimates, confidence
intervals, samples and oracle accounting whether they call the plain
oracle or the same oracle behind an endpoint with ``max_in_flight ∈ {1,
2, 4}``, crossed with every batching mode (``batch_size ∈ {1, 7,
None}``), under a fixed seed.  The grid sweeps run through the
statistical-equivalence harness (``tests/harness.py``), whose
:class:`~harness.EndpointCell` also pins ``num_calls`` exactly on both
the adapter and its transport.  Unit tests at the bottom pin the split
itself: its partition, coalescing, answer types, error paths, and — with
a barrier instead of timing — that the pieces really run concurrently.

The tier-1 grids here are deliberately small-budget; ``@pytest.mark.slow``
widens them (more seeds, CIs everywhere) for the tier-2 job.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from harness import (
    WIDE_GRID_SEEDS,
    assert_statistically_equivalent,
    estimate_fingerprint,
    groupby_fingerprint,
    query_fingerprint,
)
from repro.core.abae import ABae, _normalize_statistic, run_abae
from repro.core.adaptive import run_abae_sequential, run_abae_until_width
from repro.core.batching import label_records
from repro.core.groupby import (
    GroupSpec,
    run_groupby_multi_oracle,
    run_groupby_single_oracle,
)
from repro.core.multipred import And, Not, Or, PredicateLeaf, run_abae_multipred
from repro.core.uniform import UniformSampler, run_uniform
from repro.engine.config import ExecutionConfig
from repro.oracle.budget import BudgetedOracle, OracleBudget
from repro.oracle.remote import (
    AsyncOracle,
    PendingOracleBatch,
    RemoteEndpoint,
    RemoteGiveUpError,
    shard_slices,
)
from repro.oracle.simulated import LabelColumnOracle, SimulatedRemoteOracle
from repro.query.executor import QueryContext, execute_query
from repro.serve.cache import SharedCachingOracle, SharedOracleCache
from repro.stats.rng import RandomState
from repro.synth import make_dataset, make_groupby_scenario, make_multipred_scenario

MATRIX_BATCH_SIZES = (1, 7, None)
# One test per endpoint width, so a divergence names its cell.  Each test
# runs the plain oracle (``max_in_flight=None``) beside the endpoint, and
# every cell must match the plain baseline.
MATRIX_MAX_IN_FLIGHT = (1, 2, 4)
in_flight_grid = pytest.mark.parametrize(
    "in_flight", MATRIX_MAX_IN_FLIGHT, ids=lambda k: f"in_flight{k}"
)


@pytest.fixture(scope="module")
def scenario():
    return make_dataset("synthetic", seed=0, size=8_000)


@pytest.fixture(scope="module")
def groupby_scenario():
    return make_groupby_scenario("synthetic", seed=3, size=8_000)


@pytest.fixture(scope="module")
def multipred_scenario():
    return make_multipred_scenario("synthetic", seed=5, size=8_000)


@in_flight_grid
class TestSamplerMatrix:
    """Every sampler family: plain vs. endpoint, across {1,7,None} batching."""

    def test_run_abae(self, scenario, in_flight):
        def run(seed, batch_size, wrap):
            return run_abae(
                scenario.proxy,
                wrap(scenario.make_oracle()),
                scenario.statistic_values,
                budget=800,
                with_ci=True,
                num_bootstrap=30,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size),
            )

        assert_statistically_equivalent(
            run, seeds=(0, 42), batch_sizes=MATRIX_BATCH_SIZES,
            max_in_flight=(None, in_flight),
        )

    def test_run_uniform(self, scenario, in_flight):
        def run(seed, batch_size, wrap):
            return run_uniform(
                scenario.num_records,
                wrap(scenario.make_oracle()),
                scenario.statistic_values,
                budget=600,
                with_ci=True,
                num_bootstrap=30,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size),
            )

        assert_statistically_equivalent(
            run, seeds=(0, 7), batch_sizes=MATRIX_BATCH_SIZES,
            max_in_flight=(None, in_flight),
        )

    def test_run_abae_sequential(self, scenario, in_flight):
        def run(seed, batch_size, wrap):
            return run_abae_sequential(
                scenario.proxy,
                wrap(scenario.make_oracle()),
                scenario.statistic_values,
                budget=450,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size),
            )

        assert_statistically_equivalent(
            run, seeds=(0, 11), batch_sizes=MATRIX_BATCH_SIZES,
            max_in_flight=(None, in_flight),
        )

    def test_run_abae_until_width(self, scenario, in_flight):
        def run(seed, batch_size, wrap):
            return run_abae_until_width(
                scenario.proxy,
                wrap(scenario.make_oracle()),
                scenario.statistic_values,
                target_width=0.6,
                max_budget=800,
                num_bootstrap=60,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size),
            )

        assert_statistically_equivalent(
            run, seeds=(13, 14), batch_sizes=(1, None),
            max_in_flight=(None, in_flight),
        )

    def test_run_abae_multipred(self, multipred_scenario, in_flight):
        sc = multipred_scenario

        def run(seed, batch_size, wrap):
            leaves = [
                PredicateLeaf(sc.proxies[n], wrap(sc.make_oracle(n)), name=n)
                for n in sc.predicate_names
            ]
            expression = Or([And(leaves), Not(leaves[0])])
            return run_abae_multipred(
                expression,
                sc.statistic_values,
                budget=500,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size),
            )

        # Fold the per-constituent short-circuit counts into the digest:
        # endpoint leaves must preserve them exactly.
        assert_statistically_equivalent(
            run,
            seeds=(23, 29),
            batch_sizes=MATRIX_BATCH_SIZES,
            max_in_flight=(None, in_flight),
            fingerprint=lambda r: estimate_fingerprint(r)
            + repr(r.details["constituent_oracle_calls"]),
        )

    @pytest.mark.parametrize("allocation_method", ["minimax", "equal", "uniform"])
    def test_groupby_single_oracle(
        self, groupby_scenario, allocation_method, in_flight
    ):
        sc = groupby_scenario
        specs = [GroupSpec(key=g, proxy=sc.proxies[g]) for g in sc.groups]

        def run(seed, batch_size, wrap):
            return run_groupby_single_oracle(
                specs,
                wrap(sc.make_single_oracle()),
                sc.statistic_values,
                budget=900,
                allocation_method=allocation_method,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size),
            )

        assert_statistically_equivalent(
            run,
            seeds=(17,),
            batch_sizes=MATRIX_BATCH_SIZES,
            max_in_flight=(None, in_flight),
            fingerprint=groupby_fingerprint,
        )

    @pytest.mark.parametrize("allocation_method", ["minimax", "equal", "uniform"])
    def test_groupby_multi_oracle(
        self, groupby_scenario, allocation_method, in_flight
    ):
        sc = groupby_scenario
        specs = [GroupSpec(key=g, proxy=sc.proxies[g]) for g in sc.groups]

        def run(seed, batch_size, wrap):
            per_group = sc.make_per_group_oracles()
            return run_groupby_multi_oracle(
                specs,
                {g: wrap(per_group.oracle_for(g)) for g in sc.groups},
                sc.statistic_values,
                budget=900,
                allocation_method=allocation_method,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size),
            )

        assert_statistically_equivalent(
            run,
            seeds=(19,),
            batch_sizes=MATRIX_BATCH_SIZES,
            max_in_flight=(None, in_flight),
            fingerprint=groupby_fingerprint,
        )


@in_flight_grid
class TestFacadeAndExecutorMatrix:
    def test_abae_facade_override(self, scenario, in_flight):
        def run(seed, batch_size, wrap):
            sampler = ABae(
                scenario.proxy,
                wrap(scenario.make_oracle()),
                scenario.statistic_values,
                config=ExecutionConfig(batch_size=7),
            )
            return sampler.estimate(
                budget=500,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size),
            )

        assert_statistically_equivalent(
            run, seeds=(3, 4), batch_sizes=(1, None),
            max_in_flight=(None, in_flight),
        )

    def test_uniform_facade_override(self, scenario, in_flight):
        def run(seed, batch_size, wrap):
            sampler = UniformSampler(
                scenario.num_records,
                wrap(scenario.make_oracle()),
                scenario.statistic_values,
                config=ExecutionConfig(batch_size=3),
            )
            return sampler.estimate(
                budget=400,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size),
            )

        assert_statistically_equivalent(
            run, seeds=(5, 6), batch_sizes=(1, None),
            max_in_flight=(None, in_flight),
        )

    def test_execute_query_single_predicate(self, scenario, in_flight):
        query = (
            "SELECT AVG(views(rec)) FROM t WHERE is_match(rec) "
            "ORACLE LIMIT 500 USING proxy WITH PROBABILITY 0.95"
        )

        def run(seed, batch_size, wrap):
            context = QueryContext(scenario.num_records)
            context.register_statistic("views", scenario.statistic_values)
            context.register_predicate(
                "is_match", wrap(scenario.make_oracle()), scenario.proxy
            )
            return execute_query(
                query,
                context,
                seed=seed,
                config=ExecutionConfig(batch_size=batch_size),
                num_bootstrap=30,
            )

        assert_statistically_equivalent(
            run,
            seeds=(31, 32),
            batch_sizes=MATRIX_BATCH_SIZES,
            max_in_flight=(None, in_flight),
            fingerprint=query_fingerprint,
        )


@pytest.mark.slow
class TestWideMatrix:
    """Tier-2: spawn-key seeds, larger budgets, CIs on.

    The seeds come from the shared derandomized list in ``tests/harness.py``
    (``WIDE_GRID_SEEDS``), so every run — local or CI — sweeps the same
    grid and any failure reproduces exactly.
    """

    @pytest.mark.parametrize(
        "in_flight", (1, 2, 8), ids=lambda k: f"in_flight{k}"
    )
    def test_run_abae_wide(self, scenario, in_flight):
        def run(seed, batch_size, wrap):
            return run_abae(
                scenario.proxy,
                wrap(scenario.make_oracle()),
                scenario.statistic_values,
                budget=2_500,
                with_ci=True,
                num_bootstrap=200,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size),
            )

        assert_statistically_equivalent(
            run,
            seeds=WIDE_GRID_SEEDS,
            batch_sizes=(1, 7, 64, None),
            max_in_flight=(None, in_flight),
        )


LABELS = np.arange(64) % 3 == 0


def blocking_adapter(transport, **endpoint_kwargs):
    return AsyncOracle(RemoteEndpoint(transport, **endpoint_kwargs))


class TestParallelPrimitives:
    """Unit coverage of the blocking adapter's split and join."""

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
                assert len(slices) == min(total, shards)
        with pytest.raises(ValueError):
            list(shard_slices(10, 0))

    def test_batch_that_fits_makes_one_transport_call(self):
        oracle = blocking_adapter(LabelColumnOracle(LABELS), max_in_flight=4)
        answers = oracle.evaluate_batch(np.arange(10))
        np.testing.assert_array_equal(answers, LABELS[:10])
        stats = oracle.remote_stats()
        assert (stats.requests, stats.records, stats.batches) == (4, 10, 1)
        oracle.endpoint.close()

    def test_large_batch_spreads_over_in_flight_slots(self):
        transport = LabelColumnOracle(LABELS)
        oracle = blocking_adapter(transport, max_in_flight=4, max_batch_size=8)
        answers = oracle.evaluate_batch(np.arange(64)[::-1])
        np.testing.assert_array_equal(answers, LABELS[::-1])
        stats = oracle.remote_stats()
        assert (stats.requests, stats.batches) == (4, 4)
        assert oracle.num_calls == transport.num_calls == 64
        oracle.endpoint.close()

    def test_small_batches_use_one_piece_per_record(self):
        oracle = blocking_adapter(LabelColumnOracle(LABELS), max_in_flight=4)
        oracle.evaluate_batch([5, 6])
        assert oracle.remote_stats().requests == 2
        assert bool(oracle(3)) is True
        oracle.endpoint.close()

    def test_empty_batch(self):
        oracle = blocking_adapter(LabelColumnOracle(LABELS), max_in_flight=4)
        assert len(oracle.evaluate_batch([])) == 0
        assert oracle.num_calls == 0
        oracle.endpoint.close()

    def test_joined_answers_keep_the_unsplit_type(self):
        # A list-returning transport (a plain callable) and an
        # array-returning one: the split adapter hands back the same type
        # and values as a single-slot endpoint.
        def plain(i):
            return int(i) % 5

        for transport in (plain, LabelColumnOracle(LABELS)):
            idx = np.arange(3, 40)
            whole = blocking_adapter(transport, max_in_flight=1)
            split = blocking_adapter(transport, max_in_flight=4, max_batch_size=4)
            want, got = whole.evaluate_batch(idx), split.evaluate_batch(idx)
            assert type(got) is type(want)
            assert list(got) == list(want)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype
            whole.endpoint.close()
            split.endpoint.close()

    def test_batch_is_recorded_once_in_record_order(self):
        oracle = AsyncOracle(
            RemoteEndpoint(LabelColumnOracle(LABELS), max_in_flight=4, max_batch_size=2),
            keep_log=True,
        )
        idx = np.array([9, 3, 60, 12, 7, 1, 33, 2, 40])
        oracle.evaluate_batch(idx)
        log = oracle.call_log_columns
        assert log.indices.tolist() == idx.tolist()
        assert [bool(r) for r in log.results] == LABELS[idx].tolist()
        oracle.endpoint.close()

    def test_pieces_run_concurrently(self):
        # No timing: every transport call waits on a barrier sized to the
        # endpoint's slots, so it only opens when all pieces are in flight
        # together.  Run serially, the first call times out and breaks the
        # barrier, and the batch fails.
        slots = 4
        barrier = threading.Barrier(slots, timeout=10.0)

        class BarrierTransport:
            name = "barrier"

            def evaluate_batch(self, idx):
                barrier.wait()
                return LABELS[np.asarray(idx, dtype=np.int64)]

        oracle = blocking_adapter(
            BarrierTransport(), max_in_flight=slots, max_batch_size=2
        )
        answers = oracle.evaluate_batch(np.arange(8))
        np.testing.assert_array_equal(answers, LABELS[:8])
        assert oracle.remote_stats().batches == slots
        assert not barrier.broken
        oracle.endpoint.close()

    def test_shared_transport_accounting_under_thread_stress(self):
        # More endpoint threads than cores and a short switch interval: a
        # lost update in the transport's `_record` (which every endpoint
        # thread reaches) would break the exact counts below.
        transport = LabelColumnOracle(LABELS)
        oracle = blocking_adapter(transport, max_in_flight=8, max_batch_size=2)
        rng = np.random.default_rng(4)
        batches = [rng.integers(0, 64, size=int(n)) for n in rng.integers(1, 40, 60)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for batch in batches:
                np.testing.assert_array_equal(
                    oracle.evaluate_batch(batch), LABELS[batch]
                )
        finally:
            sys.setswitchinterval(interval)
            oracle.endpoint.close()
        total = sum(len(batch) for batch in batches)
        assert oracle.num_calls == transport.num_calls == total

    def test_failed_piece_raises_and_charges_nothing(self):
        # Four one-record batches; the script fails the first attempt of
        # whichever runs first and there are no retries.
        transport = SimulatedRemoteOracle(LABELS, script=["fail"])
        oracle = blocking_adapter(
            transport, max_in_flight=4, max_batch_size=1, max_retries=0,
            backoff_base=0.0,
        )
        with pytest.raises(RemoteGiveUpError):
            oracle.evaluate_batch([0, 1, 2, 3])
        assert oracle.num_calls == 0
        assert oracle.remote_stats().in_flight_batches == 0
        oracle.endpoint.close()

    def test_cooperative_batch_is_one_sub_request(self):
        oracle = AsyncOracle(
            RemoteEndpoint(LabelColumnOracle(LABELS), max_in_flight=4),
            blocking=False,
        )
        with pytest.raises(PendingOracleBatch) as pending:
            oracle.evaluate_batch(np.arange(20))
        pending.value.ticket.wait()
        np.testing.assert_array_equal(oracle.evaluate_batch(np.arange(20)), LABELS[:20])
        assert oracle.remote_stats().requests == 1
        oracle.endpoint.close()

    @in_flight_grid
    def test_label_records_with_wrapped_oracle_parity(self, scenario, in_flight):
        drawn = np.arange(0, 4_000, 7, dtype=np.int64)
        statistic = _normalize_statistic(scenario.statistic_values)

        def digest(oracle, labeler):
            matches, values = label_records(drawn, labeler, statistic, None)
            return (matches.tolist(), np.nan_to_num(values, nan=-1.0).tolist(),
                    oracle.num_calls, labeler.num_calls)

        plain = scenario.make_oracle()
        baseline = digest(plain, plain)
        oracle = scenario.make_oracle()
        labeler = blocking_adapter(oracle, max_in_flight=in_flight)
        try:
            assert digest(oracle, labeler) == baseline
        finally:
            labeler.endpoint.close()

    def test_shared_cache_composes_outside(self):
        # The cache sits outside the endpoint: it sends only its misses
        # through the split, and hit/miss accounting matches a cache over
        # the plain oracle.
        labels = np.arange(4_000) % 5 == 0
        serial = SharedCachingOracle(LabelColumnOracle(labels), SharedOracleCache())
        transport = LabelColumnOracle(labels)
        split = SharedCachingOracle(
            blocking_adapter(transport, max_in_flight=4), SharedOracleCache()
        )
        for batch in (np.arange(300), np.arange(150, 450), np.arange(300)):
            np.testing.assert_array_equal(
                np.asarray(serial.evaluate_batch(batch)),
                np.asarray(split.evaluate_batch(batch)),
            )
        assert (serial.num_calls, serial.hits, serial.misses) == (
            split.num_calls,
            split.hits,
            split.misses,
        )
        assert transport.num_calls == split.misses == 450
        split.inner.endpoint.close()

    def test_budget_composes_outside(self):
        budget = OracleBudget(200)
        transport = LabelColumnOracle(np.zeros(500, dtype=bool))
        oracle = BudgetedOracle(
            blocking_adapter(transport, max_in_flight=4, max_batch_size=16), budget
        )
        oracle.evaluate_batch(np.arange(200))
        assert budget.remaining == 0
        assert oracle.num_calls == transport.num_calls == 200
        oracle.inner.endpoint.close()
