"""Columnar oracle accounting: element-wise parity with the legacy log.

The columnar call log (``repro.oracle.base.ColumnarCallLog``) replaced a
per-record list of call records.  Its contract is that its entries are
*element-wise identical* — same order, same record indices, same results,
same costs — to what the legacy per-record append implementation
produced, for every execution
engine: sequential scalar calls, whole-batch evaluation, a blocking
remote adapter that splits a large batch over its endpoint's in-flight
slots, composite short-circuit evaluation and the budget wrapper.

The tests pin that in two ways:

* a **reference implementation** (``harness.LegacyRecordListMixin``)
  reproduces the pre-columnar per-record ``_record``; legacy and columnar
  oracles are driven through identical operations and their logs
  compared entry by entry;
* the **equivalence harness** runs full samplers over the (seed x
  batch_size x max_in_flight) grid with an accounting-aware fingerprint, so
  any divergence in counters or log content across execution knobs fails
  with the exact cell.
"""

from __future__ import annotations

import numpy as np
import pytest

from harness import (
    LegacyRecordListMixin,
    estimate_fingerprint,
    oracle_accounting_fingerprint,
    run_equivalence_grid,
)

from repro.core.abae import run_abae
from repro.engine.config import ExecutionConfig
from repro.oracle.base import ColumnarCallLog
from repro.oracle.budget import BudgetedOracle, OracleBudget
from repro.oracle.composite import AndOracle, NotOracle, OrOracle
from repro.oracle.remote import AsyncOracle, RemoteEndpoint
from repro.oracle.simulated import LabelColumnOracle
from repro.serve.cache import SharedCachingOracle, SharedOracleCache
from repro.stats.rng import RandomState


class LegacyLabelOracle(LegacyRecordListMixin, LabelColumnOracle):
    """Label oracle with the reference (pre-columnar) accounting.

    The reference ``_record`` lives in :class:`harness.LegacyRecordListMixin`
    — one copy, shared with ``scripts/bench_hotpath.py``'s baseline arm.
    """


def _assert_logs_identical(columnar_oracle, legacy_oracle):
    """Element-wise comparison of the two accounting implementations."""
    assert columnar_oracle.num_calls == legacy_oracle.num_calls
    assert columnar_oracle.total_cost == legacy_oracle.total_cost
    columns = columnar_oracle.call_log_columns
    assert isinstance(columns, ColumnarCallLog)
    legacy = legacy_oracle.legacy_log
    assert len(columns) == len(legacy)
    columnar = zip(columns.indices.tolist(), columns.results, columns.costs.tolist())
    for (index, result, cost), want in zip(columnar, legacy):
        assert index == want.record_index
        assert bool(result) == bool(want.result)
        assert cost == want.cost


@pytest.fixture
def labels():
    return RandomState(7).random(400) < 0.3


def _drive(oracle, rng_seed=3):
    """A mixed workload: scalar calls, small batches, repeats, big batches."""
    rng = RandomState(rng_seed)
    for _ in range(5):
        oracle(int(rng.integers(0, 400)))
    oracle.evaluate_batch(rng.integers(0, 400, size=17))
    oracle.evaluate_batch(rng.integers(0, 400, size=1))
    oracle.evaluate_batch(rng.integers(0, 400, size=120))
    for _ in range(3):
        oracle(int(rng.integers(0, 400)))


class TestColumnarMatchesLegacy:
    def test_sequential_and_batched(self, labels):
        columnar = LabelColumnOracle(labels, keep_log=True)
        legacy = LegacyLabelOracle(labels, keep_log=True)
        _drive(columnar)
        _drive(legacy)
        _assert_logs_identical(columnar, legacy)

    def test_views_survive_reset_as_snapshots(self, labels):
        # clear() reallocates the buffers, so a view harvested before a
        # reset keeps its contents instead of silently showing the next
        # run's data.
        oracle = LabelColumnOracle(labels, keep_log=True)
        oracle.evaluate_batch([1, 2, 3])
        snapshot = oracle.call_log_columns.indices
        oracle.reset_accounting()
        oracle.evaluate_batch([7, 8, 9])
        assert snapshot.tolist() == [1, 2, 3]
        assert oracle.call_log_columns.indices.tolist() == [7, 8, 9]

    def test_reset_clears_columnar_log(self, labels):
        oracle = LabelColumnOracle(labels, keep_log=True)
        _drive(oracle)
        oracle.reset_accounting()
        assert oracle.num_calls == 0
        assert len(oracle.call_log_columns) == 0
        _drive(oracle)
        legacy = LegacyLabelOracle(labels, keep_log=True)
        _drive(legacy)
        _assert_logs_identical(oracle, legacy)

    @pytest.mark.parametrize("max_in_flight", [2, 4])
    def test_parallel_merge_path(self, labels, max_in_flight):
        # The blocking adapter records each split batch once, in record
        # order, so its log matches the serial legacy oracle's exactly.
        transport = LabelColumnOracle(labels)
        endpoint = RemoteEndpoint(
            transport, max_in_flight=max_in_flight, max_batch_size=8
        )
        columnar = AsyncOracle(endpoint, keep_log=True)
        legacy = LegacyLabelOracle(labels, keep_log=True)
        _drive(columnar)
        _drive(legacy)
        endpoint.close()
        assert transport.num_calls == legacy.num_calls
        _assert_logs_identical(columnar, legacy)

    @pytest.mark.parametrize("combinator", [AndOracle, OrOracle])
    def test_composite_children(self, labels, combinator):
        other = RandomState(11).random(400) < 0.5

        def build(oracle_cls):
            children = [
                oracle_cls(labels, keep_log=True, name="a"),
                oracle_cls(other, keep_log=True, name="b"),
            ]
            return combinator(children), children

        columnar, columnar_children = build(LabelColumnOracle)
        legacy, legacy_children = build(LegacyLabelOracle)
        _drive(columnar)
        _drive(legacy)
        for got, want in zip(columnar_children, legacy_children):
            _assert_logs_identical(got, want)

    def test_not_oracle_child(self, labels):
        columnar_child = LabelColumnOracle(labels, keep_log=True)
        legacy_child = LegacyLabelOracle(labels, keep_log=True)
        _drive(NotOracle(columnar_child))
        _drive(NotOracle(legacy_child))
        _assert_logs_identical(columnar_child, legacy_child)

    def test_shared_caching_oracle_inner_log(self, labels):
        columnar = SharedCachingOracle(
            LabelColumnOracle(labels, keep_log=True), SharedOracleCache()
        )
        legacy = SharedCachingOracle(
            LegacyLabelOracle(labels, keep_log=True), SharedOracleCache()
        )
        _drive(columnar)
        _drive(legacy)
        assert columnar.hits == legacy.hits
        assert columnar.misses == legacy.misses
        _assert_logs_identical(columnar.inner, legacy.inner)

    def test_budgeted_oracle_passthrough(self, labels):
        budget_a, budget_b = OracleBudget(1000), OracleBudget(1000)
        columnar = BudgetedOracle(LabelColumnOracle(labels, keep_log=True), budget_a)
        legacy = BudgetedOracle(LegacyLabelOracle(labels, keep_log=True), budget_b)
        _drive(columnar)
        _drive(legacy)
        assert budget_a.spent == budget_b.spent
        _assert_logs_identical(columnar.inner, legacy.inner)
        # The wrapper exposes the inner oracle's log directly.
        assert columnar.call_log_columns is columnar.inner.call_log_columns


class TestAccountingAcrossExecutionGrid:
    """Harness-driven: the full sampler grid with accounting fingerprints."""

    def test_run_abae_accounting_identical_across_knobs(self):
        rng = RandomState(5)
        labels = rng.random(600) < 0.25
        scores = np.clip(
            labels * 0.6 + rng.random(600) * 0.4, 0.0, 1.0
        )
        statistic = rng.random(600) * 10

        def run_cell(seed, batch_size, wrap):
            oracle = wrap(LabelColumnOracle(labels, keep_log=True))
            result = run_abae(
                proxy=scores,
                oracle=oracle,
                statistic=statistic,
                budget=150,
                num_strata=4,
                rng=RandomState(seed),
                config=ExecutionConfig(batch_size=batch_size),
            )
            return result, oracle

        def fingerprint(cell):
            result, oracle = cell
            return repr(
                (estimate_fingerprint(result), oracle_accounting_fingerprint(oracle))
            )

        report = run_equivalence_grid(
            run_cell,
            seeds=(0, 1),
            batch_sizes=(1, 7, None),
            max_in_flight=(None, 2),
            fingerprint=fingerprint,
        )
        assert report.cells == 12
        assert len(set(report.fingerprints.values())) == 2
