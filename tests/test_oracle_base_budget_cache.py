"""Tests for repro.oracle.base, repro.oracle.budget and the shared caching wrapper."""

import pytest

from repro.oracle.base import StatisticOracle
from repro.oracle.budget import BudgetedOracle, OracleBudget, OracleBudgetExceededError
from repro.oracle.simulated import LabelColumnOracle
from repro.serve.cache import SharedCachingOracle, SharedOracleCache


class TestOracleAccounting:
    def test_counts_calls(self, tiny_oracle):
        tiny_oracle(0)
        tiny_oracle(1)
        assert tiny_oracle.num_calls == 2

    def test_total_cost_default_unit(self, tiny_oracle):
        for i in range(5):
            tiny_oracle(i)
        assert tiny_oracle.total_cost == pytest.approx(5.0)

    def test_custom_cost(self, tiny_labels):
        oracle = LabelColumnOracle(tiny_labels, cost_per_call=2.5)
        oracle(0)
        oracle(1)
        assert oracle.total_cost == pytest.approx(5.0)

    def test_negative_cost_raises(self, tiny_labels):
        with pytest.raises(ValueError):
            LabelColumnOracle(tiny_labels, cost_per_call=-1.0)

    def test_reset_accounting(self, tiny_oracle):
        tiny_oracle(0)
        tiny_oracle.reset_accounting()
        assert tiny_oracle.num_calls == 0
        assert tiny_oracle.total_cost == 0.0

    def test_call_log_disabled_by_default(self, tiny_oracle):
        tiny_oracle(0)
        assert len(tiny_oracle.call_log_columns) == 0

    def test_call_log_enabled(self, tiny_labels):
        oracle = LabelColumnOracle(tiny_labels, keep_log=True)
        oracle(3)
        log = oracle.call_log_columns
        assert len(log) == 1
        assert log.indices.tolist() == [3]
        assert log.results == [bool(tiny_labels[3])]

    def test_predicate_returns_python_bool(self, tiny_oracle):
        assert isinstance(tiny_oracle(0), bool)


class TestStatisticOracle:
    def test_callable(self):
        stat = StatisticOracle(lambda i: i * 2.0, name="double")
        assert stat(3) == 6.0
        assert stat.name == "double"

    def test_from_column(self):
        stat = StatisticOracle.from_column([1.0, 5.0, 9.0])
        assert stat(1) == 5.0


class TestOracleBudget:
    def test_charging(self):
        budget = OracleBudget(10)
        budget.charge(4)
        assert budget.spent == 4
        assert budget.remaining == 6

    def test_exceeding_raises(self):
        budget = OracleBudget(3)
        budget.charge(3)
        with pytest.raises(OracleBudgetExceededError):
            budget.charge(1)

    def test_can_spend(self):
        budget = OracleBudget(2)
        assert budget.can_spend(2)
        budget.charge(2)
        assert not budget.can_spend(1)
        assert budget.can_spend(0)

    def test_negative_limit_raises(self):
        with pytest.raises(ValueError):
            OracleBudget(-1)

    def test_negative_charge_raises(self):
        with pytest.raises(ValueError):
            OracleBudget(5).charge(-1)

    def test_reset(self):
        budget = OracleBudget(5)
        budget.charge(5)
        budget.reset()
        assert budget.remaining == 5


class TestBudgetedOracle:
    def test_charges_per_call(self, tiny_oracle):
        budget = OracleBudget(2)
        wrapped = BudgetedOracle(tiny_oracle, budget)
        wrapped(0)
        wrapped(1)
        assert budget.spent == 2
        with pytest.raises(OracleBudgetExceededError):
            wrapped(2)

    def test_returns_inner_answer(self, tiny_oracle, tiny_labels):
        wrapped = BudgetedOracle(tiny_oracle, OracleBudget(10))
        assert wrapped(0) == bool(tiny_labels[0])

    def test_exposes_inner(self, tiny_oracle):
        wrapped = BudgetedOracle(tiny_oracle, OracleBudget(10))
        assert wrapped.inner is tiny_oracle
        wrapped(0)
        assert wrapped.num_calls == 1


class TestSharedCachingOracle:
    """The one caching wrapper: it changes who pays, never an answer."""

    def test_second_lookup_is_free(self, tiny_labels):
        inner = LabelColumnOracle(tiny_labels)
        cached = SharedCachingOracle(inner, SharedOracleCache())
        cached(0)
        cached(0)
        assert inner.num_calls == 1
        assert cached.num_calls == 1
        assert cached.hits == 1
        assert cached.misses == 1

    def test_answers_match_inner(self, tiny_labels):
        cached = SharedCachingOracle(LabelColumnOracle(tiny_labels), SharedOracleCache())
        assert [bool(cached(i)) for i in range(len(tiny_labels))] == [
            bool(v) for v in tiny_labels
        ]
        assert [bool(a) for a in cached.evaluate_batch(range(len(tiny_labels)))] == [
            bool(v) for v in tiny_labels
        ]

    def test_cleared_store_charges_again(self, tiny_labels):
        inner = LabelColumnOracle(tiny_labels)
        store = SharedOracleCache()
        cached = SharedCachingOracle(inner, store)
        cached(0)
        store.clear()
        assert len(store) == 0
        cached(0)
        assert inner.num_calls == 2
        assert cached.misses == 2 and cached.hits == 0

    def test_cost_mirrors_inner(self, tiny_labels):
        inner = LabelColumnOracle(tiny_labels, cost_per_call=3.0)
        cached = SharedCachingOracle(inner, SharedOracleCache())
        cached(0)
        cached(0)
        assert cached.cost_per_call == 3.0
        assert cached.total_cost == pytest.approx(3.0)
