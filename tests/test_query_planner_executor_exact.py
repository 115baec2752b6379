"""Tests for the query planner, executor, and exact evaluator."""

import numpy as np
import pytest

from repro.engine.config import ExecutionConfig, ExecutionConfigError
from repro.query.errors import BindingError, PlanningError
from repro.query.exact import exact_answer
from repro.query.executor import GroupBinding, QueryContext, execute_query
from repro.query.parser import parse_query
from repro.query.planner import PlanKind, plan_query
from repro.synth.scenarios import make_groupby_scenario, make_multipred_scenario


@pytest.fixture(scope="module")
def scenario():
    from repro.synth.datasets import make_dataset

    return make_dataset("amazon-office", seed=3, size=10_000)


@pytest.fixture()
def context(scenario):
    ctx = QueryContext(scenario.num_records)
    ctx.register_statistic("rating", scenario.statistic_values)
    ctx.register_predicate(
        "sentiment(review) = 'strongly positive'",
        oracle=scenario.make_oracle(),
        proxy=scenario.proxy,
        labels=scenario.labels,
    )
    return ctx


SINGLE_QUERY = (
    "SELECT AVG(rating) FROM data WHERE sentiment(review) = 'strongly positive' "
    "ORACLE LIMIT 2000 USING proxy WITH PROBABILITY 0.95"
)


class TestPlanner:
    def test_single_predicate_plan(self):
        plan = plan_query(parse_query(SINGLE_QUERY))
        assert plan.kind is PlanKind.SINGLE_PREDICATE
        assert plan.budget == 2000
        assert plan.alpha == pytest.approx(0.05)

    def test_multi_predicate_plan(self):
        query = parse_query(
            "SELECT AVG(x) FROM t WHERE a(r) AND b(r) "
            "ORACLE LIMIT 100 USING p WITH PROBABILITY 0.95"
        )
        assert plan_query(query).kind is PlanKind.MULTI_PREDICATE

    def test_group_by_plan(self):
        query = parse_query(
            "SELECT COUNT(img) FROM t WHERE hair IN ('gray', 'blond') GROUP BY hair "
            "ORACLE LIMIT 100 USING p WITH PROBABILITY 0.95"
        )
        plan = plan_query(query)
        assert plan.kind is PlanKind.GROUP_BY
        assert plan.notes["group_key"] == "hair"

    def test_sum_group_by_rejected(self):
        query = parse_query(
            "SELECT SUM(x) FROM t WHERE hair IN ('a', 'b') GROUP BY hair "
            "ORACLE LIMIT 100 USING p WITH PROBABILITY 0.95"
        )
        with pytest.raises(PlanningError):
            plan_query(query)


class TestPhysicalPlanHints:
    """Execution knobs ride on the plan's config and fail before sampling."""

    def test_hints_carried_on_plan(self):
        plan = plan_query(
            parse_query(SINGLE_QUERY),
            config=ExecutionConfig(batch_size=64),
        )
        assert plan.config.batch_size == 64

    def test_hints_default_to_none(self):
        plan = plan_query(parse_query(SINGLE_QUERY))
        assert plan.config.batch_size is None

    def test_numpy_integer_hints_accepted(self):
        # Batch sizes computed with numpy must behave the same through
        # the planner as through the sampler APIs (shared validator).
        plan = plan_query(
            parse_query(SINGLE_QUERY),
            config=ExecutionConfig(batch_size=np.int64(16)),
        )
        assert plan.config.batch_size == 16

    @pytest.mark.parametrize("bad", [0, -1, -100, 2.5, "8", True])
    def test_bad_batch_size_rejected_at_plan_time(self, bad):
        with pytest.raises(ExecutionConfigError, match="batch_size"):
            plan_query(parse_query(SINGLE_QUERY), config=ExecutionConfig(batch_size=bad))

    def test_execute_query_surfaces_planning_error(self, context):
        # The executor plans first, so a config that is not an
        # ExecutionConfig raises the same clear QueryError subclass before
        # a single record is sampled.
        with pytest.raises(PlanningError, match="ExecutionConfig"):
            execute_query(SINGLE_QUERY, context, config={"batch_size": 0})

    def test_execute_query_accepts_valid_hints(self, context):
        result = execute_query(
            SINGLE_QUERY, context, seed=0, num_bootstrap=30,
            config=ExecutionConfig(batch_size=33),
        )
        baseline = execute_query(SINGLE_QUERY, context, seed=0, num_bootstrap=30)
        assert result.value == baseline.value
        assert result.oracle_calls == baseline.oracle_calls

    def test_plan_cache_hint_carried_and_validated(self):
        assert plan_query(parse_query(SINGLE_QUERY)).config.plan_cache is True
        plan = plan_query(
            parse_query(SINGLE_QUERY), config=ExecutionConfig(plan_cache=False)
        )
        assert plan.config.plan_cache is False
        with pytest.raises(ExecutionConfigError, match="plan_cache"):
            ExecutionConfig(plan_cache="yes")

    def test_plan_cache_never_changes_results(self, context):
        # plan_cache is a pure physical knob: with the caches bypassed the
        # stratification is rebuilt from scratch, but the answer, CI and
        # call count are bit-identical.
        cached = execute_query(SINGLE_QUERY, context, seed=3, num_bootstrap=30)
        uncached = execute_query(
            SINGLE_QUERY, context, seed=3, num_bootstrap=30,
            config=ExecutionConfig(plan_cache=False),
        )
        assert cached.value == uncached.value
        assert (cached.ci.lower, cached.ci.upper) == (
            uncached.ci.lower, uncached.ci.upper
        )
        assert cached.oracle_calls == uncached.oracle_calls


class TestSinglePredicateExecution:
    def test_avg_close_to_exact(self, context):
        result = execute_query(SINGLE_QUERY, context, seed=0, num_bootstrap=100)
        exact = exact_answer(SINGLE_QUERY, context)
        assert abs(result.value - exact) / exact < 0.05
        assert result.plan_kind is PlanKind.SINGLE_PREDICATE

    def test_ci_present_and_ordered(self, context):
        result = execute_query(SINGLE_QUERY, context, seed=0, num_bootstrap=100)
        assert result.ci is not None
        assert result.ci.lower <= result.value <= result.ci.upper

    def test_count_query(self, context):
        query = SINGLE_QUERY.replace("AVG(rating)", "COUNT(review)")
        result = execute_query(query, context, seed=0, num_bootstrap=100)
        exact = exact_answer(query, context)
        assert abs(result.value - exact) / exact < 0.15
        assert result.ci is not None

    def test_sum_query(self, context):
        query = SINGLE_QUERY.replace("AVG(rating)", "SUM(rating)")
        result = execute_query(query, context, seed=0, num_bootstrap=100)
        exact = exact_answer(query, context)
        assert abs(result.value - exact) / exact < 0.15

    def test_reproducible_with_seed(self, context):
        a = execute_query(SINGLE_QUERY, context, seed=5, num_bootstrap=50)
        b = execute_query(SINGLE_QUERY, context, seed=5, num_bootstrap=50)
        assert a.value == b.value

    def test_missing_statistic_raises(self, scenario):
        ctx = QueryContext(scenario.num_records)
        ctx.register_predicate(
            "sentiment(review) = 'strongly positive'",
            oracle=scenario.make_oracle(),
            proxy=scenario.proxy,
        )
        with pytest.raises(BindingError):
            execute_query(SINGLE_QUERY, ctx, seed=0)

    def test_missing_predicate_raises(self, scenario):
        ctx = QueryContext(scenario.num_records)
        ctx.register_statistic("rating", scenario.statistic_values)
        with pytest.raises(BindingError):
            execute_query(SINGLE_QUERY, ctx, seed=0)

    def test_fallback_binding_by_function_name(self, scenario):
        ctx = QueryContext(scenario.num_records)
        ctx.register_statistic("rating", scenario.statistic_values)
        ctx.register_predicate(
            "sentiment", oracle=scenario.make_oracle(), proxy=scenario.proxy
        )
        result = execute_query(SINGLE_QUERY, ctx, seed=0, num_bootstrap=50)
        assert np.isfinite(result.value)


class TestMultiPredicateExecution:
    def test_conjunction_query(self):
        workload = make_multipred_scenario("night-street", seed=1, size=10_000)
        ctx = QueryContext(workload.num_records)
        ctx.register_statistic("count_cars", workload.statistic_values)
        ctx.register_predicate(
            "count_cars(frame) > 0.0",
            oracle=workload.make_oracle("has_cars"),
            proxy=workload.proxies["has_cars"],
            labels=workload.predicate_labels["has_cars"],
        )
        ctx.register_predicate(
            "red_light(frame)",
            oracle=workload.make_oracle("red_light"),
            proxy=workload.proxies["red_light"],
            labels=workload.predicate_labels["red_light"],
        )
        query = (
            "SELECT AVG(count_cars(frame)) FROM video "
            "WHERE count_cars(frame) > 0 AND red_light(frame) "
            "ORACLE LIMIT 3000 USING proxy WITH PROBABILITY 0.95"
        )
        result = execute_query(query, ctx, seed=0, num_bootstrap=100)
        exact = exact_answer(query, ctx)
        assert result.plan_kind is PlanKind.MULTI_PREDICATE
        assert abs(result.value - exact) / exact < 0.1
        assert exact == pytest.approx(workload.ground_truth())


class TestGroupByExecution:
    def test_group_by_single_oracle(self):
        workload = make_groupby_scenario("celeba", setting="single", seed=2, size=10_000)
        ctx = QueryContext(workload.num_records)
        ctx.register_statistic("is_smiling", workload.statistic_values)
        ctx.register_groupby(
            "hair_color",
            GroupBinding(
                groups=workload.groups,
                proxies=workload.proxies,
                group_key_oracle=workload.make_single_oracle(),
                group_labels=workload.group_keys,
            ),
        )
        query = (
            "SELECT PERCENTAGE(is_smiling(image)) FROM images "
            "WHERE hair_color(image) = 'gray' OR hair_color(image) = 'blond' "
            "GROUP BY hair_color "
            "ORACLE LIMIT 4000 USING proxy WITH PROBABILITY 0.95"
        )
        result = execute_query(query, ctx, seed=0)
        exact = exact_answer(query, ctx)
        assert result.is_group_by
        assert set(result.group_values) == set(workload.groups)
        for group in workload.groups:
            assert abs(result.group_values[group] - exact[group]) < 0.15

    def test_group_by_multi_oracle_count(self):
        workload = make_groupby_scenario("synthetic", setting="multi", seed=2, size=10_000)
        ctx = QueryContext(workload.num_records)
        ctx.register_statistic("value", workload.statistic_values)
        ctx.register_groupby(
            "category",
            GroupBinding(
                groups=workload.groups,
                proxies=workload.proxies,
                per_group_oracles=workload.make_per_group_oracles(),
                group_labels=workload.group_keys,
            ),
        )
        query = (
            "SELECT COUNT(record) FROM data "
            "WHERE category IN ('group_0', 'group_1', 'group_2', 'group_3') "
            "GROUP BY category "
            "ORACLE LIMIT 6000 USING proxy WITH PROBABILITY 0.95"
        )
        result = execute_query(query, ctx, seed=0)
        exact = exact_answer(query, ctx)
        for group in workload.groups:
            assert result.group_values[group] == pytest.approx(exact[group], rel=0.5)

    def test_missing_group_binding_raises(self, scenario, context):
        query = (
            "SELECT AVG(rating) FROM data WHERE hair IN ('a', 'b') GROUP BY hair "
            "ORACLE LIMIT 100 USING p WITH PROBABILITY 0.95"
        )
        with pytest.raises(BindingError):
            execute_query(query, context, seed=0)

    def test_group_binding_requires_an_oracle(self):
        with pytest.raises(BindingError):
            GroupBinding(groups=["a"], proxies={"a": [0.5]})


class TestExactAnswer:
    def test_avg_matches_numpy(self, scenario, context):
        expected = scenario.statistic_values[scenario.labels].mean()
        assert exact_answer(SINGLE_QUERY, context) == pytest.approx(expected)

    def test_count_matches_numpy(self, scenario, context):
        query = SINGLE_QUERY.replace("AVG(rating)", "COUNT(review)")
        assert exact_answer(query, context) == scenario.labels.sum()

    def test_requires_labels(self, scenario):
        ctx = QueryContext(scenario.num_records)
        ctx.register_statistic("rating", scenario.statistic_values)
        ctx.register_predicate(
            "sentiment(review) = 'strongly positive'",
            oracle=scenario.make_oracle(),
            proxy=scenario.proxy,
        )
        with pytest.raises(BindingError):
            exact_answer(SINGLE_QUERY, ctx)


class TestQueryContextValidation:
    def test_invalid_num_records(self):
        with pytest.raises(ValueError):
            QueryContext(0)

    def test_statistic_length_mismatch(self, scenario):
        ctx = QueryContext(scenario.num_records)
        with pytest.raises(ValueError):
            ctx.register_statistic("rating", [1.0, 2.0])

    def test_labels_length_mismatch(self, scenario):
        ctx = QueryContext(scenario.num_records)
        with pytest.raises(ValueError):
            ctx.register_predicate(
                "p", oracle=scenario.make_oracle(), proxy=scenario.proxy, labels=[True]
            )
