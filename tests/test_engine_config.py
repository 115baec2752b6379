"""ExecutionConfig: eager validation, the one config path, facade seeding.

The config is the engine's one shared error path for execution knobs: a
bad setting must fail at construction (never mid-sampling), ``config=``
is the only way to pass a knob (the removed per-knob kwargs raise
``TypeError``), and that path is completely silent.
"""

import dataclasses
import warnings

import numpy as np
import pytest

from repro.core.abae import ABae, run_abae
from repro.core.adaptive import run_abae_sequential, run_abae_until_width
from repro.core.groupby import run_groupby_multi_oracle, run_groupby_single_oracle
from repro.core.multipred import run_abae_multipred
from repro.core.uniform import UniformSampler, run_uniform
from repro.engine import (
    ExecutionConfig,
    ExecutionConfigError,
    ProgressEvent,
    resolve_execution_config,
)
from repro.query.errors import PlanningError
from repro.query.executor import execute_query
from repro.query.parser import parse_query
from repro.query.planner import plan_query
from repro.stats.rng import RandomState
from repro.synth import make_dataset

QUERY = (
    "SELECT AVG(views) FROM t WHERE spam(msg) = 'yes' "
    "ORACLE LIMIT 200 USING p WITH PROBABILITY 0.95"
)


@pytest.fixture(scope="module")
def scenario():
    return make_dataset("synthetic", seed=0, size=4000)


class TestValidation:
    """Every field fails eagerly through the one shared error path."""

    @pytest.mark.parametrize("bad", [0, -1, -100, 2.5, "8", True])
    def test_bad_batch_size(self, bad):
        with pytest.raises(ExecutionConfigError, match="batch_size"):
            ExecutionConfig(batch_size=bad)

    @pytest.mark.parametrize(
        "field, value", [("num_workers", 4), ("parallel_backend", "thread")]
    )
    def test_removed_concurrency_fields(self, field, value):
        # Concurrent oracle calls belong to the oracle (a blocking
        # AsyncOracle's endpoint), not to the config.
        with pytest.raises(TypeError, match=field):
            ExecutionConfig(**{field: value})

    @pytest.mark.parametrize("bad", ["yes", 1, 0, None])
    def test_bad_plan_cache(self, bad):
        with pytest.raises(ExecutionConfigError, match="plan_cache"):
            ExecutionConfig(plan_cache=bad)

    @pytest.mark.parametrize("bad", [2.5, "7", True])
    def test_bad_seed(self, bad):
        with pytest.raises(ExecutionConfigError, match="seed"):
            ExecutionConfig(seed=bad)

    def test_bad_progress(self):
        with pytest.raises(ExecutionConfigError, match="progress"):
            ExecutionConfig(progress="not-callable")

    def test_error_is_a_value_error(self):
        # Callers guarding with `except ValueError` keep working.
        with pytest.raises(ValueError):
            ExecutionConfig(batch_size=0)

    def test_numpy_integers_normalized(self):
        config = ExecutionConfig(batch_size=np.int64(16), seed=np.int64(3))
        assert config.batch_size == 16 and type(config.batch_size) is int
        assert config.seed == 3 and type(config.seed) is int

    def test_defaults_are_valid_and_none_means_serial_whole_draw(self):
        config = ExecutionConfig()
        assert [f.name for f in dataclasses.fields(config)] == [
            "batch_size", "plan_cache", "seed", "progress",
        ]
        assert config.batch_size is None
        assert config.plan_cache is True
        assert config.seed is None
        assert config.progress is None


class TestMergingAndRng:
    def test_make_rng_policy(self):
        # Explicit rng wins; otherwise the config seed; otherwise the
        # historical seed-0 default.
        rng = RandomState(7)
        assert ExecutionConfig().make_rng(rng) is rng
        a = ExecutionConfig(seed=5).make_rng().integers(0, 1 << 30)
        b = RandomState(5).integers(0, 1 << 30)
        assert a == b
        c = ExecutionConfig().make_rng().integers(0, 1 << 30)
        d = RandomState(0).integers(0, 1 << 30)
        assert c == d


class TestLegacyKwargDeprecation:
    """The deprecated per-knob kwargs are gone: ``config=`` is the only path."""

    FUNCTION_KWARGS = {
        run_abae: ("batch_size", "num_workers", "parallel_backend"),
        run_uniform: ("batch_size", "num_workers", "parallel_backend"),
        run_abae_sequential: ("oracle_batch_size", "num_workers", "parallel_backend"),
        run_abae_until_width: ("oracle_batch_size", "num_workers", "parallel_backend"),
        run_abae_multipred: ("batch_size", "num_workers", "parallel_backend"),
        run_groupby_single_oracle: ("batch_size", "num_workers", "parallel_backend"),
        run_groupby_multi_oracle: ("batch_size", "num_workers", "parallel_backend"),
        plan_query: ("batch_size", "num_workers", "plan_cache"),
        execute_query: ("batch_size", "num_workers", "plan_cache"),
    }
    FACADE_KWARGS = {
        "ABae": ("batch_size", "num_workers", "parallel_backend"),
        "ABae.estimate": ("batch_size", "num_workers"),
        "UniformSampler": ("batch_size", "num_workers", "parallel_backend"),
        "UniformSampler.estimate": ("batch_size", "num_workers"),
    }
    CASES = [
        (fn.__name__, kwarg) for fn, kwargs in FUNCTION_KWARGS.items() for kwarg in kwargs
    ] + [(name, kwarg) for name, kwargs in FACADE_KWARGS.items() for kwarg in kwargs]

    @pytest.mark.parametrize("entry_point, kwarg", CASES)
    def test_removed_kwarg_raises_type_error(self, scenario, entry_point, kwarg):
        # Argument binding rejects an unknown kwarg before it checks for
        # missing ones, so the functions need no inputs; the facades are
        # real instances.
        def abae(**kw):
            return ABae(
                scenario.proxy, scenario.make_oracle(), scenario.statistic_values, **kw
            )

        def uniform(**kw):
            return UniformSampler(
                scenario.num_records, scenario.make_oracle(),
                scenario.statistic_values, **kw
            )

        invokers = {fn.__name__: fn for fn in self.FUNCTION_KWARGS}
        invokers.update({
            "ABae": abae,
            "ABae.estimate": lambda **kw: abae().estimate(budget=60, **kw),
            "UniformSampler": uniform,
            "UniformSampler.estimate": lambda **kw: uniform().estimate(budget=60, **kw),
        })
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{kwarg}'"):
            invokers[entry_point](**{kwarg: 4})

    def test_config_path_is_silent(self, scenario):
        """The modern config= path must emit no deprecation warnings at all."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            config = ExecutionConfig(batch_size=9)
            run_abae(
                scenario.proxy,
                scenario.make_oracle(),
                scenario.statistic_values,
                budget=120,
                rng=RandomState(0),
                config=config,
            )
            ABae(
                scenario.proxy,
                scenario.make_oracle(),
                scenario.statistic_values,
                config=config,
            ).estimate(budget=100, rng=RandomState(1))
            plan_query(parse_query(QUERY), config=config)

    def test_internal_paths_do_not_warn(self, scenario):
        """Engine-internal delegation never routes through legacy kwargs.

        Group-by runs fan out into run_abae / run_uniform internally; an
        internal legacy-kwarg call would spam (and eventually break) the
        deprecation filter, so it is pinned to silence here.
        """
        from repro.core.groupby import GroupSpec, run_groupby_multi_oracle
        from repro.synth import make_groupby_scenario

        gb = make_groupby_scenario("synthetic", setting="multi", seed=1, size=4000)
        specs = [GroupSpec(key=g, proxy=gb.proxies[g]) for g in gb.groups]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_groupby_multi_oracle(
                specs,
                gb.make_per_group_oracles(),
                gb.statistic_values,
                budget=400,
                rng=RandomState(0),
                config=ExecutionConfig(batch_size=32),
            )


class TestFacadeConfigSurface:
    def test_facade_exposes_knobs_via_config(self, scenario):
        sampler = ABae(
            scenario.proxy,
            scenario.make_oracle(),
            scenario.statistic_values,
            config=ExecutionConfig(batch_size=3, plan_cache=False),
        )
        assert sampler.config.batch_size == 3
        assert sampler.config.plan_cache is False
        # The knobs have one home: no read-only views on the facade.
        assert not hasattr(sampler, "batch_size")

    def test_facade_sessions_validate_config_eagerly(self, scenario):
        # session() goes through the same shared validation path as
        # estimate(): a bogus config fails with ExecutionConfigError, not
        # an AttributeError from inside the pipeline.
        sampler = ABae(
            scenario.proxy, scenario.make_oracle(), scenario.statistic_values
        )
        with pytest.raises(ExecutionConfigError, match="ExecutionConfig"):
            sampler.session(budget=50, config={"batch_size": 2})
        uniform = UniformSampler(
            scenario.num_records, scenario.make_oracle(), scenario.statistic_values
        )
        with pytest.raises(ExecutionConfigError, match="ExecutionConfig"):
            uniform.session(budget=50, config="fast please")

    def test_plan_carries_config(self):
        config = ExecutionConfig(batch_size=64, plan_cache=False)
        plan = plan_query(parse_query(QUERY), config=config)
        assert plan.config is config
        assert not hasattr(plan, "batch_size")


class TestFacadeSeeding:
    """The facades seed exactly as the ``run_*`` function each one wraps.

    ``rng`` wins, then ``seed``, then ``config.seed``, then seed 0: an
    unseeded facade call is as deterministic as an unseeded ``run_abae``.
    """

    BUDGET = 200
    KWARGS = dict(with_ci=True, num_bootstrap=50)

    def _facade_and_run(self, scenario, family, config):
        if family == "abae":
            facade_cls, run_fn, population = ABae, run_abae, scenario.proxy
        else:
            facade_cls, run_fn, population = (
                UniformSampler, run_uniform, scenario.num_records,
            )
        facade = facade_cls(
            population, scenario.make_oracle(), scenario.statistic_values,
            config=config,
        )

        def run():
            return run_fn(
                population, scenario.make_oracle(), scenario.statistic_values,
                budget=self.BUDGET, config=config, **self.KWARGS,
            )

        return facade, run

    @pytest.mark.parametrize("family", ["abae", "uniform"])
    @pytest.mark.parametrize("config", [ExecutionConfig(seed=7), None])
    def test_facade_matches_run_function(self, scenario, family, config):
        from harness import estimate_fingerprint

        facade, run = self._facade_and_run(scenario, family, config)
        expected = estimate_fingerprint(run())
        for _ in range(2):
            got = facade.estimate(budget=self.BUDGET, **self.KWARGS)
            assert estimate_fingerprint(got) == expected
            streamed = facade.session(budget=self.BUDGET, **self.KWARGS).run()
            assert estimate_fingerprint(streamed) == expected


class TestProgressCallback:
    def test_progress_events_stream_and_do_not_change_results(self, scenario):
        events = []
        baseline = run_abae(
            scenario.proxy,
            scenario.make_oracle(),
            scenario.statistic_values,
            budget=150,
            rng=RandomState(2),
        )
        observed = run_abae(
            scenario.proxy,
            scenario.make_oracle(),
            scenario.statistic_values,
            budget=150,
            rng=RandomState(2),
            config=ExecutionConfig(progress=events.append),
        )
        assert observed.estimate == baseline.estimate
        assert all(isinstance(e, ProgressEvent) for e in events)
        phases = {e.phase for e in events}
        assert phases == {"allocate", "draw", "finalize"}
        draw_total = sum(e.drawn for e in events if e.phase == "draw")
        assert draw_total == observed.oracle_calls
        assert events[-1].phase == "finalize"
        assert events[-1].spent == 150


class TestResolveExecutionConfig:
    def test_rejects_non_config(self):
        with pytest.raises(ExecutionConfigError, match="ExecutionConfig"):
            resolve_execution_config({"batch_size": 4}, "test")


class TestErrorMessageContracts:
    """Rejection messages must *enumerate* the allowed values.

    These messages are the API's discovery mechanism for valid knob
    settings — a user who typos ``batch_size=0`` learns the real choices
    from the error, not from a docs hunt.  The contract is pinned here so a
    reworded message cannot silently drop the enumeration.
    """

    BATCH_SIZE_CHOICES = ("positive integer", "None")
    SEED_CHOICES = ("an integer", "None")

    def test_config_reports_every_invalid_field_at_once(self):
        with pytest.raises(ExecutionConfigError) as excinfo:
            ExecutionConfig(batch_size=0, seed="nope")
        message = str(excinfo.value)
        for choice in self.BATCH_SIZE_CHOICES + self.SEED_CHOICES:
            assert choice in message
