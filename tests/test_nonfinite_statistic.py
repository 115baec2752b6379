"""A non-finite statistic on a matched draw is an error, never an estimate.

Unchecked, an ``inf`` statistic on the top proxy decile turns the Stage-2
allocation into NaN, which casts to int64 as ``-2**63 + 1`` draws per
stratum: ``run_abae`` returns ``estimate=inf`` after half its budget and
the sequential sampler dies with an ``OverflowError``.  Unmatched draws
carry NaN by design and stay legal.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.abae import run_abae
from repro.core.adaptive import run_abae_sequential
from repro.core.allocation import optimal_allocation
from repro.core.groupby import (
    GroupSpec,
    run_groupby_multi_oracle,
    run_groupby_single_oracle,
)
from repro.engine.config import ExecutionConfig
from repro.query.executor import QueryContext, execute_query
from repro.serve import AQPService
from repro.serve.scheduler import QueryStatus
from repro.stats.rng import RandomState
from repro.stats.sampling import proportional_integer_allocation
from repro.synth import make_dataset, make_groupby_scenario

NON_FINITE = [np.inf, -np.inf, np.nan]
MESSAGE = r"statistic of matched record \d+ is"


@pytest.fixture(scope="module")
def scenario():
    return make_dataset("synthetic", seed=0, size=5_000)


def poisoned(scenario, bad):
    """The statistic with ``bad`` on the top proxy decile."""
    scores = scenario.proxy.scores()
    values = np.array(scenario.statistic_values, dtype=float)
    values[scores >= np.quantile(scores, 0.9)] = bad
    return values


@pytest.mark.parametrize("batch_size", [None, 1])
@pytest.mark.parametrize("bad", NON_FINITE)
def test_two_stage_raises(scenario, bad, batch_size):
    with pytest.raises(ValueError, match=MESSAGE) as excinfo:
        run_abae(
            scenario.proxy, scenario.make_oracle(), poisoned(scenario, bad),
            budget=1000, rng=RandomState(0),
            config=ExecutionConfig(batch_size=batch_size),
        )
    assert repr(float(bad)) in str(excinfo.value)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_sequential_raises(scenario, bad):
    with pytest.raises(ValueError, match=MESSAGE):
        run_abae_sequential(
            scenario.proxy, scenario.make_oracle(), poisoned(scenario, bad),
            budget=1000, rng=RandomState(0),
        )


def test_nan_on_unmatched_records_is_fine(scenario):
    labels = np.asarray(scenario.labels, dtype=bool)
    values = np.where(labels, scenario.statistic_values, np.nan)
    result = run_abae(
        scenario.proxy, scenario.make_oracle(), values,
        budget=1000, rng=RandomState(0),
    )
    reference = run_abae(
        scenario.proxy, scenario.make_oracle(), scenario.statistic_values,
        budget=1000, rng=RandomState(0),
    )
    assert result.estimate == reference.estimate
    assert result.oracle_calls == 1000


@pytest.mark.parametrize("batch_size", [None, 1])
@pytest.mark.parametrize("setting", ["single", "multi"])
def test_groupby_raises(setting, batch_size):
    groups = make_groupby_scenario("synthetic", setting=setting, seed=0, size=4_000)
    member = np.array([k == groups.groups[0] for k in groups.group_keys])
    values = np.array(groups.statistic_values, dtype=float)
    values[member] = np.nan
    specs = [GroupSpec(key=g, proxy=groups.proxies[g]) for g in groups.groups]
    config = ExecutionConfig(batch_size=batch_size)
    with pytest.raises(ValueError, match=MESSAGE):
        if setting == "single":
            run_groupby_single_oracle(
                specs, groups.make_single_oracle(), values, budget=1000,
                rng=RandomState(0), config=config,
            )
        else:
            run_groupby_multi_oracle(
                specs, groups.make_per_group_oracles(), values, budget=1000,
                rng=RandomState(0), config=config,
            )


def test_served_query_fails_with_the_error(scenario):
    context = QueryContext(scenario.num_records)
    context.register_statistic("views", poisoned(scenario, np.inf))
    context.register_predicate("is_match", scenario.make_oracle(), scenario.proxy)
    text = (
        "SELECT AVG(views(rec)) FROM t WHERE is_match(rec) "
        "ORACLE LIMIT 1000 USING proxy WITH PROBABILITY 0.95"
    )
    with pytest.raises(ValueError, match=MESSAGE):
        execute_query(text, context, seed=0)
    service = AQPService()
    handle = service.submit_query(text, context, rng=0)
    service.run_until_complete()
    assert handle.status == QueryStatus.FAILED
    with pytest.raises(ValueError, match=MESSAGE):
        handle.result()


@pytest.mark.parametrize("bad", NON_FINITE)
def test_integer_allocation_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="finite"):
        proportional_integer_allocation([1.0, bad], 10)


@pytest.mark.parametrize("bad", NON_FINITE)
def test_plug_in_allocation_rejects_non_finite_inputs(bad):
    with pytest.raises(ValueError):
        optimal_allocation([0.5, bad], [1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        optimal_allocation([0.5, 0.5], [1.0, bad])
