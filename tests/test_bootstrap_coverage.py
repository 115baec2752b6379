"""Nominal coverage of the bootstrap CIs on both resample paths.

The bootstrap resamples a stratum either by drawing category counts (the
multinomial path, taken by tied statistics) or by drawing an index matrix
(the index path, taken by continuous ones).  Bit-parity tests cannot say
whether either interval is right, so this suite runs each query many
times and gates on how often its 95% CI covers the exact answer:

* ``night-street`` counts cars, a small-integer statistic, so its AVG,
  SUM and COUNT queries resample on the multinomial path;
* ``synthetic`` has a continuous statistic, so its AVG and SUM queries
  resample on the index path.  COUNT's statistic is the constant 1 in
  every scenario, so COUNT is always multinomial;
* ``run_abae_until_width`` re-bootstraps every round, starting with
  strata too small for the multinomial path, and reports the CI of the
  round at which it stops.

Seeds and the tolerance were fixed before the first run: ``TRIALS`` seeds
``0..TRIALS-1`` per case, and a case fails when its coverage count is
significant evidence (one-sided binomial test at 0.001) that the true
coverage is below 95%.  Do not widen the tolerance to make a case pass;
an under-covering path is a defect to report.
"""

from __future__ import annotations

from math import comb

import pytest

import repro.core.bootstrap as bootstrap_module
from repro.core.adaptive import run_abae_until_width
from repro.query import QueryContext, exact_answer, execute_query
from repro.stats.rng import RandomState
from repro.synth import make_dataset

TRIALS = 80
LEVEL = 0.95
SIGNIFICANCE = 1e-3
BUDGET = 3000
NUM_BOOTSTRAP = 200
TARGET_WIDTH = 0.2


def min_covered(trials=TRIALS, level=LEVEL, significance=SIGNIFICANCE):
    """Smallest coverage count a correct 95% interval passes with."""
    cumulative = 0.0
    for covered in range(trials + 1):
        cumulative += comb(trials, covered) * level**covered * (1 - level) ** (trials - covered)
        if cumulative >= significance:
            return covered
    return trials


class PathCounter:
    """Counts per-stratum resamples, and how many took the index path."""

    def __init__(self, monkeypatch):
        self.strata = self.index = 0
        stratum, stats = bootstrap_module._resample_stratum, bootstrap_module._resample_stats

        def counted_stratum(*args):
            self.strata += 1
            return stratum(*args)

        def counted_stats(*args):
            self.index += 1
            return stats(*args)

        monkeypatch.setattr(bootstrap_module, "_resample_stratum", counted_stratum)
        monkeypatch.setattr(bootstrap_module, "_resample_stats", counted_stats)


@pytest.fixture()
def paths(monkeypatch):
    return PathCounter(monkeypatch)


@pytest.fixture(scope="module", params=["night-street", "synthetic"])
def scenario(request):
    return make_dataset(request.param, seed=0, size=20_000)


def test_min_covered_is_the_binomial_quantile():
    assert min_covered(80) == 69
    assert min_covered(20, significance=0.5) == 19


@pytest.mark.parametrize("kind", ["AVG", "SUM", "COUNT"])
def test_query_ci_covers_at_nominal_level(scenario, kind, paths):
    context = QueryContext(scenario.num_records)
    context.register_statistic("stat", scenario.statistic_values)
    context.register_predicate(
        "pred", scenario.make_oracle(), scenario.proxy, labels=scenario.labels
    )
    text = (
        f"SELECT {kind}(stat(rec)) FROM t WHERE pred(rec) "
        f"ORACLE LIMIT {BUDGET} USING proxy WITH PROBABILITY 0.95"
    )
    truth = exact_answer(text, context)
    covered = sum(
        execute_query(text, context, num_bootstrap=NUM_BOOTSTRAP, seed=seed).ci.covers(truth)
        for seed in range(TRIALS)
    )
    continuous = scenario.name == "synthetic" and kind != "COUNT"
    assert paths.strata > 0
    assert paths.index == (paths.strata if continuous else 0)
    assert covered >= min_covered(), f"{covered}/{TRIALS} covered"


def test_until_width_ci_covers_at_nominal_level(scenario, paths):
    truth = scenario.ground_truth()
    covered = 0
    for seed in range(TRIALS):
        result = run_abae_until_width(
            scenario.proxy, scenario.make_oracle(), scenario.statistic_values,
            target_width=TARGET_WIDTH, max_budget=BUDGET, batch_size=250,
            num_bootstrap=NUM_BOOTSTRAP, rng=RandomState(seed),
        )
        covered += result.ci.covers(truth)
    # Warm-up strata without positives are tied even on synthetic, so only
    # most of its resamples take the index path.
    if scenario.name == "synthetic":
        assert paths.index > paths.strata / 2
    else:
        assert 0 < paths.index < paths.strata
    assert covered >= min_covered(), f"{covered}/{TRIALS} covered"
