"""The bootstrap's resample core: parity, exactness and pass counts.

Three groups:

* **Resample parity** — ``_resample_stats`` (the index path) counts
  positives on the bool mask and sums one gather of the zeroed values.
  It must reproduce, byte for byte, the earlier two-gather formula frozen
  below: gather the 0/1 float mask and the values, multiply, row-sum both.
  A stratum with many atoms must still reach it with the same index draw.
* **Multinomial path** — drawing category counts instead of indices is
  the same bootstrap in distribution: per-stratum moments match their
  closed forms, both paths give the same estimate distribution on one
  sample, and degenerate strata (no positives, one atom, one draw, signed
  zeros) come out exact.
* **Pass counts** — a SUM or COUNT query bootstraps once, in its
  aggregate interval, not also in the sampler.  Through ``execute_query``
  and ``AQPService`` such a query makes exactly one resample per stratum,
  whichever path it takes; served answers and CIs stay bit-identical to
  solo execution.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.bootstrap as bootstrap_module
from repro.core.types import StratumSample
from repro.query.executor import QueryContext, execute_query
from repro.serve import AQPService
from repro.stats.rng import RandomState
from repro.synth import make_dataset, make_multipred_scenario

# ---------------------------------------------------------------------------
# Resample parity against the frozen two-gather formula
# ---------------------------------------------------------------------------


def two_gather_reference(matches, values, resample_idx):
    """The resample step as it was: two gathers, a multiply, two row sums."""
    resampled_matches = matches[resample_idx]
    resampled_values = values[resample_idx]
    positives = resampled_matches.sum(axis=1)
    sums = (resampled_values * resampled_matches).sum(axis=1)
    return positives, sums


SPECIAL_VALUES = (-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf)
any_float = st.one_of(st.floats(), st.sampled_from(SPECIAL_VALUES))


@st.composite
def resample_case(draw):
    """A stratum (mask + raw values) and a resample index matrix."""
    n = draw(st.integers(min_value=1, max_value=40))
    mask_kind = draw(st.sampled_from(["mixed", "all-false", "all-true"]))
    if mask_kind == "mixed":
        mask = np.asarray(
            draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
        )
    else:
        mask = np.full(n, mask_kind == "all-true")
    # Raw values may be non-finite anywhere; unmatched ones are zeroed by
    # the caller before the resample step sees them.
    raw = np.asarray(draw(st.lists(any_float, min_size=n, max_size=n)), dtype=float)
    num_bootstrap = draw(st.sampled_from([1, 2, 7, 64, 257]))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    resample_idx = np.random.default_rng(seed).integers(0, n, size=(num_bootstrap, n))
    return mask, raw, resample_idx


class TestResampleKernelParity:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(resample_case())
    def test_bitwise_equal_to_two_gather_formula(self, case):
        mask, raw, resample_idx = case
        values = np.where(mask, raw, 0.0)
        with np.errstate(invalid="ignore", over="ignore"):
            want_pos, want_sums = two_gather_reference(
                mask.astype(float), values, resample_idx
            )
            got_pos, got_sums = bootstrap_module._resample_stats(
                mask, values, resample_idx
            )
        assert got_pos.dtype == want_pos.dtype == np.float64
        assert got_pos.tobytes() == want_pos.tobytes()
        assert got_sums.tobytes() == want_sums.tobytes()

    @pytest.mark.parametrize("value", SPECIAL_VALUES)
    @pytest.mark.parametrize("num_bootstrap", [1, 5])
    def test_single_draw_special_values(self, value, num_bootstrap):
        mask = np.array([True])
        values = np.array([value])
        resample_idx = np.zeros((num_bootstrap, 1), dtype=np.int64)
        want = two_gather_reference(mask.astype(float), values, resample_idx)
        got = bootstrap_module._resample_stats(mask, values, resample_idx)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_many_atoms_keep_the_index_draw(self, seed):
        """A continuous stratum resamples exactly as before the multinomial path."""
        gen = np.random.default_rng(seed)
        n, num_bootstrap = 300, 64
        mask = gen.random(n) < 0.7
        sample = StratumSample(
            stratum=0, indices=np.arange(n), matches=mask,
            values=np.where(mask, gen.normal(2.0, 1.0, n), np.nan),
        )
        got = bootstrap_module._resample_stratum(sample, num_bootstrap, RandomState(seed))
        resample_idx = RandomState(seed).integers(0, n, size=(num_bootstrap, n))
        values = np.where(mask, sample.values, 0.0)
        want = two_gather_reference(mask.astype(float), values, resample_idx)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_non_finite_atoms_take_the_index_path(self):
        """``0 * inf`` must not leak into trials that never draw the inf."""
        n, num_bootstrap = 200, 500
        mask = np.ones(n, dtype=bool)
        values = np.ones(n)
        values[0] = np.inf
        sample = StratumSample(stratum=0, indices=np.arange(n), matches=mask, values=values)
        _, sums = bootstrap_module._resample_stratum(sample, num_bootstrap, RandomState(3))
        assert np.isfinite(sums).any() and np.isinf(sums).any()
        assert not np.isnan(sums).any()


# ---------------------------------------------------------------------------
# The multinomial path is the same bootstrap in distribution
# ---------------------------------------------------------------------------

# Fixed before the first run: 20,000 trials per check, and a check fails
# only beyond 5 standard errors (moments) or beyond the two-sample DKW
# bound at failure probability 1e-6 per sample (distributions).
TRIALS = 20_000
Z = 5.0
DKW = 2 * np.sqrt(np.log(2 / 1e-6) / (2 * TRIALS))


@pytest.fixture()
def force_path(monkeypatch):
    """Force every stratum onto one path: ``"multinomial"`` or ``"index"``."""

    def force(path):
        threshold = 0 if path == "multinomial" else 10**12
        monkeypatch.setattr(bootstrap_module, "MULTINOMIAL_DRAWS_PER_CATEGORY", threshold)

    return force


def tied_stratum(seed, n, p_match, num_atoms, stratum=0):
    """A stratum whose matched values are small integers (a tied statistic)."""
    gen = np.random.default_rng(seed)
    mask = gen.random(n) < p_match
    values = np.where(mask, gen.integers(1, num_atoms + 1, n).astype(float), np.nan)
    return StratumSample(stratum=stratum, indices=np.arange(n), matches=mask, values=values)


def _assert_mean(draws, mean):
    se = np.sqrt(draws.var() / draws.size)
    assert abs(draws.mean() - mean) <= Z * se + 1e-12


def _assert_variance(draws, variance):
    centred = draws - draws.mean()
    se = np.sqrt(max((centred**4).mean() - centred.var() ** 2, 0.0) / draws.size)
    assert abs(centred.var() - variance) <= Z * se + 1e-12


class TestMultinomialExactness:
    @pytest.mark.parametrize("path", ["multinomial", "index"])
    @pytest.mark.parametrize(
        "n, p_match, num_atoms", [(500, 0.9, 9), (300, 0.3, 3), (80, 0.6, 1)]
    )
    def test_per_stratum_moments(self, force_path, path, n, p_match, num_atoms):
        force_path(path)
        sample = tied_stratum(11, n, p_match, num_atoms)
        m = sample.num_positive
        v = sample.values[sample.matches]
        positives, sums = bootstrap_module._resample_stratum(sample, TRIALS, RandomState(5))
        q = m / n
        _assert_mean(positives, m)
        _assert_variance(positives, n * q * (1 - q))
        _assert_mean(sums, v.sum())
        _assert_variance(sums, n * ((v**2).sum() / n - (v.sum() / n) ** 2))

    def test_multinomial_rule_picks_tied_strata(self, monkeypatch):
        """The default rule sends a tied stratum to the multinomial path."""
        index_passes = _CountingResample(bootstrap_module._resample_stats)
        monkeypatch.setattr(bootstrap_module, "_resample_stats", index_passes)
        sample = tied_stratum(2, 1715, 0.97, 9)
        bootstrap_module._resample_stratum(sample, 10, RandomState(0))
        assert index_passes.passes == 0
        small = tied_stratum(2, 100, 0.97, 9)
        bootstrap_module._resample_stratum(small, 10, RandomState(0))
        assert index_passes.passes == 1

    def test_both_paths_give_one_distribution(self, force_path):
        samples = [
            tied_stratum(21, 120, 0.8, 6, stratum=0),
            tied_stratum(22, 90, 0.4, 4, stratum=1),
            tied_stratum(23, 60, 0.95, 2, stratum=2),
        ]
        draws = {}
        for path, seed in (("multinomial", 8), ("index", 9)):
            force_path(path)
            draws[path] = np.sort(
                bootstrap_module.bootstrap_estimates(samples, TRIALS, RandomState(seed))
            )
        a, b = draws["multinomial"], draws["index"]
        grid = np.union1d(a, b)
        cdf_gap = np.abs(
            np.searchsorted(a, grid, side="right") - np.searchsorted(b, grid, side="right")
        ).max() / TRIALS
        assert cdf_gap <= DKW
        se = np.sqrt((a.var() + b.var()) / TRIALS)
        assert abs(a.mean() - b.mean()) <= Z * se

    @pytest.mark.parametrize("path", ["multinomial", "index"])
    def test_zero_positives(self, force_path, path):
        force_path(path)
        n = 50
        sample = StratumSample(
            stratum=0, indices=np.arange(n), matches=np.zeros(n, dtype=bool),
            values=np.full(n, np.nan),
        )
        positives, sums = bootstrap_module._resample_stratum(sample, 100, RandomState(0))
        assert (positives == 0).all() and (sums == 0).all()
        estimates = bootstrap_module.bootstrap_estimates([sample], 100, RandomState(0))
        assert (estimates == 0).all()

    @pytest.mark.parametrize("path", ["multinomial", "index"])
    def test_single_atom_count(self, force_path, path):
        """COUNT's constant 1: every trial's sum equals its positive count."""
        force_path(path)
        sample = tied_stratum(4, 200, 0.5, 1)
        positives, sums = bootstrap_module._resample_stratum(sample, 500, RandomState(1))
        assert np.array_equal(positives, sums)
        assert positives.min() < sample.num_positive < positives.max()
        full = tied_stratum(4, 200, 1.0, 1)
        positives, sums = bootstrap_module._resample_stratum(full, 50, RandomState(1))
        assert (positives == 200).all() and (sums == 200).all()

    @pytest.mark.parametrize("path", ["multinomial", "index"])
    @pytest.mark.parametrize("matched", [True, False])
    def test_single_draw(self, force_path, path, matched):
        force_path(path)
        sample = StratumSample(
            stratum=0, indices=[0], matches=[matched], values=[2.5 if matched else np.nan]
        )
        positives, sums = bootstrap_module._resample_stratum(sample, 7, RandomState(2))
        assert (positives == float(matched)).all()
        assert (sums == (2.5 if matched else 0.0)).all()

    @pytest.mark.parametrize("path", ["multinomial", "index"])
    def test_signed_zero_atoms(self, force_path, path):
        force_path(path)
        n = 96
        mask = np.arange(n) % 3 != 0
        values = np.where(np.arange(n) % 2 == 0, -0.0, 0.0)
        sample = StratumSample(
            stratum=0, indices=np.arange(n), matches=mask, values=np.where(mask, values, np.nan)
        )
        positives, sums = bootstrap_module._resample_stratum(sample, 300, RandomState(4))
        assert (sums == 0).all()
        _assert_mean(positives, mask.sum())
        estimates = bootstrap_module.bootstrap_estimates([sample], 300, RandomState(4))
        assert (estimates == 0).all()


# ---------------------------------------------------------------------------
# Resample passes per query: no discarded AVG bootstrap on SUM / COUNT
# ---------------------------------------------------------------------------

NUM_STRATA = 5


class _CountingResample:
    """Wraps the per-stratum resample and counts its passes."""

    def __init__(self, inner):
        self.inner = inner
        self.passes = 0

    def __call__(self, *args):
        self.passes += 1
        return self.inner(*args)


@pytest.fixture()
def passes(monkeypatch):
    counting = _CountingResample(bootstrap_module._resample_stratum)
    monkeypatch.setattr(bootstrap_module, "_resample_stratum", counting)
    return counting


@pytest.fixture(scope="module")
def scenario():
    return make_dataset("synthetic", seed=2, size=5_000)


@pytest.fixture(scope="module")
def street():
    return make_multipred_scenario("night-street", seed=4, size=5_000)


def single_context(scenario):
    context = QueryContext(scenario.num_records)
    context.register_statistic("views", scenario.statistic_values)
    context.register_predicate("is_match", scenario.make_oracle(), scenario.proxy)
    return context, (
        "SELECT {kind}(views(rec)) FROM t WHERE is_match(rec) "
        "ORACLE LIMIT 400 USING proxy WITH PROBABILITY 0.95"
    )


def multi_context(street):
    context = QueryContext(street.num_records)
    context.register_statistic("count_cars", street.statistic_values)
    for name, text in (("has_cars", "has_cars(frame)"), ("red_light", "red_light(frame)")):
        context.register_predicate(
            text, oracle=street.make_oracle(name), proxy=street.proxies[name]
        )
    return context, (
        "SELECT {kind}(count_cars(frame)) FROM video "
        "WHERE has_cars(frame) AND red_light(frame) "
        "ORACLE LIMIT 400 USING proxy(frame) WITH PROBABILITY 0.95"
    )


def _serve(text, context, seed):
    service = AQPService()
    handle = service.submit_query(text, context, rng=seed, num_bootstrap=50)
    service.run_until_complete()
    return handle.result()


@pytest.mark.parametrize("shape", ["single", "multi"])
@pytest.mark.parametrize("kind", ["AVG", "SUM", "COUNT"])
class TestResamplePassesPerQuery:
    def _context(self, shape, scenario, street):
        return single_context(scenario) if shape == "single" else multi_context(street)

    def test_one_pass_per_stratum_solo(self, passes, shape, kind, scenario, street):
        context, text = self._context(shape, scenario, street)
        result = execute_query(
            text.format(kind=kind), context, num_strata=NUM_STRATA,
            num_bootstrap=50, seed=3,
        )
        assert result.ci is not None
        assert passes.passes == NUM_STRATA

    def test_one_pass_per_stratum_served(self, passes, shape, kind, scenario, street):
        context, text = self._context(shape, scenario, street)
        result = _serve(text.format(kind=kind), context, seed=3)
        assert result.ci is not None
        assert passes.passes == NUM_STRATA

    def test_no_ci_means_no_pass(self, passes, shape, kind, scenario, street):
        context, text = self._context(shape, scenario, street)
        result = execute_query(
            text.format(kind=kind), context, num_bootstrap=50, with_ci=False, seed=3
        )
        assert result.ci is None
        assert passes.passes == 0

    def test_served_equals_solo_bitwise(self, shape, kind, scenario, street):
        context, text = self._context(shape, scenario, street)
        text = text.format(kind=kind)
        for seed in (5, 6):
            solo = execute_query(text, context, num_bootstrap=50, seed=seed)
            served = _serve(text, context, seed)
            assert served.value == solo.value
            assert (served.ci.lower, served.ci.upper) == (solo.ci.lower, solo.ci.upper)
            assert served.oracle_calls == solo.oracle_calls
