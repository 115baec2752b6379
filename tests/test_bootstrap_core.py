"""The bootstrap's resample core: bitwise parity and pass counts.

Two groups:

* **Kernel parity** — ``bootstrap_resample_stats`` counts positives on the
  bool mask and sums one gather of the zeroed values.  It must reproduce,
  byte for byte, the earlier two-gather formula frozen below: gather the
  0/1 float mask and the values, multiply, row-sum both.
* **Pass counts** — a SUM or COUNT query bootstraps once, in its
  aggregate interval, not also in the sampler.  Through ``execute_query``
  and ``AQPService`` such a query makes exactly one resample pass per
  stratum; served answers and CIs stay bit-identical to solo execution.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.bootstrap as bootstrap_module
from repro.kernels import kernel_set
from repro.query.executor import QueryContext, execute_query
from repro.serve import AQPService
from repro.synth import make_dataset, make_multipred_scenario

# ---------------------------------------------------------------------------
# Kernel parity against the frozen two-gather formula
# ---------------------------------------------------------------------------


def two_gather_reference(matches, values, resample_idx):
    """The resample kernel as it was: two gathers, a multiply, two row sums."""
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
    # the caller before the kernel sees them.
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
            got_pos, got_sums = kernel_set().bootstrap_resample_stats(
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
        got = kernel_set().bootstrap_resample_stats(mask, values, resample_idx)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


# ---------------------------------------------------------------------------
# Resample passes per query: no discarded AVG bootstrap on SUM / COUNT
# ---------------------------------------------------------------------------

NUM_STRATA = 5


class _CountingKernels:
    """A kernel set that counts resample passes and delegates the rest."""

    def __init__(self, inner):
        self.inner = inner
        self.passes = 0

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def bootstrap_resample_stats(self, *args):
        self.passes += 1
        return self.inner.bootstrap_resample_stats(*args)


@pytest.fixture()
def passes(monkeypatch):
    counting = _CountingKernels(kernel_set())
    monkeypatch.setattr(bootstrap_module, "kernel_set", lambda: counting)
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
