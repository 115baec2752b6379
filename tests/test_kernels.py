"""Tests for the sampler inner loops: frozen-reference parity and edge cases.

The per-draw inner loops live next to their only callers: the stratum
pool's gathers and mask updates (:class:`~repro.engine.pipeline.StratumPool`),
the sequential priority and per-round spread (:mod:`repro.engine.policies`),
group-by bucketing and the fresh-candidate filter (:mod:`repro.core.groupby`),
largest-remainder rounding
(:func:`~repro.stats.sampling.proportional_integer_allocation`) and the two
minimax objectives (:mod:`repro.core.allocation`).  The bootstrap's resample
step has its own parity suite in ``test_bootstrap_core.py``.

Three groups:

* **Frozen-reference parity** — each loop is compared byte for byte
  (``tobytes()``) against the pre-refactor loop frozen below, on
  derandomized inputs.
* **Edge cases** — zero draws, exhausted and single-record strata, empty
  groups, conservation of batch and total.
* **Pool pickling** — fresh checkpoints carry no backend name; every form
  a released checkpoint carries (the 1.6-1.8 dict naming a backend, the
  pre-1.6 ``__slots__`` tuple) still restores and resumes bit-identically.
"""

from __future__ import annotations

import dataclasses
import pickle
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.kernels
import repro.optim.simplex as simplex_module
from repro.core.allocation import (
    solve_minimax_multi_oracle,
    solve_minimax_single_oracle,
)
from repro.core.estimators import estimate_all_strata
from repro.core.groupby import _draws_to_stratum_samples, _DrawLog
from repro.core.types import StratumSample
from repro.engine import sequential_pipeline, two_stage_pipeline
from repro.engine.config import ExecutionConfig
from repro.engine.pipeline import StratumPool
from repro.engine.policies import _floor_spread, marginal_variance_reduction
from repro.stats.rng import RandomState
from repro.stats.sampling import proportional_integer_allocation
from repro.synth import make_dataset

from harness import estimate_fingerprint

_EPS = 1e-12
PARITY = settings(max_examples=100, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# Frozen references: the loops as they were before the refactor, verbatim
# ---------------------------------------------------------------------------


def legacy_pool_rounds(strata, plan):
    """Inline gather + searchsorted mark over a fixed draw schedule."""
    available = [np.ones(s.size, dtype=bool) for s in strata]
    remaining = np.array([s.size for s in strata], dtype=np.int64)
    for round_plan in plan:
        for k, take in round_plan:
            candidates = strata[k][available[k]]
            if candidates.size == 0:
                continue
            drawn = candidates[:: max(1, candidates.size // max(take, 1))][:take]
            if len(drawn) == 0:
                continue
            positions = np.searchsorted(strata[k], drawn)
            available[k][positions] = False
            remaining[k] -= len(drawn)
    return available, remaining


def legacy_priority(samples):
    """marginal_variance_reduction over estimate objects and ufuncs."""
    estimates = estimate_all_strata(samples)
    p = np.array([e.p_hat for e in estimates])
    sigma = np.array([e.sigma_hat for e in estimates])
    mu = np.array([e.mu_hat for e in estimates])
    draws = np.array([s.num_draws for s in samples], dtype=float)
    p_all = p.sum()
    if p_all == 0:
        return np.ones(len(samples))
    w = p / p_all
    mu_all = float(np.dot(w, mu))
    with np.errstate(divide="ignore", invalid="ignore"):
        within = np.where(p > 0, w**2 * sigma**2 / np.maximum(p, 1e-12), 0.0)
        weight_uncertainty = ((mu - mu_all) / p_all) ** 2 * p * (1.0 - p)
        contribution = (within + weight_uncertainty) / np.maximum(draws, 1.0)
        priority = contribution / np.maximum(draws + 1.0, 1.0)
    unexplored = draws == 0
    if unexplored.any():
        bonus = float(priority[~unexplored].max()) if (~unexplored).any() else 1.0
        priority[unexplored] = max(bonus, 1e-12)
    return priority


def legacy_bucket(assignment, indices, matched, values, num_strata):
    """Group-by bucketing: one boolean mask per stratum."""
    stratum_of = assignment[indices]
    masked_values = np.where(matched, values, np.nan)
    out = []
    for k in range(num_strata):
        in_k = stratum_of == k
        out.append((indices[in_k], matched[in_k], masked_values[in_k]))
    return out


def legacy_minimax_single_objective(error_terms, informative, lam, n2):
    """Eq. 10's objective as the nested Python loop."""
    num_groups = error_terms.shape[0]
    worst = 0.0
    for g in informative:
        inverse_sum = 0.0
        for l in range(num_groups):
            term = error_terms[l, g]
            if not np.isfinite(term) or term <= 0:
                continue
            variance = term / max(lam[l] * n2, _EPS)
            inverse_sum += 1.0 / variance
        combined = 1.0 / inverse_sum if inverse_sum > 0 else float("inf")
        worst = max(worst, combined)
    return worst


def legacy_minimax_multi_objective(error_terms, informative, lam, n2):
    """Eq. 11's objective: the worst per-group isolated variance."""
    terms = error_terms[informative]
    if terms.size == 0:
        return 0.0
    variance = terms / np.maximum(lam[informative] * n2, _EPS)
    return float(variance.max())


def legacy_floor_spread(weights, batch):
    """Sequential spread: floor counts, shortfall at the argmax."""
    counts = np.floor(weights * batch).astype(int)
    counts[int(np.argmax(weights))] += batch - int(counts.sum())
    return counts


def legacy_largest_remainder(weights, total):
    """proportional_integer_allocation's rounding core."""
    w = weights / weights.sum()
    raw = w * total
    base = np.floor(raw).astype(int)
    leftover = total - int(base.sum())
    if leftover > 0:
        remainders = raw - base
        order = np.argsort(-remainders)
        for idx in order[:leftover]:
            base[idx] += 1
    return base


def _bits(value) -> bytes:
    return np.asarray(value).tobytes()


def _draw_log(indices, matched, values, group="g"):
    """A group-by draw log whose membership column for ``group`` is ``matched``."""
    log = _DrawLog()
    log.append(indices, [group if m else "other" for m in matched], values)
    return log


# ---------------------------------------------------------------------------
# Input strategies
# ---------------------------------------------------------------------------


@st.composite
def stratum_and_draws(draw):
    """A sorted stratum plus a subset to draw (possibly empty or all)."""
    size = draw(st.integers(min_value=1, max_value=60))
    base = draw(
        st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    stratum = np.sort(np.asarray(base, dtype=np.int64))
    count = draw(st.sampled_from([0, 1, size]) | st.integers(0, size))
    picks = draw(st.permutations(list(range(size))))[:count]
    return stratum, stratum[np.asarray(sorted(picks), dtype=np.int64)]


@st.composite
def pool_schedule(draw):
    """Disjoint sorted strata plus a multi-round draw schedule."""
    num_strata = draw(st.integers(min_value=1, max_value=8))
    records = draw(st.integers(min_value=num_strata, max_value=400))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    assignment = rng.integers(0, num_strata, size=records)
    strata = [
        np.flatnonzero(assignment == k).astype(np.int64) for k in range(num_strata)
    ]
    rounds = draw(st.integers(min_value=1, max_value=12))
    plan = [
        [(k, int(rng.integers(0, 24))) for k in range(num_strata)]
        for _ in range(rounds)
    ]
    return strata, plan


@st.composite
def bucket_case(draw):
    num_strata = draw(st.integers(min_value=1, max_value=6))
    records = draw(st.integers(min_value=1, max_value=50))
    assignment = np.asarray(
        draw(
            st.lists(
                st.integers(0, num_strata - 1),
                min_size=records,
                max_size=records,
            )
        ),
        dtype=np.int64,
    )
    draws = draw(st.integers(min_value=0, max_value=40))
    indices = np.asarray(
        draw(st.lists(st.integers(0, records - 1), min_size=draws, max_size=draws)),
        dtype=np.int64,
    )
    matched = np.asarray(
        draw(st.lists(st.booleans(), min_size=draws, max_size=draws)), dtype=bool
    )
    values = np.asarray(
        draw(
            st.lists(
                st.floats(-50, 50, allow_nan=False),
                min_size=draws,
                max_size=draws,
            )
        ),
        dtype=float,
    )
    return assignment, indices, matched, values, num_strata


@st.composite
def weight_vector(draw):
    k = draw(st.integers(min_value=1, max_value=10))
    raw = draw(
        st.lists(
            st.floats(1e-6, 1.0, allow_nan=False), min_size=k, max_size=k
        )
    )
    w = np.asarray(raw, dtype=float)
    return w / w.sum()


@st.composite
def raw_weights(draw):
    """Unnormalized positive weights, often with ties (equal remainders)."""
    k = draw(st.integers(min_value=1, max_value=10))
    pool = draw(
        st.lists(st.floats(1e-6, 10.0, allow_nan=False), min_size=1, max_size=3)
    )
    return np.asarray(
        draw(st.lists(st.sampled_from(pool), min_size=k, max_size=k)), dtype=float
    )


@st.composite
def sample_list(draw):
    num_strata = draw(st.integers(min_value=1, max_value=6))
    samples = []
    for k in range(num_strata):
        n = draw(st.integers(min_value=0, max_value=30))
        matches = np.asarray(
            draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
        )
        values = np.asarray(
            draw(
                st.lists(
                    st.floats(-10, 10, allow_nan=False), min_size=n, max_size=n
                )
            ),
            dtype=float,
        )
        samples.append(
            StratumSample(
                stratum=k,
                indices=np.arange(n, dtype=np.int64),
                matches=matches,
                values=np.where(matches, values, np.nan),
            )
        )
    return samples


@st.composite
def minimax_case(draw):
    """An S-term matrix with inf and zero cells, plus simplex points."""
    num_groups = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    error_terms = rng.random((num_groups, num_groups)) * 5.0
    error_terms[rng.random((num_groups, num_groups)) < 0.15] = np.inf
    error_terms[rng.random((num_groups, num_groups)) < 0.1] = 0.0
    lams = [rng.dirichlet(np.ones(num_groups)) for _ in range(8)]
    # A vertex of the simplex drives some lam_l * n2 below eps.
    lams.append(np.eye(num_groups)[0])
    n2 = draw(st.sampled_from([1, 37, 1_000]))
    return error_terms, lams, n2


def _captured_objective(monkeypatch, solve, *args):
    """The objective ``solve`` hands the simplex solver (``None`` if it skips it).

    The solver itself is stubbed out; ``test_minimax_solves`` runs it.
    """
    captured = {}

    def capture(objective, dim, *rest, **kwargs):
        captured["objective"] = objective
        return SimpleNamespace(x=np.full(dim, 1.0 / dim))

    monkeypatch.setattr(simplex_module, "minimize_on_simplex", capture)
    solve(*args)
    return captured.get("objective")


# ---------------------------------------------------------------------------
# Frozen-reference parity
# ---------------------------------------------------------------------------


class TestFrozenReferenceParity:
    @PARITY
    @given(pool_schedule())
    def test_pool_rounds(self, case):
        strata, plan = case
        want_available, want_remaining = legacy_pool_rounds(strata, plan)
        pool = StratumPool(strata)
        for round_plan in plan:
            for k, take in round_plan:
                candidates = pool.candidates(k)
                if candidates.size == 0:
                    continue
                drawn = candidates[:: max(1, candidates.size // max(take, 1))][:take]
                pool.mark_drawn(k, drawn)
        state = pool.__getstate__()
        for k in range(len(strata)):
            assert _bits(state["_available"][k]) == _bits(want_available[k])
            assert _bits(pool.candidates(k)) == _bits(strata[k][want_available[k]])
        assert _bits(pool.remaining) == _bits(want_remaining)

    @PARITY
    @given(sample_list())
    def test_priority(self, samples):
        assert _bits(marginal_variance_reduction(samples)) == _bits(
            legacy_priority(samples)
        )

    @PARITY
    @given(bucket_case())
    def test_bucket(self, case):
        assignment, indices, matched, values, num_strata = case
        got = _draws_to_stratum_samples(
            _draw_log(indices, matched, values), "g", assignment, num_strata
        )
        want = legacy_bucket(assignment, indices, matched, values, num_strata)
        assert len(got) == num_strata
        for k, (sample, (w_idx, w_match, w_vals)) in enumerate(zip(got, want)):
            assert sample.stratum == k
            assert _bits(sample.indices) == _bits(w_idx)
            assert _bits(sample.matches) == _bits(w_match)
            assert _bits(sample.values) == _bits(w_vals)  # NaN masks too

    @PARITY
    @given(weight_vector(), st.integers(min_value=0, max_value=500))
    def test_floor_spread(self, weights, batch):
        got = _floor_spread(weights, batch)
        assert got.dtype == np.int64
        assert _bits(got) == _bits(legacy_floor_spread(weights, batch).astype(np.int64))

    @PARITY
    @given(raw_weights(), st.integers(min_value=0, max_value=500))
    def test_largest_remainder(self, weights, total):
        got = np.asarray(proportional_integer_allocation(weights, total), dtype=np.int64)
        want = legacy_largest_remainder(weights, total).astype(np.int64)
        assert _bits(got) == _bits(want)

    @PARITY
    @given(minimax_case())
    def test_minimax_single_objective(self, case):
        error_terms, lams, n2 = case
        usable = np.isfinite(error_terms) & (error_terms > 0)
        informative = [g for g in range(error_terms.shape[0]) if usable[:, g].any()]
        with pytest.MonkeyPatch.context() as monkeypatch:
            objective = _captured_objective(
                monkeypatch, solve_minimax_single_oracle, error_terms, n2
            )
        if not informative:
            assert objective is None  # uniform fallback, no solve
            return
        for lam in lams:
            assert _bits(objective(lam)) == _bits(
                legacy_minimax_single_objective(error_terms, informative, lam, n2)
            )

    @PARITY
    @given(minimax_case())
    def test_minimax_multi_objective(self, case):
        error_terms, lams, n2 = case
        terms = error_terms[0]
        informative = np.isfinite(terms) & (terms > 0)
        with pytest.MonkeyPatch.context() as monkeypatch:
            objective = _captured_objective(
                monkeypatch, solve_minimax_multi_oracle, terms, n2
            )
        if not informative.any():
            assert objective is None
            return
        for lam in lams:
            assert _bits(objective(lam)) == _bits(
                legacy_minimax_multi_objective(terms, informative, lam, n2)
            )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_minimax_solves(self, seed):
        # Each whole solve equals one driven by the frozen objective.
        rng = np.random.default_rng(seed)
        num_groups, n2 = 4, 1_000
        error_terms = rng.random((num_groups, num_groups)) * 5.0
        error_terms[0, 1] = np.inf
        error_terms[2, 3] = 0.0
        usable = np.isfinite(error_terms) & (error_terms > 0)
        informative = [g for g in range(num_groups) if usable[:, g].any()]
        frozen = simplex_module.minimize_on_simplex(
            lambda lam: legacy_minimax_single_objective(
                error_terms, informative, lam, n2
            ),
            num_groups,
        )
        got = solve_minimax_single_oracle(error_terms, n2)
        assert _bits(got) == _bits(frozen.x)

        terms = error_terms[0]
        mask = np.isfinite(terms) & (terms > 0)
        frozen = simplex_module.minimize_on_simplex(
            lambda lam: legacy_minimax_multi_objective(terms, mask, lam, n2),
            num_groups,
        )
        got = solve_minimax_multi_oracle(terms, n2)
        assert _bits(got) == _bits(frozen.x)


# ---------------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------------


class TestPoolParity:
    @settings(max_examples=60, deadline=None)
    @given(stratum_and_draws())
    def test_gather_and_mark_match_direct_mask_ops(self, case):
        stratum, drawn = case
        pool = StratumPool([stratum])
        pool.mark_drawn(0, drawn)
        mask = np.ones(stratum.size, dtype=bool)
        mask[np.searchsorted(stratum, drawn)] = False
        np.testing.assert_array_equal(pool.candidates(0), stratum[mask])
        assert pool.remaining[0] == stratum.size - drawn.size

    def test_zero_draws_is_a_noop(self):
        stratum = np.array([3, 7, 11], dtype=np.int64)
        pool = StratumPool([stratum])
        pool.mark_drawn(0, np.empty(0, dtype=np.int64))
        np.testing.assert_array_equal(pool.candidates(0), stratum)
        assert pool.remaining[0] == 3

    def test_exhausting_a_stratum(self):
        stratum = np.array([2, 5, 9], dtype=np.int64)
        pool = StratumPool([stratum])
        pool.mark_drawn(0, stratum)  # count == capacity
        assert pool.candidates(0).size == 0
        assert pool.remaining[0] == 0

    def test_single_record_stratum(self):
        pool = StratumPool([np.array([42], dtype=np.int64)])
        np.testing.assert_array_equal(pool.candidates(0), [42])
        pool.mark_drawn(0, np.array([42], dtype=np.int64))
        assert pool.candidates(0).size == 0


class TestBucketParity:
    @settings(max_examples=60, deadline=None)
    @given(bucket_case())
    def test_bucketing_matches_boolean_mask_reference(self, case):
        assignment, indices, matched, values, num_strata = case
        samples = _draws_to_stratum_samples(
            _draw_log(indices, matched, values), "g", assignment, num_strata
        )
        stratum_of = assignment[indices]
        for k, sample in enumerate(samples):
            in_k = stratum_of == k
            np.testing.assert_array_equal(sample.indices, indices[in_k])
            np.testing.assert_array_equal(sample.matches, matched[in_k])
            # Draws outside the group carry NaN, never their raw value.
            assert np.isnan(sample.values[~sample.matches]).all()
            np.testing.assert_array_equal(
                sample.values[sample.matches], values[in_k][matched[in_k]]
            )

    def test_empty_draw_log_yields_empty_strata(self):
        samples = _draws_to_stratum_samples(
            _DrawLog(), "g", np.zeros(5, dtype=np.int64), 3
        )
        assert len(samples) == 3
        for sample in samples:
            assert sample.indices.size == sample.matches.size == sample.values.size == 0

    def test_group_with_no_members_has_no_matches(self):
        indices = np.arange(6, dtype=np.int64)
        samples = _draws_to_stratum_samples(
            _draw_log(indices, np.zeros(6, dtype=bool), np.ones(6)),
            "g",
            indices % 2,
            2,
        )
        assert [s.num_draws for s in samples] == [3, 3]
        assert not any(s.matches.any() for s in samples)
        assert all(np.isnan(s.values).all() for s in samples)


class TestIntegerSpreads:
    @settings(max_examples=80, deadline=None)
    @given(weight_vector(), st.integers(min_value=0, max_value=500))
    def test_floor_spread_conserves_the_batch(self, weights, batch):
        counts = _floor_spread(weights, batch)
        assert counts.sum() == batch
        # only the argmax stratum is topped up; floors never exceed weight share
        floors = np.floor(weights * batch).astype(np.int64)
        extra = counts - floors
        assert extra.min() >= 0
        assert np.flatnonzero(extra).tolist() in ([], [int(np.argmax(weights))])

    @settings(max_examples=80, deadline=None)
    @given(weight_vector(), st.integers(min_value=0, max_value=500))
    def test_largest_remainder_conserves_the_total(self, weights, total):
        counts = proportional_integer_allocation(weights, total)
        assert sum(counts) == total
        assert min(counts) >= 0


class TestPriorityParity:
    @settings(max_examples=60, deadline=None)
    @given(sample_list())
    def test_priority_is_finite_and_nonnegative(self, samples):
        priority = marginal_variance_reduction(samples)
        assert priority.shape == (len(samples),)
        assert np.all(np.isfinite(priority))
        assert np.all(priority >= 0)

    def test_all_empty_strata_explore_uniformly(self):
        samples = [StratumSample(stratum=k) for k in range(4)]
        np.testing.assert_array_equal(
            marginal_variance_reduction(samples), np.ones(4)
        )


# ---------------------------------------------------------------------------
# Pool pickling and checkpoint back-compat
# ---------------------------------------------------------------------------


def _pool_state(size=6):
    return {
        "_strata": [np.arange(size, dtype=np.int64)],
        "_available": [np.ones(size, dtype=bool)],
        "remaining": np.array([size], dtype=np.int64),
    }


class TestPoolPickling:
    def test_roundtrip_preserves_masks(self):
        pool = StratumPool([np.arange(10, dtype=np.int64)])
        pool.mark_drawn(0, np.array([2, 5], dtype=np.int64))
        clone = pickle.loads(pickle.dumps(pool))
        np.testing.assert_array_equal(clone.candidates(0), pool.candidates(0))
        np.testing.assert_array_equal(clone.remaining, pool.remaining)

    def test_pickle_payload_stores_no_backend_name(self):
        state = StratumPool([np.arange(4, dtype=np.int64)]).__getstate__()
        assert set(state) == {"_strata", "_available", "remaining"}

    def test_legacy_tuple_state_restores(self):
        # Pre-1.6 checkpoints pickled __slots__ as a (dict, slots) tuple.
        pool = StratumPool.__new__(StratumPool)
        pool.__setstate__((None, _pool_state()))
        np.testing.assert_array_equal(pool.candidates(0), np.arange(6))
        pool.mark_drawn(0, np.array([1], dtype=np.int64))
        assert pool.remaining[0] == 5

    @pytest.mark.parametrize("backend", ["numpy", "numba"])
    def test_saved_backend_name_is_ignored(self, backend):
        # 1.6-1.8 checkpoints named the pool's kernel backend.
        pool = StratumPool.__new__(StratumPool)
        pool.__setstate__({**_pool_state(), "_kernel_backend": backend})
        np.testing.assert_array_equal(pool.candidates(0), np.arange(6))
        assert "_kernel_backend" not in pool.__getstate__()

    def test_unknown_saved_backend_falls_back_to_reference(self):
        pool = StratumPool.__new__(StratumPool)
        pool.__setstate__({**_pool_state(3), "_kernel_backend": "cuda"})
        np.testing.assert_array_equal(pool.candidates(0), np.arange(3))
        assert pool.remaining[0] == 3


def _legacy_getstate(form, backend):
    """A ``StratumPool.__getstate__`` that writes a released checkpoint form."""

    def getstate(self):
        state = {
            "_strata": self._strata,
            "_available": self._available,
            "remaining": self.remaining,
        }
        if form == "tuple":
            return (None, state)
        return {**state, "_kernel_backend": backend}

    return getstate


def _drive(session):
    while session.step():
        pass
    return session.result()


class TestLegacyCheckpointResume:
    @pytest.fixture(scope="class")
    def scenario(self):
        return make_dataset("synthetic", seed=1, size=3_000)

    @pytest.mark.parametrize(
        "form, backend",
        [("dict", "numpy"), ("dict", "numba"), ("dict", "cuda"), ("tuple", None)],
    )
    @pytest.mark.parametrize("builder", ["two_stage", "sequential"])
    def test_resume_is_bit_identical(
        self, scenario, monkeypatch, form, backend, builder
    ):
        def pipeline():
            if builder == "two_stage":
                return two_stage_pipeline(
                    proxy=scenario.proxy, oracle=scenario.make_oracle(),
                    statistic=scenario.statistic_values, budget=500,
                    with_ci=True, num_bootstrap=30,
                )
            return sequential_pipeline(
                proxy=scenario.proxy, oracle=scenario.make_oracle(),
                statistic=scenario.statistic_values, budget=500,
                warmup_per_stratum=10, reallocation_batch=40,
                with_ci=True, num_bootstrap=30,
            )

        reference = _drive(pipeline().session(RandomState(4)))
        interrupted = pipeline().session(RandomState(4))
        for _ in range(4):
            interrupted.step()
        with monkeypatch.context() as patch:
            patch.setattr(StratumPool, "__getstate__", _legacy_getstate(form, backend))
            blob = interrupted.checkpoint()
        if form == "dict":
            assert b"_kernel_backend" in blob
        resumed = pipeline().resume(blob)
        assert estimate_fingerprint(_drive(resumed)) == estimate_fingerprint(reference)


# ---------------------------------------------------------------------------
# The removed knob stays removed
# ---------------------------------------------------------------------------


class TestNoKernelKnob:
    def test_execution_config_has_four_fields(self):
        names = [f.name for f in dataclasses.fields(ExecutionConfig)]
        assert names == ["batch_size", "plan_cache", "seed", "progress"]

    def test_kernels_module_names_only_the_numpy_backend(self):
        assert repro.kernels.__all__ == ["kernel_set"]
        assert repro.kernels.kernel_set().backend == "numpy"
