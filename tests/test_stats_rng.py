"""Tests for repro.stats.rng."""

import numpy as np
import pytest

from repro.stats.rng import RandomState, derive_seed, spawn_children


class TestRandomState:
    def test_same_seed_reproduces_stream(self):
        a = RandomState(42)
        b = RandomState(42)
        assert np.array_equal(a.random(10), b.random(10))

    def test_different_seeds_differ(self):
        a = RandomState(1)
        b = RandomState(2)
        assert not np.array_equal(a.random(10), b.random(10))

    def test_wraps_existing_generator(self):
        gen = np.random.default_rng(5)
        state = RandomState(gen)
        assert state.generator is gen
        assert state.seed_sequence is None

    def test_wraps_other_random_state(self):
        base = RandomState(9)
        wrapped = RandomState(base)
        assert wrapped.generator is base.generator

    def test_accepts_seed_sequence(self):
        seq = np.random.SeedSequence(77)
        state = RandomState(seq)
        assert state.seed_sequence is seq

    def test_spawn_children_are_independent(self):
        children = RandomState(0).spawn(3)
        draws = [c.random(5) for c in children]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_spawn_is_reproducible(self):
        a = [c.random(4) for c in RandomState(3).spawn(2)]
        b = [c.random(4) for c in RandomState(3).spawn(2)]
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            RandomState(0).spawn(-1)

    def test_spawn_zero_returns_empty(self):
        assert RandomState(0).spawn(0) == []

    def test_spawn_from_raw_generator(self):
        state = RandomState(np.random.default_rng(0))
        children = state.spawn(2)
        assert len(children) == 2
        assert not np.array_equal(children[0].random(3), children[1].random(3))

    def test_passthrough_distributions(self):
        state = RandomState(0)
        assert state.integers(0, 10, size=5).shape == (5,)
        assert state.normal(size=4).shape == (4,)
        assert state.uniform(size=3).shape == (3,)
        assert state.beta(2.0, 3.0, size=2).shape == (2,)
        assert state.binomial(10, 0.5, size=2).shape == (2,)
        assert state.poisson(3.0, size=2).shape == (2,)
        counts = state.multinomial(10, [0.2, 0.8], size=3)
        assert counts.shape == (3, 2) and (counts.sum(axis=1) == 10).all()

    def test_choice_without_replacement_unique(self):
        state = RandomState(0)
        picked = state.choice(np.arange(100), size=50, replace=False)
        assert len(set(picked.tolist())) == 50

    def test_permutation_preserves_elements(self):
        state = RandomState(0)
        perm = state.permutation(np.arange(20))
        assert sorted(perm.tolist()) == list(range(20))


class TestHelpers:
    def test_spawn_children_helper(self):
        children = spawn_children(10, 4)
        assert len(children) == 4
        assert all(isinstance(c, RandomState) for c in children)

    def test_derive_seed_is_deterministic(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_derive_seed_depends_on_labels(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_derive_seed_in_32bit_range(self):
        seed = derive_seed(123, "dataset", "method", 10_000)
        assert 0 <= seed < 2**32
