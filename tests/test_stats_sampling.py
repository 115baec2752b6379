"""Tests for repro.stats.sampling."""

import numpy as np
import pytest

from repro.stats.rng import RandomState
from repro.stats.sampling import (
    proportional_integer_allocation,
    sample_without_replacement,
    split_budget,
)


class TestSampleWithoutReplacement:
    def test_returns_requested_count(self):
        out = sample_without_replacement(np.arange(100), 10, RandomState(0))
        assert out.shape == (10,)

    def test_no_duplicates(self):
        out = sample_without_replacement(np.arange(50), 50, RandomState(0))
        assert len(set(out.tolist())) == 50

    def test_subset_of_population(self):
        population = np.array([5, 9, 11, 40])
        out = sample_without_replacement(population, 3, RandomState(1))
        assert set(out.tolist()).issubset(set(population.tolist()))

    def test_oversampling_returns_whole_population(self):
        population = np.arange(7)
        out = sample_without_replacement(population, 100, RandomState(0))
        assert sorted(out.tolist()) == list(range(7))

    def test_zero_samples(self):
        out = sample_without_replacement(np.arange(10), 0, RandomState(0))
        assert out.size == 0

    def test_empty_population(self):
        out = sample_without_replacement(np.array([], dtype=np.int64), 5, RandomState(0))
        assert out.size == 0

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            sample_without_replacement(np.arange(10), -1, RandomState(0))

    def test_deterministic_given_rng(self):
        a = sample_without_replacement(np.arange(100), 10, RandomState(3))
        b = sample_without_replacement(np.arange(100), 10, RandomState(3))
        assert np.array_equal(a, b)


class TestSplitBudget:
    def test_half_split(self):
        assert split_budget(1000, 0.5) == (500, 500)

    def test_rounding_goes_to_stage2(self):
        n1, n2 = split_budget(1001, 0.5)
        assert n1 == 500 and n2 == 501
        assert n1 + n2 == 1001

    def test_zero_fraction(self):
        assert split_budget(100, 0.0) == (0, 100)

    def test_full_fraction(self):
        assert split_budget(100, 1.0) == (100, 0)

    def test_invalid_fraction_raises(self):
        with pytest.raises(ValueError):
            split_budget(100, 1.5)

    def test_negative_budget_raises(self):
        with pytest.raises(ValueError):
            split_budget(-1, 0.5)


class TestProportionalIntegerAllocation:
    def test_exact_total(self):
        allocation = proportional_integer_allocation([1, 1, 2], 100)
        assert sum(allocation) == 100

    def test_proportions_respected(self):
        allocation = proportional_integer_allocation([1, 3], 100)
        assert allocation == [25, 75]

    def test_zero_weights_fall_back_to_uniform(self):
        allocation = proportional_integer_allocation([0.0, 0.0, 0.0], 9)
        assert allocation == [3, 3, 3]

    def test_largest_remainder_tops_up(self):
        allocation = proportional_integer_allocation([1, 1, 1], 10)
        assert sum(allocation) == 10
        assert max(allocation) - min(allocation) <= 1

    def test_zero_total(self):
        assert proportional_integer_allocation([1, 2], 0) == [0, 0]

    def test_empty_weights(self):
        assert proportional_integer_allocation([], 10) == []

    def test_negative_weight_raises(self):
        with pytest.raises(ValueError):
            proportional_integer_allocation([1, -1], 10)

    def test_negative_total_raises(self):
        with pytest.raises(ValueError):
            proportional_integer_allocation([1, 1], -5)

    def test_single_stratum_takes_everything(self):
        assert proportional_integer_allocation([0.7], 42) == [42]
