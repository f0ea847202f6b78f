"""Tests for maximum-weight matching (scipy path and Hungarian oracle)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.matching import matching_to_permutation
from repro.matching.max_weight import max_weight_matching
from repro.utils.validation import matching_from_permutation


def brute_force_best(weights: np.ndarray) -> float:
    n = weights.shape[0]
    return max(
        sum(weights[i, p[i]] for i in range(n))
        for p in itertools.permutations(range(n))
    )


class TestMaxWeightMatching:
    def test_identity_optimal(self):
        weights = np.diag([5.0, 4.0, 3.0])
        assignment, value = max_weight_matching(weights)
        assert value == pytest.approx(12.0)
        np.testing.assert_array_equal(assignment, [0, 1, 2])

    def test_anti_diagonal(self):
        weights = np.array([[0.0, 10.0], [10.0, 0.0]])
        assignment, value = max_weight_matching(weights)
        assert value == pytest.approx(20.0)
        np.testing.assert_array_equal(assignment, [1, 0])

    @pytest.mark.parametrize("seed", range(10))
    def test_scipy_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        weights = rng.uniform(0, 10, (5, 5))
        _assignment, value = max_weight_matching(weights)
        assert value == pytest.approx(brute_force_best(weights))

    @pytest.mark.parametrize("seed", range(10))
    def test_hungarian_matches_scipy(self, seed):
        rng = np.random.default_rng(50 + seed)
        weights = rng.uniform(0, 10, (7, 7))
        _a1, value_scipy = max_weight_matching(weights, use_scipy=True)
        _a2, value_hungarian = max_weight_matching(weights, use_scipy=False)
        assert value_hungarian == pytest.approx(value_scipy)

    def test_assignment_is_a_permutation(self):
        rng = np.random.default_rng(4)
        weights = rng.uniform(0, 1, (9, 9))
        assignment, _value = max_weight_matching(weights)
        assert sorted(assignment.tolist()) == list(range(9))

    def test_value_consistent_with_assignment(self):
        rng = np.random.default_rng(6)
        weights = rng.uniform(0, 1, (6, 6))
        assignment, value = max_weight_matching(weights)
        assert value == pytest.approx(weights[np.arange(6), assignment].sum())

    def test_negative_weights_allowed(self):
        weights = np.array([[-1.0, -5.0], [-5.0, -1.0]])
        _assignment, value = max_weight_matching(weights)
        assert value == pytest.approx(-2.0)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            max_weight_matching(np.zeros((2, 3)))

    def test_rejects_nan(self):
        weights = np.zeros((2, 2))
        weights[0, 0] = np.nan
        with pytest.raises(ValueError):
            max_weight_matching(weights)


class TestAssignmentToPermutation:
    def test_roundtrip(self):
        assignment = np.array([2, 0, 1])
        perm = matching_to_permutation(assignment, 3)
        assert perm.shape == (3, 3)
        assert perm.sum() == 3
        np.testing.assert_array_equal(np.nonzero(perm)[1], assignment)
        np.testing.assert_array_equal(matching_from_permutation(perm), assignment)
