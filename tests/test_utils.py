"""Tests for units, RNG plumbing, and validation helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import ensure_rng, spawn_rngs
from repro.utils.units import gbps_to_mb_per_ms, mb_per_ms_to_gbps, ms_to_us, us_to_ms
from repro.utils.validation import (
    check_demand_matrix,
    check_nonnegative,
    check_matching,
    matching_from_permutation,
    check_positive,
)


class TestUnits:
    def test_gbps_identity(self):
        assert gbps_to_mb_per_ms(10.0) == 10.0
        assert mb_per_ms_to_gbps(100.0) == 100.0

    def test_time_roundtrip(self):
        assert us_to_ms(20.0) == pytest.approx(0.02)
        assert ms_to_us(us_to_ms(20.0)) == pytest.approx(20.0)


class TestRng:
    def test_ensure_rng_from_seed(self):
        a = ensure_rng(42)
        b = ensure_rng(42)
        assert a.random() == b.random()

    def test_ensure_rng_passthrough(self):
        gen = np.random.default_rng(1)
        assert ensure_rng(gen) is gen

    def test_ensure_rng_from_seed_sequence(self):
        seq = np.random.SeedSequence(5)
        gen = ensure_rng(seq)
        assert isinstance(gen, np.random.Generator)

    def test_ensure_rng_rejects_junk(self):
        with pytest.raises(TypeError):
            ensure_rng("seed")

    def test_spawn_rngs_independent_and_reproducible(self):
        first = [g.random() for g in spawn_rngs(7, 3)]
        second = [g.random() for g in spawn_rngs(7, 3)]
        assert first == second
        assert len(set(first)) == 3

    def test_spawn_rngs_rejects_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 1.5) == 1.5
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                check_positive("x", bad)

    def test_check_nonnegative(self):
        assert check_nonnegative("x", 0.0) == 0.0
        with pytest.raises(ValueError):
            check_nonnegative("x", -0.1)

    def test_check_demand_matrix_copies(self):
        original = np.ones((2, 2))
        checked = check_demand_matrix(original)
        checked[0, 0] = 9.0
        assert original[0, 0] == 1.0

    def test_check_demand_matrix_rejects(self):
        with pytest.raises(ValueError):
            check_demand_matrix(np.ones((2, 3)))
        with pytest.raises(ValueError):
            check_demand_matrix(np.ones(4))
        with pytest.raises(ValueError):
            check_demand_matrix(np.array([[np.inf, 0], [0, 0]]))
        with pytest.raises(ValueError):
            check_demand_matrix(np.empty((0, 0)))

    def test_check_demand_matrix_rectangular_allowed(self):
        arr = check_demand_matrix(np.ones((2, 3)), square=False)
        assert arr.shape == (2, 3)

    def test_check_permutation_partial_vs_full(self):
        # matching_from_permutation checks a partial or a full permutation.
        partial = np.zeros((3, 3), dtype=int)
        partial[0, 1] = 1
        np.testing.assert_array_equal(matching_from_permutation(partial), [1, -1, -1])
        full = np.eye(3, dtype=int)
        np.testing.assert_array_equal(matching_from_permutation(full), [0, 1, 2])

    def test_check_permutation_rejects_values(self):
        with pytest.raises(ValueError):
            matching_from_permutation(np.full((2, 2), 2))

    def test_check_matching_returns_a_frozen_int64_copy(self):
        matching = np.array([2, -1, 0], dtype=np.int8)
        checked = check_matching(matching)
        assert checked.dtype == np.int64 and not checked.flags.writeable
        matching[0] = 1
        np.testing.assert_array_equal(checked, [2, -1, 0])
