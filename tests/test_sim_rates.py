"""Tests for the max-min fair EPS rate allocation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sim.rates import max_min_fair_rate_matrix, max_min_fair_rates
from repro.sim.reference import reference_max_min_fair_rates


def caps(n, value=10.0):
    return np.full(n, value)


class TestMaxMinFairRates:
    def test_single_flow_gets_full_capacity(self):
        rates = max_min_fair_rates(np.array([0]), np.array([0]), caps(2), caps(2))
        assert rates[0] == pytest.approx(10.0)

    def test_fanout_shares_input_port(self):
        # One sender to 4 receivers: input port is the bottleneck.
        rows = np.zeros(4, dtype=int)
        cols = np.arange(4)
        rates = max_min_fair_rates(rows, cols, caps(4), caps(4))
        np.testing.assert_allclose(rates, 2.5)

    def test_fanin_shares_output_port(self):
        rows = np.arange(4)
        cols = np.zeros(4, dtype=int)
        rates = max_min_fair_rates(rows, cols, caps(4), caps(4))
        np.testing.assert_allclose(rates, 2.5)

    def test_asymmetric_water_filling(self):
        # Flows: A:0->0, B:0->1, C:1->1.  Input 0 gives A and B 5 each;
        # output 1 then has 5 left for C... C is limited only by out 1:
        # progressive filling: all grow to 5 (input 0 saturates), C keeps
        # growing to 10 - 5 = ... out_1 remaining = 10 - 5 = 5 more, so
        # C = 5 + ... C's ports: in_1 (10) and out_1 (shared with B).
        rows = np.array([0, 0, 1])
        cols = np.array([0, 1, 1])
        rates = max_min_fair_rates(rows, cols, caps(2), caps(2))
        assert rates[0] == pytest.approx(5.0)
        assert rates[1] == pytest.approx(5.0)
        assert rates[2] == pytest.approx(5.0)
        # C ends at 5: out_1 capacity 10 split after B froze at 5.

    def test_no_flows(self):
        rates = max_min_fair_rates(np.array([], dtype=int), np.array([], dtype=int), caps(2), caps(2))
        assert rates.size == 0

    def test_zero_capacity_port_gives_zero_rate(self):
        in_caps = np.array([0.0, 10.0])
        rates = max_min_fair_rates(np.array([0, 1]), np.array([0, 1]), in_caps, caps(2))
        assert rates[0] == 0.0
        assert rates[1] == pytest.approx(10.0)

    def test_capacities_never_exceeded(self):
        rng = np.random.default_rng(0)
        n = 16
        mask = rng.random((n, n)) < 0.4
        in_caps = rng.uniform(1, 10, n)
        out_caps = rng.uniform(1, 10, n)
        rates = max_min_fair_rate_matrix(mask, in_caps, out_caps)
        assert (rates.sum(axis=1) <= in_caps + 1e-9).all()
        assert (rates.sum(axis=0) <= out_caps + 1e-9).all()

    def test_allocation_is_maximal(self):
        # Max-min is Pareto-maximal: every flow crosses >= 1 saturated port.
        rng = np.random.default_rng(1)
        n = 12
        mask = rng.random((n, n)) < 0.5
        in_caps = caps(n, 7.0)
        out_caps = caps(n, 9.0)
        rates = max_min_fair_rate_matrix(mask, in_caps, out_caps)
        in_used = rates.sum(axis=1)
        out_used = rates.sum(axis=0)
        rows, cols = np.nonzero(mask)
        for i, j in zip(rows, cols):
            in_sat = in_used[i] >= in_caps[i] - 1e-6
            out_sat = out_used[j] >= out_caps[j] - 1e-6
            assert in_sat or out_sat, f"flow ({i},{j}) could still grow"

    def test_max_min_fairness_property(self):
        # No flow can be raised without lowering an equal-or-smaller flow:
        # equivalently, for each flow some bottleneck port it crosses has
        # all its capacity consumed by flows with rate >= this flow's rate
        # ... verified via the standard bottleneck-port characterization.
        rng = np.random.default_rng(2)
        n = 10
        mask = rng.random((n, n)) < 0.5
        rates = max_min_fair_rate_matrix(mask, caps(n), caps(n))
        rows, cols = np.nonzero(mask)
        flow_rates = rates[rows, cols]
        in_used = rates.sum(axis=1)
        out_used = rates.sum(axis=0)
        for k in range(rows.size):
            i, j = rows[k], cols[k]
            bottleneck = False
            if in_used[i] >= 10.0 - 1e-6 and flow_rates[k] >= rates[i, :].max() - 1e-6:
                bottleneck = True
            if out_used[j] >= 10.0 - 1e-6 and flow_rates[k] >= rates[:, j].max() - 1e-6:
                bottleneck = True
            assert bottleneck, f"flow ({i},{j}) has no bottleneck port"

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            max_min_fair_rates(np.array([0]), np.array([0]), np.array([-1.0]), caps(1))

    def test_rejects_mismatched_indices(self):
        with pytest.raises(ValueError):
            max_min_fair_rates(np.array([0, 1]), np.array([0]), caps(2), caps(2))

    def test_matrix_wrapper_shape(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 1] = True
        rates = max_min_fair_rate_matrix(mask, caps(3), caps(3))
        assert rates.shape == (3, 3)
        assert rates[0, 1] == pytest.approx(10.0)
        assert rates.sum() == pytest.approx(10.0)


# Capacities mix zero, sub-tolerance (< 1e-12), tied and arbitrary values:
# zero and sub-tolerance ports freeze their flows in the first round, ties
# saturate several ports at once, and arbitrary values stagger the
# bottlenecks so that many solves need three or more rounds.
_CAPACITY = st.one_of(
    st.just(0.0),
    st.floats(0.0, 1e-12),
    st.sampled_from([1.0, 2.5, 10.0]),
    st.floats(1e-12, 20.0),
)


@st.composite
def waterfill_cases(draw):
    n_in = draw(st.integers(1, 8))
    n_out = draw(st.integers(1, 8))
    n_flows = draw(st.integers(0, 24))
    # Endpoints are drawn independently, so flows share ports and may
    # even repeat a (row, col) pair.
    rows = draw(arrays(np.int64, n_flows, elements=st.integers(0, n_in - 1)))
    cols = draw(arrays(np.int64, n_flows, elements=st.integers(0, n_out - 1)))
    in_cap = draw(arrays(np.float64, n_in, elements=_CAPACITY))
    out_cap = draw(arrays(np.float64, n_out, elements=_CAPACITY))
    return rows, cols, in_cap, out_cap


def _levels(rates: np.ndarray) -> int:
    """Distinct positive rates: each filling round freezes at most one."""
    return np.unique(rates[rates > 0]).size


class TestMatchesFrozenProgressiveFilling:
    """The one-axis fill must be bit-identical to two-axis progressive
    filling (:func:`repro.sim.reference.reference_max_min_fair_rates`)."""

    @given(case=waterfill_cases())
    @settings(max_examples=400, deadline=None)
    def test_bit_identical_to_frozen_copy(self, case):
        rows, cols, in_cap, out_cap = case
        live = max_min_fair_rates(rows, cols, in_cap, out_cap)
        frozen = reference_max_min_fair_rates(rows, cols, in_cap, out_cap)
        assert live.dtype == frozen.dtype
        assert live.tobytes() == frozen.tobytes()

    def test_inputs_are_not_modified(self):
        in_cap = np.array([3.0, 5.0])
        out_cap = np.array([4.0, 0.0])
        max_min_fair_rates(np.array([0, 1, 1]), np.array([0, 0, 1]), in_cap, out_cap)
        np.testing.assert_array_equal(in_cap, [3.0, 5.0])
        np.testing.assert_array_equal(out_cap, [4.0, 0.0])

    @pytest.mark.parametrize("seed", range(20))
    def test_staggered_bottlenecks_need_many_rounds(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        rows, cols = np.nonzero(rng.random((n, n)) < 0.3)
        in_cap = rng.uniform(0.5, 10.0, n)
        out_cap = rng.uniform(0.5, 10.0, n)
        in_cap[rng.random(n) < 0.2] = 0.0
        out_cap[rng.random(n) < 0.2] = 5e-13
        live = max_min_fair_rates(rows, cols, in_cap, out_cap)
        frozen = reference_max_min_fair_rates(rows, cols, in_cap, out_cap)
        assert _levels(frozen) >= 3
        assert live.tobytes() == frozen.tobytes()
