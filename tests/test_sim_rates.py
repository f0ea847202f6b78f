"""Tests for the max-min fair EPS rate allocation."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sim import rates as rates_module
from repro.sim.rates import hub_leaf_quotient, max_min_fair_rates
from repro.sim.reference import reference_max_min_fair_rates


def caps(n, value=10.0):
    return np.full(n, value)


def port_sums(ports, rates, n):
    """The rate each of ``n`` ports carries over the flows through it."""
    return np.bincount(ports, weights=rates, minlength=n)


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
        rows, cols = np.nonzero(mask)
        rates = max_min_fair_rates(rows, cols, in_caps, out_caps)
        assert (port_sums(rows, rates, n) <= in_caps + 1e-9).all()
        assert (port_sums(cols, rates, n) <= out_caps + 1e-9).all()

    def test_allocation_is_maximal(self):
        # Max-min is Pareto-maximal: every flow crosses >= 1 saturated port.
        rng = np.random.default_rng(1)
        n = 12
        mask = rng.random((n, n)) < 0.5
        in_caps = caps(n, 7.0)
        out_caps = caps(n, 9.0)
        rows, cols = np.nonzero(mask)
        rates = max_min_fair_rates(rows, cols, in_caps, out_caps)
        in_used = port_sums(rows, rates, n)
        out_used = port_sums(cols, rates, n)
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
        rows, cols = np.nonzero(mask)
        flow_rates = max_min_fair_rates(rows, cols, caps(n), caps(n))
        in_used = port_sums(rows, flow_rates, n)
        out_used = port_sums(cols, flow_rates, n)
        for k in range(rows.size):
            i, j = rows[k], cols[k]
            bottleneck = False
            if in_used[i] >= 10.0 - 1e-6 and flow_rates[k] >= flow_rates[rows == i].max() - 1e-6:
                bottleneck = True
            if out_used[j] >= 10.0 - 1e-6 and flow_rates[k] >= flow_rates[cols == j].max() - 1e-6:
                bottleneck = True
            assert bottleneck, f"flow ({i},{j}) has no bottleneck port"

    def test_rejects_negative_capacity(self):
        with pytest.raises(ValueError):
            max_min_fair_rates(np.array([0]), np.array([0]), np.array([-1.0]), caps(1))

    def test_rejects_mismatched_indices(self):
        with pytest.raises(ValueError):
            max_min_fair_rates(np.array([0, 1]), np.array([0]), caps(2), caps(2))


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


# Uniform capacities: integers, where shares tie across ports, and
# fractions, whose remainders round to a few ulps instead of zero.
_UNIFORM_CAPACITY = st.one_of(
    st.sampled_from([1.0, 2.0, 3.0, 10.0, 0.1, 1 / 3, 2.5, 7.3]),
    st.floats(0.01, 20.0),
)


@st.composite
def hub_leaf_cases(draw):
    """Flows on up to 12 ports: dense hub rows and columns, random extra
    flows and pairs (one-flow ports, isolated pairs and hub–hub flows all
    occur), a capacity, and two rounds of drains."""
    n = draw(st.integers(2, 12))
    mask = np.zeros((n, n), dtype=bool)
    for row in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        mask[row] |= draw(arrays(np.bool_, n))
    for col in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        mask[:, col] |= draw(arrays(np.bool_, n))
    ports = st.integers(0, n - 1)
    for row, col in draw(st.lists(st.tuples(ports, ports), max_size=6)):
        mask[row, col] = True
    rows, cols = np.nonzero(mask)
    drains = draw(st.lists(arrays(np.bool_, rows.size), min_size=2, max_size=2))
    return n, rows, cols, draw(_UNIFORM_CAPACITY), drains


class TestHubLeafQuotient:
    """The quotient's scalar filling gives every flow the bits of the
    port-level solve, before and after drains."""

    @staticmethod
    def assert_port_level_bits(quotient, rows, cols, alive, capacity, n):
        rates = np.take(quotient.rates(), quotient.flow_class[alive])
        ports = max_min_fair_rates(rows[alive], cols[alive], caps(n, capacity), caps(n, capacity))
        assert rates.tobytes() == ports.tobytes()
        assert float(rates.sum()) == float(ports.sum())

    @given(case=hub_leaf_cases())
    @settings(max_examples=400, deadline=None)
    def test_bit_identical_to_port_level_solve(self, case):
        n, rows, cols, capacity, drains = case
        with mock.patch.object(rates_module, "QUOTIENT_MAX_HUBS", 2 * n):
            quotient = hub_leaf_quotient(rows, cols, capacity)
        alive = np.ones(rows.size, dtype=bool)
        for drain in drains:
            self.assert_port_level_bits(quotient, rows, cols, alive, capacity, n)
            for flow in np.flatnonzero(drain & alive).tolist():
                quotient.drain(int(quotient.flow_class[flow]), 1)
            alive &= ~drain
        self.assert_port_level_bits(quotient, rows, cols, alive, capacity, n)

    def test_classes_of_a_hub_row_and_column(self):
        # Row 0 and column 5 are hubs, (0, 5) a hub–hub flow, (3, 0) an
        # isolated pair: four classes, one per pair of nodes.
        mask = np.zeros((6, 6), dtype=bool)
        mask[0, 1:] = True
        mask[1:3, 5] = True
        mask[3, 0] = True
        rows, cols = np.nonzero(mask)
        quotient = hub_leaf_quotient(rows, cols, 10.0)
        classes = {(int(r), int(c)): int(k) for r, c, k in zip(rows, cols, quotient.flow_class)}
        assert len(set(classes.values())) == 4
        assert classes[(0, 1)] == classes[(0, 2)] == classes[(0, 4)]
        assert classes[(1, 5)] == classes[(2, 5)]
        assert len({classes[(0, 1)], classes[(0, 5)], classes[(1, 5)], classes[(3, 0)]}) == 4
        # Row 0 (five flows) and column 5 (three) share 10 each: 2 per row
        # flow, (1, 5) and (2, 5) take the rest of column 5, and the
        # isolated pair runs at the full 10.
        rates = quotient.rates()
        assert rates[classes[(0, 1)]] == rates[classes[(0, 5)]] == 2.0
        assert rates[classes[(1, 5)]] == 4.0
        assert rates[classes[(3, 0)]] == 10.0

    def test_refused_above_the_hub_bound(self, monkeypatch):
        rows, cols = np.nonzero(np.ones((3, 3), dtype=bool))  # six hubs
        monkeypatch.setattr(rates_module, "QUOTIENT_MAX_HUBS", 6)
        assert hub_leaf_quotient(rows, cols, 10.0) is not None
        monkeypatch.setattr(rates_module, "QUOTIENT_MAX_HUBS", 5)
        assert hub_leaf_quotient(rows, cols, 10.0) is None
