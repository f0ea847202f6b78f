"""Property-based tests (hypothesis) for the core invariants.

Each property is one the paper's correctness rests on:

* QuickStuff: stuffed >= demand, all row/column sums equal.
* BigSlice / Solstice: slicing preserves the equal-sum invariant; the
  schedule plus the EPS covers the demand.
* Algorithm 1: volume conservation, disjoint path assignment, filter
  soundness (nothing above Bt, no under-Rt rows/columns).
* CPSched: never negative, monotone in duration, rate caps respected.
* Max-min fairness: capacities respected, allocation maximal.
* The end-to-end pipeline conserves volume for arbitrary demands.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.cpsched import cpsched
from repro.core.reduction import cp_switch_demand_reduction
from repro.core.scheduler import CpSwitchScheduler
from repro.hybrid.solstice.scheduler import SolsticeScheduler
from repro.hybrid.solstice.stuffing import quick_stuff
from repro.matching.birkhoff import birkhoff_von_neumann, recompose
from repro.sim import simulate_cp, simulate_hybrid
from repro.sim.rates import max_min_fair_rates
from repro.switch.params import fast_ocs_params
from repro.utils.validation import VOLUME_TOL


def demand_matrices(max_n: int = 7, max_value: float = 20.0):
    """Strategy: square non-negative demand matrices with some sparsity."""
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda n: st.tuples(
            arrays(
                np.float64,
                (n, n),
                elements=st.floats(0.0, max_value, allow_nan=False, width=32),
            ),
            arrays(np.bool_, (n, n)),
        ).map(lambda pair: pair[0] * pair[1])
    )


class TestStuffingProperties:
    @given(demand=demand_matrices())
    @settings(max_examples=60, deadline=None)
    def test_stuffed_dominates_and_equalizes(self, demand):
        stuffed = quick_stuff(demand)
        assert (stuffed >= demand - 1e-9).all()
        if stuffed.sum() > VOLUME_TOL:
            sums = np.concatenate([stuffed.sum(axis=0), stuffed.sum(axis=1)])
            phi = max(demand.sum(axis=0).max(), demand.sum(axis=1).max())
            np.testing.assert_allclose(sums, phi, rtol=1e-9, atol=1e-9)

    @given(demand=demand_matrices(max_n=5))
    @settings(max_examples=30, deadline=None)
    def test_stuffed_fully_decomposes(self, demand):
        stuffed = quick_stuff(demand)
        terms = birkhoff_von_neumann(stuffed)
        np.testing.assert_allclose(
            recompose(terms, stuffed.shape[0]), stuffed, atol=1e-6
        )


class TestReductionProperties:
    @given(
        demand=demand_matrices(),
        fanout=st.integers(min_value=1, max_value=6),
        volume=st.floats(0.5, 25.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_conservation_and_block_identity(self, demand, fanout, volume):
        reduction = cp_switch_demand_reduction(demand, fanout, volume)
        n = demand.shape[0]
        np.testing.assert_allclose(reduction.reduced.sum(), demand.sum(), rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(
            reduction.reduced[:n, :n], demand - reduction.filtered, atol=1e-9
        )
        # Composite corner is always empty.
        assert reduction.reduced[n, n] == 0.0

    @given(
        demand=demand_matrices(),
        fanout=st.integers(min_value=1, max_value=6),
        volume=st.floats(0.5, 25.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_filter_soundness(self, demand, fanout, volume):
        reduction = cp_switch_demand_reduction(demand, fanout, volume)
        filtered_entries = reduction.filtered[reduction.filtered > 0]
        # Nothing above Bt rides a composite path.
        assert (filtered_entries <= volume + 1e-9).all()
        # Every filtered entry sits in a row or column that qualified.
        low = demand.copy()
        low[low > volume] = 0.0
        nonzero = low > VOLUME_TOL
        rows_ok = nonzero.sum(axis=1) >= fanout
        cols_ok = nonzero.sum(axis=0) >= fanout
        mask = reduction.filtered > 0
        rows, cols = np.nonzero(mask)
        for i, j in zip(rows, cols):
            assert rows_ok[i] or cols_ok[j]

    @given(
        demand=demand_matrices(),
        fanout=st.integers(min_value=1, max_value=6),
        volume=st.floats(0.5, 25.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_assignments_disjoint(self, demand, fanout, volume):
        # Each filtered entry rides one composite path, so the one-to-many
        # and many-to-one aggregates add up to Df, not more.
        reduction = cp_switch_demand_reduction(demand, fanout, volume)
        loads = reduction.o2m_loads.sum() + reduction.m2o_loads.sum()
        np.testing.assert_allclose(loads, reduction.filtered.sum(), rtol=1e-12, atol=1e-12)


class TestCpschedProperties:
    @given(
        demands=arrays(
            np.float64, (10,), elements=st.floats(0.0, 50.0, allow_nan=False, width=32)
        ),
        duration=st.floats(0.0, 10.0, allow_nan=False),
    )
    @settings(max_examples=80, deadline=None)
    def test_nonnegative_and_bounded(self, demands, duration):
        remaining = cpsched(demands, duration, ocs_rate=100.0, eps_rate=10.0)
        assert (remaining >= 0.0).all()
        assert (remaining <= demands + 1e-9).all()

    @given(
        demands=arrays(
            np.float64, (8,), elements=st.floats(0.0, 50.0, allow_nan=False, width=32)
        ),
        duration=st.floats(0.01, 5.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_rate_caps(self, demands, duration):
        ocs_rate, eps_rate = 100.0, 10.0
        remaining = cpsched(demands, duration, ocs_rate, eps_rate)
        served = demands - remaining
        # Total served cannot exceed the OCS leg's capacity...
        assert served.sum() <= duration * ocs_rate + 1e-6
        # ...nor any endpoint its EPS link capacity.
        assert (served <= duration * eps_rate + 1e-6).all()


class TestMaxMinProperties:
    @given(
        mask=arrays(np.bool_, (6, 6)),
        in_caps=arrays(np.float64, (6,), elements=st.floats(0.0, 20.0, allow_nan=False, width=32)),
        out_caps=arrays(np.float64, (6,), elements=st.floats(0.0, 20.0, allow_nan=False, width=32)),
    )
    @settings(max_examples=80, deadline=None)
    def test_capacities_respected_and_maximal(self, mask, in_caps, out_caps):
        rows, cols = np.nonzero(mask)
        rates = max_min_fair_rates(rows, cols, in_caps, out_caps)
        assert (rates >= 0).all()
        in_used = np.bincount(rows, weights=rates, minlength=6)
        out_used = np.bincount(cols, weights=rates, minlength=6)
        assert (in_used <= in_caps + 1e-6).all()
        assert (out_used <= out_caps + 1e-6).all()
        # Maximality: every flow crosses a saturated port.
        for i, j in zip(rows, cols):
            saturated = (
                in_used[i] >= in_caps[i] - 1e-6 or out_used[j] >= out_caps[j] - 1e-6
            )
            assert saturated


class TestEndToEndProperties:
    @given(demand=demand_matrices(max_n=6, max_value=10.0))
    @settings(max_examples=20, deadline=None)
    def test_hybrid_pipeline_conserves_volume(self, demand):
        params = fast_ocs_params(demand.shape[0])
        schedule = SolsticeScheduler().schedule(demand, params)
        result = simulate_hybrid(demand, schedule, params)
        result.check_conservation(tol=1e-5)

    @given(demand=demand_matrices(max_n=6, max_value=10.0))
    @settings(max_examples=20, deadline=None)
    def test_cp_pipeline_conserves_volume(self, demand):
        params = fast_ocs_params(demand.shape[0])
        cp_schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(demand, params)
        result = simulate_cp(demand, cp_schedule, params)
        result.check_conservation(tol=1e-5)
        # Composite bookkeeping is consistent between scheduler and engine.
        expected = (
            cp_schedule.reduction.filtered.sum() - cp_schedule.filtered_residual.sum()
        )
        assert abs(result.served_composite - expected) <= 1e-5 * max(1.0, expected)
