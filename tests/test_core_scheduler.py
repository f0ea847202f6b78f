"""Tests for Algorithm 4 — CPSwitchSched (the full cp-Switch scheduler)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.config import FilterConfig
from repro.core.cpsched import cpsched
from repro.core.scheduler import CpSwitchScheduler
from repro.hybrid.eclipse import EclipseScheduler
from repro.hybrid.solstice import SolsticeScheduler
from repro.switch.params import fast_ocs_params


@pytest.fixture
def params():
    return fast_ocs_params(8)


@pytest.fixture
def scheduler():
    return CpSwitchScheduler(SolsticeScheduler())


class TestCpSwitchScheduler:
    def test_name_composes_inner_name(self, scheduler):
        assert scheduler.name == "cp-solstice"

    def test_pure_one_to_many_uses_single_config(self, params, scheduler, skewed_demand):
        cp_schedule = scheduler.schedule(skewed_demand, params)
        # One-to-many + many-to-one fit one permutation: sender 0 to the
        # o2m column and the m2o row to receiver 7 are disjoint circuits.
        assert cp_schedule.n_configs <= 2
        h_schedule = SolsticeScheduler().schedule(skewed_demand, params)
        assert cp_schedule.n_configs < h_schedule.n_configs

    def test_composite_served_matches_cpsched(self, params, skewed_demand):
        scheduler = CpSwitchScheduler(SolsticeScheduler())
        cp_schedule = scheduler.schedule(skewed_demand, params)
        # Replay CPSched manually over the schedule and compare residuals.
        filtered = cp_schedule.reduction.filtered.copy()
        for entry in cp_schedule:
            for port in entry.o2m_ports:
                filtered[port, :] = cpsched(
                    filtered[port, :],
                    entry.duration,
                    params.ocs_rate,
                    params.effective_eps_budget,
                )
            for port in entry.m2o_ports:
                filtered[:, port] = cpsched(
                    filtered[:, port],
                    entry.duration,
                    params.ocs_rate,
                    params.effective_eps_budget,
                )
        np.testing.assert_allclose(filtered, cp_schedule.filtered_residual)

    def test_served_volumes_sum_to_filtered_minus_residual(self, params, scheduler, skewed_demand):
        cp_schedule = scheduler.schedule(skewed_demand, params)
        total_served = sum(entry.composite_volume for entry in cp_schedule)
        expected = cp_schedule.reduction.filtered.sum() - cp_schedule.filtered_residual.sum()
        assert total_served == pytest.approx(expected)

    def test_composite_served_is_nonnegative(self, params, scheduler, sparse_demand):
        cp_schedule = scheduler.schedule(sparse_demand, params)
        for entry in cp_schedule:
            assert entry.composite_volume >= 0.0

    def test_no_filterable_demand_degenerates_to_h_switch(self, params):
        # A diagonal demand has fan-out 1 everywhere: nothing is filtered
        # and the cp-Switch schedule equals the h-Switch schedule.
        demand = np.diag(np.full(8, 5.0))
        cp_schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(demand, params)
        h_schedule = SolsticeScheduler().schedule(demand, params)
        assert cp_schedule.reduction.composite_volume == 0.0
        assert cp_schedule.n_configs == h_schedule.n_configs
        for cp_entry, h_entry in zip(cp_schedule, h_schedule):
            np.testing.assert_array_equal(cp_entry.matching, h_entry.matching)
            assert cp_entry.duration == pytest.approx(h_entry.duration)

    def test_works_with_eclipse_inner(self, params, skewed_demand):
        scheduler = CpSwitchScheduler(EclipseScheduler())
        cp_schedule = scheduler.schedule(skewed_demand, params)
        assert scheduler.name == "cp-eclipse"
        assert cp_schedule.composite_volume_served > 0

    def test_makespan_counts_reconfigurations(self, params, scheduler, skewed_demand):
        cp_schedule = scheduler.schedule(skewed_demand, params)
        circuit_time = sum(entry.duration for entry in cp_schedule)
        assert cp_schedule.makespan == pytest.approx(
            circuit_time + cp_schedule.n_configs * params.reconfig_delay
        )

    def test_radix_mismatch_rejected(self, scheduler):
        with pytest.raises(ValueError):
            scheduler.schedule(np.zeros((4, 4)), fast_ocs_params(8))

    def test_reordered_preserves_entries(self, params, scheduler, skewed_demand):
        cp_schedule = scheduler.schedule(skewed_demand, params)
        order = list(range(cp_schedule.n_configs))[::-1]
        reordered = cp_schedule.reordered(order)
        assert reordered.n_configs == cp_schedule.n_configs
        assert reordered.makespan == pytest.approx(cp_schedule.makespan)
        assert reordered.entries[0] is cp_schedule.entries[-1]

    def test_filter_config_is_honored(self, params, skewed_demand):
        # An impossible fan-out threshold disables composite paths entirely.
        strict = CpSwitchScheduler(
            SolsticeScheduler(), filter_config=FilterConfig(fanout_threshold=1000)
        )
        cp_schedule = strict.schedule(skewed_demand, params)
        assert cp_schedule.reduction.composite_volume == 0.0


class TestScheduleImmutability:
    def test_filtered_residual_read_only(self, params, scheduler, skewed_demand):
        cp_schedule = scheduler.schedule(skewed_demand, params)
        with pytest.raises(ValueError):
            cp_schedule.filtered_residual[0, 0] = 1.0

    def test_entry_arrays_read_only(self, params, scheduler, skewed_demand):
        cp_schedule = scheduler.schedule(skewed_demand, params)
        entry = cp_schedule.entries[0]
        with pytest.raises(ValueError):
            entry.matching[0] = 1



@st.composite
def filterable_demands(draw):
    """A radix-4-10 demand whose small entries (at most Bt = 2 Mb on a
    fast OCS) fill some lines, next to a few larger ones."""
    n = draw(st.integers(4, 10))
    small = draw(arrays(np.float64, (n, n), elements=st.floats(0.001, 2.0)))
    present = draw(arrays(np.bool_, (n, n)))
    large = draw(arrays(np.float64, (n, n), elements=st.sampled_from([0.0, 0.0, 30.0])))
    return np.where(present, small, large) * ~np.eye(n, dtype=bool)


def assert_matches_whole_matrix_replay(schedule, params):
    """Replay the schedule's grants on a copy of its filtered demand, each
    over its port's whole row (one-to-many) or column (many-to-one), and
    take each entry's ``Df,prev − Df`` over the whole matrix: its sum is
    the entry's ``composite_volume`` within 1e-12 (the two add the same
    differences in another order), and the replay ends on the bits of
    ``filtered_residual``."""
    filtered = schedule.reduction.filtered.copy()
    for entry in schedule.entries:
        previous = filtered.copy()
        lines = [(port, slice(None)) for port in entry.o2m_ports]
        lines += [(slice(None), port) for port in entry.m2o_ports]
        for line in lines:
            filtered[line] = cpsched(
                filtered[line], entry.duration, params.ocs_rate, params.effective_eps_budget
            )
        served = (previous - filtered).sum()
        assert entry.composite_volume == pytest.approx(served, rel=1e-12, abs=0.0)
    assert filtered.tobytes() == schedule.filtered_residual.tobytes()


class TestCompositeServedMatchesWholeMatrix:
    """``composite_volume`` is summed from the granted lines only; it
    agrees with the whole-matrix ``Df,prev − Df``."""

    @given(demand=filterable_demands(), use_eclipse=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_interpret(self, demand, use_eclipse):
        params = fast_ocs_params(demand.shape[0])
        inner = EclipseScheduler() if use_eclipse else SolsticeScheduler()
        schedule = CpSwitchScheduler(inner).schedule(demand, params)
        assert_matches_whole_matrix_replay(schedule, params)

    @given(demand=filterable_demands(), k=st.integers(1, 3))
    @settings(max_examples=150, deadline=None)
    def test_k_path_loop(self, demand, k):
        params = fast_ocs_params(demand.shape[0])
        schedule = CpSwitchScheduler(SolsticeScheduler(), n_paths=k).schedule(
            demand, params
        )
        assert_matches_whole_matrix_replay(schedule, params)
