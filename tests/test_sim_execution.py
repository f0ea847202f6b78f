"""Tests for end-to-end schedule execution (hybrid and cp simulations)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scheduler import CpSwitchScheduler
from repro.hybrid.eclipse import EclipseScheduler
from repro.hybrid.schedule import Schedule, ScheduleEntry
from repro.hybrid.solstice import SolsticeScheduler
from repro.sim import simulate_cp, simulate_hybrid
from repro.switch.params import fast_ocs_params


@pytest.fixture
def params():
    return fast_ocs_params(8)


class TestSimulateHybrid:
    def test_empty_schedule_is_eps_only(self, params):
        demand = np.zeros((8, 8))
        demand[0, 1] = 30.0
        schedule = Schedule(entries=(), reconfig_delay=params.reconfig_delay)
        result = simulate_hybrid(demand, schedule, params)
        assert result.completion_time == pytest.approx(3.0)  # 30 Mb at Ce
        assert result.served_eps == pytest.approx(30.0)
        assert result.n_configs == 0

    def test_circuit_speeds_up_completion(self, params):
        demand = np.zeros((8, 8))
        demand[0, 1] = 30.0
        matching = np.full(8, -1)
        matching[0] = 1
        schedule = Schedule(
            entries=(ScheduleEntry(matching=matching, duration=0.3),),
            reconfig_delay=params.reconfig_delay,
        )
        result = simulate_hybrid(demand, schedule, params)
        # δ = 0.02 of EPS-only (serves 0.2 Mb), then the circuit drains the
        # rest at 100 Mb/ms.
        assert result.completion_time == pytest.approx(0.02 + 29.8 / 100.0)
        assert result.completion_time < 3.0

    def test_solstice_schedule_executes_fully(self, params, sparse_demand):
        schedule = SolsticeScheduler().schedule(sparse_demand, params)
        result = simulate_hybrid(sparse_demand, schedule, params)
        result.check_conservation()
        assert result.completion_time > 0
        assert result.n_configs == schedule.n_configs

    def test_finish_times_cover_all_demanded_entries(self, params, sparse_demand):
        schedule = SolsticeScheduler().schedule(sparse_demand, params)
        result = simulate_hybrid(sparse_demand, schedule, params)
        demanded = sparse_demand > 0
        assert not np.isnan(result.finish_times[demanded]).any()
        assert np.isnan(result.finish_times[~demanded]).all()

    def test_rejects_reduced_schedule(self, params, sparse_demand):
        cp_schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(sparse_demand, params)
        with pytest.raises(ValueError):
            simulate_hybrid(sparse_demand, cp_schedule.reduced_schedule, params)


class TestSimulateCp:
    def test_cp_beats_h_on_skewed_demand(self, skewed_demand16):
        params = fast_ocs_params(16)
        h_schedule = SolsticeScheduler().schedule(skewed_demand16, params)
        h_result = simulate_hybrid(skewed_demand16, h_schedule, params)
        cp_schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(skewed_demand16, params)
        cp_result = simulate_cp(skewed_demand16, cp_schedule, params)
        assert cp_result.completion_time < h_result.completion_time
        assert cp_result.n_configs < h_result.n_configs
        cp_result.check_conservation()

    def test_composite_volume_flows_through_ocs(self, params, skewed_demand):
        cp_schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(skewed_demand, params)
        result = simulate_cp(skewed_demand, cp_schedule, params)
        assert result.served_composite > 0
        # Composite traffic counts towards the OCS volume integral.
        assert result.ocs_volume_by(result.completion_time) >= result.served_composite - 1e-6

    def test_leftover_filtered_demand_drains_on_eps(self, params):
        # A short schedule that cannot finish the composite demand.
        demand = np.zeros((8, 8))
        demand[0, 1:8] = 5.0
        scheduler = CpSwitchScheduler(EclipseScheduler(window=0.05))
        cp_schedule = scheduler.schedule(demand, params)
        result = simulate_cp(demand, cp_schedule, params)
        result.check_conservation()
        assert result.served_eps > 0

    def test_simulated_composite_residual_matches_scheduler(self, params, skewed_demand):
        # CPSched (closed form, used by the scheduler) and the fluid engine
        # must agree on what the composite paths deliver.
        cp_schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(skewed_demand, params)
        result = simulate_cp(skewed_demand, cp_schedule, params)
        expected_served = cp_schedule.reduction.filtered.sum() - cp_schedule.filtered_residual.sum()
        assert result.served_composite == pytest.approx(expected_served, rel=1e-6)

    def test_eclipse_window_fraction_improves(self, skewed_demand16):
        params = fast_ocs_params(16)
        window = 1.0
        h_schedule = EclipseScheduler().schedule(skewed_demand16, params)
        h_result = simulate_hybrid(skewed_demand16, h_schedule, params)
        cp_schedule = CpSwitchScheduler(EclipseScheduler()).schedule(skewed_demand16, params)
        cp_result = simulate_cp(skewed_demand16, cp_schedule, params)
        assert cp_result.ocs_fraction_within(window) > h_result.ocs_fraction_within(window)


class TestSimulateMultipath:
    def test_k1_completion_matches_cp_on_skewed_fixture(self, params, skewed_demand):
        # One path is Algorithm 4: the same schedule and the same run.
        base = CpSwitchScheduler(SolsticeScheduler()).schedule(skewed_demand, params)
        multi = CpSwitchScheduler(SolsticeScheduler(), n_paths=1).schedule(
            skewed_demand, params
        )
        base_result = simulate_cp(skewed_demand, base, params)
        multi_result = simulate_cp(skewed_demand, multi, params)
        np.testing.assert_array_equal(multi_result.finish_times, base_result.finish_times)
        assert multi_result.completion_time == base_result.completion_time

    def test_two_paths_help_two_skewed_senders(self):
        # Two one-to-many senders compete for the single composite path;
        # with k = 2 they are served concurrently.
        params = fast_ocs_params(16)
        demand = np.zeros((16, 16))
        demand[0, 1:16] = 1.0
        demand[1, np.r_[0, 2:16]] = 1.0
        single = CpSwitchScheduler(SolsticeScheduler(), n_paths=1).schedule(demand, params)
        double = CpSwitchScheduler(SolsticeScheduler(), n_paths=2).schedule(demand, params)
        r1 = simulate_cp(demand, single, params)
        r2 = simulate_cp(demand, double, params)
        assert r2.completion_time <= r1.completion_time + 1e-9
        r2.check_conservation()

    def test_conservation(self, params, sparse_demand):
        multi = CpSwitchScheduler(SolsticeScheduler(), n_paths=3).schedule(
            sparse_demand, params
        )
        result = simulate_cp(sparse_demand, multi, params)
        result.check_conservation()


class TestMetricsSurface:
    def test_coflow_completion_subset(self, params, skewed_demand):
        cp_schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(skewed_demand, params)
        result = simulate_cp(skewed_demand, cp_schedule, params)
        o2m_mask = np.zeros((8, 8), dtype=bool)
        o2m_mask[0, 1:8] = True
        o2m_completion = result.coflow_completion(o2m_mask)
        assert 0 < o2m_completion <= result.completion_time + 1e-12

    def test_volume_integrals_monotone(self, params, sparse_demand):
        schedule = SolsticeScheduler().schedule(sparse_demand, params)
        result = simulate_hybrid(sparse_demand, schedule, params)
        t_end = result.completion_time
        previous = 0.0
        for t in np.linspace(0, t_end, 7):
            current = result.ocs_volume_by(float(t))
            assert current >= previous - 1e-9
            previous = current

    def test_full_window_integral_equals_served(self, params, sparse_demand):
        schedule = SolsticeScheduler().schedule(sparse_demand, params)
        result = simulate_hybrid(sparse_demand, schedule, params)
        total = result.ocs_volume_by(result.completion_time + 1.0)
        assert total == pytest.approx(result.served_ocs_direct, rel=1e-9)
