"""Edge-case and failure-injection tests for the fluid engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sim.engine import CompositeService, FluidEngine, TIME_TOL
from repro.switch.params import SwitchParams, fast_ocs_params


def engine_for(demand, **kwargs) -> FluidEngine:
    params = SwitchParams(n_ports=demand.shape[0], **kwargs)
    return FluidEngine(np.asarray(demand, dtype=float), params)


class TestDegenerateInputs:
    def test_empty_demand_finishes_instantly(self):
        engine = engine_for(np.zeros((4, 4)))
        engine.run_phase(None)
        result = engine.result(n_configs=0, makespan=0.0)
        assert result.completion_time == 0.0
        assert result.total_demand == 0.0

    def test_zero_duration_phase_is_noop(self):
        engine = engine_for(np.ones((3, 3)) - np.eye(3))
        engine.run_phase(0.0)
        assert engine.clock == 0.0
        assert engine.residual_total() == pytest.approx(6.0)

    def test_negative_duration_rejected(self):
        engine = engine_for(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            engine.run_phase(-1.0)

    @pytest.mark.parametrize("duration", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_duration_rejected(self, duration):
        # On a drained engine inf used to set clock=inf and served_eps=nan,
        # and nan was a silent no-op.  None is the drain-everything form.
        engine = engine_for(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="duration must be finite"):
            engine.run_phase(duration)
        assert engine.clock == 0.0
        assert engine.served_eps == 0.0

    def test_demand_params_shape_mismatch(self):
        with pytest.raises(ValueError):
            FluidEngine(np.zeros((3, 3)), fast_ocs_params(4))

    def test_tiny_epsilon_demand_drains(self):
        demand = np.zeros((3, 3))
        demand[0, 1] = 1e-8
        engine = engine_for(demand)
        engine.run_phase(None)
        assert engine.residual_total() == 0.0

    def test_huge_demand_drains_exactly(self):
        demand = np.zeros((3, 3))
        demand[0, 1] = 1e6  # 1 Tb
        engine = engine_for(demand)
        engine.run_phase(None)
        assert engine.finish_times[0, 1] == pytest.approx(1e5)  # at Ce=10


class TestCircuitCornerCases:
    def test_circuit_on_empty_entry_idles(self):
        demand = np.zeros((4, 4))
        demand[0, 1] = 5.0
        engine = engine_for(demand)
        circuits = np.array([-1, -1, 3, -1])  # input 2 -> output 3: no demand there
        engine.run_phase(0.3, circuits=circuits)
        assert engine.served_ocs_direct == 0.0
        # EPS still worked on the real entry.
        assert engine.served_eps > 0

    def test_circuit_outlives_its_demand(self):
        demand = np.zeros((4, 4))
        demand[0, 1] = 10.0  # drains in 0.1 ms at Co
        engine = engine_for(demand)
        engine.run_phase(1.0, circuits=np.array([1, -1, -1, -1]))
        assert engine.finish_times[0, 1] == pytest.approx(0.1)
        assert engine.clock == pytest.approx(1.0)  # phase runs to the end
        assert engine.served_ocs_direct == pytest.approx(10.0)

    def test_full_permutation_all_served_in_parallel(self):
        n = 4
        demand = np.full((n, n), 0.0)
        circuits = (np.arange(n) + 1) % n
        demand[np.arange(n), circuits] = 50.0
        engine = engine_for(demand)
        engine.run_phase(1.0, circuits=circuits)
        # All four circuits at Co concurrently: everything done at 0.5 ms.
        finish = engine.finish_times[demand > 0]
        np.testing.assert_allclose(finish, 0.5)


class TestCompositeCornerCases:
    def test_composite_grant_with_no_filtered_demand_is_noop(self):
        demand = np.zeros((4, 4))
        demand[0, 1] = 5.0
        engine = engine_for(demand)
        # No assign_composite: the composite matrix is empty.
        engine.run_phase(0.5, composites=[CompositeService("o2m", 2)])
        assert engine.served_composite == 0.0

    def test_both_directions_same_entry(self):
        # Entry (0, 3) is served by port 0's o2m path AND port 3's m2o path
        # simultaneously; volume must not be double-booked.
        n = 4
        demand = np.zeros((n, n))
        demand[0, 3] = 8.0
        params = SwitchParams(n_ports=n)
        engine = FluidEngine(demand, params)
        engine.assign_composite(demand.copy())
        engine.run_phase(
            1.0,
            composites=[CompositeService("o2m", 0), CompositeService("m2o", 3)],
        )
        engine.merge_composite_into_regular()
        engine.run_phase(None)
        result = engine.result(n_configs=1, makespan=1.0)
        result.check_conservation()
        # Served at up to 2 * min(Ce, Co) = 20 Mb/ms: finishes by 0.4 ms.
        assert engine.finish_times[0, 3] <= 0.4 + 1e-9

    def test_invalid_composite_kind_rejected(self):
        with pytest.raises(ValueError):
            CompositeService("sideways", 0)

    def test_negative_port_rejected(self):
        with pytest.raises(ValueError):
            CompositeService("o2m", -1)


class TestPhaseSequencing:
    def test_many_short_phases_accumulate_clock(self):
        demand = np.zeros((3, 3))
        demand[0, 1] = 100.0
        engine = engine_for(demand)
        for _ in range(10):
            engine.run_phase(0.05)
        assert engine.clock == pytest.approx(0.5)
        assert engine.regular[0, 1] == pytest.approx(95.0)  # EPS at 10

    def test_idle_phase_advances_clock_without_service(self):
        engine = engine_for(np.zeros((3, 3)))
        engine.run_phase(0.7)
        assert engine.clock == pytest.approx(0.7)
        assert engine.served_eps == 0.0

    def test_sub_tolerance_phase_ignored(self):
        engine = engine_for(np.zeros((3, 3)))
        engine.run_phase(TIME_TOL / 10)
        assert engine.clock == 0.0
