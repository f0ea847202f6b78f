"""Tests for the fault-injection subsystem.

Covers the :mod:`repro.faults` package itself (plan validation, injector
determinism), the engine/simulator hooks (EPS degradation, composite
release), the graceful cp-Switch → h-Switch degradation path, and the
closed-loop controller's dead-port exclusion.  The load-bearing invariants:

* a zero-fault plan reproduces the fault-free simulation **bit-identically**;
* volume conservation holds under every fault mix;
* demand parked on a dead composite path is *released*, never lost.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.controller import EpochController
from repro.analysis.robustness import fault_trial
from repro.core.reduction import cp_switch_demand_reduction
from repro.core.scheduler import CpSwitchScheduler
from repro.faults import FaultInjector, FaultPlan, FaultSummary, as_injector
from repro.hybrid.solstice import SolsticeScheduler
from repro.sim import simulate_cp, simulate_hybrid
from repro.sim.engine import FluidEngine
from repro.switch.params import fast_ocs_params


class TestFaultPlan:
    def test_default_is_null(self):
        plan = FaultPlan()
        assert plan.is_null
        assert not FaultPlan(circuit_failure_rate=0.1).is_null
        assert not FaultPlan(o2m_outage_rate=1.0).is_null

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"reconfig_failure_rate": -0.1},
            {"reconfig_failure_rate": 1.1},
            {"reconfig_straggle_rate": 2.0},
            {"circuit_failure_rate": -1.0},
            {"o2m_outage_rate": 1.5},
            {"m2o_outage_rate": -0.5},
            {"eps_degradation_rate": 7.0},
            {"straggle_factor": 0.5},
            {"straggle_factor": float("nan")},
            {"straggle_factor": float("inf")},
        ],
    )
    def test_invalid_rates_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_zero_degradation_factor_rejected(self):
        # A factor of exactly 0 would leave a degraded port's queues
        # undrainable and the open-ended final drain spinning forever.
        with pytest.raises(ValueError):
            FaultPlan(eps_degradation_factor=0.0)
        FaultPlan(eps_degradation_factor=1.0)  # boundary is legal
        FaultPlan(eps_degradation_factor=1e-6)

    def test_with_seed(self):
        plan = FaultPlan(seed=1, circuit_failure_rate=0.2)
        reseeded = plan.with_seed(7)
        assert reseeded.seed == 7
        assert reseeded.circuit_failure_rate == 0.2
        assert plan.seed == 1  # original untouched (frozen)

    def test_uniform_couples_all_channels(self):
        plan = FaultPlan.uniform(0.3, seed=5)
        assert plan.seed == 5
        for name in (
            "reconfig_failure_rate",
            "reconfig_straggle_rate",
            "circuit_failure_rate",
            "o2m_outage_rate",
            "m2o_outage_rate",
            "eps_degradation_rate",
        ):
            assert getattr(plan, name) == 0.3
        assert FaultPlan.uniform(0.0).is_null


class TestFaultInjector:
    def test_same_seed_same_realization(self):
        plan = FaultPlan(seed=3, reconfig_failure_rate=0.5, reconfig_straggle_rate=0.5)
        a = plan.injector(8)
        b = plan.injector(8)
        draws_a = [a.reconfigure(0.1) for _ in range(20)]
        draws_b = [b.reconfigure(0.1) for _ in range(20)]
        assert draws_a == draws_b

    def test_streams_are_independent(self):
        plan = FaultPlan(seed=3, reconfig_failure_rate=0.5)
        a = plan.injector(8, stream=0)
        b = plan.injector(8, stream=1)
        draws_a = [a.reconfigure(0.1)[1] for _ in range(24)]
        draws_b = [b.reconfigure(0.1)[1] for _ in range(24)]
        assert draws_a != draws_b

    def test_null_plan_asks_no_entropy(self):
        injector = FaultPlan().injector(8)
        assert injector.reconfigure(0.15) == (0.15, True)
        circuits = np.arange(8)  # the matching of the identity permutation
        assert injector.surviving_circuits(circuits) is circuits
        assert injector.composite_port_up("o2m", 0)
        assert injector.eps_port_scale is None
        assert injector.summary.total_events == 0

    def test_forced_reconfig_failure(self):
        injector = FaultPlan(reconfig_failure_rate=1.0).injector(8)
        delay, established = injector.reconfigure(0.15)
        assert delay == 0.15  # the δ penalty is still paid
        assert not established
        assert injector.summary.reconfig_failures == 1

    def test_forced_straggler_multiplies_delta(self):
        plan = FaultPlan(reconfig_straggle_rate=1.0, straggle_factor=4.0)
        injector = plan.injector(8)
        delay, established = injector.reconfigure(0.1)
        assert established
        assert delay == pytest.approx(0.4)
        assert injector.summary.extra_reconfig_delay == pytest.approx(0.3)

    def test_forced_circuit_failures_zero_all(self):
        injector = FaultPlan(circuit_failure_rate=1.0).injector(8)
        circuits = np.arange(8)
        survived = injector.surviving_circuits(circuits)
        assert survived is not circuits
        assert (survived == -1).all()
        np.testing.assert_array_equal(circuits, np.arange(8))  # input never mutated
        assert injector.summary.failed_circuits == 8

    def test_composite_outage_is_permanent_and_drawn_once(self):
        injector = FaultPlan(o2m_outage_rate=1.0).injector(8)
        assert not injector.composite_port_up("o2m", 3)
        assert not injector.composite_port_up("o2m", 3)
        assert injector.summary.dead_o2m_ports == (3,)
        # m2o channel is off: its ports stay up.
        assert injector.composite_port_up("m2o", 3)

    def test_survivor_draw_not_repeated(self):
        # rate 0.5, seed chosen so port 0 survives its first draw; the
        # surviving port must not be re-rolled on later grants.
        plan = FaultPlan(seed=0, o2m_outage_rate=0.5)
        injector = plan.injector(8)
        first = injector.composite_port_up("o2m", 0)
        assert injector.composite_port_up("o2m", 0) == first

    def test_mark_dead_preseeds(self):
        injector = FaultPlan(o2m_outage_rate=0.0).injector(8)
        injector.mark_dead("o2m", {2, 5})
        assert not injector.composite_port_up("o2m", 2)
        assert not injector.composite_port_up("o2m", 5)
        assert injector.composite_port_up("o2m", 3)

    def test_eps_degradation_draw(self):
        plan = FaultPlan(eps_degradation_rate=1.0, eps_degradation_factor=0.25)
        injector = plan.injector(8)
        scale = injector.eps_port_scale
        np.testing.assert_allclose(scale, np.full(8, 0.25))
        assert injector.summary.degraded_eps_ports == tuple(range(8))

    def test_invalid_kind_rejected(self):
        injector = FaultPlan().injector(8)
        with pytest.raises(ValueError):
            injector.composite_port_up("sideways", 0)

    def test_as_injector_normalization(self):
        assert as_injector(None, 8) is None
        from_plan = as_injector(FaultPlan(seed=9), 8)
        assert isinstance(from_plan, FaultInjector)
        assert as_injector(from_plan, 8) is from_plan
        with pytest.raises(ValueError):
            as_injector(from_plan, 16)  # built for the wrong radix
        with pytest.raises(TypeError):
            as_injector(0.5, 8)


class TestReleaseComposite:
    def _engine(self, fast_params):
        demand = np.zeros((8, 8))
        demand[0, 1:5] = 2.0
        engine = FluidEngine(demand, fast_params)
        engine.assign_composite(demand.copy())  # everything parked composite
        return engine

    def test_release_moves_volume_to_regular(self, fast_params):
        engine = self._engine(fast_params)
        released = engine.release_composite("o2m", 0)
        assert released == pytest.approx(8.0)
        assert engine.composite[0, :].sum() == 0.0
        np.testing.assert_allclose(engine.regular[0, 1:5], 2.0)
        assert engine.released_composite == pytest.approx(8.0)
        # Total residual unchanged: release moves volume, never loses it.
        assert engine.residual_total() == pytest.approx(8.0)

    def test_second_release_is_empty(self, fast_params):
        engine = self._engine(fast_params)
        engine.release_composite("o2m", 0)
        assert engine.release_composite("o2m", 0) == 0.0
        assert engine.released_composite == pytest.approx(8.0)

    def test_released_volume_drains_on_regular_paths(self, fast_params):
        engine = self._engine(fast_params)
        engine.release_composite("o2m", 0)
        engine.run_phase(None)  # open-ended EPS drain
        assert engine.residual_total() == pytest.approx(0.0, abs=1e-9)
        assert engine.served_eps == pytest.approx(8.0)

    def test_invalid_args_rejected(self, fast_params):
        engine = self._engine(fast_params)
        with pytest.raises(ValueError):
            engine.release_composite("diagonal", 0)
        with pytest.raises(ValueError):
            engine.release_composite("o2m", 99)


class TestEpsDegradationPhase:
    def test_scale_validated(self, fast_params):
        demand = np.zeros((8, 8))
        demand[0, 1] = 1.0
        engine = FluidEngine(demand, fast_params)
        with pytest.raises(ValueError):
            engine.run_phase(0.1, eps_port_scale=np.ones(4))
        with pytest.raises(ValueError):
            engine.run_phase(0.1, eps_port_scale=np.full(8, 1.5))
        with pytest.raises(ValueError, match=r"in \[0, 1\]"):
            engine.run_phase(0.1, eps_port_scale=np.full(8, np.nan))
        assert engine.clock == 0.0

    def test_degraded_port_serves_slower(self, fast_params):
        demand = np.zeros((8, 8))
        demand[0, 1] = 1.0
        scale = np.ones(8)
        scale[1] = 0.5  # receiver at half rate
        baseline = FluidEngine(demand, fast_params)
        baseline.run_phase(None)
        degraded = FluidEngine(demand, fast_params)
        degraded.run_phase(None, eps_port_scale=scale)
        assert degraded.clock == pytest.approx(2.0 * baseline.clock)
        assert degraded.residual_total() == pytest.approx(0.0, abs=1e-9)


class TestZeroFaultBitIdentical:
    def test_hybrid(self, skewed_demand16):
        params = fast_ocs_params(16)
        schedule = SolsticeScheduler().schedule(skewed_demand16, params)
        base = simulate_hybrid(skewed_demand16, schedule, params)
        nulled = simulate_hybrid(skewed_demand16, schedule, params, faults=FaultPlan())
        assert nulled.completion_time == base.completion_time
        assert nulled.served_eps == base.served_eps
        assert nulled.served_ocs_direct == base.served_ocs_direct
        np.testing.assert_array_equal(nulled.finish_times, base.finish_times)

    def test_cp(self, skewed_demand16):
        params = fast_ocs_params(16)
        schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(
            skewed_demand16, params
        )
        base = simulate_cp(skewed_demand16, schedule, params)
        nulled = simulate_cp(skewed_demand16, schedule, params, faults=FaultPlan())
        assert nulled.completion_time == base.completion_time
        assert nulled.served_composite == base.served_composite
        assert nulled.served_eps == base.served_eps
        np.testing.assert_array_equal(nulled.finish_times, base.finish_times)
        assert nulled.released_composite == 0.0
        assert nulled.fault_summary is not None
        assert nulled.fault_summary.total_events == 0

    def test_null_plan_seed_is_irrelevant(self, skewed_demand16):
        params = fast_ocs_params(16)
        schedule = SolsticeScheduler().schedule(skewed_demand16, params)
        a = simulate_hybrid(skewed_demand16, schedule, params, faults=FaultPlan(seed=1))
        b = simulate_hybrid(
            skewed_demand16, schedule, params, faults=FaultPlan(seed=999)
        )
        np.testing.assert_array_equal(a.finish_times, b.finish_times)


class TestGracefulDegradation:
    def test_dead_composite_ports_fall_back_to_regular(self, skewed_demand16):
        params = fast_ocs_params(16)
        schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(
            skewed_demand16, params
        )
        base = simulate_cp(skewed_demand16, schedule, params)
        assert base.served_composite > 0  # the workload does use composites
        plan = FaultPlan(seed=3, o2m_outage_rate=1.0, m2o_outage_rate=1.0)
        faulted = simulate_cp(skewed_demand16, schedule, params, faults=plan)
        faulted.check_conservation()
        assert faulted.finished  # degradation never strands volume
        assert faulted.served_composite == 0.0
        assert faulted.released_composite > 0.0
        assert faulted.completion_time > base.completion_time
        assert faulted.fault_summary.composite_outages > 0

    def test_all_circuits_fail_eps_still_serves(self, skewed_demand16):
        params = fast_ocs_params(16)
        schedule = SolsticeScheduler().schedule(skewed_demand16, params)
        base = simulate_hybrid(skewed_demand16, schedule, params)
        plan = FaultPlan(seed=1, circuit_failure_rate=1.0)
        faulted = simulate_hybrid(skewed_demand16, schedule, params, faults=plan)
        faulted.check_conservation()
        assert faulted.finished
        assert faulted.served_ocs_direct == 0.0
        assert faulted.served_eps == pytest.approx(faulted.total_demand)
        assert faulted.completion_time >= base.completion_time

    def test_reconfig_failure_loses_hold_phase(self, skewed_demand16):
        params = fast_ocs_params(16)
        for simulate, schedule in (
            (simulate_hybrid, SolsticeScheduler().schedule(skewed_demand16, params)),
            (
                simulate_cp,
                CpSwitchScheduler(SolsticeScheduler()).schedule(
                    skewed_demand16, params
                ),
            ),
        ):
            base = simulate(skewed_demand16, schedule, params)
            plan = FaultPlan(seed=2, reconfig_failure_rate=1.0)
            faulted = simulate(skewed_demand16, schedule, params, faults=plan)
            faulted.check_conservation()
            assert faulted.finished
            assert faulted.served_ocs_direct == 0.0
            assert faulted.completion_time > base.completion_time
            assert faulted.fault_summary.reconfig_failures == schedule.n_configs

    def test_stragglers_stretch_completion(self, skewed_demand16):
        params = fast_ocs_params(16)
        schedule = SolsticeScheduler().schedule(skewed_demand16, params)
        base = simulate_hybrid(skewed_demand16, schedule, params)
        plan = FaultPlan(seed=2, reconfig_straggle_rate=1.0, straggle_factor=6.0)
        faulted = simulate_hybrid(skewed_demand16, schedule, params, faults=plan)
        faulted.check_conservation()
        assert faulted.finished
        assert faulted.completion_time > base.completion_time
        assert faulted.fault_summary.reconfig_straggles == schedule.n_configs

    def test_eps_degradation_slows_but_finishes(self, skewed_demand16):
        params = fast_ocs_params(16)
        schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(
            skewed_demand16, params
        )
        base = simulate_cp(skewed_demand16, schedule, params)
        plan = FaultPlan(seed=4, eps_degradation_rate=1.0, eps_degradation_factor=0.5)
        faulted = simulate_cp(skewed_demand16, schedule, params, faults=plan)
        faulted.check_conservation()
        assert faulted.finished
        assert faulted.completion_time > base.completion_time
        assert len(faulted.fault_summary.degraded_eps_ports) == 16

    def test_delivered_plus_stranded_ledger(self, skewed_demand16):
        params = fast_ocs_params(16)
        schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(
            skewed_demand16, params
        )
        plan = FaultPlan.uniform(0.4, seed=11)
        # Truncate so something is genuinely stranded.
        result = simulate_cp(
            skewed_demand16, schedule, params, horizon=0.05, faults=plan
        )
        result.check_conservation()
        assert result.stranded_volume >= 0.0
        assert result.delivered_volume + result.stranded_volume == pytest.approx(
            result.total_demand, rel=1e-6
        )


class TestBlockedReduction:
    def test_blocked_ports_never_qualify(self, skewed_demand16):
        full = cp_switch_demand_reduction(skewed_demand16, 2, 10.0)
        assert full.o2m_loads[0] > 0 and full.m2o_loads[15] > 0
        masked = cp_switch_demand_reduction(
            skewed_demand16, 2, 10.0, blocked_o2m={0}, blocked_m2o=[15]
        )
        assert masked.o2m_loads[0] == 0.0
        assert masked.m2o_loads[15] == 0.0
        # Volume conserved: blocked entries stay on the regular paths.
        assert masked.reduced.sum() == pytest.approx(skewed_demand16.sum())
        np.testing.assert_allclose(
            masked.reduced[:16, :16] + masked.filtered, skewed_demand16
        )

    def test_bool_mask_accepted(self, skewed_demand16):
        mask = np.zeros(16, dtype=bool)
        mask[0] = True
        masked = cp_switch_demand_reduction(skewed_demand16, 2, 10.0, blocked_o2m=mask)
        assert masked.o2m_loads[0] == 0.0

    def test_invalid_specs_rejected(self, skewed_demand16):
        with pytest.raises(ValueError):
            cp_switch_demand_reduction(skewed_demand16, 2, 10.0, blocked_o2m=[16])
        with pytest.raises(ValueError):
            cp_switch_demand_reduction(
                skewed_demand16, 2, 10.0, blocked_m2o=np.zeros(4, dtype=bool)
            )

    def test_scheduler_forwards_blocking(self, skewed_demand16):
        params = fast_ocs_params(16)
        schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(
            skewed_demand16, params, blocked_o2m={0}, blocked_m2o={15}
        )
        assert all(
            0 not in entry.o2m_ports and 15 not in entry.m2o_ports
            for entry in schedule.entries
        )
        assert schedule.reduction.filtered.sum() == 0.0


class TestControllerUnderFaults:
    def _arrivals(self, n):
        def arrivals(epoch: int) -> np.ndarray:
            demand = np.zeros((n, n))
            demand[0, 1 : n - 1] = 1.2
            demand[1 : n - 1, n - 1] += 1.1
            return demand

        return arrivals

    def test_dead_ports_detected_and_excluded(self):
        n = 16
        plan = FaultPlan(seed=5, o2m_outage_rate=1.0, m2o_outage_rate=1.0)
        controller = EpochController(
            fast_ocs_params(n),
            SolsticeScheduler(),
            use_composite_paths=True,
            fault_plan=plan,
        )
        reports = controller.run(self._arrivals(n), n_epochs=2)
        first, second = reports
        # Epoch 0 grants composites, they die, demand falls back.
        assert first.released_composite > 0.0
        assert first.dead_o2m or first.dead_m2o
        assert first.kept_up  # fallback drained everything anyway
        # Epoch 1 excludes the dead ports up front: nothing is parked on
        # them, so nothing needs releasing.
        dead_o2m, dead_m2o = controller.dead_composite_ports
        assert second.dead_o2m == dead_o2m and second.dead_m2o == dead_m2o
        assert second.released_composite == 0.0
        assert second.kept_up
        controller.voqs.check_conservation()

    def test_stranded_backlog_retried(self):
        n = 16
        plan = FaultPlan(seed=1, reconfig_straggle_rate=1.0, straggle_factor=8.0)
        controller = EpochController(
            fast_ocs_params(n),
            SolsticeScheduler(),
            epoch_duration=0.2,  # too short to finish under stragglers
            fault_plan=plan,
        )
        controller.offer(self._arrivals(n)(0))
        first, _ = controller.run_epoch(0)
        assert first.stranded_volume > 0.0
        assert first.backlog_after == pytest.approx(first.stranded_volume, rel=1e-9)
        # No new arrivals: the stranded volume is rescheduled and drains.
        backlog = first.backlog_after
        for epoch in range(1, 40):
            report, _ = controller.run_epoch(epoch)
            assert report.backlog_after <= backlog + 1e-9
            backlog = report.backlog_after
            if report.kept_up:
                break
        assert backlog == pytest.approx(0.0, abs=1e-6)
        controller.voqs.check_conservation()

    def test_fault_free_controller_unchanged_by_null_plan(self):
        n = 16
        base = EpochController(
            fast_ocs_params(n), SolsticeScheduler(), use_composite_paths=True
        )
        nulled = EpochController(
            fast_ocs_params(n),
            SolsticeScheduler(),
            use_composite_paths=True,
            fault_plan=FaultPlan(),
        )
        base_reports = base.run(self._arrivals(n), n_epochs=2)
        null_reports = nulled.run(self._arrivals(n), n_epochs=2)
        for b, z in zip(base_reports, null_reports):
            assert z.completion_time == b.completion_time
            assert z.served_volume == b.served_volume
            assert z.dead_o2m == () and z.dead_m2o == ()


class TestFaultTrial:
    def test_zero_rate_reproduces_clean_gap(self, skewed_demand16):
        params = fast_ocs_params(16)
        h_result, cp_result = fault_trial(
            skewed_demand16, SolsticeScheduler(), params, FaultPlan.uniform(0.0)
        )
        assert cp_result.completion_time < h_result.completion_time
        assert h_result is not cp_result

    def test_conservation_checked_under_heavy_faults(self, skewed_demand16):
        params = fast_ocs_params(16)
        h_result, cp_result = fault_trial(
            skewed_demand16,
            SolsticeScheduler(),
            params,
            FaultPlan.uniform(0.6, seed=13),
        )
        assert h_result.finished and cp_result.finished
        assert h_result.fault_summary is not None
        assert cp_result.fault_summary is not None


class TestFaultSummary:
    def test_event_accounting(self):
        summary = FaultSummary(
            reconfig_failures=2,
            reconfig_straggles=1,
            failed_circuits=3,
            dead_o2m_ports=(1,),
            dead_m2o_ports=(4, 5),
            degraded_eps_ports=(0, 2),
        )
        assert summary.composite_outages == 3
        assert summary.total_events == 2 + 1 + 3 + 3 + 2
