"""Tests for the fluid event-driven engine."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.cpsched import cpsched
from repro.hybrid.solstice import SolsticeScheduler
from repro.matching import matching_to_permutation
from repro.sim import engine as engine_module
from repro.sim import rates as rates_module
from repro.sim import simulate_hybrid
from repro.sim.engine import CompositeService, FluidEngine
from repro.sim.rates import max_min_fair_rates
from repro.sim.reference import ReferenceFluidEngine
from repro.switch.params import SwitchParams, fast_ocs_params
from repro.utils.validation import VOLUME_TOL
from repro.workloads.skewed import SkewedWorkload


def make_engine(demand, n=4, **params_kwargs) -> FluidEngine:
    params = SwitchParams(n_ports=n, **params_kwargs)
    return FluidEngine(np.asarray(demand, dtype=float), params)


def matching(*circuits, n=4) -> np.ndarray:
    """The matching of the (input, output) ``circuits`` on an n-port switch."""
    result = np.full(n, -1)
    for row, col in circuits:
        result[row] = col
    return result



class TestEpsOnlyService:
    def test_single_entry_drains_at_eps_rate(self):
        demand = np.zeros((4, 4))
        demand[0, 1] = 20.0
        engine = make_engine(demand)
        engine.run_phase(None)
        # 20 Mb at Ce = 10 Mb/ms -> 2 ms.
        assert engine.finish_times[0, 1] == pytest.approx(2.0)
        assert engine.residual_total() == 0.0

    def test_fanout_row_shares_input(self):
        demand = np.zeros((4, 4))
        demand[0, 1:4] = 10.0
        engine = make_engine(demand)
        engine.run_phase(None)
        # 3 flows share Ce=10 -> 10/(10/3) = 3 ms each.
        for j in (1, 2, 3):
            assert engine.finish_times[0, j] == pytest.approx(3.0)

    def test_rates_rise_after_drain(self):
        demand = np.zeros((4, 4))
        demand[0, 1] = 5.0
        demand[0, 2] = 10.0
        engine = make_engine(demand)
        engine.run_phase(None)
        # Phase 1: both at 5 Mb/ms; entry (0,1) done at 1 ms.
        # Phase 2: (0,2) finishes its 5 Mb at full 10 Mb/ms: 1 + 0.5 ms.
        assert engine.finish_times[0, 1] == pytest.approx(1.0)
        assert engine.finish_times[0, 2] == pytest.approx(1.5)


class TestCircuitService:
    def test_circuit_drains_at_ocs_rate(self):
        demand = np.zeros((4, 4))
        demand[1, 2] = 50.0
        engine = make_engine(demand)
        engine.run_phase(1.0, circuits=matching((1, 2)))
        # 50 Mb at Co = 100 Mb/ms -> 0.5 ms.
        assert engine.finish_times[1, 2] == pytest.approx(0.5)

    def test_eps_does_not_double_serve_circuit_entries(self):
        demand = np.zeros((4, 4))
        demand[1, 2] = 110.0
        engine = make_engine(demand)
        engine.run_phase(1.0, circuits=matching((1, 2)))
        # Exactly 100 Mb through the circuit, none through EPS.
        assert engine.regular[1, 2] == pytest.approx(10.0)
        assert engine.served_eps == pytest.approx(0.0)
        assert engine.served_ocs_direct == pytest.approx(100.0)

    def test_eps_serves_other_entries_during_circuit(self):
        demand = np.zeros((4, 4))
        demand[1, 2] = 100.0
        demand[0, 3] = 5.0
        engine = make_engine(demand)
        engine.run_phase(1.0, circuits=matching((1, 2)))
        assert engine.finish_times[0, 3] == pytest.approx(0.5)  # 5 Mb at Ce

    def test_reconfig_phase_is_eps_only(self):
        demand = np.zeros((4, 4))
        demand[0, 1] = 1.0
        engine = make_engine(demand)
        engine.run_phase(0.2)  # no circuits: a reconfiguration gap
        assert engine.served_ocs_direct == 0.0
        assert engine.finish_times[0, 1] == pytest.approx(0.1)


class TestCompositeService:
    def test_o2m_path_matches_cpsched(self):
        n = 6
        demand = np.zeros((n, n))
        demand[0, 1:6] = np.array([3.0, 5.0, 2.0, 4.0, 1.0])
        params = fast_ocs_params(n)
        engine = FluidEngine(demand, params)
        engine.assign_composite(demand.copy())
        duration = 0.25
        engine.run_phase(duration, composites=[CompositeService("o2m", 0)])
        expected = cpsched(demand[0, :], duration, params.ocs_rate, params.eps_rate)
        np.testing.assert_allclose(engine.composite[0, :], expected, atol=1e-9)

    def test_m2o_path_matches_cpsched(self):
        n = 6
        demand = np.zeros((n, n))
        demand[0:5, 5] = np.array([3.0, 5.0, 2.0, 4.0, 1.0])
        params = fast_ocs_params(n)
        engine = FluidEngine(demand, params)
        engine.assign_composite(demand.copy())
        duration = 0.3
        engine.run_phase(duration, composites=[CompositeService("m2o", 5)])
        expected = cpsched(demand[:, 5], duration, params.ocs_rate, params.eps_rate)
        np.testing.assert_allclose(engine.composite[:, 5], expected, atol=1e-9)

    @pytest.mark.parametrize("kind", ["o2m", "m2o"])
    @pytest.mark.parametrize("endpoints", [12, 20, 30])
    def test_many_endpoints_match_cpsched(self, kind, endpoints):
        # More live endpoints than Co/Ce* = 10: the path starts at Co/Rc
        # per endpoint and speeds up as endpoints drain.
        n = 32
        rng = np.random.default_rng(endpoints)
        vector = np.zeros(n)
        vector[1 : endpoints + 1] = rng.uniform(0.5, 8.0, endpoints)
        demand = np.zeros((n, n))
        if kind == "o2m":
            demand[0, :] = vector
        else:
            demand[:, 0] = vector
        params = fast_ocs_params(n)
        engine = FluidEngine(demand, params)
        engine.assign_composite(demand.copy())
        duration = 0.6
        engine.run_phase(duration, composites=[CompositeService(kind, 0)])
        served = engine.composite[0, :] if kind == "o2m" else engine.composite[:, 0]
        expected = cpsched(vector, duration, params.ocs_rate, params.eps_rate)
        assert 0 < np.count_nonzero(expected) < endpoints
        np.testing.assert_allclose(served, expected, atol=1e-9)

    def test_eps_reservation_slows_regular_traffic(self):
        # Composite path to destination 1 at Ce* reserves the whole EPS
        # output link; a regular flow to 1 stalls until the phase ends.
        n = 4
        demand = np.zeros((n, n))
        demand[0, 1] = 100.0  # composite (via lane assignment below)
        demand[2, 1] = 1.0  # regular flow to the same output
        params = SwitchParams(n_ports=n)
        engine = FluidEngine(demand, params)
        filtered = np.zeros((n, n))
        filtered[0, 1] = 100.0
        engine.assign_composite(filtered)
        engine.run_phase(0.5, composites=[CompositeService("o2m", 0)])
        # Composite rate to port 1 is min(Ce*, Co/1) = 10 = Ce: no EPS
        # capacity remains for the regular flow.
        assert engine.regular[2, 1] == pytest.approx(1.0)
        engine.merge_composite_into_regular()
        engine.run_phase(None)
        assert engine.residual_total() == 0.0

    def test_budget_caps_composite_rate(self):
        n = 4
        demand = np.zeros((n, n))
        demand[0, 1] = 10.0
        params = SwitchParams(n_ports=n, eps_budget=5.0)
        engine = FluidEngine(demand, params)
        engine.assign_composite(demand.copy())
        engine.run_phase(1.0, composites=[CompositeService("o2m", 0)])
        # Rate = min(Ce*=5, Co/1) = 5 -> 5 Mb left of 10.
        assert engine.composite[0, 1] == pytest.approx(5.0)


class TestLifecycle:
    def test_assign_composite_after_start_rejected(self):
        demand = np.ones((3, 3))
        engine = make_engine(demand, n=3)
        engine.run_phase(0.1)
        with pytest.raises(RuntimeError):
            engine.assign_composite(np.zeros((3, 3)))

    def test_assign_composite_exceeding_demand_rejected(self):
        engine = make_engine(np.ones((3, 3)), n=3)
        with pytest.raises(ValueError):
            engine.assign_composite(np.full((3, 3), 2.0))

    def test_result_requires_full_drain(self):
        engine = make_engine(np.ones((3, 3)), n=3)
        with pytest.raises(RuntimeError):
            engine.result(n_configs=0, makespan=0.0)

    def test_conservation_across_mechanisms(self):
        rng = np.random.default_rng(3)
        n = 6
        demand = rng.uniform(0, 5, (n, n)) * (rng.random((n, n)) < 0.5)
        params = fast_ocs_params(n)
        engine = FluidEngine(demand, params)
        filtered = np.where(demand < 2.0, demand, 0.0)
        engine.assign_composite(filtered)
        circuits = matching((0, 0), n=n)
        engine.run_phase(0.05, circuits=circuits, composites=[CompositeService("o2m", 1)])
        engine.merge_composite_into_regular()
        engine.run_phase(None)
        result = engine.result(n_configs=1, makespan=0.07)
        result.check_conservation()
        delivered = result.served_eps + result.served_composite + result.served_ocs_direct
        assert delivered == pytest.approx(demand.sum(), rel=1e-6)

    def test_segments_are_contiguous(self):
        engine = make_engine(np.ones((3, 3)), n=3)
        engine.run_phase(None)
        for before, after in zip(engine.segments, engine.segments[1:]):
            assert after.start == pytest.approx(before.end)

    def test_circuits_of_the_wrong_shape_rejected(self):
        # (0, 4) is a reduced-space circuit to the composite port; its
        # row-major key in a 4-port engine would be entry (1, 0)'s.
        demand = np.zeros((4, 4))
        demand[1, 0] = demand[0, 1] = 10.0
        engine = make_engine(demand)
        circuits = np.zeros((5, 5), dtype=np.int8)
        circuits[0, 4] = 1
        with pytest.raises(ValueError, match="shape"):
            engine.run_phase(0.1, circuits=circuits)
        assert engine.served_ocs_direct == 0.0

    def test_circuits_sharing_a_port_rejected(self):
        engine = make_engine(np.ones((4, 4)))
        # A matching gives each input one output, so only an output can be
        # used twice: here output 1, by inputs 0 and 2.
        with pytest.raises(ValueError, match="more than once"):
            engine.run_phase(0.1, circuits=np.array([1, -1, 1, -1]))
        assert engine.clock == 0.0


class TestCompositeGrantValidation:
    @pytest.mark.parametrize("kind", ["o2m", "m2o"])
    def test_port_outside_the_switch_rejected(self, kind):
        engine = make_engine(np.ones((4, 4)))
        engine.assign_composite(np.ones((4, 4)))
        with pytest.raises(ValueError, match=r"port must be in \[0, 4\), got 4"):
            engine.run_phase(0.1, composites=[CompositeService(kind, 4)])
        assert engine.clock == 0.0


class TestWaterfillReuse:
    @staticmethod
    def counting_solves(monkeypatch):
        """Count ``max_min_fair_rates`` calls (and the quotients built)."""
        solves, built = [], []
        quotient_of = engine_module.hub_leaf_quotient

        def counting(*args):
            solves.append(args)
            return max_min_fair_rates(*args)

        def counting_quotient(*args):
            built.append(quotient_of(*args))
            return built[-1]

        monkeypatch.setattr(engine_module, "max_min_fair_rates", counting)
        monkeypatch.setattr(engine_module, "hub_leaf_quotient", counting_quotient)
        return solves, built

    def test_circuit_then_gap_take_the_kept_quotient(self, monkeypatch):
        # One quotient, built at the configuration's start on the circuit
        # entry and the EPS flows, gives the EPS rates of both phases; with
        # every quotient refused, each phase start solves the waterfill.
        # The gap serves the circuit's entry on the EPS beside (0, 2), so
        # row 0 is a hub there, though the configuration's EPS flows leave
        # it one flow.
        demand = np.zeros((4, 4))
        demand[0, 1] = 60.0  # circuit entry: 10 Mb left for the gap
        demand[0, 2] = 10.0
        demand[2, 3] = 10.0
        runs = []
        for bound in (rates_module.QUOTIENT_MAX_HUBS, -1):
            with monkeypatch.context() as patch:
                patch.setattr(rates_module, "QUOTIENT_MAX_HUBS", bound)
                solves, built = self.counting_solves(patch)
                engine = make_engine(demand)
                engine.run_phase(0.5, circuits=matching((0, 1)))
                engine.run_phase(0.2)  # reconfiguration gap: the same EPS flow
            runs.append((engine, len(solves), sum(q is not None for q in built)))
        (live, live_solves, live_built), (general, general_solves, _) = runs
        assert len(live.segments) == 2  # nothing drains
        assert (live_solves, live_built) == (0, 1)
        assert general_solves == 2
        TestIncrementalEvents.assert_bits(live, general)
        # Ce = 10 on (0, 2) and (2, 3) for 0.5 ms, then Ce/2 on row 0.
        np.testing.assert_allclose(
            [live.regular[0, 1], live.regular[0, 2], live.regular[2, 3]], [9.0, 4.0, 3.0]
        )

    def test_composite_free_phase_solves_no_waterfill(self, monkeypatch):
        # Five EPS drains, of a hub row, its column partner and an isolated
        # pair; the kept quotient gives the rates from the phase start on.
        solves, _ = self.counting_solves(monkeypatch)
        demand = np.zeros((4, 4))
        demand[0, 1:4] = [1.0, 2.0, 3.0]
        demand[2, 3] = 4.5
        demand[3, 0] = 0.5
        engine = make_engine(demand)
        engine.run_phase(None)
        assert len(engine.segments) == 5
        assert len(solves) == 0

    def test_h_switch_schedule_solves_on_the_kept_quotient(self, monkeypatch):
        # A Solstice h-Switch schedule on §3.2 skewed demand: every phase
        # has its EPS ports at Ce, so the default run solves no waterfill,
        # and a run with every quotient refused solves on the general loop
        # with the same bits.  The second run of each pair stops at half
        # the makespan and reports its residuals.
        params = fast_ocs_params(32)
        workload = SkewedWorkload.for_params(params)
        demand = workload.generate(32, np.random.default_rng(3)).demand
        schedule = SolsticeScheduler().schedule(demand, params)
        assert len(schedule) > 10
        runs = []
        for bound in (rates_module.QUOTIENT_MAX_HUBS, -1):
            with monkeypatch.context() as patch:
                patch.setattr(rates_module, "QUOTIENT_MAX_HUBS", bound)
                solves, _ = self.counting_solves(patch)
                results = [
                    simulate_hybrid(demand, schedule, params, horizon=horizon)
                    for horizon in (None, schedule.makespan / 2)
                ]
            runs.append((results, len(solves)))
        (live, live_solves), (general, general_solves) = runs
        assert live_solves == 0 < general_solves
        for ours, theirs in zip(live, general):
            assert ours.segments == theirs.segments
            assert ours.finish_times.tobytes() == theirs.finish_times.tobytes()
            assert (ours.served_ocs_direct, ours.served_composite, ours.served_eps) == (
                theirs.served_ocs_direct,
                theirs.served_composite,
                theirs.served_eps,
            )
        assert live[1].residual.sum() > 0
        assert live[1].residual.tobytes() == general[1].residual.tobytes()

    def test_support_rebuild_drops_the_last_solve(self):
        # Support positions 1 and 2 hold the EPS flows (1, 0) and (1, 2),
        # which share input 1, before the merge, and (1, 2) and (2, 3),
        # which share no port, after it: same positions and capacities,
        # other rates.  A quotient kept across the merge would still put
        # both positions in input 1's class.
        demand = np.zeros((4, 4))
        demand[0, 1] = 5.0  # drains on a circuit and leaves the support
        demand[1, 0] = demand[1, 2] = demand[2, 3] = 100.0
        engine = make_engine(demand)
        parked = np.zeros((4, 4))
        parked[2, 3] = 100.0
        engine.assign_composite(parked)
        engine.run_phase(0.1, circuits=matching((0, 1)))
        engine.merge_composite_into_regular()
        engine.run_phase(0.1, circuits=matching((1, 0)))
        # 0.1 ms at Ce/2, then 0.1 ms at the full Ce = 10 Mb/ms.
        assert engine.regular[1, 2] == pytest.approx(98.5)
        assert engine.regular[2, 3] == pytest.approx(99.0)


class TestIncrementalEvents:
    """A drain recomputes what it changed, and nothing is left to catch up.

    A drained residual left among the served ones would read as a zero
    drain time on the next event, which the engine takes for dust and
    answers with a full recomputation: the results would still match,
    but only through a dust snap.  So each case checks the residuals,
    finish times and event times against the frozen seed engine, and
    that no dust was snapped.
    """

    @staticmethod
    def run_both(demand, phases, filtered=None, n=4, **params_kwargs):
        params = SwitchParams(n_ports=n, **params_kwargs)
        live, seed = FluidEngine(demand, params), ReferenceFluidEngine(demand, params)
        for engine in (live, seed):
            if filtered is not None:
                engine.assign_composite(filtered)
            for duration, circuits, composites in phases:
                if duration is None:
                    engine.merge_composite_into_regular()
                if engine is seed and circuits is not None:
                    circuits = matching_to_permutation(circuits, n)
                engine.run_phase(duration, circuits=circuits, composites=composites)
        return live, seed

    @staticmethod
    def assert_same(live, seed):
        np.testing.assert_array_equal(live.finish_times, seed.finish_times)
        np.testing.assert_array_equal(live.regular, seed.regular)
        np.testing.assert_array_equal(live.composite, seed.composite)
        assert live.clock == seed.clock
        assert [(s.start, s.end) for s in live.segments] == [
            (s.start, s.end) for s in seed.segments
        ]
        assert live._dust_snaps == 0

    def test_eps_drain(self):
        demand = np.zeros((4, 4))
        demand[0, 1] = 10.0
        demand[0, 2] = 20.0
        demand[3, 2] = 5.0
        live, seed = self.run_both(demand, [(None, None, ())])
        self.assert_same(live, seed)
        assert len(live.segments) == 3

    def test_circuit_drain_between_eps_drains(self):
        demand = np.zeros((4, 4))
        demand[0, 1] = 10.0  # circuit: drains at 0.1 ms
        demand[2, 3] = 0.5  # EPS, alone on its ports: drains at 0.05 ms
        demand[2, 1] = 4.0  # EPS, shares input 2 with (2, 3)
        live, seed = self.run_both(
            demand, [(0.5, matching((0, 1)), ()), (None, None, ())]
        )
        self.assert_same(live, seed)

    def test_composite_drain_moves_the_reservations(self):
        # Port 0 fans out to 1..3 on a composite path at min(Ce*, Co/count):
        # 20/3 per entry, then 10 once an entry drains.  Its reservation on
        # output 1 squeezes the EPS flow (3, 1) until entry (0, 1) drains.
        demand = np.zeros((4, 4))
        demand[0, 1:4] = [1.0, 2.0, 3.0]
        demand[3, 1] = 10.0
        filtered = np.zeros((4, 4))
        filtered[0, 1:4] = demand[0, 1:4]
        live, seed = self.run_both(
            demand,
            [(1.0, None, (CompositeService("o2m", 0),)), (None, None, ())],
            filtered=filtered,
            ocs_rate=20.0,
        )
        self.assert_same(live, seed)
        assert live.served_composite == pytest.approx(6.0)

    def test_eps_drain_beside_composite_entries(self):
        # The o2m path from port 0 reserves Co/3 on outputs 1 to 3; the EPS
        # flows (2, 1) and (3, 1) share output 1's rest until (2, 1)
        # drains, then (3, 1) takes all of it, still below Ce.
        demand = np.zeros((4, 4))
        demand[0, 1:4] = [4.0, 5.0, 6.0]
        demand[2, 1] = 0.2
        demand[3, 1] = 3.0
        filtered = np.zeros((4, 4))
        filtered[0, 1:4] = demand[0, 1:4]
        live, seed = self.run_both(
            demand,
            [(0.3, None, (CompositeService("o2m", 0),)), (None, None, ())],
            filtered=filtered,
            ocs_rate=15.0,
        )
        self.assert_same(live, seed)
        assert live.finish_times[2, 1] == pytest.approx(0.08)

    def test_first_advance_snaps_dust_left_by_assign(self):
        # Parking all but 1e-10 Mb of entry (0, 1) leaves sub-tolerance
        # dust on the regular side, where nothing serves it; the seed
        # engine snaps it on its first advance, and so must this one.
        demand = np.zeros((4, 4))
        demand[0, 1] = 10.0
        demand[2, 3] = 5.0
        filtered = np.zeros((4, 4))
        filtered[0, 1] = 10.0 - 1e-10
        live, seed = self.run_both(
            demand, [(0.1, None, (CompositeService("o2m", 0),))], filtered=filtered
        )
        assert 0.0 < 10.0 - filtered[0, 1] <= 1e-9
        self.assert_same(live, seed)
        assert live.regular[0, 1] == 0.0

    # The cases below drain composite paths in phases with no EPS flow,
    # where entries served at one rate drain as a sorted class.

    def test_tied_entries_drain_in_one_event(self):
        # After (0, 1) drains, the three 3 Mb entries fall together and
        # must all drain in the same event.
        demand = np.zeros((6, 6))
        demand[0, 1:6] = [1.0, 3.0, 3.0, 3.0, 5.0]
        grant = (CompositeService("o2m", 0),)
        live, seed = self.run_both(
            demand, [(1.0, None, grant), (None, None, ())], filtered=demand, n=6
        )
        self.assert_same(live, seed)
        assert len(live.segments) == 4
        assert live.finish_times[0, 2] == live.finish_times[0, 3] == live.finish_times[0, 4]

    def test_entry_on_an_o2m_row_and_an_m2o_column(self):
        # (0, 3) is on both paths and drains at the sum of their shares;
        # with Co/Ce* = 2 every drain moves the shares of both paths.
        demand = np.zeros((4, 4))
        demand[0, 1:4] = [1.0, 2.0, 4.0]
        demand[1:3, 3] = [2.5, 6.0]
        grants = (CompositeService("o2m", 0), CompositeService("m2o", 3))
        live, seed = self.run_both(
            demand, [(1.0, None, grants), (None, None, ())], filtered=demand, ocs_rate=20.0
        )
        self.assert_same(live, seed)
        assert live.served_composite == seed.served_composite

    def test_circuits_drain_beside_composite_entries(self):
        # Circuit (2, 0) and composite entry (0, 3) drain in the same event.
        demand = np.zeros((4, 4))
        demand[1, 2] = 15.0
        demand[2, 0] = 30.0
        demand[0, 1:4] = [1.0, 2.0, 3.0]
        filtered = np.zeros((4, 4))
        filtered[0, 1:4] = demand[0, 1:4]
        circuits = matching((1, 2), (2, 0))
        live, seed = self.run_both(
            demand,
            [(1.0, circuits, (CompositeService("o2m", 0),)), (None, None, ())],
            filtered=filtered,
        )
        self.assert_same(live, seed)
        assert live.served_ocs_direct == seed.served_ocs_direct

    def test_live_count_above_co_over_ce(self):
        # 15 live endpoints against Co/Ce* = 10: each drain raises the
        # share until ten are left, then the Ce* cap holds it.
        n = 16
        demand = np.zeros((n, n))
        demand[0, 1:n] = np.linspace(0.5, 7.5, n - 1)
        grant = (CompositeService("o2m", 0),)
        live, seed = self.run_both(
            demand, [(0.9, None, grant), (None, None, ())], filtered=demand, n=n
        )
        self.assert_same(live, seed)

    def test_entry_with_both_residuals_after_repark(self):
        # repark_composite leaves (0, 1) and (3, 2) each with a regular
        # residual on a circuit and a composite one on an m2o path.  An
        # entry finishes when its second residual drains: (3, 2)'s
        # composite part drains first, (0, 1)'s regular part does.
        # Parking the same volumes with assign_composite gives the frozen
        # engine the same state.
        demand = np.zeros((4, 4))
        demand[0, 1] = 20.0
        demand[2, 1] = 1.0
        demand[3, 1] = 3.0
        demand[3, 2] = 50.0
        demand[1, 2] = 4.0
        parked = np.zeros((4, 4))
        parked[0, 1] = 8.0
        parked[3, 2] = 2.0
        for entry in ((2, 1), (3, 1), (1, 2)):
            parked[entry] = demand[entry]
        params = SwitchParams(n_ports=4)
        live = FluidEngine(demand, params)
        seed = ReferenceFluidEngine(demand, params)
        assert live.repark_composite(parked) == parked.sum()
        seed.assign_composite(parked)
        np.testing.assert_array_equal(live.regular, seed.regular)
        np.testing.assert_array_equal(live.composite, seed.composite)
        circuits = matching((0, 1), (3, 2))
        grants = (CompositeService("m2o", 1), CompositeService("m2o", 2))
        live.run_phase(1.0, circuits=circuits, composites=grants)
        seed_circuits = matching_to_permutation(circuits, 4)
        seed.run_phase(1.0, circuits=seed_circuits, composites=grants)
        self.assert_same(live, seed)
        assert live.finish_times[3, 2] == pytest.approx(0.48)
        assert live.finish_times[0, 1] == pytest.approx(0.8)

    def test_phase_ends_mid_class(self):
        # Both granted phases end while entries of the row are still live;
        # the second one starts with no support rebuild.
        demand = np.zeros((4, 4))
        demand[0, 1:4] = [1.0, 2.0, 3.0]
        grant = (CompositeService("o2m", 0),)
        live, seed = self.run_both(
            demand,
            [(0.15, None, grant), (0.1, None, grant), (0.02, None, ()), (None, None, ())],
            filtered=demand,
        )
        self.assert_same(live, seed)
    def test_residual_falling_to_volume_tol_drains(self):
        # b - a is exactly VOLUME_TOL, so when (0, 1) drains on the o2m
        # path, (2, 3) on the m2o path is left at VOLUME_TOL and drains in
        # the same event.  The first phase serves nothing; it takes the
        # first advance after assign_composite.
        a, b = 1.3777067972682586e-09, 2.3777067972682586e-09
        assert b - a == VOLUME_TOL
        demand = np.zeros((4, 4))
        demand[0, 1] = a
        demand[2, 3] = b
        grants = (CompositeService("o2m", 0), CompositeService("m2o", 3))
        live, seed = self.run_both(
            demand, [(0.01, None, ()), (1.0, None, grants)], filtered=demand, eps_rate=1.0
        )
        self.assert_same(live, seed)
        assert len(live.segments) == 3
        assert live.finish_times[2, 3] == live.finish_times[0, 1]

    def test_composite_only_phase_does_not_recompute_every_share(self, monkeypatch):
        # Eleven entries drain one by one in the second phase; their
        # shares follow from the path's live count, so no drain needs a
        # pass over every grant.
        shares = []
        composite_rates = FluidEngine._composite_rates

        def counting(self, *args):
            shares.append(args)
            return composite_rates(self, *args)

        monkeypatch.setattr(FluidEngine, "_composite_rates", counting)
        n = 12
        demand = np.zeros((n, n))
        demand[0, 1:n] = np.arange(1, n) * 0.5
        engine = make_engine(demand, n=n)
        engine.assign_composite(demand)
        grant = [CompositeService("o2m", 0)]
        engine.run_phase(0.01, composites=grant)
        shares.clear()
        engine.run_phase(10.0, composites=grant)
        assert len(engine.segments) == 1 + 12  # eleven drains, then idle
        assert engine.composite.sum() == 0.0
        assert len(shares) <= 1

    # The cases below drain EPS flows by the classes of their hub/leaf
    # quotient, from a phase's first EPS drain on, once no composite entry
    # is served.  Each also runs its phases with every quotient refused,
    # so on the general loop, and compares every bit: the segments with
    # their three rate totals, the served volumes, the finish times and
    # the residuals.

    @staticmethod
    def assert_bits(live, general):
        np.testing.assert_array_equal(live.finish_times, general.finish_times)
        assert live.regular.tobytes() == general.regular.tobytes()
        assert live.composite.tobytes() == general.composite.tobytes()
        assert live.segments == general.segments
        assert (live.served_ocs_direct, live.served_composite, live.served_eps) == (
            general.served_ocs_direct,
            general.served_composite,
            general.served_eps,
        )
        assert live.clock == general.clock

    def run_by_class(self, monkeypatch, demand, phases, filtered=None, n=4, **params_kwargs):
        """Run ``phases`` with the quotient, check them against the seed
        engine and, bit for bit, against the general loop; return the live
        engine and how many quotients its phases built."""
        built = []
        quotient_of = engine_module.hub_leaf_quotient

        def counting(*args):
            quotient = quotient_of(*args)
            built.append(quotient is not None)
            return quotient

        with monkeypatch.context() as patch:
            patch.setattr(engine_module, "hub_leaf_quotient", counting)
            live, seed = self.run_both(demand, phases, filtered, n, **params_kwargs)
        self.assert_same(live, seed)
        with monkeypatch.context() as patch:
            patch.setattr(rates_module, "QUOTIENT_MAX_HUBS", -1)
            general, _ = self.run_both(demand, phases, filtered, n, **params_kwargs)
        self.assert_bits(live, general)
        return live, sum(built)

    def test_eps_drain_with_circuits_live(self, monkeypatch):
        # (1, 2) drains first, at 0.2 ms; circuit (0, 1) drains in the
        # class loop at 0.6 ms, beside the row-2 hub, its leaf (2, 3), the
        # column-0 hub's leaf (3, 0) and the hub–hub flow (2, 0).  The
        # merge before the final drain rebuilds the support, so the final
        # drain, which serves (3, 0) alone, builds a second quotient.
        demand = np.zeros((4, 4))
        demand[0, 1] = 60.0
        demand[1, 2] = 2.0
        demand[2, 3] = 1.5
        demand[2, 0] = 4.0
        demand[3, 0] = 7.0
        live, built = self.run_by_class(
            monkeypatch, demand, [(1.0, matching((0, 1)), ()), (None, None, ())]
        )
        assert built == 2
        assert live.finish_times[0, 1] == pytest.approx(0.6)

    def test_eps_ties_across_two_classes(self, monkeypatch):
        # After the isolated pair (2, 0) drains, row 0's two leaves (rate 5)
        # and the isolated pair (3, 3) (rate 10) all drain at 1 ms.
        demand = np.zeros((4, 4))
        demand[2, 0] = 1.0
        demand[0, 1] = demand[0, 2] = 5.0
        demand[3, 3] = 10.0
        live, built = self.run_by_class(monkeypatch, demand, [(None, None, ())])
        assert built == 1
        assert len(live.segments) == 2
        assert live.finish_times[0, 1] == live.finish_times[0, 2] == live.finish_times[3, 3]

    def test_isolated_pairs(self, monkeypatch):
        # No port has two flows: one class, at Ce, with no hub.
        demand = np.zeros((4, 4))
        demand[0, 1] = 1.0
        demand[1, 0] = 3.0
        demand[2, 3] = 2.0
        demand[3, 2] = 4.0
        live, built = self.run_by_class(monkeypatch, demand, [(None, None, ())])
        assert built == 1
        assert len(live.segments) == 4

    def test_hub_to_hub_flow(self, monkeypatch):
        # (0, 2) joins the row-0 hub and the column-2 hub, each with one
        # leaf; the isolated pair (1, 3) drains first.
        demand = np.zeros((4, 4))
        demand[0, 1] = 1.0
        demand[0, 2] = 4.0
        demand[3, 2] = 2.0
        demand[1, 3] = 0.5
        live, built = self.run_by_class(monkeypatch, demand, [(None, None, ())])
        assert built == 1
        assert len(live.segments) == 4

    def test_hub_falling_to_one_flow(self, monkeypatch):
        # Row 0 loses (0, 1) and (0, 2); its last flow (0, 3) still shares
        # the column-3 hub with (1, 3), and row 0 stays a node of its own.
        demand = np.zeros((4, 4))
        demand[0, 1:4] = [1.0, 2.0, 10.0]
        demand[1, 3] = 8.0
        live, built = self.run_by_class(monkeypatch, demand, [(None, None, ())])
        assert built == 1
        assert len(live.segments) == 4

    def test_eps_residual_falling_to_volume_tol_drains(self, monkeypatch):
        # At Ce = 1 the isolated pairs (0, 1) and (2, 3) run at 1 and row 1's
        # leaves at 0.5.  (0, 1) drains first; when (2, 3) drains, (1, 0)
        # heads the other class at exactly VOLUME_TOL and drains with it.
        p, q, r = 1.2e-9, 3e-9, 2.5e-9
        assert (r - 0.5 * p) - 0.5 * (q - p) == VOLUME_TOL
        demand = np.zeros((4, 4))
        demand[0, 1] = p
        demand[2, 3] = q
        demand[1, 0] = r
        demand[1, 2] = 1.0
        live, built = self.run_by_class(
            monkeypatch, demand, [(None, None, ())], eps_rate=1.0
        )
        assert built == 1
        assert len(live.segments) == 3
        assert live.finish_times[1, 0] == live.finish_times[2, 3]

    def test_dust_residual_goes_back_to_the_general_loop(self, monkeypatch):
        # At Co = 5000, circuit (0, 1) is left 2e-9 Mb when the EPS flow
        # (1, 0) drains at 0.2 ms: a drain time below TIME_TOL.  The class
        # loop hands it back, and the general loop snaps it, as it does on
        # its own.  (The seed engine idles out such a phase instead.)
        demand = np.zeros((4, 4))
        demand[0, 1] = 5000.0 * 0.2 + 2e-9
        demand[2, 3] = 0.5
        demand[1, 0] = 2.0
        params = SwitchParams(n_ports=4, ocs_rate=5000.0)
        runs = []
        for bound in (rates_module.QUOTIENT_MAX_HUBS, -1):
            monkeypatch.setattr(rates_module, "QUOTIENT_MAX_HUBS", bound)
            engine = FluidEngine(demand, params)
            engine.run_phase(1.0, circuits=matching((0, 1)))
            runs.append(engine)
        live, general = runs
        self.assert_bits(live, general)
        assert live._dust_snaps == general._dust_snaps == 1
        assert live.finish_times[0, 1] == live.finish_times[1, 0] == pytest.approx(0.2)

    def test_quotient_above_the_bound_takes_the_general_loop(self, monkeypatch):
        # Two hubs against a bound of one: the phase is refused a quotient
        # at its start and at the isolated pair's drain, solving on the
        # general loop both times; once (0, 1) drains, row 0 holds one flow,
        # the quotient is built and the class loop ends the phase, with the
        # bits of a run at the default bound.
        demand = np.zeros((4, 4))
        demand[0, 1:3] = [1.0, 2.0]
        demand[1:3, 3] = [3.0, 4.0]
        demand[3, 0] = 0.5
        built, solves = [], []
        quotient_of = engine_module.hub_leaf_quotient

        def counting_quotient(*args):
            built.append(quotient_of(*args))
            return built[-1]

        def counting_solve(*args):
            solves.append(args)
            return max_min_fair_rates(*args)

        monkeypatch.setattr(rates_module, "QUOTIENT_MAX_HUBS", 1)
        with monkeypatch.context() as patch:
            patch.setattr(engine_module, "hub_leaf_quotient", counting_quotient)
            patch.setattr(engine_module, "max_min_fair_rates", counting_solve)
            general, seed = self.run_both(demand, [(None, None, ())])
        self.assert_same(general, seed)
        assert [quotient is not None for quotient in built] == [False, False, True]
        assert len(general.segments) == 5
        assert len(solves) == 2
        monkeypatch.setattr(rates_module, "QUOTIENT_MAX_HUBS", 16)
        live, _ = self.run_both(demand, [(None, None, ())])
        self.assert_bits(live, general)

    def test_cp_final_drain_after_merge(self, monkeypatch):
        # assign_composite leaves 1e-10 Mb of (0, 2) on the regular side;
        # the granted phase's first advance snaps it.  The merge rebuilds
        # the support, so dust is pending when the final drain starts: its
        # first advance is the general loop's, and the class loop takes
        # over at its first EPS drain.
        demand = np.zeros((4, 4))
        demand[0, 1:4] = [1.0, 2.0, 3.0]
        demand[2, 0] = 0.5
        demand[3, 0] = 4.0
        demand[1, 2] = 2.5
        filtered = np.zeros((4, 4))
        filtered[0, 1:4] = [1.0, 2.0 - 1e-10, 3.0]
        live, built = self.run_by_class(
            monkeypatch,
            demand,
            [(0.1, None, (CompositeService("o2m", 0),)), (None, None, ())],
            filtered=filtered,
        )
        assert built == 1
        assert live.regular[0, 2] == 0.0

    def test_zero_rate_class_serves_nothing(self, monkeypatch):
        # At Ce = 1.5e-12 the row-0 hub's share, 7.5e-13, is within the
        # waterfill's tolerance: its flows freeze at rate 0 and never
        # drain, while the isolated pairs run at Ce.  The class loop skips
        # the zero-rate class, as the general loop leaves it unserved.
        demand = np.zeros((4, 4))
        demand[0, 1] = demand[0, 2] = 5e-9
        demand[2, 3] = 2e-9
        demand[3, 0] = 4e-9
        params = SwitchParams(n_ports=4, eps_rate=1.5e-12)
        runs = []
        for bound in (rates_module.QUOTIENT_MAX_HUBS, -1):
            monkeypatch.setattr(rates_module, "QUOTIENT_MAX_HUBS", bound)
            engine = FluidEngine(demand, params)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                engine.run_phase(None)
            runs.append(engine)
        live, general = runs
        self.assert_bits(live, general)
        assert len(live.segments) == 2
        assert live.regular[0, 1] == live.regular[0, 2] == 5e-9
