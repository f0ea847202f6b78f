"""Pipeline-level cross-validation: slotted hybrid execution vs fluid."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hybrid.schedule import Schedule, ScheduleEntry
from repro.hybrid.solstice import SolsticeScheduler
from repro.sim.hybrid_sim import simulate_hybrid
from repro.sim.packetlevel import PacketLevelHybrid
from repro.switch.params import fast_ocs_params


def single_circuit_schedule(n, i, j, duration, delta):
    matching = np.full(n, -1)
    matching[i] = j
    return Schedule(
        entries=(ScheduleEntry(matching=matching, duration=duration),),
        reconfig_delay=delta,
    )


class TestPacketLevelHybrid:
    def test_single_circuit_matches_fluid(self):
        params = fast_ocs_params(8)
        demand = np.zeros((8, 8))
        demand[0, 1] = 20.0
        schedule = single_circuit_schedule(8, 0, 1, 0.5, params.reconfig_delay)
        fluid = simulate_hybrid(demand, schedule, params)
        packet = PacketLevelHybrid(params, slot_duration=0.002).execute(demand, schedule)
        assert packet.completion_time == pytest.approx(fluid.completion_time, rel=0.05)
        assert packet.ocs_volume + packet.eps_volume == pytest.approx(20.0)

    def test_reconfiguration_slots_idle_the_ocs(self):
        params = fast_ocs_params(8)
        demand = np.zeros((8, 8))
        demand[0, 1] = 1.0
        # Zero-duration circuit: only the reconfiguration gap plus drain.
        schedule = single_circuit_schedule(8, 2, 3, 0.0, 0.1)
        packet = PacketLevelHybrid(params, slot_duration=0.01).execute(demand, schedule)
        assert packet.ocs_volume == 0.0
        assert packet.eps_volume == pytest.approx(1.0)

    def test_eps_does_not_serve_live_circuit_voq(self):
        params = fast_ocs_params(8)
        demand = np.zeros((8, 8))
        demand[0, 1] = 100.0
        schedule = single_circuit_schedule(8, 0, 1, 1.0, 0.0)
        packet = PacketLevelHybrid(params, slot_duration=0.01).execute(demand, schedule)
        # The circuit covers the full 100 Mb in exactly its 1 ms; the EPS
        # never needed to touch the entry while the circuit was live.
        assert packet.ocs_volume == pytest.approx(100.0)
        assert packet.eps_volume == pytest.approx(0.0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_solstice_schedule_agrees_with_fluid(self, seed):
        params = fast_ocs_params(8)
        rng = np.random.default_rng(seed)
        demand = rng.uniform(1.0, 4.0, (8, 8)) * (rng.random((8, 8)) < 0.35)
        if demand.sum() == 0:
            pytest.skip("empty draw")
        schedule = SolsticeScheduler().schedule(demand, params)
        fluid = simulate_hybrid(demand, schedule, params)
        packet = PacketLevelHybrid(params, slot_duration=0.002).execute(demand, schedule)
        # Slot quantization rounds each configuration up to whole slots;
        # with 2 us slots and ~0.02-0.04 ms phases, tolerate ~15%.
        assert packet.completion_time == pytest.approx(fluid.completion_time, rel=0.15)
        total = demand.sum()
        assert packet.ocs_volume + packet.eps_volume == pytest.approx(total, rel=1e-9)

    def test_runaway_guard(self):
        params = fast_ocs_params(8)
        demand = np.zeros((8, 8))
        demand[0, 1] = 1000.0
        schedule = Schedule(entries=(), reconfig_delay=params.reconfig_delay)
        with pytest.raises(RuntimeError):
            PacketLevelHybrid(params, slot_duration=0.01).execute(
                demand, schedule, max_slots=10
            )
