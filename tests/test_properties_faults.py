"""Property-based fuzzing of the fault-injection layer.

The companion of :mod:`tests.test_properties_engine`: hypothesis draws
random demand matrices *and* random fault mixes, and the end-to-end
invariants must hold regardless of what fails:

* volume conservation — ``delivered + stranded == total`` for both the
  h-Switch and the cp-Switch, with one or two composite paths per
  direction, under any fault plan;
* graceful degradation — unbounded runs always finish (dead composite
  paths release their demand instead of stranding it);
* the all-zero plan is bit-identical to a fault-free run, whatever its
  seed;
* residuals never go negative, faulted or not.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.scheduler import CpSwitchScheduler
from repro.faults import FaultPlan
from repro.hybrid.solstice import SolsticeScheduler
from repro.sim import simulate_cp, simulate_hybrid
from repro.switch.params import SwitchParams

N = 6

PARAMS = SwitchParams(n_ports=N, eps_rate=10.0, ocs_rate=100.0, reconfig_delay=0.02)


def demands():
    return st.tuples(
        arrays(np.float64, (N, N), elements=st.floats(0.0, 30.0, allow_nan=False, width=32)),
        arrays(np.bool_, (N, N)),
    ).map(lambda pair: pair[0] * pair[1])


def rates():
    return st.floats(0.0, 1.0, allow_nan=False)


def plans():
    """Arbitrary valid fault plans, including the all-zero one."""
    return st.builds(
        FaultPlan,
        seed=st.integers(min_value=0, max_value=2**16),
        reconfig_failure_rate=rates(),
        reconfig_straggle_rate=rates(),
        straggle_factor=st.floats(1.0, 8.0, allow_nan=False),
        circuit_failure_rate=rates(),
        o2m_outage_rate=rates(),
        m2o_outage_rate=rates(),
        eps_degradation_rate=rates(),
        eps_degradation_factor=st.floats(0.1, 1.0, allow_nan=False),
    )


def _schedules(demand, n_paths):
    scheduler = SolsticeScheduler()
    return (
        scheduler.schedule(demand, PARAMS),
        CpSwitchScheduler(scheduler, n_paths=n_paths).schedule(demand, PARAMS),
    )


#: Composite paths per direction of the cp-Switch schedule.
PATH_COUNTS = st.integers(1, 2)


class TestFaultFuzz:
    @given(demand=demands(), plan=plans(), n_paths=PATH_COUNTS)
    @settings(max_examples=40, deadline=None)
    def test_conservation_under_any_fault_mix(self, demand, plan, n_paths):
        h_schedule, cp_schedule = _schedules(demand, n_paths)
        h_result = simulate_hybrid(demand, h_schedule, PARAMS, faults=plan)
        cp_result = simulate_cp(demand, cp_schedule, PARAMS, faults=plan)
        for result in (h_result, cp_result):
            result.check_conservation()
            assert result.finished  # graceful degradation never strands
            np.testing.assert_allclose(
                result.delivered_volume + result.stranded_volume,
                result.total_demand,
                rtol=1e-6,
                atol=1e-6,
            )
        # Released volume is real filtered demand, never manufactured.
        assert 0.0 <= cp_result.released_composite <= demand.sum() + 1e-6

    @given(
        demand=demands(),
        plan=plans(),
        horizon=st.floats(0.0, 1.0, allow_nan=False),
        n_paths=PATH_COUNTS,
    )
    @settings(max_examples=40, deadline=None)
    def test_bounded_faulted_runs_keep_the_ledger(self, demand, plan, horizon, n_paths):
        h_schedule, cp_schedule = _schedules(demand, n_paths)
        h_result = simulate_hybrid(demand, h_schedule, PARAMS, horizon=horizon, faults=plan)
        cp_result = simulate_cp(demand, cp_schedule, PARAMS, horizon=horizon, faults=plan)
        for result in (h_result, cp_result):
            result.check_conservation()
            assert result.stranded_volume >= 0.0
            assert result.residual is not None
            assert (result.residual >= 0.0).all()

    @given(
        demand=demands(),
        seed=st.integers(min_value=0, max_value=2**16),
        n_paths=PATH_COUNTS,
    )
    @settings(max_examples=40, deadline=None)
    def test_null_plan_bit_identical(self, demand, seed, n_paths):
        h_schedule, cp_schedule = _schedules(demand, n_paths)
        plan = FaultPlan(seed=seed)
        for simulate, schedule in (
            (simulate_hybrid, h_schedule),
            (simulate_cp, cp_schedule),
        ):
            base = simulate(demand, schedule, PARAMS)
            nulled = simulate(demand, schedule, PARAMS, faults=plan)
            assert nulled.completion_time == base.completion_time
            assert nulled.served_ocs_direct == base.served_ocs_direct
            assert nulled.served_composite == base.served_composite
            assert nulled.served_eps == base.served_eps
            np.testing.assert_array_equal(nulled.finish_times, base.finish_times)

    @given(demand=demands(), plan=plans(), n_paths=PATH_COUNTS)
    @settings(max_examples=40, deadline=None)
    def test_same_plan_replays_identically(self, demand, plan, n_paths):
        _h_schedule, cp_schedule = _schedules(demand, n_paths)
        first = simulate_cp(demand, cp_schedule, PARAMS, faults=plan)
        second = simulate_cp(demand, cp_schedule, PARAMS, faults=plan)
        assert first.completion_time == second.completion_time
        assert first.released_composite == second.released_composite
        np.testing.assert_array_equal(first.finish_times, second.finish_times)
