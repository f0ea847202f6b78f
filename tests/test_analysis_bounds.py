"""Tests for the analytic completion-time bounds."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import (
    cp_bound,
    efficiency,
    eps_only_bound,
    hybrid_bound,
    reconfiguration_bound,
)
from repro.core.scheduler import CpSwitchScheduler
from repro.hybrid.base import make_scheduler
from repro.hybrid.solstice import SolsticeScheduler
from repro.sim import simulate_cp, simulate_hybrid
from repro.switch.params import fast_ocs_params, ocs_params, slow_ocs_params
from repro.workloads.base import volume_scale_for
from repro.workloads.combined import CombinedWorkload
from repro.workloads.skewed import SkewedWorkload


#: Relative slack for a completion time against a bound it can meet
#: exactly (an EPS-only run finishes at ``L / Ce``).
BOUND_RTOL = 1e-9


@pytest.fixture
def params():
    return fast_ocs_params(16)


class TestBoundValues:
    def test_eps_only_bound(self, params):
        demand = np.zeros((16, 16))
        demand[0, 1] = 30.0
        assert eps_only_bound(demand, params) == pytest.approx(3.0)

    def test_hybrid_bound_includes_delta_when_ocs_needed(self, params):
        demand = np.zeros((16, 16))
        demand[0, 1] = 110.0  # EPS alone: 11 ms >> (Ce+Co) after one δ
        # The transceiver is dark for the first δ: (L + Co·δ) / (Ce + Co).
        assert hybrid_bound(demand, params) == pytest.approx(112.0 / 110.0)

    def test_cp_bound_below_hybrid_bound(self, params):
        demand = np.zeros((16, 16))
        demand[0, 1:15] = 10.0
        assert cp_bound(demand, params) <= hybrid_bound(demand, params)

    def test_zero_demand(self, params):
        zeros = np.zeros((16, 16))
        assert eps_only_bound(zeros, params) == 0.0
        assert hybrid_bound(zeros, params) == 0.0
        assert cp_bound(zeros, params) == 0.0

    def test_reconfiguration_bound_counts_fanout(self, params):
        demand = np.zeros((16, 16))
        demand[0, 1:13] = 1.0  # fan-out 12
        assert reconfiguration_bound(demand, params, horizon=1.0) == pytest.approx(
            12 * 0.02
        )

    def test_reconfiguration_bound_rejects_negative_horizon(self, params):
        with pytest.raises(ValueError):
            reconfiguration_bound(np.zeros((16, 16)), params, horizon=-1.0)


class TestBoundsAreActualLowerBounds:
    """No simulated schedule may beat the bounds."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_h_switch_never_beats_hybrid_bound(self, params, seed):
        spec = CombinedWorkload.typical(params).generate(16, np.random.default_rng(seed))
        schedule = SolsticeScheduler().schedule(spec.demand, params)
        result = simulate_hybrid(spec.demand, schedule, params)
        assert result.completion_time >= hybrid_bound(spec.demand, params) - 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cp_switch_never_beats_cp_bound(self, params, seed):
        spec = SkewedWorkload().generate(16, np.random.default_rng(seed))
        cp_schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(spec.demand, params)
        result = simulate_cp(spec.demand, cp_schedule, params)
        assert result.completion_time >= cp_bound(spec.demand, params) - 1e-9

    @pytest.mark.parametrize("inner", ["solstice", "eclipse"])
    def test_eps_only_finish_inside_the_first_gap(self, inner):
        # Slow OCS: the EPS alone finishes the 100 Mb row at 10 ms, before
        # the first 20 ms reconfiguration ends, so no bound may add a δ.
        params = slow_ocs_params(16)
        demand = np.zeros((16, 16))
        demand[0, 1:11] = 10.0
        assert hybrid_bound(demand, params) == pytest.approx(10.0)
        assert cp_bound(demand, params) == pytest.approx(10.0)
        scheduler = make_scheduler(inner)
        h = simulate_hybrid(demand, scheduler.schedule(demand, params), params)
        cp_schedule = CpSwitchScheduler(scheduler).schedule(demand, params)
        cp = simulate_cp(demand, cp_schedule, params)
        assert h.completion_time == pytest.approx(10.0)
        assert cp.completion_time == pytest.approx(10.0)
        assert h.completion_time >= hybrid_bound(demand, params) * (1 - BOUND_RTOL)
        assert cp.completion_time >= cp_bound(demand, params) * (1 - BOUND_RTOL)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(4, 12),
        ocs=st.sampled_from(["fast", "slow"]),
        inner=st.sampled_from(["solstice", "eclipse"]),
        heavy=st.floats(0.0, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_no_run_beats_the_bound(self, seed, n, ocs, inner, heavy):
        params = ocs_params(ocs, n)
        rng = np.random.default_rng(seed)
        scale = volume_scale_for(params)
        # Light (EPS-only) to heavy (OCS-bound) demands.
        demand = rng.uniform(0.0, 1.0 + 40.0 * heavy, (n, n)) * scale
        demand *= rng.random((n, n)) < 0.6
        np.fill_diagonal(demand, 0.0)
        bound = hybrid_bound(demand, params)
        scheduler = make_scheduler(inner)
        h = simulate_hybrid(demand, scheduler.schedule(demand, params), params)
        cp_schedule = CpSwitchScheduler(scheduler).schedule(demand, params)
        cp = simulate_cp(demand, cp_schedule, params)
        assert h.completion_time >= bound * (1 - BOUND_RTOL)
        assert cp.completion_time >= bound * (1 - BOUND_RTOL)

    def test_eps_only_execution_meets_its_bound_exactly(self, params):
        # A pure fan-in saturates one port: the fluid EPS achieves the
        # bound with equality.
        from repro.hybrid.schedule import Schedule

        demand = np.zeros((16, 16))
        demand[0:10, 15] = 2.0
        result = simulate_hybrid(
            demand, Schedule(entries=(), reconfig_delay=params.reconfig_delay), params
        )
        assert result.completion_time == pytest.approx(eps_only_bound(demand, params))


class TestEfficiency:
    def test_perfect(self):
        assert efficiency(2.0, 2.0) == 1.0

    def test_partial(self):
        assert efficiency(4.0, 2.0) == 0.5

    def test_capped_at_one(self):
        assert efficiency(1.0, 2.0) == 1.0

    def test_zero_completion(self):
        assert efficiency(0.0, 0.0) == 1.0
