"""Tests for the offline-execution reordering policies (§4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.offline import (
    POLICIES,
    composite_first,
    longest_first,
    online_order,
    reorder,
    reversed_order,
    shortest_first,
)
from repro.core.scheduler import CpSwitchScheduler
from repro.hybrid.solstice import SolsticeScheduler
from repro.sim import simulate_cp, simulate_hybrid
from repro.switch.params import fast_ocs_params
from repro.workloads.combined import CombinedWorkload


@pytest.fixture(scope="module")
def schedules():
    params = fast_ocs_params(16)
    spec = CombinedWorkload.typical(params).generate(16, np.random.default_rng(2))
    h_schedule = SolsticeScheduler().schedule(spec.demand, params)
    cp_schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(spec.demand, params)
    return params, spec, h_schedule, cp_schedule


class TestPolicies:
    def test_all_policies_are_permutations(self, schedules):
        _params, _spec, h_schedule, cp_schedule = schedules
        for name, policy in POLICIES.items():
            for schedule in (h_schedule, cp_schedule):
                order = policy(schedule)
                assert sorted(order) == list(range(len(schedule.entries))), name

    def test_online_is_identity(self, schedules):
        _params, _spec, h_schedule, _cp = schedules
        assert online_order(h_schedule) == list(range(h_schedule.n_configs))

    def test_reversed(self, schedules):
        _params, _spec, h_schedule, _cp = schedules
        assert reversed_order(h_schedule) == list(range(h_schedule.n_configs))[::-1]

    def test_longest_and_shortest_are_opposite_extremes(self, schedules):
        _params, _spec, h_schedule, _cp = schedules
        longest = longest_first(h_schedule)
        shortest = shortest_first(h_schedule)
        durations = [entry.duration for entry in h_schedule.entries]
        assert durations[longest[0]] == max(durations)
        assert durations[shortest[0]] == min(durations)

    def test_composite_first_puts_grants_up_front(self, schedules):
        _params, _spec, _h, cp_schedule = schedules
        order = composite_first(cp_schedule)
        seen_regular = False
        for index in order:
            entry = cp_schedule.entries[index]
            has_composite = bool(entry.o2m_ports or entry.m2o_ports)
            if not has_composite:
                seen_regular = True
            else:
                assert not seen_regular, "composite grant after a regular-only config"


class TestReorderSemantics:
    def test_unknown_policy_rejected(self, schedules):
        _params, _spec, h_schedule, _cp = schedules
        with pytest.raises(ValueError):
            reorder(h_schedule, "random")

    def test_total_completion_near_invariant_h(self, schedules):
        # §4: under the paper's fixed demand-partition accounting,
        # reordering leaves the total completion unchanged.  The fluid
        # model lets the EPS co-serve whatever the circuits have not
        # reached yet, so reordering may *improve* the total slightly —
        # but it must never make it worse (same configurations, same
        # makespan).
        params, spec, h_schedule, _cp = schedules
        base = simulate_hybrid(spec.demand, h_schedule, params)
        for name in POLICIES:
            alt = simulate_hybrid(spec.demand, reorder(h_schedule, name), params)
            assert alt.completion_time <= base.completion_time * 1.02, name
            assert alt.n_configs == base.n_configs
            assert alt.makespan == pytest.approx(base.makespan)

    def test_total_completion_invariant_cp(self, schedules):
        params, spec, _h, cp_schedule = schedules
        base = simulate_cp(spec.demand, cp_schedule, params)
        alt = simulate_cp(spec.demand, reorder(cp_schedule, "composite-first"), params)
        assert alt.completion_time == pytest.approx(base.completion_time, rel=0.05)

    def test_composite_first_not_worse_for_skew_cp(self, schedules):
        params, spec, _h, cp_schedule = schedules
        base = simulate_cp(spec.demand, cp_schedule, params)
        alt = simulate_cp(spec.demand, reorder(cp_schedule, "composite-first"), params)
        assert alt.coflow_completion(spec.skewed_mask) <= (
            base.coflow_completion(spec.skewed_mask) * 1.10
        )
