"""Tests for the TDM strawman scheduler (Figure 1(a))."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.scheduler import CpSwitchScheduler
from repro.hybrid.solstice import SolsticeScheduler
from repro.hybrid.tdm import TdmScheduler
from repro.sim import simulate_cp, simulate_hybrid
from repro.switch.params import fast_ocs_params


class TestEdgeColoring:
    def test_rounds_partition_entries(self):
        rng = np.random.default_rng(0)
        mask = rng.random((8, 8)) < 0.4
        rounds = TdmScheduler._edge_coloring(mask)
        total = np.zeros_like(mask, dtype=int)
        for matching in rounds:
            rows = np.flatnonzero(matching >= 0)
            assert np.unique(matching[rows]).size == rows.size  # one per column
            total[rows, matching[rows]] += 1
        np.testing.assert_array_equal(total.astype(bool), mask)
        assert (total <= 1).all()

    def test_round_count_at_least_max_degree(self):
        mask = np.zeros((6, 6), dtype=bool)
        mask[0, 1:6] = True  # out-degree 5
        rounds = TdmScheduler._edge_coloring(mask)
        assert len(rounds) == 5

    def test_empty(self):
        assert TdmScheduler._edge_coloring(np.zeros((3, 3), dtype=bool)) == []


class TestTdmScheduler:
    def test_serializes_one_to_many(self, skewed_demand16):
        params = fast_ocs_params(16)
        schedule = TdmScheduler().schedule(skewed_demand16, params)
        # A fan-out of 14 entries forces >= 14 configurations per cycle.
        assert schedule.n_configs >= 14

    def test_adaptive_covers_demand_fast(self, skewed_demand16):
        params = fast_ocs_params(16)
        schedule = TdmScheduler(adaptive=True).schedule(skewed_demand16, params)
        covered = schedule.served_volume(skewed_demand16, params.ocs_rate)
        # Adaptive rounds drain their entries fully each visit.
        assert covered >= 0.9 * skewed_demand16.sum() or (
            schedule.makespan * params.eps_rate >= skewed_demand16.sum()
        )

    def test_empty_demand(self):
        params = fast_ocs_params(4)
        schedule = TdmScheduler().schedule(np.zeros((4, 4)), params)
        assert schedule.n_configs == 0

    def test_invalid_quantum(self):
        params = fast_ocs_params(4)
        with pytest.raises(ValueError):
            TdmScheduler(quantum=0.0).schedule(np.ones((4, 4)) - np.eye(4), params)

    def test_simulation_completes(self, sparse_demand):
        params = fast_ocs_params(8)
        schedule = TdmScheduler().schedule(sparse_demand, params)
        result = simulate_hybrid(sparse_demand, schedule, params)
        result.check_conservation()

    def test_works_as_cp_inner_scheduler(self, skewed_demand16):
        # Algorithm 4 is generic over the sub-scheduler: even the TDM
        # strawman benefits from composite paths.
        params = fast_ocs_params(16)
        tdm = TdmScheduler(adaptive=True)
        h_result = simulate_hybrid(
            skewed_demand16, tdm.schedule(skewed_demand16, params), params
        )
        cp_schedule = CpSwitchScheduler(tdm).schedule(skewed_demand16, params)
        cp_result = simulate_cp(skewed_demand16, cp_schedule, params)
        assert cp_result.n_configs < h_result.n_configs
        assert cp_result.completion_time < h_result.completion_time

    def test_strawman_loses_to_solstice(self, sparse_demand):
        # Sanity of the baseline ordering: TDM (no intelligence) should
        # need at least as many configurations as Solstice.
        params = fast_ocs_params(8)
        tdm_configs = TdmScheduler().schedule(sparse_demand, params).n_configs
        solstice_configs = SolsticeScheduler().schedule(sparse_demand, params).n_configs
        assert tdm_configs >= solstice_configs
