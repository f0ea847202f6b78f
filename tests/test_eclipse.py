"""Tests for the Eclipse scheduler: duration grid and greedy loop."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hybrid.eclipse.durations import candidate_durations
from repro.hybrid.eclipse.scheduler import EclipseScheduler
from repro.switch.params import fast_ocs_params, slow_ocs_params


class TestCandidateDurations:
    def test_includes_drain_times_and_window_edge(self):
        residual = np.array([[10.0, 0.0], [0.0, 50.0]])
        durations = candidate_durations(residual, ocs_rate=100.0, max_duration=1.0)
        assert 0.1 in durations  # 10 Mb / 100
        assert 0.5 in durations  # 50 Mb / 100
        assert 1.0 in durations  # window edge

    def test_clipped_to_max_duration(self):
        residual = np.array([[500.0]])
        durations = candidate_durations(residual, ocs_rate=100.0, max_duration=1.0)
        assert durations.max() == pytest.approx(1.0)

    def test_empty_when_no_time(self):
        residual = np.array([[10.0]])
        assert candidate_durations(residual, 100.0, 0.0).size == 0

    def test_empty_when_no_demand(self):
        assert candidate_durations(np.zeros((3, 3)), 100.0, 1.0).size == 0

    def test_grid_size_caps_candidates(self):
        rng = np.random.default_rng(0)
        residual = rng.uniform(1, 100, (30, 30))
        durations = candidate_durations(residual, 100.0, 10.0, grid_size=8)
        assert durations.size <= 9  # grid + window edge

    def test_all_positive_and_sorted(self):
        rng = np.random.default_rng(1)
        residual = rng.uniform(0, 100, (10, 10))
        durations = candidate_durations(residual, 100.0, 2.0)
        assert (durations > 0).all()
        assert (np.diff(durations) > 0).all()

    def test_rejects_small_grid(self):
        with pytest.raises(ValueError):
            candidate_durations(np.ones((2, 2)), 100.0, 1.0, grid_size=1)


class TestEclipseScheduler:
    def test_window_defaults_match_paper_pairing(self):
        scheduler = EclipseScheduler()
        assert scheduler.resolved_window(fast_ocs_params(8)) == pytest.approx(1.0)
        assert scheduler.resolved_window(slow_ocs_params(8)) == pytest.approx(100.0)

    def test_explicit_window_wins(self):
        scheduler = EclipseScheduler(window=5.0)
        assert scheduler.resolved_window(fast_ocs_params(8)) == 5.0

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            EclipseScheduler(window=-1.0).resolved_window(fast_ocs_params(8))

    @pytest.mark.parametrize("window", [float("nan"), float("inf")])
    def test_non_finite_window_rejected(self, window, sparse_demand):
        # NaN used to return an empty schedule with no diagnostic, inf an
        # empty one with a clock-stall diagnostic.
        with pytest.raises(ValueError, match="window must be positive"):
            EclipseScheduler(window=window).schedule(sparse_demand, fast_ocs_params(8))

    def test_schedule_fits_window(self, sparse_demand):
        params = fast_ocs_params(8)
        scheduler = EclipseScheduler()
        schedule = scheduler.schedule(sparse_demand, params)
        assert schedule.makespan <= scheduler.resolved_window(params) + 1e-9

    def test_single_flow_served_fully(self):
        params = fast_ocs_params(4)
        demand = np.zeros((4, 4))
        demand[0, 3] = 40.0
        schedule = EclipseScheduler().schedule(demand, params)
        served = schedule.served_volume(demand, params.ocs_rate)
        assert served == pytest.approx(40.0)

    def test_greedy_prefers_dense_value(self):
        # A full permutation of heavy flows should be served before a lone
        # light flow.
        params = fast_ocs_params(4)
        demand = np.diag([30.0, 30.0, 30.0, 30.0])
        demand[0, 1] = 0.5
        schedule = EclipseScheduler().schedule(demand, params)
        first = schedule[0]
        np.testing.assert_array_equal(first.matching, np.arange(4))

    def test_permutations_are_pruned_partial(self, skewed_demand):
        # Circuits carrying nothing are removed, so composite grants can't
        # be spuriously read downstream.
        params = fast_ocs_params(8)
        schedule = EclipseScheduler().schedule(skewed_demand, params)
        for entry in schedule:
            rows = np.flatnonzero(entry.matching >= 0)
            cols = entry.matching[rows]
            assert rows.size > 0

    def test_empty_demand_gives_empty_schedule(self):
        params = fast_ocs_params(4)
        schedule = EclipseScheduler().schedule(np.zeros((4, 4)), params)
        assert schedule.n_configs == 0

    def test_served_volume_monotone_in_window(self, sparse_demand):
        params = fast_ocs_params(8)
        small = EclipseScheduler(window=0.2).schedule(sparse_demand, params)
        large = EclipseScheduler(window=1.0).schedule(sparse_demand, params)
        assert large.served_volume(sparse_demand, params.ocs_rate) >= small.served_volume(
            sparse_demand, params.ocs_rate
        ) - 1e-9

    def test_skewed_demand_fast_ocs_config_count(self):
        # Paper §3.2: Eclipse on pure skewed demand with the fast OCS uses
        # roughly 31-35 configurations in its 1 ms window (h-Switch).
        rng = np.random.default_rng(42)
        n = 32
        demand = np.zeros((n, n))
        dests = rng.choice(np.arange(1, n), size=26, replace=False)
        demand[0, dests] = rng.uniform(1.0, 1.3, 26)
        srcs = rng.choice(np.arange(0, n - 1), size=26, replace=False)
        demand[srcs, n - 1] += rng.uniform(1.0, 1.3, 26)
        params = fast_ocs_params(n)
        schedule = EclipseScheduler().schedule(demand, params)
        assert 25 <= schedule.n_configs <= 40
