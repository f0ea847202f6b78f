"""Regression tests for the silent metric-reporting bugs.

Five bugs, one test class each:

* ``coflow_completion`` used to drop NaN finish times and max the rest, so
  a coflow whose flows all never finished reported 0.0 ms — the *best*
  possible score for work that never completed.  It now reports
  ``math.inf`` and bumps the ``coflow_never_finished_total`` counter.
* ``ocs_fraction_within`` returned 0.0 on zero demand while
  ``delivered_fraction`` returned 1.0 — the vacuous case now agrees on 1.0
  everywhere.
* ``finished`` used an absolute 1e-9 Mb cutoff while ``check_conservation``
  scales its tolerance by the total demand — large-volume runs could fail
  ``finished`` over float dust that conservation happily accepted.
* ``check_conservation`` compared with ``drift > tol``, which is False for
  NaN, so a run with NaN served volumes passed it.
* ``ocs_fraction_within(nan)`` checked ``time < 0``, which is False for NaN,
  and reported the whole run's OCS fraction, the same as ``inf``.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import obs
from repro.hybrid.solstice import SolsticeScheduler
from repro.sim import simulate_hybrid
from repro.sim.metrics import SimulationResult
from repro.switch.params import SwitchParams

PARAMS = SwitchParams(n_ports=4, eps_rate=10.0, ocs_rate=100.0, reconfig_delay=0.02)


def _result(finish_times, residual=None, total_demand=0.0, **kwargs):
    finish_times = np.asarray(finish_times, dtype=np.float64)
    return SimulationResult(
        finish_times=finish_times,
        completion_time=0.0,
        n_configs=0,
        makespan=0.0,
        total_demand=total_demand,
        residual=None if residual is None else np.asarray(residual, dtype=np.float64),
        **kwargs,
    )


class TestCoflowNeverFinished:
    def test_all_pending_mask_reports_inf_not_zero(self):
        # Two flows demanded, neither finished: nan finish + residual left.
        finish = [[np.nan, np.nan], [np.nan, np.nan]]
        residual = [[5.0, 3.0], [0.0, 0.0]]
        result = _result(finish, residual=residual, total_demand=8.0)
        mask = np.array([[True, True], [False, False]])
        assert result.coflow_completion(mask) == math.inf

    def test_mixed_mask_reports_inf_when_any_flow_pending(self):
        finish = [[1.5, np.nan], [np.nan, np.nan]]
        residual = [[0.0, 4.0], [0.0, 0.0]]
        result = _result(finish, residual=residual, total_demand=10.0)
        mask = np.array([[True, True], [False, False]])
        assert result.coflow_completion(mask) == math.inf

    def test_undemanded_mask_still_reports_zero(self):
        # nan finish with no residual volume = never demanded, not pending.
        finish = [[1.5, np.nan], [np.nan, np.nan]]
        residual = [[0.0, 0.0], [0.0, 0.0]]
        result = _result(finish, residual=residual, total_demand=1.5)
        mask = np.array([[False, True], [True, True]])
        assert result.coflow_completion(mask) == 0.0

    def test_run_to_completion_results_unchanged(self):
        # residual=None (unbounded run): every nan is an undemanded entry.
        finish = [[2.0, np.nan], [np.nan, 3.5]]
        result = _result(finish, total_demand=7.0)
        mask = np.ones((2, 2), dtype=bool)
        assert result.coflow_completion(mask) == 3.5

    def test_horizon_bounded_simulation_reports_inf(self):
        # Integration: cut a real simulation off before any flow finishes.
        rng = np.random.default_rng(7)
        demand = rng.uniform(10.0, 50.0, (4, 4))
        np.fill_diagonal(demand, 0.0)
        schedule = SolsticeScheduler().schedule(demand, PARAMS)
        result = simulate_hybrid(demand, schedule, PARAMS, horizon=1e-6)
        assert not result.finished
        assert result.coflow_completion(demand > 0) == math.inf

    def test_counter_increments_when_metrics_enabled(self):
        finish = [[np.nan, np.nan], [np.nan, np.nan]]
        residual = [[5.0, 0.0], [0.0, 0.0]]
        result = _result(finish, residual=residual, total_demand=5.0)
        mask = np.array([[True, False], [False, False]])
        registry = obs.MetricsRegistry()
        with obs.observability(metrics=registry):
            assert result.coflow_completion(mask) == math.inf
            assert result.coflow_completion(mask) == math.inf
        snapshot = registry.snapshot()
        assert snapshot["coflow_never_finished_total"]["values"][0]["value"] == 2.0

    def test_inf_survives_mean_aggregation(self):
        # Callers average coflow completion times; inf must dominate the
        # mean instead of silently improving it the way 0.0 did.
        assert math.isinf(float(np.mean([1.0, math.inf, 2.0])))


class TestZeroDemandConvention:
    def test_ocs_fraction_matches_delivered_fraction_on_zero_demand(self):
        result = _result(np.full((2, 2), np.nan), total_demand=0.0)
        assert result.delivered_fraction == 1.0
        assert result.ocs_fraction_within(1.0) == 1.0
        assert result.finished

    def test_nonzero_demand_unchanged(self):
        rng = np.random.default_rng(3)
        demand = rng.uniform(0.0, 20.0, (4, 4))
        np.fill_diagonal(demand, 0.0)
        schedule = SolsticeScheduler().schedule(demand, PARAMS)
        result = simulate_hybrid(demand, schedule, PARAMS)
        fraction = result.ocs_fraction_within(1.0)
        assert 0.0 <= fraction <= 1.0 + 1e-9
        np.testing.assert_allclose(
            fraction, result.ocs_volume_by(1.0) / result.total_demand
        )


class TestNanTimeRejected:
    def test_nan_window_raises_and_inf_is_the_whole_run(self):
        rng = np.random.default_rng(3)
        demand = rng.uniform(0.0, 20.0, (4, 4))
        schedule = SolsticeScheduler().schedule(demand, PARAMS)
        result = simulate_hybrid(demand, schedule, PARAMS)
        with pytest.raises(ValueError, match="time must be non-negative, got nan"):
            result.ocs_fraction_within(math.nan)
        whole_run = result.ocs_volume_by(result.segments[-1].end)
        assert result.ocs_volume_by(math.inf) == whole_run > 0


class TestFinishedRelativeTolerance:
    def test_large_volume_dust_counts_as_finished(self):
        # 1e-3 Mb of float dust on a petabit-scale run: conservation
        # accepts it, and now `finished` does too.
        result = _result(
            np.zeros((2, 2)),
            residual=[[1e-3, 0.0], [0.0, 0.0]],
            total_demand=1e12,
        )
        assert result.finished

    def test_small_demand_keeps_absolute_cutoff(self):
        # max(1, total) floors the scale factor, so tiny demands keep the
        # strict absolute threshold: a real 1e-3 Mb residual is unfinished.
        result = _result(
            np.zeros((2, 2)),
            residual=[[1e-3, 0.0], [0.0, 0.0]],
            total_demand=2e-3,
        )
        assert not result.finished

    def test_exact_zero_residual_finished(self):
        result = _result(
            np.zeros((2, 2)), residual=np.zeros((2, 2)), total_demand=100.0
        )
        assert result.finished

    def test_agreement_with_conservation_scaling(self):
        # The same residual either passes both checks or fails both.
        residual = [[0.5e-6, 0.0], [0.0, 0.0]]
        result = _result(
            np.zeros((2, 2)),
            residual=residual,
            total_demand=1e6,
            served_eps=1e6 - 0.5e-6,
        )
        result.check_conservation()  # scaled tolerance accepts the dust
        assert result.finished

    def test_genuinely_unfinished_run_detected(self):
        rng = np.random.default_rng(11)
        demand = rng.uniform(10.0, 50.0, (4, 4))
        np.fill_diagonal(demand, 0.0)
        schedule = SolsticeScheduler().schedule(demand, PARAMS)
        result = simulate_hybrid(demand, schedule, PARAMS, horizon=1e-6)
        assert not result.finished
        assert result.residual_total == pytest.approx(result.total_demand, rel=1e-3)


class TestConservationRejectsNan:
    def test_nan_served_volume_fails(self):
        # The shape an infinite horizon used to produce: NaN served volume
        # and a NaN residual.
        result = _result(
            [[np.nan, 1.0], [np.nan, np.nan]],
            residual=[[0.0, np.nan], [0.0, 0.0]],
            total_demand=5.0,
            served_eps=math.nan,
        )
        with pytest.raises(AssertionError, match="conservation violated"):
            result.check_conservation()

    def test_nan_released_composite_fails(self):
        result = _result(
            [[np.nan, 1.0], [np.nan, np.nan]],
            residual=[[0.0, 0.0], [0.0, 0.0]],
            total_demand=5.0,
            served_eps=5.0,
            released_composite=math.nan,
        )
        with pytest.raises(AssertionError, match="released composite volume"):
            result.check_conservation()
