"""Tests for horizon-bounded execution and the sustained-load controller."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.controller import EpochController
from repro.core.scheduler import CpSwitchScheduler
from repro.hybrid.schedule import Schedule, ScheduleEntry
from repro.hybrid.solstice import SolsticeScheduler
from repro.sim import simulate_cp, simulate_hybrid
from repro.switch.params import fast_ocs_params


class TestHybridHorizon:
    def test_zero_horizon_serves_nothing(self):
        params = fast_ocs_params(8)
        demand = np.zeros((8, 8))
        demand[0, 1] = 10.0
        schedule = SolsticeScheduler().schedule(demand, params)
        result = simulate_hybrid(demand, schedule, params, horizon=0.0)
        assert result.residual_total == pytest.approx(10.0)
        assert not result.finished
        assert np.isnan(result.completion_time)
        result.check_conservation()

    def test_horizon_truncates_mid_schedule(self):
        params = fast_ocs_params(8)
        demand = np.zeros((8, 8))
        demand[0, 1] = 50.0
        matching = np.full(8, -1)
        matching[0] = 1
        schedule = Schedule(
            entries=(ScheduleEntry(matching=matching, duration=0.5),),
            reconfig_delay=0.02,
        )
        # Horizon 0.12: 0.02 reconfig (EPS serves 0.2 Mb) + 0.1 circuit
        # (10 Mb) -> ~10.2 Mb served, ~39.8 left.
        result = simulate_hybrid(demand, schedule, params, horizon=0.12)
        assert result.residual_total == pytest.approx(39.8, abs=0.01)
        result.check_conservation()

    def test_horizon_past_completion_equals_unbounded(self, sparse_demand):
        params = fast_ocs_params(8)
        schedule = SolsticeScheduler().schedule(sparse_demand, params)
        unbounded = simulate_hybrid(sparse_demand, schedule, params)
        bounded = simulate_hybrid(
            sparse_demand, schedule, params, horizon=unbounded.completion_time + 1.0
        )
        assert bounded.finished
        assert bounded.completion_time == pytest.approx(unbounded.completion_time)

    def test_delivered_fraction_monotone_in_horizon(self, sparse_demand):
        params = fast_ocs_params(8)
        schedule = SolsticeScheduler().schedule(sparse_demand, params)
        fractions = [
            simulate_hybrid(sparse_demand, schedule, params, horizon=h).delivered_fraction
            for h in (0.05, 0.1, 0.2, 0.5)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(fractions, fractions[1:]))

    def test_negative_horizon_rejected(self, sparse_demand):
        params = fast_ocs_params(8)
        schedule = SolsticeScheduler().schedule(sparse_demand, params)
        with pytest.raises(ValueError):
            simulate_hybrid(sparse_demand, schedule, params, horizon=-1.0)

    @pytest.mark.parametrize("horizon", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_horizon_rejected(self, skewed_demand16, horizon):
        # A NaN horizon used to serve nothing (every phase budget clamped to
        # 0) and an infinite one returned NaN served volumes; None is the
        # run-to-completion form.
        params = fast_ocs_params(16)
        schedule = SolsticeScheduler().schedule(skewed_demand16, params)
        with pytest.raises(ValueError, match="horizon must be finite"):
            simulate_hybrid(skewed_demand16, schedule, params, horizon=horizon)


class TestCpHorizon:
    def test_composite_residual_reported(self, skewed_demand16):
        params = fast_ocs_params(16)
        cp_schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(
            skewed_demand16, params
        )
        result = simulate_cp(skewed_demand16, cp_schedule, params, horizon=0.05)
        assert result.residual_total > 0
        result.check_conservation()

    def test_horizon_past_completion_matches_unbounded(self, skewed_demand16):
        params = fast_ocs_params(16)
        cp_schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(
            skewed_demand16, params
        )
        unbounded = simulate_cp(skewed_demand16, cp_schedule, params)
        bounded = simulate_cp(
            skewed_demand16, cp_schedule, params, horizon=unbounded.completion_time + 0.5
        )
        assert bounded.finished
        assert bounded.completion_time == pytest.approx(unbounded.completion_time)
        assert bounded.served_composite == pytest.approx(unbounded.served_composite)

    @pytest.mark.parametrize("horizon", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_horizon_rejected(self, skewed_demand16, horizon):
        params = fast_ocs_params(16)
        cp_schedule = CpSwitchScheduler(SolsticeScheduler()).schedule(
            skewed_demand16, params
        )
        with pytest.raises(ValueError, match="horizon must be finite"):
            simulate_cp(skewed_demand16, cp_schedule, params, horizon=horizon)


class TestSustainedLoadController:
    def _arrivals(self, n: int, per_epoch_volume: float):
        def arrivals(epoch: int) -> np.ndarray:
            rng = np.random.default_rng(epoch)
            demand = np.zeros((n, n))
            sender = epoch % n
            targets = rng.choice(
                np.setdiff1d(np.arange(n), [sender]), size=n - 1, replace=False
            )
            demand[sender, targets] = per_epoch_volume / (n - 1)
            return demand

        return arrivals

    def test_underload_keeps_up(self):
        n = 16
        params = fast_ocs_params(n)
        controller = EpochController(
            params, SolsticeScheduler(), epoch_duration=1.0
        )
        # 20 Mb/epoch into a switch that can move >100 Mb/ms: trivial.
        reports = controller.run(self._arrivals(n, 20.0), n_epochs=3)
        assert all(report.kept_up for report in reports)

    def test_overload_grows_backlog(self):
        n = 16
        params = fast_ocs_params(n)
        controller = EpochController(
            params, SolsticeScheduler(), epoch_duration=0.05
        )
        # One sender fanning out 30 Mb per 0.05 ms epoch: its EPS drains at
        # most 0.5 Mb and the OCS a handful of slices -> backlog grows.
        reports = controller.run(self._arrivals(n, 30.0), n_epochs=3)
        backlogs = [report.backlog_after for report in reports]
        assert backlogs[-1] > backlogs[0]
        assert not reports[-1].kept_up
        controller.voqs.check_conservation()

    def test_cp_controller_sustains_higher_skewed_load(self):
        # At a load level where the h-Switch epoch budget is dominated by
        # reconfigurations, the cp-Switch still keeps up.
        n = 32
        params = fast_ocs_params(n)
        arrivals = self._arrivals(n, 40.0)
        epoch = 0.6
        h_controller = EpochController(params, SolsticeScheduler(), epoch_duration=epoch)
        cp_controller = EpochController(
            params, SolsticeScheduler(), use_composite_paths=True, epoch_duration=epoch
        )
        h_reports = h_controller.run(arrivals, n_epochs=3)
        cp_reports = cp_controller.run(arrivals, n_epochs=3)
        assert cp_reports[-1].backlog_after <= h_reports[-1].backlog_after + 1e-6

    def test_invalid_epoch_duration(self):
        with pytest.raises(ValueError):
            EpochController(fast_ocs_params(8), SolsticeScheduler(), epoch_duration=0.0)

    @pytest.mark.parametrize("duration", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_epoch_duration_rejected(self, duration):
        # NaN used to serve 0 Mb every epoch; inf reported NaN served and
        # NaN backlog.  None is the run-to-completion form.
        with pytest.raises(ValueError, match="epoch_duration must be finite"):
            EpochController(
                fast_ocs_params(8), SolsticeScheduler(), epoch_duration=duration
            )

    def test_served_volume_reported(self):
        n = 16
        params = fast_ocs_params(n)
        controller = EpochController(params, SolsticeScheduler(), epoch_duration=0.1)
        controller.offer(self._arrivals(n, 30.0)(0))
        report, _ = controller.run_epoch()
        assert report.served_volume + report.backlog_after == pytest.approx(
            report.offered_volume
        )
