"""Tests for the closed-loop epoch controller."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hybrid.solstice import SolsticeScheduler
from repro.analysis.controller import EpochController, EpochReport
from repro.switch.params import fast_ocs_params


def skew_arrivals(n: int):
    """Arrival process: a one-to-many burst every epoch."""
    def arrivals(epoch: int) -> np.ndarray:
        rng = np.random.default_rng(1000 + epoch)
        demand = np.zeros((n, n))
        sender = epoch % n
        targets = rng.choice(np.setdiff1d(np.arange(n), [sender]), size=int(0.8 * n), replace=False)
        demand[sender, targets] = rng.uniform(1.0, 1.3, targets.size)
        return demand

    return arrivals


class TestEpochController:
    def test_offer_enqueues(self):
        controller = EpochController(fast_ocs_params(8), SolsticeScheduler())
        arrivals = np.zeros((8, 8))
        arrivals[0, 1] = 4.0
        offered = controller.offer(arrivals)
        assert offered == 4.0
        assert controller.voqs.backlog == pytest.approx(4.0)

    def test_offer_shape_checked(self):
        controller = EpochController(fast_ocs_params(8), SolsticeScheduler())
        with pytest.raises(ValueError):
            controller.offer(np.zeros((4, 4)))

    def test_single_epoch_drains_backlog(self):
        controller = EpochController(fast_ocs_params(16), SolsticeScheduler())
        controller.offer(skew_arrivals(16)(0))
        report, result = controller.run_epoch()
        assert report.kept_up
        assert controller.voqs.backlog == pytest.approx(0.0, abs=1e-6)
        assert report.completion_time == result.completion_time

    def test_multi_epoch_run(self):
        controller = EpochController(fast_ocs_params(16), SolsticeScheduler())
        reports = controller.run(skew_arrivals(16), n_epochs=3)
        assert len(reports) == 3
        assert [r.epoch for r in reports] == [0, 1, 2]
        assert all(r.kept_up for r in reports)
        controller.voqs.check_conservation()

    def test_cp_controller_outpaces_h_controller(self):
        n = 32
        arrivals = skew_arrivals(n)
        h_controller = EpochController(fast_ocs_params(n), SolsticeScheduler())
        cp_controller = EpochController(
            fast_ocs_params(n), SolsticeScheduler(), use_composite_paths=True
        )
        h_reports = h_controller.run(arrivals, n_epochs=2)
        cp_reports = cp_controller.run(arrivals, n_epochs=2)
        for h_report, cp_report in zip(h_reports, cp_reports):
            assert cp_report.completion_time < h_report.completion_time
            assert cp_report.n_configs < h_report.n_configs

    def test_empty_epoch(self):
        controller = EpochController(fast_ocs_params(8), SolsticeScheduler())
        report, _result = controller.run_epoch()
        assert report.offered_volume == 0.0
        assert report.completion_time == 0.0
        assert report.kept_up

    def test_rejects_zero_epochs(self):
        controller = EpochController(fast_ocs_params(8), SolsticeScheduler())
        with pytest.raises(ValueError):
            controller.run(skew_arrivals(8), n_epochs=0)

    def test_total_served_accumulates(self):
        controller = EpochController(fast_ocs_params(16), SolsticeScheduler())
        reports = controller.run(skew_arrivals(16), n_epochs=2)
        total_offered = sum(r.offered_volume for r in reports)
        assert controller.voqs.total_served == pytest.approx(total_offered, rel=1e-9)


def _burst(n: int, volume: float = 10.0) -> np.ndarray:
    demand = np.zeros((n, n))
    demand[0, 1] = volume
    return demand


class TestOfferBookkeeping:
    """offer() / carryover / residual accounting across epochs."""

    def test_offer_accumulates_across_calls(self):
        controller = EpochController(fast_ocs_params(8), SolsticeScheduler())
        assert controller.offer(_burst(8, 3.0)) == pytest.approx(3.0)
        assert controller.offer(_burst(8, 2.0)) == pytest.approx(2.0)
        assert controller.voqs.backlog == pytest.approx(5.0)
        controller.check_conservation()

    def test_carryover_retried_next_epoch(self):
        # A tiny epoch budget strands volume; it must stay queued and be
        # served by later epochs, with the ledger balancing throughout.
        controller = EpochController(
            fast_ocs_params(8), SolsticeScheduler(), epoch_duration=0.1
        )
        controller.offer(_burst(8, 20.0))
        report0, _ = controller.run_epoch(0)
        assert report0.stranded_volume > 0
        assert report0.backlog_after == pytest.approx(report0.stranded_volume, rel=1e-9)
        served_total = report0.served_volume
        for epoch in range(1, 200):
            report, _ = controller.run_epoch(epoch)
            served_total += report.served_volume
            if report.kept_up:
                break
        assert served_total == pytest.approx(20.0, rel=1e-9)
        controller.check_conservation()

    def test_offered_volume_snapshots_queue_not_arrivals(self):
        controller = EpochController(
            fast_ocs_params(8), SolsticeScheduler(), epoch_duration=0.005
        )
        controller.offer(_burst(8, 20.0))
        report0, _ = controller.run_epoch(0)
        controller.offer(_burst(8, 1.0))
        report1, _ = controller.run_epoch(1)
        # Epoch 1's offered volume = fresh arrival + epoch 0's carryover.
        assert report1.offered_volume == pytest.approx(
            1.0 + report0.stranded_volume, rel=1e-9
        )

    def test_residual_bookkeeping_zero_without_truncation(self):
        controller = EpochController(fast_ocs_params(8), SolsticeScheduler())
        controller.offer(_burst(8, 4.0))
        report, _ = controller.run_epoch(0)
        assert report.stranded_volume == pytest.approx(0.0, abs=1e-9)
        assert report.shed_volume == 0.0
        assert report.backlog_after == pytest.approx(0.0, abs=1e-6)
        controller.check_conservation()

    def test_ledger_survives_interleaved_offers(self):
        controller = EpochController(fast_ocs_params(8), SolsticeScheduler())
        total = 0.0
        for k in range(5):
            total += controller.offer(_burst(8, float(k + 1)))
            controller.run_epoch(k)
        assert controller.voqs.total_served == pytest.approx(total, rel=1e-9)
        assert controller.shed_volume_total == 0.0
        assert controller.parked_volume == 0.0
        controller.check_conservation()


class TestDeadlineBackpressure:
    """deadline_s threading + backlog-aware admission (shed / park)."""

    @staticmethod
    def _bounded(n=8, *, step=1.0, deadline=2.5, **overrides):
        from repro.service.deadline import TickClock

        overrides.setdefault("use_composite_paths", True)
        overrides.setdefault("epoch_duration", 0.5)
        return EpochController(
            fast_ocs_params(n),
            SolsticeScheduler(),
            deadline_s=deadline,
            deadline_clock=TickClock(step=step),
            **overrides,
        )

    def test_deadline_requires_composite_paths(self):
        with pytest.raises(ValueError, match="use_composite_paths"):
            EpochController(fast_ocs_params(8), SolsticeScheduler(), deadline_s=1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan")])
    def test_rejects_bad_deadline(self, bad):
        with pytest.raises(ValueError, match="deadline_s"):
            EpochController(
                fast_ocs_params(8),
                SolsticeScheduler(),
                use_composite_paths=True,
                deadline_s=bad,
            )

    def test_rejects_bad_backpressure_knobs(self):
        with pytest.raises(ValueError, match="max_backlog"):
            EpochController(fast_ocs_params(8), SolsticeScheduler(), max_backlog=0.0)
        with pytest.raises(ValueError, match="overflow_policy"):
            EpochController(
                fast_ocs_params(8), SolsticeScheduler(), overflow_policy="drop"
            )

    def test_report_threads_anytime_outcome(self):
        controller = self._bounded()
        controller.offer(_burst(8, 10.0))
        report, _ = controller.run_epoch(0)
        assert report.deadline_hit
        assert report.fallback_level > 0
        assert report.schedule_ms > 0
        controller.check_conservation()

    def test_unbounded_report_has_level_zero(self):
        controller = EpochController(
            fast_ocs_params(8), SolsticeScheduler(), use_composite_paths=True
        )
        controller.offer(_burst(8, 10.0))
        report, _ = controller.run_epoch(0)
        assert not report.deadline_hit
        assert report.fallback_level == 0
        assert report.schedule_age_epochs == 0

    def test_shed_engages_after_misses_and_is_ledgered(self):
        controller = self._bounded(max_backlog=5.0, overflow_policy="shed")
        # Epoch 0: no misses yet, everything admitted.
        assert controller.offer(_burst(8, 10.0)) == pytest.approx(10.0)
        report0, _ = controller.run_epoch(0)
        assert report0.deadline_hit and report0.shed_volume == 0.0
        # Epoch 1: a miss is on the books -> admission bounded by headroom.
        backlog = controller.voqs.backlog
        admitted = controller.offer(_burst(8, 10.0))
        assert admitted == pytest.approx(max(0.0, 5.0 - backlog))
        report1, _ = controller.run_epoch(1)
        assert report1.shed_volume == pytest.approx(10.0 - admitted)
        assert controller.shed_volume_total == pytest.approx(10.0 - admitted)
        controller.check_conservation()

    def test_park_reoffers_instead_of_dropping(self):
        controller = self._bounded(max_backlog=5.0, overflow_policy="park")
        controller.offer(_burst(8, 10.0))
        controller.run_epoch(0)
        controller.offer(_burst(8, 10.0))
        parked_after = controller.parked_volume
        assert parked_after > 0
        assert controller.shed_volume_total == 0.0
        controller.check_conservation()
        # Parked volume re-enters at the next offer.
        controller.run_epoch(1)
        controller.offer(np.zeros((8, 8)))
        controller.check_conservation()

    def test_every_bounded_epoch_yields_valid_schedule(self):
        controller = self._bounded(max_backlog=25.0)
        for epoch in range(5):
            controller.offer(_burst(8, 10.0))
            report, result = controller.run_epoch(epoch)
            result.check_conservation()
            assert report.fallback_level in (0, 1, 2, 3, 4)
        controller.check_conservation()


class TestKeptUpScaling:
    """kept_up must use a *relative* residual cutoff (VOLUME_TOL-scaled)."""

    def _report(self, offered: float, backlog: float) -> "EpochReport":
        return EpochReport(
            epoch=0,
            offered_volume=offered,
            served_volume=offered - backlog,
            completion_time=1.0,
            n_configs=1,
            makespan=1.0,
            backlog_after=backlog,
        )

    def test_large_epoch_float_dust_still_kept_up(self):
        # 0.25 Mb of float dust after a fully-drained 1e9 Mb epoch is
        # 2.5e-10 relative; the old absolute cutoff (VOLUME_TOL * 1e3)
        # misreported this as falling behind.
        assert self._report(1e9, 0.25).kept_up

    def test_cutoff_scales_with_offered_volume(self):
        assert self._report(1e9, 1.0).kept_up  # exactly VOLUME_TOL * 1e9
        assert not self._report(1e9, 2.5).kept_up  # genuine residual

    def test_small_epoch_cutoff_stays_strict(self):
        # max(1, total) floors the scale: tiny epochs keep the absolute
        # VOLUME_TOL cutoff rather than an even smaller relative one.
        assert not self._report(1.0, 1e-6).kept_up
        assert self._report(1.0, 5e-10).kept_up
        assert self._report(0.0, 0.0).kept_up

    def test_radix128_gigabit_epoch_keeps_up(self):
        # End-to-end acceptance: a radix-128 epoch scaled past 1e9 Mb of
        # offered volume drains and *reports* kept_up despite float dust.
        n = 128
        controller = EpochController(fast_ocs_params(n), SolsticeScheduler())
        demand = skew_arrivals(n)(0)
        demand *= 1.5e9 / demand.sum()
        offered = controller.offer(demand)
        assert offered >= 1e9
        report, _result = controller.run_epoch()
        assert report.offered_volume >= 1e9
        assert report.kept_up
        assert controller.voqs.backlog <= 1e-9 * offered
        controller.check_conservation()
