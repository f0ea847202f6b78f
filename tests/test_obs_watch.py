"""Tests for sweep heartbeats and ``repro obs watch``."""

from __future__ import annotations

import json
import re

import pytest

from repro.obs.watch import (
    STALE_AFTER_S,
    WatchState,
    _percentile,
    collect_state,
    render_watch,
    watch,
)
from repro.runner.heartbeat import (
    HEARTBEAT_FORMAT,
    _safe_filename,
    heartbeat_dir,
    read_heartbeats,
    write_heartbeat,
)
from repro.runner.isolation import TrialSpec
from repro.runner.journal import RunJournal
from repro.runner.retry import RetryPolicy
from repro.runner.sweep import SweepConfig, SweepRunner

_OK = "tests._runner_trials:ok_trial"
_FLAKY = "tests._runner_trials:flaky_trial"


def _spec(fn: str = _OK, trial: int = 0, **kwargs) -> TrialSpec:
    kwargs.setdefault("trial", trial)
    return TrialSpec(experiment="unit", key=f"unit:{trial:04d}", fn=fn, kwargs=kwargs)


def _config(**overrides) -> SweepConfig:
    overrides.setdefault("isolation", "inline")
    overrides.setdefault("retry", RetryPolicy(max_attempts=1))
    overrides.setdefault("sleep", lambda _s: None)
    return SweepConfig(**overrides)


def _rewrite_beat(hb, key, *, drop=(), **updates):
    """Hand-edit a heartbeat file into a *wall-clock-only* legacy record.

    The monotonic fields are stripped so the staleness judgement falls
    back to the wall-clock fields the test is manipulating (records with
    monotonic readings ignore wall-clock edits entirely — that is the
    point of the monotonic contract, tested separately below).
    """
    path = hb / f"{key}.json"
    beat = json.loads(path.read_text())
    beat.pop("started_at_mono", None)
    beat.pop("last_progress_mono", None)
    for name in drop:
        beat.pop(name, None)
    beat.update(updates)
    path.write_text(json.dumps(beat))
    return beat


class TestHeartbeatFiles:
    def test_safe_filename_passthrough(self):
        assert _safe_filename("unit:0001") == "unit:0001.json"

    def test_safe_filename_sanitizes_uniquely(self):
        a = _safe_filename("weird/key one")
        b = _safe_filename("weird key/one")
        assert a != b  # digest keeps sanitized collisions apart
        assert "/" not in a and " " not in a
        assert a.endswith(".json")

    def test_write_read_roundtrip(self, tmp_path):
        hb = tmp_path / "j.jsonl.hb"
        hb.mkdir()
        write_heartbeat(hb, "unit:0001", phase="running", experiment="unit", attempt=2)
        records = read_heartbeats(hb)
        record = records["unit:0001"]
        assert record["format"] == HEARTBEAT_FORMAT
        assert record["phase"] == "running"
        assert record["attempt"] == 2
        assert record["retries"] == 1
        assert record["last_progress"] >= record["started_at"] - 1e-6
        assert isinstance(record["pid"], int)

    def test_write_swallows_oserror(self, tmp_path):
        # A file where the directory should be: every write must EEXIST/ENOTDIR.
        bogus = tmp_path / "not-a-dir"
        bogus.write_text("x")
        write_heartbeat(bogus, "unit:0001", phase="running")  # must not raise

    def test_read_skips_torn_and_foreign(self, tmp_path):
        hb = tmp_path / "hb"
        hb.mkdir()
        (hb / "torn.json").write_text('{"key": "un')
        (hb / "foreign.json").write_text('["not", "a", "record"]')
        (hb / "keyless.json").write_text('{"phase": "running"}')
        write_heartbeat(hb, "unit:0001", phase="done")
        assert set(read_heartbeats(hb)) == {"unit:0001"}

    def test_read_missing_dir_is_empty(self, tmp_path):
        assert read_heartbeats(tmp_path / "nope") == {}

    def test_heartbeat_dir_sibling(self, tmp_path):
        journal = tmp_path / "sweep.jsonl"
        assert heartbeat_dir(journal) == tmp_path / "sweep.jsonl.hb"


def _seed_journal(tmp_path, *, n_specs=4, ok=(), failed=(), elapsed=1.0):
    """A synthetic sweep journal with some settled trials."""
    journal = RunJournal(tmp_path / "sweep.jsonl")
    spec = [
        {"experiment": "unit", "key": f"unit:{i:04d}", "fn": _OK, "kwargs": {}}
        for i in range(n_specs)
    ]
    journal.write_header("unit-sweep", spec)
    for i in ok:
        journal.record_success(
            f"unit:{i:04d}", {"trial": i}, attempts=1, elapsed_s=elapsed
        )
    for i in failed:
        journal.record_failure(
            f"unit:{i:04d}",
            {"key": f"unit:{i:04d}", "experiment": "unit", "fn": _OK, "kwargs": {},
             "attempts": 1, "error": {"type": "RuntimeError", "message": "boom"},
             "reproducer": None},
            attempts=3,
        )
    return journal


class TestCollectState:
    def test_requires_sweep_header(self, tmp_path):
        path = tmp_path / "plain.jsonl"
        journal = RunJournal(path)
        journal.append({"kind": "note", "text": "hi"})
        with pytest.raises(ValueError, match="no sweep header"):
            collect_state(path)

    def test_counts_and_eta(self, tmp_path):
        journal = _seed_journal(tmp_path, n_specs=6, ok=(0, 1, 2), failed=(3,))
        state = collect_state(journal.path)
        assert (state.total, state.done, state.failed) == (6, 3, 1)
        assert state.pending == 2
        assert state.retries == 2  # one failed record with attempts=3
        assert state.eta_s == pytest.approx(2 * 1.0)  # 2 remaining × median 1s
        assert not state.finished

    def test_finished_state(self, tmp_path):
        journal = _seed_journal(tmp_path, n_specs=2, ok=(0, 1))
        state = collect_state(journal.path)
        assert state.finished
        assert "sweep complete" in render_watch(state)

    def test_in_flight_straggler_and_stale(self, tmp_path):
        journal = _seed_journal(tmp_path, n_specs=6, ok=(0, 1, 2))
        hb = heartbeat_dir(journal.path)
        hb.mkdir()
        now = 1000.0
        # Straggler: started far beyond the p95 of 1s-completions, still ticking.
        write_heartbeat(hb, "unit:0004", phase="running", started_at=now - 50.0)
        _rewrite_beat(hb, "unit:0004", last_progress=now - 0.1)
        # Stale: no progress tick for longer than STALE_AFTER_S.
        write_heartbeat(hb, "unit:0005", phase="running", started_at=now - 0.5)
        _rewrite_beat(hb, "unit:0005", last_progress=now - STALE_AFTER_S - 5.0)
        # Settled trials' heartbeats must not count as in-flight.
        write_heartbeat(hb, "unit:0000", phase="done")
        write_heartbeat(hb, "unit:0003", phase="running", started_at=now - 1.0)
        journal.record_success("unit:0003", {}, attempts=1, elapsed_s=1.0)

        state = collect_state(journal.path, now=now)
        by_key = {status.key: status for status in state.in_flight}
        assert set(by_key) == {"unit:0004", "unit:0005"}
        assert by_key["unit:0004"].straggler and not by_key["unit:0004"].stale
        assert by_key["unit:0005"].stale and not by_key["unit:0005"].straggler
        text = render_watch(state)
        assert "straggler" in text and "STALE" in text

    def test_stale_scales_with_declared_interval(self, tmp_path):
        journal = _seed_journal(tmp_path, n_specs=4, ok=())
        hb = heartbeat_dir(journal.path)
        hb.mkdir()
        now = 1000.0
        # A 10s-cadence writer idle for 20s is fine (< 3×10); a 1s-cadence
        # writer idle just as long has missed twenty beats — stale.
        for key, interval in (("unit:0000", 10.0), ("unit:0001", 1.0)):
            write_heartbeat(
                hb, key, phase="running", started_at=now - 30.0, interval_s=interval
            )
            _rewrite_beat(hb, key, last_progress=now - 20.0)
        by_key = {
            s.key: s for s in collect_state(journal.path, now=now).in_flight
        }
        assert not by_key["unit:0000"].stale
        assert by_key["unit:0001"].stale

    def test_stale_fallback_without_interval(self, tmp_path):
        journal = _seed_journal(tmp_path, n_specs=2, ok=())
        hb = heartbeat_dir(journal.path)
        hb.mkdir()
        now = 1000.0
        # Pre-interval_s heartbeat records fall back to STALE_AFTER_S.
        write_heartbeat(hb, "unit:0000", phase="running", started_at=now - 30.0)
        _rewrite_beat(
            hb, "unit:0000", drop=("interval_s",),
            last_progress=now - STALE_AFTER_S - 1.0,
        )
        (status,) = collect_state(journal.path, now=now).in_flight
        assert status.stale
        assert status.stale_after_s == STALE_AFTER_S

    def test_unsettled_heartbeat_is_live_regardless_of_phase(self, tmp_path):
        # A worker that crashed mid-phase leaves an arbitrary phase string;
        # it must render (flagged stale once idle), never silently vanish.
        journal = _seed_journal(tmp_path, n_specs=2, ok=())
        hb = heartbeat_dir(journal.path)
        hb.mkdir()
        now = 1000.0
        write_heartbeat(hb, "unit:0000", phase="done", started_at=now - 60.0)
        _rewrite_beat(hb, "unit:0000", last_progress=now - 50.0)
        state = collect_state(journal.path, now=now)
        (status,) = state.in_flight
        assert status.key == "unit:0000"
        assert status.stale
        assert "STALE" in render_watch(state)

    def test_render_progress_bar(self, tmp_path):
        journal = _seed_journal(tmp_path, n_specs=4, ok=(0, 1), failed=(2,))
        text = render_watch(collect_state(journal.path))
        assert re.search(r"\[#+x+-*\] 2/4 done, 1 failed", text)

    def test_percentile_interpolates(self):
        assert _percentile([1.0, 2.0, 3.0, 4.0], 50.0) == pytest.approx(2.5)
        assert _percentile([5.0], 95.0) == 5.0
        assert _percentile([], 95.0) == 0.0


class TestMonotonicStaleness:
    """Liveness judged on the writer's monotonic tick, never the wall clock.

    These tests step the two clocks *independently* via the injectable
    seams: the wall clock models NTP steps, the monotonic clock models
    true elapsed time.
    """

    def _journal_with_beat(self, tmp_path, *, wall, mono, interval_s=1.0):
        journal = _seed_journal(tmp_path, n_specs=2, ok=())
        hb = heartbeat_dir(journal.path)
        hb.mkdir()
        write_heartbeat(
            hb,
            "unit:0000",
            phase="running",
            interval_s=interval_s,
            wall_clock=lambda: wall,
            mono_clock=lambda: mono,
        )
        return journal

    def test_writer_records_monotonic_fields(self, tmp_path):
        journal = self._journal_with_beat(tmp_path, wall=1000.0, mono=500.0)
        beat = read_heartbeats(heartbeat_dir(journal.path))["unit:0000"]
        assert beat["started_at"] == pytest.approx(1000.0)
        assert beat["started_at_mono"] == pytest.approx(500.0)
        assert beat["last_progress_mono"] == pytest.approx(500.0)

    def test_wall_clock_jump_does_not_flag_stale(self, tmp_path):
        # +1h NTP step between the beat and the watch: the trial last beat
        # 0.5 *monotonic* seconds ago, so it is fresh — the wall delta of
        # 3600.5s must be ignored.
        journal = self._journal_with_beat(tmp_path, wall=1000.0, mono=500.0)
        state = collect_state(
            journal.path, now=1000.0 + 3600.0, now_mono=500.5
        )
        (status,) = state.in_flight
        assert not status.stale
        assert status.idle_s == pytest.approx(0.5)
        assert status.age_s == pytest.approx(0.5)

    def test_backward_wall_step_does_not_hide_wedged_trial(self, tmp_path):
        # Wall clock stepped *backwards* past the beat; monotonically the
        # writer has been idle for 3× its declared interval + slack → STALE.
        journal = self._journal_with_beat(
            tmp_path, wall=1000.0, mono=500.0, interval_s=1.0
        )
        state = collect_state(journal.path, now=990.0, now_mono=500.0 + 3.5)
        (status,) = state.in_flight
        assert status.stale
        assert status.idle_s == pytest.approx(3.5)

    def test_monotonic_idle_flags_stale(self, tmp_path):
        journal = self._journal_with_beat(
            tmp_path, wall=1000.0, mono=500.0, interval_s=1.0
        )
        # Wall clock says fresh (same instant); monotonic says long idle.
        state = collect_state(journal.path, now=1000.0, now_mono=504.0)
        (status,) = state.in_flight
        assert status.stale

    def test_legacy_record_falls_back_to_wall(self, tmp_path):
        journal = self._journal_with_beat(
            tmp_path, wall=1000.0, mono=500.0, interval_s=1.0
        )
        hb = heartbeat_dir(journal.path)
        _rewrite_beat(hb, "unit:0000", last_progress=1000.0 - 20.0)
        state = collect_state(journal.path, now=1000.0, now_mono=500.1)
        (status,) = state.in_flight
        assert status.stale  # wall path: 20s idle > 3×1s
        assert status.idle_s == pytest.approx(20.0)


class TestRunnerIntegration:
    def test_sweep_writes_heartbeats(self, tmp_path):
        journal = RunJournal(tmp_path / "sweep.jsonl")
        runner = SweepRunner(journal, _config())
        runner.run([_spec(trial=i) for i in range(3)], sweep_name="unit-sweep")
        beats = read_heartbeats(heartbeat_dir(journal.path))
        assert set(beats) == {"unit:0000", "unit:0001", "unit:0002"}
        assert all(beat["phase"] == "done" for beat in beats.values())

    def test_no_heartbeat_config_writes_none(self, tmp_path):
        journal = RunJournal(tmp_path / "sweep.jsonl")
        runner = SweepRunner(journal, _config(heartbeat=False))
        runner.run([_spec()], sweep_name="unit-sweep")
        assert not heartbeat_dir(journal.path).exists()

    def test_quarantined_trial_heartbeat(self, tmp_path):
        journal = RunJournal(tmp_path / "sweep.jsonl")
        runner = SweepRunner(journal, _config())
        runner.run(
            [_spec("tests._runner_trials:failing_trial")], sweep_name="unit-sweep"
        )
        beats = read_heartbeats(heartbeat_dir(journal.path))
        assert beats["unit:0000"]["phase"] == "quarantined"

    def test_retry_increments_attempt(self, tmp_path):
        journal = RunJournal(tmp_path / "sweep.jsonl")
        marker = tmp_path / "flaky.marker"
        runner = SweepRunner(journal, _config(retry=RetryPolicy(max_attempts=2)))
        result = runner.run(
            [_spec(_FLAKY, marker=str(marker))], sweep_name="unit-sweep"
        )
        assert result.completed["unit:0000"]["recovered"] is True
        beats = read_heartbeats(heartbeat_dir(journal.path))
        assert beats["unit:0000"]["phase"] == "done"
        assert beats["unit:0000"]["attempt"] == 2

    def test_monitoring_does_not_perturb_journal(self, tmp_path):
        """Journals are bit-identical with heartbeats on vs. off (after
        scrubbing wall-clock fields, per the kill-and-resume convention)."""

        def run(heartbeat: bool, name: str) -> list:
            journal = RunJournal(tmp_path / name)
            runner = SweepRunner(journal, _config(heartbeat=heartbeat))
            runner.run([_spec(trial=i) for i in range(3)], sweep_name="unit-sweep")
            records = []
            for line in journal.path.read_text().splitlines():
                record = json.loads(line)
                record.pop("elapsed_s", None)
                records.append(record)
            return records

        assert run(True, "on.jsonl") == run(False, "off.jsonl")


class TestWatchLoop:
    def test_watch_single_frame(self, tmp_path):
        journal = _seed_journal(tmp_path, n_specs=2, ok=(0,))
        frames = []
        state = watch(journal.path, emit=frames.append)
        assert len(frames) == 1
        assert "1/2 done" in frames[0]
        assert not state.finished

    def test_follow_stops_when_finished(self, tmp_path):
        journal = _seed_journal(tmp_path, n_specs=2, ok=(0,))
        frames, naps = [], []

        def sleep(seconds):
            naps.append(seconds)
            journal.record_success("unit:0001", {}, attempts=1, elapsed_s=1.0)

        state = watch(
            journal.path, follow=True, interval_s=0.01, emit=frames.append, sleep=sleep
        )
        assert state.finished
        assert naps == [0.01]
        assert "sweep complete" in frames[-1]

    def test_follow_respects_max_frames(self, tmp_path):
        journal = _seed_journal(tmp_path, n_specs=4, ok=(0,))
        frames = []
        watch(
            journal.path,
            follow=True,
            interval_s=0.0,
            max_frames=3,
            emit=frames.append,
            sleep=lambda _s: None,
        )
        assert len([f for f in frames if f]) == 3

    def test_cli_watch_renders(self, tmp_path, capsys):
        from repro.cli import main

        journal = _seed_journal(tmp_path, n_specs=2, ok=(0, 1))
        assert main(["obs", "watch", str(journal.path)]) == 0
        assert "sweep complete" in capsys.readouterr().out

    def test_cli_watch_rejects_non_sweep_file(self, tmp_path):
        from repro.cli import main

        path = tmp_path / "not-a-journal.jsonl"
        journal = RunJournal(path)
        journal.append({"kind": "note", "text": "hi"})
        with pytest.raises(SystemExit):
            main(["obs", "watch", str(path)])


class TestServiceJournal:
    """A headerless service journal renders as a service row, not an error."""

    def _service_journal(self, tmp_path, *, epochs=3):
        journal = RunJournal(tmp_path / "service.jsonl")
        for epoch in range(epochs):
            journal.append(
                {
                    "kind": "epoch",
                    "report": {
                        "epoch": epoch,
                        "backlog_after": 1.5 * (epoch + 1),
                        "fallback_level": epoch % 2,
                    },
                    "diagnostics": [],
                }
            )
        return journal

    def test_epoch_records_render_service_row(self, tmp_path):
        journal = self._service_journal(tmp_path)
        state = collect_state(journal.path)
        assert state.service is not None
        assert state.sweep == "service"
        assert state.service.epoch == 2
        assert state.service.epochs_done == 3
        assert state.service.backlog_mb == pytest.approx(4.5)
        text = render_watch(state)
        assert text.startswith("service — ")
        assert "epoch 2 (3 done)" in text
        assert "backlog 4.5 Mb" in text
        assert "heartbeat: missing" in text

    def test_heartbeat_extras_override_journal(self, tmp_path):
        journal = self._service_journal(tmp_path)
        hb = heartbeat_dir(journal.path)
        write_heartbeat(
            hb,
            "service",
            phase="serving",
            experiment="service",
            extra={
                "epoch": 9,
                "epochs_done": 10,
                "backlog_mb": 0.25,
                "fallback_level": 2,
                "slo_burn_rate": {"1m": 0.5, "10m": 0.1},
            },
        )
        state = collect_state(journal.path)
        status = state.service
        assert status is not None and status.has_beat
        assert status.epoch == 9
        assert status.epochs_done == 10
        assert status.backlog_mb == 0.25
        assert status.fallback_level == 2
        text = render_watch(state)
        assert "epoch 9 (10 done)" in text
        assert "fallback L2" in text
        assert "slo burn rate:" in text
        assert "1m 50%" in text and "10m 10%" in text
        assert "heartbeat: fresh" in text
        assert not state.finished

    def test_journal_ahead_of_beat_wins(self, tmp_path):
        # A run shorter than one beat: the last beat predates every epoch.
        journal = self._service_journal(tmp_path)
        write_heartbeat(
            heartbeat_dir(journal.path),
            "service",
            phase="running",
            experiment="service",
            extra={"epoch": None, "epochs_done": 0},
        )
        status = collect_state(journal.path).service
        assert (status.epoch, status.epochs_done) == (2, 3)

    def test_heartbeat_alone_is_a_service(self, tmp_path):
        path = tmp_path / "service.jsonl"
        RunJournal(path)  # journal exists but holds no records yet
        write_heartbeat(
            heartbeat_dir(path), "service", phase="serving", experiment="service"
        )
        state = collect_state(path)
        assert state.service is not None
        assert state.service.epoch is None
        assert "epoch ?" in render_watch(state)

    def test_stale_service_beat_flags_and_finishes(self, tmp_path):
        journal = self._service_journal(tmp_path)
        write_heartbeat(
            heartbeat_dir(journal.path),
            "service",
            phase="serving",
            experiment="service",
            interval_s=1.0,
            mono_clock=lambda: 0.0,
        )
        state = collect_state(journal.path, now_mono=100.0)
        assert state.service is not None
        assert state.service.stale
        assert state.finished  # the follow loop must stop on a dead service
        assert "heartbeat: STALE" in render_watch(state)

    def test_plain_note_journal_still_rejected(self, tmp_path):
        path = tmp_path / "plain.jsonl"
        journal = RunJournal(path)
        journal.append({"kind": "note", "text": "hi"})
        with pytest.raises(ValueError, match="no sweep header"):
            collect_state(path)

    def test_cli_watch_renders_service_journal(self, tmp_path, capsys):
        from repro.cli import main

        journal = self._service_journal(tmp_path)
        assert main(["obs", "watch", str(journal.path)]) == 0
        assert "service — " in capsys.readouterr().out


def test_watchstate_finished_property():
    state = WatchState(
        sweep="s", journal_path="p", total=3, done=2, failed=1, pending=0
    )
    assert state.finished
