"""Tests for the flight recorder and ``repro obs incidents``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.incidents import (
    INCIDENT_FORMAT,
    TRIGGER_CRASH,
    TRIGGER_FALLBACK,
    TRIGGER_KINDS,
    TRIGGER_REROUTE,
    TRIGGER_SLO,
    EpochFrame,
    FlightRecorder,
    _frame_triggers,
    list_incidents,
    load_incident,
    render_incident,
    render_incident_listing,
)


def _frame(epoch: int = 0, **overrides) -> EpochFrame:
    report = {
        "epoch": epoch,
        "offered_volume": 10.0,
        "served_volume": 9.0,
        "backlog_after": 1.0,
        "fallback_level": 0,
        "deadline_hit": False,
        "reroute_swaps": 0,
    }
    report.update(overrides.pop("report", {}))
    outcome = {"slo_violation": False, "epoch_latency_s": 0.01}
    outcome.update(overrides.pop("outcome", {}))
    return EpochFrame(epoch=epoch, report=report, outcome=outcome, **overrides)


class TestTriggers:
    def test_quiet_frame_fires_nothing(self):
        assert _frame_triggers(_frame(), 2) == []

    def test_each_kind_fires_alone(self):
        cases = {
            TRIGGER_CRASH: _frame(worker_deaths=[{"pid": 42, "reason": "crashed"}]),
            TRIGGER_FALLBACK: _frame(report={"fallback_level": 2}),
            TRIGGER_SLO: _frame(outcome={"slo_violation": True}),
            TRIGGER_REROUTE: _frame(report={"reroute_swaps": 3}),
        }
        for kind, frame in cases.items():
            kinds = [k for k, _ in _frame_triggers(frame, 2)]
            assert kinds == [kind]

    def test_fallback_threshold_respected(self):
        frame = _frame(report={"fallback_level": 1})
        assert _frame_triggers(frame, 2) == []
        assert [k for k, _ in _frame_triggers(frame, 1)] == [TRIGGER_FALLBACK]

    def test_one_frame_can_fire_every_kind(self):
        frame = _frame(
            report={"fallback_level": 3, "reroute_swaps": 1},
            outcome={"slo_violation": True, "slo_reasons": ["schedule_deadline"]},
            worker_deaths=[{"pid": 1}],
        )
        assert sorted(k for k, _ in _frame_triggers(frame, 2)) == sorted(TRIGGER_KINDS)


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        recorder = FlightRecorder(window_epochs=3)
        for epoch in range(5):
            recorder.observe_epoch(_frame(epoch))
        assert [frame.epoch for frame in recorder.frames] == [2, 3, 4]

    def test_quiet_epochs_write_nothing(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "incidents")
        for epoch in range(4):
            assert recorder.observe_epoch(_frame(epoch)) == []
        assert not (tmp_path / "incidents").exists()
        assert recorder.triggered == {}

    def test_trigger_dumps_one_bundle_per_kind(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "incidents", window_epochs=4)
        recorder.observe_epoch(_frame(0))
        written = recorder.observe_epoch(
            _frame(
                1,
                report={"fallback_level": 2},
                outcome={"slo_violation": True},
            ),
            metrics_snapshot={"x": {"type": "counter", "values": []}},
        )
        assert len(written) == 2
        kinds = sorted(load_incident(path)["trigger"] for path in written)
        assert kinds == sorted([TRIGGER_FALLBACK, TRIGGER_SLO])
        bundle = load_incident(written[0])
        assert bundle["format"] == INCIDENT_FORMAT
        assert bundle["epoch"] == 1
        assert bundle["window_epochs"] == [0, 1]
        assert len(bundle["frames"]) == 2
        assert bundle["metrics"] == {"x": {"type": "counter", "values": []}}

    def test_no_directory_counts_but_never_writes(self):
        recorder = FlightRecorder(None)
        written = recorder.observe_epoch(_frame(0, outcome={"slo_violation": True}))
        assert written == []
        assert recorder.triggered == {TRIGGER_SLO: 1}
        assert recorder.bundles_written == []

    def test_max_incidents_caps_disk_not_detection(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "incidents", max_incidents=1)
        first = recorder.observe_epoch(_frame(0, outcome={"slo_violation": True}))
        second = recorder.observe_epoch(_frame(1, outcome={"slo_violation": True}))
        assert len(first) == 1 and second == []
        assert recorder.triggered == {TRIGGER_SLO: 2}

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError, match="window_epochs"):
            FlightRecorder(window_epochs=0)


class TestBundleIO:
    def _dump_one(self, tmp_path):
        recorder = FlightRecorder(tmp_path / "incidents")
        recorder.observe_epoch(_frame(0))
        spans = [
            {"kind": "span", "id": 1, "parent": None, "name": "service.stage",
             "start": 0.0, "end": 0.5, "attrs": {"stage": "arm"}},
            {"kind": "event", "name": "controller.epoch", "time": 0.1, "attrs": {}},
        ]
        written = recorder.observe_epoch(
            _frame(1, report={"reroute_swaps": 2}, records=spans),
            metrics_snapshot={
                "controller_epochs_total": {
                    "type": "counter",
                    "description": "",
                    "values": [{"labels": {}, "value": 2}],
                }
            },
        )
        assert len(written) == 1
        return written[0]

    def test_listing_in_sequence_order(self, tmp_path):
        path = self._dump_one(tmp_path)
        assert list_incidents(path.parent) == [path]

    def test_load_rejects_foreign_json(self, tmp_path):
        alien = tmp_path / "incident-0000-epoch00000-x.json"
        alien.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="not an incident bundle"):
            load_incident(alien)

    def test_load_rejects_future_format(self, tmp_path):
        path = self._dump_one(tmp_path)
        bundle = json.loads(path.read_text())
        bundle["format"] = INCIDENT_FORMAT + 1
        path.write_text(json.dumps(bundle))
        with pytest.raises(ValueError, match="unsupported incident bundle format"):
            load_incident(path)

    def test_render_shows_window_flags_spans_and_counters(self, tmp_path):
        bundle = load_incident(self._dump_one(tmp_path))
        text = render_incident(bundle)
        assert "incident: reroute_swap at epoch 1" in text
        assert "2 reroute swap(s)" in text
        assert "epoch    0" in text and "epoch    1" in text
        assert "service.stage" in text  # span tree rendered
        assert "controller_epochs_total" in text  # counters rendered

    def test_listing_render(self, tmp_path):
        self._dump_one(tmp_path)
        text = render_incident_listing(tmp_path / "incidents")
        assert "1 incident bundle(s)" in text
        assert "reroute_swap" in text

    def test_listing_empty_dir(self, tmp_path):
        assert "no incident bundles" in render_incident_listing(tmp_path)


class TestCli:
    def test_cli_renders_directory_listing(self, tmp_path, capsys):
        recorder = FlightRecorder(tmp_path / "incidents")
        recorder.observe_epoch(_frame(0, outcome={"slo_violation": True}))
        assert main(["obs", "incidents", str(tmp_path / "incidents")]) == 0
        out = capsys.readouterr().out
        assert "1 incident bundle(s)" in out
        assert "slo_violation" in out

    def test_cli_renders_single_bundle(self, tmp_path, capsys):
        recorder = FlightRecorder(tmp_path / "incidents")
        [path] = recorder.observe_epoch(
            _frame(3, worker_deaths=[{"pid": 7, "reason": "crashed"}])
        )
        assert main(["obs", "incidents", str(path)]) == 0
        out = capsys.readouterr().out
        assert "incident: worker_crash at epoch 3" in out
        assert "1 worker death(s)" in out

    def test_cli_missing_path_errors(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["obs", "incidents", str(tmp_path / "nope")])

    def test_cli_foreign_file_errors(self, tmp_path):
        alien = tmp_path / "x.json"
        alien.write_text("{}")
        with pytest.raises(SystemExit, match="not an incident bundle"):
            main(["obs", "incidents", str(alien)])
