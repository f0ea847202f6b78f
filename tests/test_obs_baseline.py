"""Tests for the BENCH_obs baseline recorder and the ``obs check`` gate."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.baseline import (
    BASELINE_FORMAT,
    check_baseline,
    load_baseline,
    measure_like,
    measure_point,
    record_baseline,
    write_baseline,
)
from repro.obs.diff import QUALITY_COUNTERS, VOLUME_QUALITY_COUNTERS, diff_traces
from repro.obs.summarize import TraceData

# One tiny point keeps the pipeline-under-test fast; radix 8 still exercises
# scheduling, both simulators, the backup planner, the deadline ladder and
# the audit counters.
_POINT_KW = dict(n_ports=8, scheduler="solstice", n_trials=1)

_COMMITTED = Path(__file__).resolve().parents[1] / "BENCH_obs.json"


@pytest.fixture(scope="module")
def baseline() -> dict:
    return record_baseline(radices=(8,), schedulers=("solstice",), n_trials=1)


def _drifted(baseline: dict, name: str, delta: float = 1.0) -> dict:
    """``baseline`` with one quality metric of its point moved by ``delta``
    (a metric the point lacks starts from 0)."""
    drifted = copy.deepcopy(baseline)
    quality = drifted["points"][0]["quality"]
    quality[name] = quality.get(name, 0.0) + delta
    return drifted


class TestMeasure:
    def test_point_shape(self, baseline):
        (point,) = baseline["points"]
        assert set(point) == {"radix", "scheduler", "ocs", "quality"}
        assert point["radix"] == 8 and point["scheduler"] == "solstice"
        quality = point["quality"]
        assert quality["solstice_slices_total"] > 0
        assert quality["h_configs"] > 0
        assert 0.0 <= quality["h_ocs_fraction"] <= 1.0
        assert 0.0 <= quality["composite_fraction"] <= 1.0
        # The backup planner and the tick-budget ladder (one outcome per
        # trial) ran in the same registry as the pipeline.
        assert quality["reroute_backups_planned_total"] > 0
        ladder = [
            value
            for name, value in quality.items()
            if name.startswith("deadline_fallback_total")
        ]
        assert sum(ladder) == 1
        assert not any(
            name.startswith("scheduler_watchdog_trips_total") for name in quality
        )

    def test_fingerprint_is_every_quality_metric_and_nothing_else(self, baseline):
        names = {name.split("{", 1)[0] for name in baseline["points"][0]["quality"]}
        assert names <= QUALITY_COUNTERS | VOLUME_QUALITY_COUNTERS
        assert {"engine_events_total", "cpsched_composite_grants_total"} <= names

    def test_quality_is_deterministic(self):
        a = measure_point(**_POINT_KW)
        b = measure_point(**_POINT_KW)
        assert a["quality"] == b["quality"]

    def test_eclipse_uses_steps_counter(self):
        point = measure_point(n_ports=8, scheduler="eclipse", n_trials=1)
        assert point["quality"]["eclipse_steps_total"] > 0
        assert "solstice_slices_total" not in point["quality"]

    def test_measure_like_reuses_recorded_axes(self, baseline):
        current = measure_like(baseline)
        assert [(p["radix"], p["scheduler"]) for p in current["points"]] == [
            (8, "solstice")
        ]
        assert current["seed"] == baseline["seed"]


class TestCheck:
    def test_identical_passes(self, baseline):
        assert check_baseline(baseline, copy.deepcopy(baseline)) == []

    def test_remeasured_quality_matches(self, baseline):
        # The acceptance criterion: same seed, same commit => zero drift.
        assert check_baseline(baseline, measure_like(baseline)) == []

    def test_injected_quality_change_fails(self, baseline):
        drifted = _drifted(baseline, "solstice_slices_total")
        (violation,) = check_baseline(baseline, drifted)
        assert violation.startswith(
            "solstice radix=8: quality drift — solstice_slices_total "
        )

    def test_float_quality_rtol(self, baseline):
        dusty = copy.deepcopy(baseline)
        dusty["points"][0]["quality"]["h_ocs_fraction"] += 1e-12
        assert check_baseline(baseline, dusty) == []
        moved = copy.deepcopy(baseline)
        moved["points"][0]["quality"]["h_ocs_fraction"] += 0.05
        assert any(
            "h_ocs_fraction" in v for v in check_baseline(baseline, moved)
        )

    def test_missing_point_is_violation(self, baseline):
        empty = {**copy.deepcopy(baseline), "points": []}
        violations = check_baseline(baseline, empty)
        assert violations == ["solstice radix=8: point missing from current measurement"]

    @pytest.mark.parametrize(
        "field,value",
        [("seed", 7), ("ocs", "slow"), ("trials_per_point", 3)],
    )
    def test_other_envelope_is_not_comparable(self, baseline, field, value):
        other = {**_drifted(baseline, "solstice_slices_total"), field: value}
        # Another seed's (or OCS class's, or trial count's) schedules must
        # neither pass nor read as drift against this baseline.
        violations = check_baseline(baseline, other)
        assert len(violations) == 1
        assert violations[0].startswith(f"not comparable — {field} ")


class TestOneQualityRule:
    """``obs check`` judges drift with ``obs diff``'s list and rule."""

    @staticmethod
    def _trace(quality: dict) -> TraceData:
        """The point's unlabeled counters as an ``obs diff`` metrics snapshot."""
        return TraceData(
            metrics={
                name: {"type": "counter", "values": [{"labels": {}, "value": value}]}
                for name, value in quality.items()
                if name.endswith("_total")
            }
        )

    def test_obs_diff_and_obs_check_report_the_same_drift(self, baseline):
        drifted = _drifted(baseline, "solstice_slices_total")
        (violation,) = check_baseline(baseline, drifted)
        assert "quality drift — solstice_slices_total" in violation
        (entry,) = diff_traces(
            self._trace(baseline["points"][0]["quality"]),
            self._trace(drifted["points"][0]["quality"]),
        ).quality_drift
        assert entry["metric"] == "solstice_slices_total"
        assert entry["b"] - entry["a"] == 1.0

    @pytest.mark.parametrize(
        "name", ["cpsched_composite_grants_total{kind=o2m}", "engine_events_total"]
    )
    def test_counter_outside_the_format_1_fields_is_drift(self, baseline, name):
        # Format 1 kept seven hand-picked fields; neither counter was one.
        (violation,) = check_baseline(baseline, _drifted(baseline, name))
        assert f"quality drift — {name} " in violation

    def test_counter_on_one_side_only_reads_as_zero(self, baseline):
        trip = "scheduler_watchdog_trips_total{event=cap,scheduler=solstice}"
        assert trip not in baseline["points"][0]["quality"]
        (violation,) = check_baseline(baseline, _drifted(baseline, trip))
        assert violation.endswith(f"quality drift — {trip} 0.0 → 1.0")
        # A counter that vanishes is drift the other way round.
        gone = copy.deepcopy(baseline)
        del gone["points"][0]["quality"]["engine_events_total"]
        (violation,) = check_baseline(baseline, gone)
        assert violation.endswith(" → 0.0")
        # Absent and zero are the same reading.
        assert check_baseline(baseline, _drifted(baseline, trip, 0.0)) == []


class TestFileRoundtrip:
    def test_write_load(self, tmp_path, baseline):
        path = tmp_path / "BENCH_obs.json"
        write_baseline(baseline, path)
        loaded = load_baseline(path)
        assert loaded["format"] == BASELINE_FORMAT
        assert loaded["points"] == baseline["points"]

    def test_load_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"format": 99, "points": []}))
        with pytest.raises(ValueError, match="unsupported baseline format"):
            load_baseline(path)

    def test_load_rejects_format_1(self, tmp_path, baseline):
        # Format 1 carried stage timings and its own quality fields.
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({**baseline, "format": 1}))
        with pytest.raises(ValueError, match="v1 .*record the baseline again"):
            load_baseline(path)

    def test_committed_baseline_loads(self):
        payload = load_baseline(_COMMITTED)
        assert {(p["radix"], p["scheduler"]) for p in payload["points"]} == {
            (n, s) for n in (32, 64, 128) for s in ("solstice", "eclipse")
        }

    def test_load_rejects_vacuous_trial_count(self, tmp_path, baseline):
        path = tmp_path / "vacuous.json"
        path.write_text(json.dumps({**baseline, "trials_per_point": 0}))
        with pytest.raises(ValueError, match="trials_per_point must be a positive"):
            load_baseline(path)


class TestCli:
    def _record(self, tmp_path) -> str:
        out = str(tmp_path / "BENCH_obs.json")
        code = main(
            [
                "obs", "baseline", "record",
                "--out", out,
                "--radices", "8",
                "--schedulers", "solstice",
                "--quick",
            ]
        )
        assert code == 0
        return out

    def test_record_then_check_passes(self, tmp_path, capsys):
        out = self._record(tmp_path)
        assert main(["obs", "check", "--baseline", out, "--current", out]) == 0
        assert "no schedule-quality drift" in capsys.readouterr().out

    def test_check_fails_on_injected_quality_change(self, tmp_path, capsys):
        # Acceptance criterion: nonzero exit on an injected quality change.
        out = self._record(tmp_path)
        payload = json.loads(open(out).read())
        payload["points"][0]["quality"]["solstice_slices_total"] += 1
        current = tmp_path / "current.json"
        current.write_text(json.dumps(payload))
        assert (
            main(["obs", "check", "--baseline", out, "--current", str(current)]) == 1
        )
        assert "quality drift" in capsys.readouterr().err

    def test_check_missing_baseline_is_actionable(self, tmp_path):
        with pytest.raises(SystemExit, match="baseline record"):
            main(["obs", "check", "--baseline", str(tmp_path / "nope.json")])

    @pytest.mark.parametrize(
        "flags,message",
        [
            # Zero trials would decide nothing: an empty fingerprint no
            # later measurement can drift from.
            (["--trials", "0"], "trials must be >= 1"),
            (["--radices", "x"], "--radices must be comma-separated integers"),
            (["--radices", "2"], "radix 2 too small"),
        ],
        ids=["trials-0", "radices-x", "radix-2"],
    )
    def test_record_rejects_bad_values_in_one_line(self, tmp_path, flags, message):
        out = tmp_path / "b.json"
        with pytest.raises(SystemExit) as exc:
            main(["obs", "baseline", "record", "--out", str(out), "--radices", "8", *flags])
        assert message in str(exc.value.code)
        assert not out.exists()

    def test_check_refuses_a_file_from_another_seed(self, tmp_path, capsys):
        out = self._record(tmp_path)
        other = str(tmp_path / "seed7.json")
        assert main(
            [
                "obs", "baseline", "record",
                "--out", other,
                "--radices", "8",
                "--schedulers", "solstice",
                "--quick",
                "--seed", "7",
            ]
        ) == 0
        assert main(["obs", "check", "--baseline", out, "--current", other]) == 1
        err = capsys.readouterr().err
        assert "not comparable — seed 2016 in the baseline, 7 in the current" in err
        assert "quality drift" not in err

    def test_record_rejects_unknown_scheduler(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "obs", "baseline", "record",
                    "--out", str(tmp_path / "b.json"),
                    "--schedulers", "bogus",
                ]
            )
