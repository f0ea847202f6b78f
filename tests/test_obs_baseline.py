"""Tests for the BENCH_obs baseline recorder and the ``obs check`` gate."""

from __future__ import annotations

import copy
import json

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

# One tiny point keeps the pipeline-under-test fast; radix 8 still exercises
# scheduling, both simulators, and the audit counters.
_POINT_KW = dict(n_ports=8, scheduler="solstice", n_trials=1, repeats=1)


@pytest.fixture(scope="module")
def baseline() -> dict:
    return record_baseline(
        radices=(8,), schedulers=("solstice",), n_trials=1, repeats=1
    )


class TestMeasure:
    def test_point_shape(self, baseline):
        (point,) = baseline["points"]
        assert point["radix"] == 8 and point["scheduler"] == "solstice"
        timing = point["timing_s"]
        assert set(timing) > {"total", "backup_plan"}
        # "total" sums the compare-pipeline stages; backup_plan is the
        # fast-reroute add-on, timed separately so its <10%-of-h_schedule
        # bound stays visible.
        assert timing["total"] == pytest.approx(
            sum(v for k, v in timing.items() if k not in ("total", "backup_plan")),
            abs=1e-4,
        )
        assert timing["backup_plan"] > 0.0
        quality = point["quality"]
        assert quality["slices"] > 0
        assert quality["h_configs"] > 0
        assert 0.0 <= quality["h_ocs_fraction"] <= 1.0
        assert 0.0 <= quality["composite_fraction"] <= 1.0
        assert quality["watchdog_trips"] == 0

    def test_quality_is_deterministic(self):
        a = measure_point(**_POINT_KW)
        b = measure_point(**_POINT_KW)
        assert a["quality"] == b["quality"]

    def test_eclipse_uses_steps_counter(self):
        point = measure_point(n_ports=8, scheduler="eclipse", n_trials=1, repeats=1)
        assert point["quality"]["slices"] > 0

    def test_repeats_validated(self):
        with pytest.raises(ValueError, match="repeats"):
            measure_point(n_ports=8, repeats=0)

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

    def test_synthetic_slowdown_fails(self, baseline):
        slowed = copy.deepcopy(baseline)
        for stage in slowed["points"][0]["timing_s"]:
            slowed["points"][0]["timing_s"][stage] *= 10.0
        violations = check_baseline(baseline, slowed, min_seconds=0.0)
        assert violations
        assert any("regressed" in v for v in violations)

    def test_injected_quality_change_fails(self, baseline):
        drifted = copy.deepcopy(baseline)
        drifted["points"][0]["quality"]["slices"] += 1
        violations = check_baseline(baseline, drifted)
        assert any("quality drift — slices" in v for v in violations)

    def test_float_quality_rtol(self, baseline):
        dusty = copy.deepcopy(baseline)
        dusty["points"][0]["quality"]["h_ocs_fraction"] += 1e-12
        assert check_baseline(baseline, dusty) == []
        moved = copy.deepcopy(baseline)
        moved["points"][0]["quality"]["h_ocs_fraction"] += 0.05
        assert any(
            "h_ocs_fraction" in v for v in check_baseline(baseline, moved)
        )

    def test_min_seconds_floor_exempts_fast_stages(self, baseline):
        slowed = copy.deepcopy(baseline)
        for stage in slowed["points"][0]["timing_s"]:
            slowed["points"][0]["timing_s"][stage] *= 10.0
        # Every stage of this tiny point is far below a 1000s floor.
        assert check_baseline(baseline, slowed, min_seconds=1000.0) == []

    def test_tolerance_scales_gate(self, baseline):
        slower = copy.deepcopy(baseline)
        for stage in slower["points"][0]["timing_s"]:
            slower["points"][0]["timing_s"][stage] *= 1.5
        assert check_baseline(baseline, slower, tolerance=9.0, min_seconds=0.0) == []
        assert check_baseline(baseline, slower, tolerance=0.1, min_seconds=0.0)

    def test_missing_point_is_violation(self, baseline):
        empty = {**copy.deepcopy(baseline), "points": []}
        violations = check_baseline(baseline, empty)
        assert violations == ["solstice radix=8: point missing from current measurement"]

    def test_negative_tolerance_rejected(self, baseline):
        with pytest.raises(ValueError, match="tolerance"):
            check_baseline(baseline, baseline, tolerance=-0.1)

    def test_nan_tolerance_rejected(self, baseline):
        # NaN compares false both ways, so it would pass every stage.
        with pytest.raises(ValueError, match="tolerance"):
            check_baseline(baseline, baseline, tolerance=float("nan"))

    @pytest.mark.parametrize(
        "field,value",
        [("seed", 7), ("ocs", "slow"), ("trials_per_point", 3), ("repeats", 3)],
    )
    def test_other_envelope_is_not_comparable(self, baseline, field, value):
        other = {**copy.deepcopy(baseline), field: value}
        # Lower min-of-more-repeats timings, or another seed's schedules,
        # must neither pass nor read as drift against this baseline.
        for stage in other["points"][0]["timing_s"]:
            other["points"][0]["timing_s"][stage] /= 10.0
        other["points"][0]["quality"]["slices"] += 1
        violations = check_baseline(baseline, other, min_seconds=0.0)
        assert len(violations) == 1
        assert violations[0].startswith(f"not comparable — {field} ")


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
        payload["points"][0]["quality"]["slices"] += 1
        current = tmp_path / "current.json"
        current.write_text(json.dumps(payload))
        assert (
            main(["obs", "check", "--baseline", out, "--current", str(current)]) == 1
        )
        assert "quality drift" in capsys.readouterr().err

    def test_check_fails_on_synthetic_slowdown(self, tmp_path, capsys):
        # Acceptance criterion: nonzero exit on a synthetically slowed phase.
        out = self._record(tmp_path)
        payload = json.loads(open(out).read())
        for stage in payload["points"][0]["timing_s"]:
            payload["points"][0]["timing_s"][stage] *= 10.0
        current = tmp_path / "current.json"
        current.write_text(json.dumps(payload))
        code = main(
            [
                "obs", "check",
                "--baseline", out,
                "--current", str(current),
                "--min-seconds", "0",
            ]
        )
        assert code == 1
        assert "regressed" in capsys.readouterr().err

    def test_check_missing_baseline_is_actionable(self, tmp_path):
        with pytest.raises(SystemExit, match="baseline record"):
            main(["obs", "check", "--baseline", str(tmp_path / "nope.json")])

    @pytest.mark.parametrize(
        "flags,message",
        [
            # Zero trials would time nothing: every stage 0.0 s, a
            # baseline no later measurement can regress against.
            (["--trials", "0"], "trials must be >= 1"),
            (["--repeats", "0"], "repeats must be >= 1"),
            (["--radices", "x"], "--radices must be comma-separated integers"),
            (["--radices", "2"], "radix 2 too small"),
        ],
        ids=["trials-0", "repeats-0", "radices-x", "radix-2"],
    )
    def test_record_rejects_bad_values_in_one_line(self, tmp_path, flags, message):
        out = tmp_path / "b.json"
        with pytest.raises(SystemExit) as exc:
            main(["obs", "baseline", "record", "--out", str(out), "--radices", "8", *flags])
        assert message in str(exc.value.code)
        assert not out.exists()

    @pytest.mark.parametrize("tolerance", ["-1", "nan"])
    def test_check_rejects_bad_tolerance(self, tmp_path, tolerance):
        out = self._record(tmp_path)
        with pytest.raises(SystemExit, match="--tolerance must be a non-negative"):
            main(["obs", "check", "--baseline", out, "--current", out,
                  "--tolerance", tolerance])

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
