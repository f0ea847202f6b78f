"""Tests for the command-line interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import build_parser, main


class TestCompareCommand:
    def test_compare_skewed(self, capsys):
        code = main(
            [
                "compare",
                "--workload",
                "skewed",
                "--radix",
                "16",
                "--trials",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "h-Switch" in out and "cp-Switch" in out
        assert "completion total (ms)" in out

    def test_compare_eclipse_slow(self, capsys):
        code = main(
            [
                "compare",
                "--workload",
                "skewed",
                "--scheduler",
                "eclipse",
                "--ocs",
                "slow",
                "--radix",
                "16",
                "--trials",
                "1",
            ]
        )
        assert code == 0
        assert "OCS fraction" in capsys.readouterr().out


class TestWorkloadCommand:
    def test_writes_npy(self, tmp_path, capsys):
        out = tmp_path / "demand.npy"
        code = main(
            ["workload", "--workload", "typical", "--radix", "16", "--out", str(out)]
        )
        assert code == 0
        demand = np.load(out)
        assert demand.shape == (16, 16)
        assert demand.sum() > 0

    def test_writes_csv(self, tmp_path):
        out = tmp_path / "demand.csv"
        assert main(["workload", "--radix", "8", "--out", str(out)]) == 0
        demand = np.loadtxt(out, delimiter=",")
        assert demand.shape == (8, 8)

    def test_rejects_unknown_extension(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["workload", "--radix", "8", "--out", str(tmp_path / "demand.txt")])


class TestScheduleCommand:
    def test_schedule_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "demand.npy"
        main(["workload", "--workload", "skewed", "--radix", "16", "--out", str(out)])
        capsys.readouterr()
        code = main(["schedule", str(out), "--switch", "cp"])
        assert code == 0
        text = capsys.readouterr().out
        assert "cp-Switch / solstice" in text
        assert "completion" in text
        assert "o2m@" in text or "m2o@" in text

    def test_schedule_h_switch(self, tmp_path, capsys):
        out = tmp_path / "demand.npy"
        main(["workload", "--workload", "skewed", "--radix", "16", "--out", str(out)])
        capsys.readouterr()
        assert main(["schedule", str(out), "--switch", "h"]) == 0
        assert "h-Switch / solstice" in capsys.readouterr().out


class TestRobustnessCommand:
    def test_fault_and_error_sweeps(self, capsys):
        code = main(
            [
                "robustness",
                "--radix",
                "16",
                "--trials",
                "1",
                "--fault-rates",
                "0,0.5",
                "--error-rates",
                "0,0.3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hardware fault sweep" in out
        assert "released (Mb)" in out
        assert "h/cp" in out
        assert "estimation-error sweep" in out

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            main(["robustness", "--radix", "16", "--trials", "1", "--fault-rates", "2"])

    def test_deadline_table_rendered(self, capsys):
        code = main(
            [
                "robustness", "--radix", "16", "--trials", "1",
                "--fault-rates", "0", "--error-rates", "0",
                "--deadline", "50", "--isolation", "inline", "--no-journal",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "deadline-aware anytime scheduling vs unbounded" in out
        assert "miss rate" in out and "fallbacks" in out


class TestBudgetValidation:
    """Satellite: --timeout / --deadline reject zero, negative and NaN
    values with one actionable line instead of a downstream traceback."""

    @pytest.mark.parametrize("bad", ["0", "-3", "nan"])
    def test_deadline_rejected(self, bad):
        with pytest.raises(SystemExit, match="--deadline must be a positive"):
            main(
                [
                    "robustness", "--radix", "16", "--trials", "1",
                    "--deadline", bad, "--no-journal",
                ]
            )

    @pytest.mark.parametrize("bad", ["0", "-1", "nan"])
    def test_timeout_rejected(self, bad):
        with pytest.raises(SystemExit, match="--timeout must be a positive"):
            main(
                [
                    "compare", "--radix", "16", "--trials", "1",
                    "--timeout", bad, "--no-journal",
                ]
            )

    def test_error_message_suggests_the_fix(self):
        with pytest.raises(SystemExit, match="drop the flag"):
            main(
                [
                    "robustness", "--radix", "16", "--trials", "1",
                    "--deadline", "-1", "--no-journal",
                ]
            )


class TestSweepAxisValidation:
    """--trials below 1, a radix below 2 and an unparseable --radices exit
    with one line before any trial runs, and nothing is journaled."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compare", "--radix", "16", "--trials", "0"], "compare: trials must be >= 1, got 0"),
            (["figure", "fig5", "--radices", "16", "--trials", "0"], "figure: trials must be >= 1, got 0"),
            (["robustness", "--radix", "16", "--trials", "0"], "robustness: trials must be >= 1, got 0"),
            (["sweep", "compare", "--radix", "16", "--trials", "-2"], "compare: trials must be >= 1, got -2"),
            (["compare", "--radix", "1", "--trials", "1"], "compare: radix must be >= 2, got 1"),
            (["figure", "fig5", "--radices", "0", "--trials", "1"], "figure: radix must be >= 2, got 0"),
            (["figure", "fig6", "--radices", "16,1", "--trials", "1"], "figure: radix must be >= 2, got 1"),
            (["robustness", "--radix", "1", "--trials", "1"], "robustness: radix must be >= 2, got 1"),
            (
                ["figure", "fig5", "--radices", "16,x", "--trials", "1"],
                "figure: --radices must be comma-separated integers, got '16,x'",
            ),
        ],
        ids=[
            "compare-trials-0",
            "figure-trials-0",
            "robustness-trials-0",
            "sweep-compare-trials-negative",
            "compare-radix-1",
            "figure-radix-0",
            "figure-radix-1-in-list",
            "robustness-radix-1",
            "figure-radices-unparseable",
        ],
    )
    def test_rejected_before_any_trial(self, argv, message, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path / "runs"))
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == message
        assert not (tmp_path / "runs").exists()


class TestDemandValidation:
    """Satellite: _load_demand rejects bad files with one actionable line."""

    def _run_schedule(self, path):
        return main(["schedule", str(path)])

    def test_rejects_nan(self, tmp_path):
        bad = tmp_path / "bad.npy"
        demand = np.ones((8, 8))
        demand[2, 3] = np.nan
        np.save(bad, demand)
        with pytest.raises(SystemExit, match="invalid demand file.*bad.npy"):
            self._run_schedule(bad)

    def test_rejects_negative(self, tmp_path):
        bad = tmp_path / "neg.csv"
        demand = np.ones((4, 4))
        demand[0, 0] = -1.0
        np.savetxt(bad, demand, delimiter=",")
        with pytest.raises(SystemExit, match="invalid demand file"):
            self._run_schedule(bad)

    def test_rejects_non_square(self, tmp_path):
        bad = tmp_path / "rect.npy"
        np.save(bad, np.ones((4, 6)))
        with pytest.raises(SystemExit, match="invalid demand file"):
            self._run_schedule(bad)

    def test_rejects_unreadable_file(self, tmp_path):
        bad = tmp_path / "garbage.npy"
        bad.write_bytes(b"not a numpy file at all")
        with pytest.raises(SystemExit, match="cannot read demand file"):
            self._run_schedule(bad)

    def test_error_message_suggests_the_fix(self, tmp_path):
        bad = tmp_path / "bad.npy"
        np.save(bad, np.full((4, 4), np.inf))
        with pytest.raises(SystemExit, match="python -m repro workload"):
            self._run_schedule(bad)


class TestSweepCommand:
    """Tentpole: journaled resumable sweeps via the CLI."""

    def test_compare_writes_journal_and_rerun_skips(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        argv = [
            "compare", "--radix", "16", "--trials", "2",
            "--journal", str(journal), "--isolation", "inline",
        ]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert journal.exists()

        # Re-running the identical command resumes: no re-execution, same
        # table, and the journal does not grow.
        size = journal.stat().st_size
        assert main(argv) == 0
        second = capsys.readouterr()
        assert "already journaled" in second.err
        assert second.out == first.out
        assert journal.stat().st_size == size

    def test_sweep_resume_finishes_interrupted_journal(self, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        argv = [
            "sweep", "compare", "--radix", "16", "--trials", "2",
            "--journal", str(journal), "--isolation", "inline",
        ]
        assert main(argv) == 0
        table = capsys.readouterr().out

        # Drop the last trial record to model a mid-sweep kill.
        lines = journal.read_text().splitlines()
        journal.write_text("\n".join(lines[:-1]) + "\n")
        assert main(["sweep", "--resume", str(journal), "--isolation", "inline"]) == 0
        resumed = capsys.readouterr()
        assert "1 trials restored, 1 executed now" in resumed.err

        # Bit-identical on everything except the wall-clock scheduler-time
        # row (host timing, not experiment output).
        def deterministic(text):
            return [ln for ln in text.splitlines() if "scheduler time" not in ln]

        assert deterministic(resumed.out) == deterministic(table)

    def test_failing_trial_quarantined_and_sweep_survives(self, tmp_path, capsys, monkeypatch):
        # Make one trial of the error sweep blow up inside the worker; the
        # sweep must finish, aggregate over the survivors, and quarantine
        # exactly the failing trial.
        import repro.analysis.robustness as robustness

        real_error_trial = robustness.error_trial

        def sabotaged(*, error=0.0, **kwargs):
            if error > 0:
                raise RuntimeError("sabotaged trial")
            return real_error_trial(error=error, **kwargs)

        monkeypatch.setattr(robustness, "error_trial", sabotaged)
        journal = tmp_path / "run.jsonl"
        code = main(
            [
                "robustness", "--radix", "16", "--trials", "1",
                "--fault-rates", "0", "--error-rates", "0,0.3",
                "--journal", str(journal), "--isolation", "inline",
                "--retries", "1", "--retry-base-delay", "0",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "1 trial(s) failed" in captured.err
        assert "sabotaged trial" in captured.err
        assert "point omitted" in captured.err
        # The fault table and the surviving error point still printed.
        assert "hardware fault sweep" in captured.out

        failed_dir = tmp_path / "run.jsonl.failed"
        archives = list(failed_dir.glob("*.npz"))
        assert len(archives) == 1
        archive = np.load(archives[0])
        assert archive["demand"].shape == (16, 16)

    def test_no_journal_flag_keeps_disk_clean(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path / "runs"))
        assert main(
            ["compare", "--radix", "16", "--trials", "1", "--no-journal",
             "--isolation", "inline"]
        ) == 0
        assert not (tmp_path / "runs").exists()

    def test_sweep_resume_missing_journal_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["sweep", "--resume", str(tmp_path / "nope.jsonl")])

    def test_sweep_without_subcommand_or_resume_rejected(self):
        with pytest.raises(SystemExit, match="sub-command"):
            main(["sweep"])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compare", "--workload", "nope"])


class TestFigureCommand:
    def test_fig5_tiny(self, capsys):
        code = main(["figure", "fig5", "--radices", "16", "--trials", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "h total (ms)" in out and "cp configs" in out

    def test_fig6_utilization_columns(self, capsys):
        code = main(["figure", "fig6", "--radices", "16", "--trials", "1"])
        assert code == 0
        assert "OCS fraction" in capsys.readouterr().out

    def test_fig11_has_k_column(self, capsys):
        code = main(["figure", "fig11", "--radices", "16", "--trials", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "| k |" in out or " k |" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])
