"""End-to-end kill-and-resume test: SIGKILL a sweep, resume, compare.

A journaled ``python -m repro compare`` sweep runs in a subprocess and is
SIGKILLed as soon as its journal holds one completed trial.  ``repro obs
watch`` must render the half-finished journal's progress, ``repro sweep
--resume`` must finish the remainder without re-executing a journaled
trial, and the merged journal must match an uninterrupted run with
heartbeats off, payload for payload (wall-clock fields excluded).  That
last comparison also shows live monitoring never perturbs results.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.runner.journal import RunJournal

SRC = Path(__file__).resolve().parents[1] / "src"
RADIX, TRIALS = 16, 4


ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
}


def _repro(*argv: str) -> "list[str]":
    return [sys.executable, "-m", "repro", *argv]


def _run(*argv: str) -> subprocess.CompletedProcess:
    done = subprocess.run(_repro(*argv), env=ENV, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done


def _scrub(obj):
    """Drop wall-clock timing fields: they measure the host, not the run."""
    if isinstance(obj, dict):
        return {k: _scrub(v) for k, v in obj.items() if k != "sched_seconds"}
    if isinstance(obj, list):
        return [_scrub(v) for v in obj]
    return obj


def _payloads(path: Path) -> "dict[str, dict]":
    return {key: _scrub(payload) for key, payload in RunJournal(path).completed().items()}


def test_kill_and_resume_is_bit_identical(tmp_path):
    interrupted = tmp_path / "interrupted.jsonl"
    reference = tmp_path / "reference.jsonl"
    sweep = ["compare", "--radix", str(RADIX), "--trials", str(TRIALS), "--retries", "0"]

    victim = subprocess.Popen(
        _repro(*sweep, "--journal", str(interrupted)),
        env=ENV,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 300
        while not RunJournal(interrupted).trial_records() and victim.poll() is None:
            assert time.monotonic() < deadline, "no trial journaled within 300 s"
            time.sleep(0.02)
    finally:
        victim.send_signal(signal.SIGKILL)
    assert victim.wait(timeout=60) == -signal.SIGKILL, "the sweep ended before the kill"

    survived = _payloads(interrupted)
    assert 1 <= len(survived) < TRIALS

    # `obs watch` is a pure reader: it renders the kill's leftovers.
    watch = _run("obs", "watch", str(interrupted))
    assert f"{len(survived)}/{TRIALS} done" in watch.stdout

    _run("sweep", "--resume", str(interrupted))
    _run(*sweep, "--journal", str(reference), "--no-heartbeat")

    keys = [r["key"] for r in RunJournal(interrupted).trial_records()]
    assert len(keys) == len(set(keys)) == TRIALS, f"re-executed trials: {keys}"
    merged = _payloads(interrupted)
    assert {key: merged[key] for key in survived} == survived
    assert merged == _payloads(reference)
