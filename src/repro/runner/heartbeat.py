"""Per-trial heartbeat files: the live-progress channel of a sweep.

A resumable sweep is a black box between journal flushes — a trial that
hangs, retries, or crawls produces no observable signal until it finishes
or times out.  Heartbeats fix that: the :class:`~repro.runner.sweep.SweepRunner`
and each subprocess worker write small JSON records into a ``<journal>.hb/``
directory next to the journal, one file per trial key, each replaced
atomically (tmp + ``os.replace``, unique tmp names, so the parent's phase
transitions and the worker's progress ticker never tear each other).
``repro obs watch`` tails the directory together with the journal.

Heartbeat record schema (one JSON object per file):

======================  ======================================================
field                   meaning
======================  ======================================================
``format``              heartbeat envelope version (:data:`HEARTBEAT_FORMAT`)
``key``                 trial key (journal checkpoint key)
``experiment``          experiment label from the spec
``phase``               ``"starting" | "running" | "retrying" | "done" |
                        "failed" | "quarantined"``
``attempt``             1-based attempt currently executing
``retries``             completed attempts that failed (attempt - 1)
``spans_so_far``        closed obs spans in the worker (0 if obs is off)
``pid``                 worker pid (``running`` phase), else the parent's
``started_at``          Unix time the trial's first attempt began (display)
``started_at_mono``     the writer's ``time.monotonic()`` when the first
                        attempt began — age is judged on this, never on the
                        steppable wall clock
``last_progress``       Unix time of the most recent update (display only)
``last_progress_mono``  the writer's ``time.monotonic()`` at the most recent
                        update — *this* is what ``obs watch`` judges
                        staleness on: an NTP step forward must not flag
                        every in-flight trial STALE, and a step backward
                        must not make a wedged trial look fresh
``interval_s``          the writer's declared refresh cadence; a beat idle
                        for more than 3× this is stale (:func:`stale_after_s`
                        — a crashed worker must not render as running forever)
======================  ======================================================

On Linux ``time.monotonic()`` is ``CLOCK_MONOTONIC`` — a single
boot-relative clock shared by every process on the machine — so a reader's
``time.monotonic()`` minus the writer's recorded ``last_progress_mono`` is
a true idle duration even across processes.  Records written before the
monotonic fields existed fall back to the wall-clock judgement.

Writers may attach extra advisory fields (e.g. the scheduling service's
status snapshot: epoch, backlog, fallback level); readers ignore what they
do not know.

Heartbeats are advisory: they are never read back by the runner itself,
never influence scheduling or results (the kill-and-resume test asserts
journals are bit-identical with monitoring on vs. off), and a missing or
torn heartbeat directory degrades ``obs watch`` — never the sweep.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable

from repro import obs
from repro.utils.fileio import atomic_write_json

#: Version of the heartbeat record envelope.
HEARTBEAT_FORMAT: int = 1

#: Seconds between worker-side progress ticks.
TICK_INTERVAL_S: float = 1.0

#: A beat idle for more than this multiple of its *declared* refresh
#: interval is stale: the writer promised a beat every ``interval_s`` and
#: has missed three in a row, so it is hung or dead — either way it must
#: not render as healthily running forever.
STALE_INTERVAL_MULTIPLIER: float = 3.0


def stale_after_s(interval_s: float = TICK_INTERVAL_S) -> float:
    """Idle seconds after which a beat declaring ``interval_s`` is stale.

    The one staleness rule: ``repro obs watch`` judges heartbeat files by
    it, and the service's ``/healthz`` judges the same beat by it.
    """
    return STALE_INTERVAL_MULTIPLIER * float(interval_s)


_SAFE_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._:-"
)


def heartbeat_dir(journal_path: "str | Path") -> Path:
    """The heartbeat directory paired with a journal path."""
    journal_path = Path(journal_path)
    return journal_path.with_name(journal_path.name + ".hb")


def _safe_filename(key: str) -> str:
    """Map an arbitrary trial key onto a unique, filesystem-safe name.

    Keys are conventionally ``"<experiment>:<trial>"`` and already safe;
    any other character is folded to ``_`` with a short digest appended so
    two keys never collide after sanitization.
    """
    cleaned = "".join(ch if ch in _SAFE_CHARS else "_" for ch in key)
    if cleaned == key:
        return f"{key}.json"
    digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:8]
    return f"{cleaned}-{digest}.json"


def write_heartbeat(
    directory: "str | Path",
    key: str,
    *,
    phase: str,
    experiment: str = "",
    attempt: int = 1,
    started_at: "float | None" = None,
    started_at_mono: "float | None" = None,
    spans_so_far: int = 0,
    interval_s: float = TICK_INTERVAL_S,
    extra: "dict | None" = None,
    wall_clock: Callable[[], float] = time.time,
    mono_clock: Callable[[], float] = time.monotonic,
) -> Path:
    """Atomically (re)write the heartbeat file of one trial key.

    ``interval_s`` declares how often the writer intends to refresh this
    beat — the staleness contract ``obs watch`` judges against.  ``extra``
    merges advisory fields into the record (never overriding the envelope).
    ``wall_clock``/``mono_clock`` are injectable for stepped-clock tests;
    the wall timestamps are display-only — liveness is judged on the
    monotonic fields (see the record schema above).

    Best-effort by design: an unwritable directory (read-only scratch,
    deleted mid-sweep) must never fail the trial, so ``OSError`` is
    swallowed and the sweep carries on without monitoring.
    """
    directory = Path(directory)
    now = wall_clock()
    now_mono = mono_clock()
    record = dict(extra) if extra else {}
    record.update(
        {
            "format": HEARTBEAT_FORMAT,
            "key": key,
            "experiment": experiment,
            "phase": phase,
            "attempt": attempt,
            "retries": max(0, attempt - 1),
            "spans_so_far": spans_so_far,
            "pid": os.getpid(),
            "started_at": started_at if started_at is not None else now,
            "started_at_mono": (
                started_at_mono if started_at_mono is not None else now_mono
            ),
            "last_progress": now,
            "last_progress_mono": now_mono,
            "interval_s": float(interval_s),
        }
    )
    path = directory / _safe_filename(key)
    try:
        atomic_write_json(record, path, indent=None)
    except OSError:
        pass
    return path


def read_heartbeats(directory: "str | Path") -> "dict[str, dict]":
    """Read every heartbeat record in a directory, keyed by trial key.

    Torn or foreign files are skipped (the atomic writer should prevent
    tears, but ``obs watch`` must survive anything it finds on disk).
    """
    directory = Path(directory)
    records: "dict[str, dict]" = {}
    if not directory.is_dir():
        return records
    for path in sorted(directory.glob("*.json")):
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(record, dict) and "key" in record:
            records[record["key"]] = record
    return records


def _spans_so_far() -> int:
    tracer = obs.get_tracer()
    if not tracer.enabled:
        return 0
    return len(tracer.records())


class HeartbeatTicker:
    """Daemon thread refreshing one trial's heartbeat from inside a worker.

    Started by the subprocess worker after :func:`repro.obs.reset_for_fork`;
    every :data:`TICK_INTERVAL_S` it rewrites the heartbeat with the current
    closed-span count and ``last_progress`` timestamp, which is what lets
    ``obs watch`` tell a slow-but-alive trial from a hung one.  The thread
    is a daemon, so a worker that is SIGKILLed never leaks it.

    With ``directory=None`` the ticker still calls ``status_fn`` every beat
    but writes no file (a liveness beat with nowhere to record it).
    """

    def __init__(
        self,
        directory: "str | Path | None",
        key: str,
        *,
        experiment: str = "",
        attempt: int = 1,
        interval_s: float = TICK_INTERVAL_S,
        status_fn: "Callable[[], dict] | None" = None,
    ) -> None:
        self._directory = Path(directory) if directory is not None else None
        self._key = key
        self._experiment = experiment
        self._attempt = attempt
        self._interval_s = interval_s
        self._status_fn = status_fn
        self._started_at = time.time()
        self._started_at_mono = time.monotonic()
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    def _beat(self) -> None:
        extra = None
        if self._status_fn is not None:
            # Advisory extras (e.g. the service's status snapshot); a broken
            # status callback must never kill the heartbeat thread.
            try:
                extra = self._status_fn()
            except Exception:
                extra = None
        if self._directory is None:
            return
        write_heartbeat(
            self._directory,
            self._key,
            phase="running",
            experiment=self._experiment,
            attempt=self._attempt,
            started_at=self._started_at,
            started_at_mono=self._started_at_mono,
            spans_so_far=_spans_so_far(),
            interval_s=self._interval_s,
            extra=extra,
        )

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            self._beat()

    def start(self) -> "HeartbeatTicker":
        self._beat()  # an immediate first beat marks the attempt as running
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat:{self._key}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
