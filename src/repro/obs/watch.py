"""Live sweep monitoring: tail a journal + heartbeats, render progress.

Backs ``python -m repro obs watch <journal>``.  A resumable sweep
checkpoints every finished trial to its journal and (since the heartbeat
layer) every *running* trial to ``<journal>.hb/``; this module joins the
two into one status report:

* progress — completed / failed / in-flight / pending against the header's
  trial-spec list;
* ETA — remaining trials × median duration of completed ones (the runner
  executes trials sequentially, so the product is the wall-clock estimate);
* retry and quarantine totals;
* stragglers — in-flight trials older than a duration percentile of the
  completed population (default p95), plus trials whose heartbeat has gone
  ``STALE`` (idle for more than 3× the interval the beat itself declares;
  see :func:`repro.runner.heartbeat.stale_after_s`), which is how a hung
  *or crashed* worker shows up before its timeout fires.  Every unsettled heartbeat is
  treated as live — no phase filter — so a worker that died mid-phase still
  renders, flagged, instead of silently vanishing from the report.

Reading is strictly passive: the journal is atomic-rewritten by the
runner, heartbeat files are atomically replaced, so a watcher sees
consistent snapshots and perturbs nothing (the kill-and-resume test
asserts journals are bit-identical with a watcher attached or not).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.runner.heartbeat import (
    STALE_INTERVAL_MULTIPLIER,
    heartbeat_dir,
    read_heartbeats,
    stale_after_s,
)
from repro.runner.journal import RunJournal

#: In-flight trials older than this percentile of completed durations are
#: flagged as stragglers.
STRAGGLER_PERCENTILE: float = 95.0

#: Minimum completed trials before percentile straggler flagging engages.
MIN_COMPLETED_FOR_STRAGGLERS: int = 3

#: Fallback staleness horizon (s) for heartbeats that do not declare their
#: refresh cadence (records written before ``interval_s`` existed).
STALE_AFTER_S: float = 15.0


def _stale_horizon_s(beat: dict) -> float:
    """Idle time beyond which ``beat`` counts as stale."""
    try:
        interval = float(beat["interval_s"])
    except (KeyError, TypeError, ValueError):
        return STALE_AFTER_S
    if interval <= 0:
        return STALE_AFTER_S
    return stale_after_s(interval)


def _elapsed_s(
    beat: dict, mono_field: str, wall_field: str, now: float, now_mono: float
) -> float:
    """Seconds since the beat's ``mono_field`` reading, falling back to wall.

    Liveness must be judged on the writer's monotonic reading whenever the
    record carries one: ``CLOCK_MONOTONIC`` is boot-relative and shared by
    every process on the machine, so ``now_mono - last_progress_mono`` is a
    true idle duration regardless of NTP steps, whereas a wall-clock delta
    jumps with the clock — a +1h step would flag every in-flight trial
    STALE, and a backward step would make a wedged trial look fresh.
    Records without the monotonic fields (older writers) keep the
    wall-clock judgement.
    """
    reading = beat.get(mono_field)
    if isinstance(reading, (int, float)):
        return max(0.0, now_mono - float(reading))
    return max(0.0, now - float(beat.get(wall_field, now)))


@dataclass
class TrialStatus:
    """One in-flight trial as seen through its heartbeat."""

    key: str
    phase: str
    attempt: int
    spans_so_far: int
    age_s: float
    idle_s: float
    straggler: bool = False
    stale: bool = False
    stale_after_s: float = STALE_AFTER_S


#: The keys of the service's status snapshot that ``watch`` renders; the
#: ``service`` heartbeat carries them as extras (``SchedulingService.status``).
SERVICE_STATUS_KEYS = (
    "epoch",
    "epochs_done",
    "backlog_mb",
    "fallback_level",
    "slo_burn_rate",
)


@dataclass
class ServiceStatus:
    """A running scheduling service as seen through its heartbeat + journal.

    A service journal has no sweep header and no trial specs — progress is
    an open-ended epoch counter, and liveness is the ``service`` heartbeat
    the loop's ticker keeps fresh (same monotonic staleness contract as
    trial beats).  The first five fields are keys of the service's status
    snapshot (:data:`SERVICE_STATUS_KEYS`).
    """

    epoch: "int | None" = None
    epochs_done: int = 0
    backlog_mb: "float | None" = None
    fallback_level: "int | None" = None
    slo_burn_rate: "dict | None" = None
    has_beat: bool = False
    idle_s: "float | None" = None
    stale: bool = False
    stale_after_s: float = STALE_AFTER_S


@dataclass
class WatchState:
    """One snapshot of a sweep's progress (everything the renderer needs)."""

    sweep: str
    journal_path: str
    total: int
    done: int
    failed: int
    pending: int
    in_flight: "list[TrialStatus]" = field(default_factory=list)
    durations: "list[float]" = field(default_factory=list)
    retries: int = 0
    eta_s: "float | None" = None
    straggler_cutoff_s: "float | None" = None
    torn_lines: int = 0
    service: "ServiceStatus | None" = None

    @property
    def finished(self) -> bool:
        if self.service is not None:
            # A service has no trial count to complete; the follow loop
            # should stop when the service itself is gone or wedged.
            return not self.service.has_beat or self.service.stale
        return self.done + self.failed >= self.total


def _percentile(sorted_values: "list[float]", q: float) -> float:
    """Linear-interpolation percentile of an already-sorted list."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (q / 100.0) * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    frac = rank - low
    return sorted_values[low] * (1.0 - frac) + sorted_values[high] * frac


def _median(values: "list[float]") -> "float | None":
    if not values:
        return None
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def collect_state(
    journal_path: "str | Path",
    *,
    now: "float | None" = None,
    now_mono: "float | None" = None,
) -> WatchState:
    """Read the journal + heartbeat directory into one consistent snapshot.

    ``now`` (wall clock) and ``now_mono`` (monotonic) are injectable for
    tests; idleness/age of heartbeats carrying monotonic fields is judged
    against ``now_mono``, never the steppable wall clock.
    """
    journal_path = Path(journal_path)
    journal = RunJournal(journal_path)
    header = journal.header
    now = time.time() if now is None else now
    now_mono = time.monotonic() if now_mono is None else now_mono
    if header is None:
        # Not a sweep.  A *service* journal is headerless but carries epoch
        # records and/or a "service" heartbeat — render that as a service
        # row instead of bailing on an anonymous unsettled trial.
        state = _collect_service_state(journal_path, journal, now, now_mono)
        if state is not None:
            return state
        raise ValueError(
            f"{journal_path} has no sweep header — not a sweep journal "
            "(pass the journal `python -m repro sweep --journal` wrote)"
        )

    spec_keys = [item["key"] for item in header.get("spec", [])]
    done_keys = set(journal.completed())
    failures = journal.failures()
    failed_keys = {record["key"] for record in failures}
    settled = done_keys | failed_keys

    durations = [
        float(record["elapsed_s"])
        for record in journal.trial_records()
        if record.get("status") == "ok" and "elapsed_s" in record
    ]
    retries = sum(
        max(0, int(record.get("attempts", 1)) - 1)
        for record in journal.trial_records()
    )

    ordered = sorted(durations)
    cutoff = (
        _percentile(ordered, STRAGGLER_PERCENTILE)
        if len(ordered) >= MIN_COMPLETED_FOR_STRAGGLERS
        else None
    )

    in_flight: "list[TrialStatus]" = []
    for key, beat in read_heartbeats(heartbeat_dir(journal_path)).items():
        # Any heartbeat whose trial the journal has not settled is treated
        # as live — a worker that crashed mid-phase leaves whatever phase
        # string it last wrote, and filtering on "live-looking" phases
        # would hide exactly the trials the watcher exists to flag.  The
        # staleness check below is what separates running from wedged.
        if key in settled:
            continue
        age = _elapsed_s(beat, "started_at_mono", "started_at", now, now_mono)
        idle = _elapsed_s(beat, "last_progress_mono", "last_progress", now, now_mono)
        horizon = _stale_horizon_s(beat)
        in_flight.append(
            TrialStatus(
                key=key,
                phase=str(beat.get("phase", "?")),
                attempt=int(beat.get("attempt", 1)),
                spans_so_far=int(beat.get("spans_so_far", 0)),
                age_s=age,
                idle_s=idle,
                straggler=cutoff is not None and age > cutoff,
                stale=idle > horizon,
                stale_after_s=horizon,
            )
        )
    in_flight.sort(key=lambda status: -status.age_s)

    total = len(spec_keys) if spec_keys else len(settled) + len(in_flight)
    remaining = max(0, total - len(done_keys) - len(failed_keys))
    median = _median(durations)
    eta = remaining * median if (median is not None and remaining) else None

    return WatchState(
        sweep=str(header.get("sweep", "?")),
        journal_path=str(journal_path),
        total=total,
        done=len(done_keys),
        failed=len(failed_keys),
        pending=max(0, remaining - len(in_flight)),
        in_flight=in_flight,
        durations=durations,
        retries=retries,
        eta_s=eta,
        straggler_cutoff_s=cutoff,
        torn_lines=journal.torn_lines,
    )


def _collect_service_state(
    journal_path: Path, journal: RunJournal, now: float, now_mono: float
) -> "WatchState | None":
    """Snapshot a headerless *service* journal, or ``None`` if it is not one.

    Recognizes a service by either signal: ``kind == "epoch"`` records in
    the journal (the controller writes one per epoch) or a ``service``
    heartbeat in the journal's heartbeat directory (the loop's ticker).
    """
    epoch_reports = [
        record.get("report") or {}
        for record in journal.records
        if record.get("kind") == "epoch"
    ]
    beat = read_heartbeats(heartbeat_dir(journal_path)).get("service")
    if beat is None and not epoch_reports:
        return None

    status = ServiceStatus()
    if epoch_reports:
        last = epoch_reports[-1]
        status.epoch = last.get("epoch")
        status.epochs_done = len(epoch_reports)
        status.backlog_mb = last.get("backlog_after")
        status.fallback_level = last.get("fallback_level")
    if beat is not None:
        status.has_beat = True
        status.idle_s = _elapsed_s(
            beat, "last_progress_mono", "last_progress", now, now_mono
        )
        status.stale_after_s = _stale_horizon_s(beat)
        status.stale = status.idle_s > status.stale_after_s
        # The beat carries the service's status snapshot.  It refreshes
        # once a second and the journal every epoch, so the snapshot wins
        # unless the journal is further along (a run shorter than a beat).
        beat_done = beat.get("epochs_done")
        if isinstance(beat_done, int) and beat_done >= status.epochs_done:
            for key in SERVICE_STATUS_KEYS:
                if beat.get(key) is not None:
                    setattr(status, key, beat[key])

    return WatchState(
        sweep="service",
        journal_path=str(journal_path),
        total=status.epochs_done,
        done=status.epochs_done,
        failed=0,
        pending=0,
        torn_lines=journal.torn_lines,
        service=status,
    )


# ---------------------------------------------------------------------- #
# rendering
# ---------------------------------------------------------------------- #


def _fmt_duration(seconds: float) -> str:
    if seconds < 1:
        return f"{seconds * 1000:.0f}ms"
    if seconds < 60:
        return f"{seconds:.1f}s"
    if seconds < 3600:
        return f"{int(seconds // 60)}m{int(seconds % 60):02d}s"
    return f"{int(seconds // 3600)}h{int(seconds % 3600 // 60):02d}m"


def _progress_bar(done: int, failed: int, total: int, width: int = 30) -> str:
    if total <= 0:
        return "[" + " " * width + "]"
    filled = round(width * done / total)
    crossed = round(width * failed / total)
    filled = min(filled, width)
    crossed = min(crossed, width - filled)
    return "[" + "#" * filled + "x" * crossed + "-" * (width - filled - crossed) + "]"


def _render_service(state: WatchState) -> str:
    """One status frame for a scheduling service (headerless journal)."""
    status = state.service
    assert status is not None
    lines = [f"service — {state.journal_path}"]
    row = f"  epoch {status.epoch if status.epoch is not None else '?'}"
    if status.epochs_done:
        row += f" ({status.epochs_done} done)"
    if status.backlog_mb is not None:
        row += f", backlog {status.backlog_mb:.1f} Mb"
    if status.fallback_level is not None:
        row += f", fallback L{status.fallback_level}"
    lines.append(row)
    if status.slo_burn_rate:
        rates = ", ".join(
            f"{label} {float(rate):.0%}" for label, rate in status.slo_burn_rate.items()
        )
        lines.append(f"  slo burn rate: {rates}")
    if not status.has_beat:
        lines.append("  heartbeat: missing (service stopped, or heartbeat disabled)")
    elif status.stale:
        lines.append(
            f"  heartbeat: STALE (no progress {_fmt_duration(status.idle_s or 0.0)}, "
            f"expected every "
            f"{_fmt_duration(status.stale_after_s / STALE_INTERVAL_MULTIPLIER)})"
        )
    else:
        lines.append(
            f"  heartbeat: fresh (idle {_fmt_duration(status.idle_s or 0.0)}, "
            f"stale after {_fmt_duration(status.stale_after_s)})"
        )
    if state.torn_lines:
        lines.append(f"  (warning: {state.torn_lines} torn journal line(s) ignored)")
    return "\n".join(lines)


def render_watch(state: WatchState) -> str:
    """One status frame as text (``repro obs watch``)."""
    if state.service is not None:
        return _render_service(state)
    lines = [
        f"sweep {state.sweep!r} — {state.journal_path}",
        (
            f"{_progress_bar(state.done, state.failed, state.total)} "
            f"{state.done}/{state.total} done"
            + (f", {state.failed} failed" if state.failed else "")
            + (f", {len(state.in_flight)} running" if state.in_flight else "")
            + (f", {state.pending} pending" if state.pending else "")
        ),
    ]
    if state.torn_lines:
        lines.append(f"(warning: {state.torn_lines} torn journal line(s) ignored)")
    median = _median(state.durations)
    if median is not None:
        stats = f"trial median {_fmt_duration(median)}"
        if state.straggler_cutoff_s is not None:
            stats += f", p{STRAGGLER_PERCENTILE:.0f} {_fmt_duration(state.straggler_cutoff_s)}"
        lines.append(stats)
    if state.eta_s is not None:
        remaining = state.total - state.done - state.failed
        lines.append(
            f"ETA ~{_fmt_duration(state.eta_s)} "
            f"({remaining} remaining × median {_fmt_duration(median)})"
        )
    if state.retries:
        lines.append(f"retries {state.retries}, quarantined {state.failed}")
    elif state.failed:
        lines.append(f"quarantined {state.failed}")
    if state.in_flight:
        lines.append("in flight:")
        for status in state.in_flight:
            flags = []
            if status.straggler:
                flags.append(
                    f"straggler (> p{STRAGGLER_PERCENTILE:.0f} "
                    f"{_fmt_duration(state.straggler_cutoff_s or 0.0)})"
                )
            if status.stale:
                flags.append(
                    f"STALE (no progress {_fmt_duration(status.idle_s)}, "
                    f"expected every {_fmt_duration(status.stale_after_s / STALE_INTERVAL_MULTIPLIER)})"
                )
            suffix = ("  ← " + ", ".join(flags)) if flags else ""
            lines.append(
                f"  {status.key:<32} {status.phase:<9} attempt {status.attempt}"
                f"  spans {status.spans_so_far}"
                f"  age {_fmt_duration(status.age_s)}{suffix}"
            )
    if state.finished:
        lines.append("sweep complete")
    return "\n".join(lines)


def watch(
    journal_path: "str | Path",
    *,
    follow: bool = False,
    interval_s: float = 2.0,
    max_frames: "int | None" = None,
    emit=print,
    sleep=time.sleep,
) -> WatchState:
    """Render the sweep's status once, or keep tailing with ``follow``.

    Returns the last collected state.  ``max_frames``/``emit``/``sleep``
    are injection points for tests; the follow loop stops when the sweep
    finishes (or on Ctrl-C from the CLI).
    """
    frames = 0
    while True:
        state = collect_state(journal_path)
        emit(render_watch(state))
        frames += 1
        if not follow or state.finished:
            return state
        if max_frames is not None and frames >= max_frames:
            return state
        sleep(interval_s)
        emit("")
