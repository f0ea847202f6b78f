"""Textual execution traces — ASCII Gantt charts of schedules and results.

Debugging a scheduler usually starts with "what did the OCS actually do,
and when" — this module renders that: one lane per mechanism (regular
circuits, composite paths, reconfigurations), time left-to-right, scaled
to a fixed character width.  It operates on the same objects the rest of
the library exchanges (:class:`~repro.hybrid.schedule.Schedule`,
:class:`~repro.core.scheduler.CpSchedule`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.scheduler import CpSchedule
from repro.hybrid.schedule import Schedule

#: Characters used for the Gantt lanes.
_RECONFIG_CHAR = "."
_CIRCUIT_CHAR = "#"
_COMPOSITE_CHAR = "Z"
_IDLE_CHAR = " "


@dataclass(frozen=True)
class TimelineInterval:
    """One labelled interval on a schedule timeline."""

    start: float
    end: float
    label: str
    kind: str  # "reconfig" | "circuit" | "composite"

    @property
    def duration(self) -> float:
        return self.end - self.start


def schedule_timeline(schedule: "Schedule | CpSchedule") -> "list[TimelineInterval]":
    """Flatten a schedule into labelled (start, end) intervals.

    Every configuration contributes a reconfiguration interval followed by
    a hold interval; cp-Switch configurations with composite grants are
    tagged ``composite``.
    """
    intervals: list[TimelineInterval] = []
    clock = 0.0
    delta = schedule.reconfig_delay
    for index, entry in enumerate(schedule.entries):
        intervals.append(
            TimelineInterval(clock, clock + delta, f"reconfig {index}", "reconfig")
        )
        clock += delta
        kind = "circuit"
        label = f"config {index}"
        grants = [f"o2m@{port}" for port in getattr(entry, "o2m_ports", ())] + [
            f"m2o@{port}" for port in getattr(entry, "m2o_ports", ())
        ]
        if grants:
            kind = "composite"
            label = f"config {index} ({', '.join(grants)})"
        intervals.append(TimelineInterval(clock, clock + entry.duration, label, kind))
        clock += entry.duration
    return intervals


def render_gantt(
    schedule: "Schedule | CpSchedule",
    width: int = 72,
    total_time: "float | None" = None,
) -> str:
    """ASCII Gantt chart of a schedule.

    Lanes: ``OCS`` (``#`` circuit hold, ``.`` reconfiguring) and — for
    cp-Switch schedules — ``composite`` (``Z`` while any composite path is
    granted).  ``total_time`` extends the x-axis beyond the makespan (e.g.
    to a simulation's completion time).
    """
    if width < 10:
        raise ValueError(f"width must be >= 10, got {width}")
    intervals = schedule_timeline(schedule)
    if not intervals:
        return "(empty schedule)"
    horizon = intervals[-1].end if total_time is None else max(total_time, intervals[-1].end)
    if horizon <= 0:
        return "(zero-length schedule)"

    def lane(selector) -> str:
        cells = [_IDLE_CHAR] * width
        for interval in intervals:
            char = selector(interval)
            if char is None:
                continue
            lo = int(interval.start / horizon * width)
            hi = max(lo + 1, int(interval.end / horizon * width))
            for k in range(lo, min(hi, width)):
                cells[k] = char
        return "".join(cells)

    ocs_lane = lane(
        lambda iv: _RECONFIG_CHAR
        if iv.kind == "reconfig"
        else (_CIRCUIT_CHAR if iv.kind in ("circuit", "composite") else None)
    )
    lines = [
        f"0 {'-' * (width - 2)} {horizon:.3g} ms",
        f"OCS        |{ocs_lane}|",
    ]
    if any(iv.kind == "composite" for iv in intervals):
        composite_lane = lane(
            lambda iv: _COMPOSITE_CHAR if iv.kind == "composite" else None
        )
        lines.append(f"composite  |{composite_lane}|")
    legend = f"legend: {_CIRCUIT_CHAR}=circuits held, {_RECONFIG_CHAR}=reconfiguring"
    if any(iv.kind == "composite" for iv in intervals):
        legend += f", {_COMPOSITE_CHAR}=composite path granted"
    lines.append(legend)
    return "\n".join(lines)
