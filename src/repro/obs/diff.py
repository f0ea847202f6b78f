"""Run-diff: align two traces by span path and report what changed.

Backs ``python -m repro obs diff A.jsonl B.jsonl``.  Two runs of the same
command produce span forests with different ids and (possibly) different
counts, but the *path* of a span — its root-to-leaf name chain, e.g.
``repro.compare/runner.trial/solstice.schedule`` — is stable, so phases
are aligned path-for-path (see :func:`repro.obs.summarize.group_paths`).
For every path the diff reports counts and wall-time aggregates (total,
min and median over repeated spans) on both sides, plus the delta.

Counters and histograms from the embedded metrics snapshots are diffed by
fully-labeled name.  A curated subset of counters —
:data:`QUALITY_COUNTERS` — measures *schedule quality* rather than wall
time (BigSlice slice counts, Eclipse greedy steps, watchdog trips,
composite-path grants, engine phases): those are deterministic for a
seeded run, so **any** difference is reported as schedule-quality drift,
the signal that a refactor changed what the scheduler decides, not just
how fast it decides it.  :func:`quality_drift` is that rule, and
``repro obs check`` (:mod:`repro.obs.baseline`) judges its baselines with
it too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.summarize import TraceData, group_paths

#: Quality metrics compared exactly: integer schedule decisions, deterministic
#: for a seeded run, so a drift means the *schedule* changed, not the
#: machine's speed.  All but the last two are counters of a metrics
#: snapshot; ``h_configs`` and ``cp_configs`` are the configuration counts
#: ``obs check`` reads off its simulation results.  Timing-flavoured
#: metrics (``phase_seconds`` histograms) deliberately stay out.
QUALITY_COUNTERS: "frozenset[str]" = frozenset(
    {
        "solstice_schedules_total",
        "solstice_slices_total",
        "eclipse_schedules_total",
        "eclipse_steps_total",
        "scheduler_watchdog_trips_total",
        "cpsched_schedules_total",
        "cpsched_composite_grants_total",
        "engine_phases_total",
        "engine_events_total",
        "engine_dust_snaps_total",
        "controller_epochs_total",
        "reroute_backups_planned_total",
        "reroute_swaps_total",
        "deadline_fallback_total",
        "deadline_misses_total",
        "h_configs",
        "cp_configs",
    }
)

#: Float quality metrics, compared with a relative tolerance: Mb volumes
#: whose summation order may legally differ between runs, and the shares
#: of the demand each path served in ``obs check``'s simulation results.
VOLUME_QUALITY_COUNTERS: "frozenset[str]" = frozenset(
    {
        "cpsched_composite_volume_mb_total",
        "engine_composite_released_mb_total",
        "engine_composite_reparked_mb_total",
        "reroute_reparked_mb_total",
        "controller_shed_mb_total",
        "h_ocs_fraction",
        "cp_ocs_fraction",
        "composite_fraction",
    }
)
_VOLUME_RTOL: float = 1e-9


@dataclass(frozen=True)
class PhaseStats:
    """Wall-time aggregate of one span path on one side of the diff."""

    count: int
    total: float
    min: float
    median: float


@dataclass(frozen=True)
class PhaseDelta:
    """One aligned span path with stats from both runs (None = absent)."""

    path: str
    a: "PhaseStats | None"
    b: "PhaseStats | None"

    @property
    def delta_total(self) -> float:
        return (self.b.total if self.b else 0.0) - (self.a.total if self.a else 0.0)

    @property
    def ratio(self) -> "float | None":
        """B/A total wall time; ``None`` when A recorded nothing."""
        if self.a is None or self.a.total <= 0.0:
            return None
        return (self.b.total if self.b else 0.0) / self.a.total


@dataclass
class TraceDiff:
    """Full diff of two traces: phases, counters, quality drift."""

    meta_a: dict = field(default_factory=dict)
    meta_b: dict = field(default_factory=dict)
    phases: "list[PhaseDelta]" = field(default_factory=list)
    counters: "dict[str, tuple[float, float]]" = field(default_factory=dict)
    histograms: "dict[str, tuple[tuple[int, float], tuple[int, float]]]" = field(
        default_factory=dict
    )
    quality_drift: "list[dict]" = field(default_factory=list)

    @property
    def has_quality_drift(self) -> bool:
        return bool(self.quality_drift)


def _phase_stats(group) -> PhaseStats:
    from repro.obs.summarize import _duration

    durations = sorted(_duration(member) for member in group.members)
    mid = len(durations) // 2
    median = (
        durations[mid]
        if len(durations) % 2
        else 0.5 * (durations[mid - 1] + durations[mid])
    )
    return PhaseStats(
        count=group.count, total=group.total, min=durations[0], median=median
    )


def _flatten_snapshot(snapshot: dict) -> "tuple[dict, dict]":
    """Snapshot → ({labeled counter/gauge: value}, {labeled hist: (n, sum)})."""
    scalars: "dict[str, float]" = {}
    hists: "dict[str, tuple[int, float]]" = {}
    for name, payload in (snapshot or {}).items():
        for entry in payload.get("values", []):
            labels = entry.get("labels") or {}
            suffix = (
                "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                if labels
                else ""
            )
            if payload.get("type") == "histogram":
                hists[name + suffix] = (
                    int(entry.get("count", 0)),
                    float(entry.get("sum", 0.0)),
                )
            else:
                scalars[name + suffix] = float(entry.get("value", 0.0))
    return scalars, hists


def _base_name(labeled: str) -> str:
    return labeled.split("{", 1)[0]


def quality_metrics(snapshot: dict) -> "dict[str, float]":
    """The quality metrics of a metrics snapshot, by fully-labeled name."""
    scalars, _ = _flatten_snapshot(snapshot)
    quality = QUALITY_COUNTERS | VOLUME_QUALITY_COUNTERS
    return {name: value for name, value in scalars.items() if _base_name(name) in quality}


def quality_drift(a: dict, b: dict) -> "list[dict]":
    """Schedule-quality drift between two ``{labeled name: value}`` maps.

    The one comparison rule of ``obs diff`` and ``obs check``: names outside
    the quality lists are ignored, :data:`QUALITY_COUNTERS` must match
    exactly and :data:`VOLUME_QUALITY_COUNTERS` within 1e-9 relative (a NaN
    is drift).  A name present on one side only reads as 0 on the
    other, so a counter that appears or vanishes is drift too.
    """
    drift = []
    for name in sorted(set(a) | set(b)):
        base = _base_name(name)
        value_a, value_b = a.get(name, 0.0), b.get(name, 0.0)
        if base in QUALITY_COUNTERS:
            same = value_a == value_b
        elif base in VOLUME_QUALITY_COUNTERS:
            tol = _VOLUME_RTOL * max(1.0, abs(value_a), abs(value_b))
            same = abs(value_a - value_b) <= tol
        else:
            continue
        if not same:
            drift.append({"metric": name, "a": value_a, "b": value_b})
    return drift


def diff_traces(a: TraceData, b: TraceData) -> TraceDiff:
    """Align ``a`` and ``b`` and compute the full diff."""
    groups_a = group_paths(a)
    groups_b = group_paths(b)
    phases = []
    # A-side first-start ordering keeps the report aligned with execution
    # order; B-only paths (new phases) sort at the end.
    order = sorted(
        set(groups_a) | set(groups_b),
        key=lambda path: (
            groups_a[path].first_start if path in groups_a else float("inf"),
            path,
        ),
    )
    for path in order:
        phases.append(
            PhaseDelta(
                path=path,
                a=_phase_stats(groups_a[path]) if path in groups_a else None,
                b=_phase_stats(groups_b[path]) if path in groups_b else None,
            )
        )

    scalars_a, hists_a = _flatten_snapshot(a.metrics)
    scalars_b, hists_b = _flatten_snapshot(b.metrics)
    counters = {
        name: (scalars_a.get(name, 0.0), scalars_b.get(name, 0.0))
        for name in sorted(set(scalars_a) | set(scalars_b))
    }
    histograms = {
        name: (hists_a.get(name, (0, 0.0)), hists_b.get(name, (0, 0.0)))
        for name in sorted(set(hists_a) | set(hists_b))
    }
    return TraceDiff(
        meta_a=dict(a.meta),
        meta_b=dict(b.meta),
        phases=phases,
        counters=counters,
        histograms=histograms,
        quality_drift=quality_drift(scalars_a, scalars_b),
    )


# ---------------------------------------------------------------------- #
# rendering
# ---------------------------------------------------------------------- #


def _fmt_ratio(delta: PhaseDelta) -> str:
    if delta.a is None:
        return "(new)"
    if delta.b is None:
        return "(gone)"
    ratio = delta.ratio
    if ratio is None:
        return ""
    return f"{(ratio - 1.0) * 100.0:+.1f}%"


def _fmt_stats(stats: "PhaseStats | None") -> str:
    if stats is None:
        return "—"
    if stats.count == 1:
        return f"{stats.total:.4f}s"
    return f"{stats.total:.4f}s ×{stats.count} (min {stats.min:.4f}s, med {stats.median:.4f}s)"


def render_diff(diff: TraceDiff, top: int = 10) -> str:
    """Human report: the phase tree with A → B timings, counters, drift."""
    lines = [
        "phase wall time (A → B, aligned by span path)",
    ]
    for delta in diff.phases:
        depth = delta.path.count("/")
        name = delta.path.rsplit("/", 1)[-1]
        indent = "   " * depth + ("└─ " if depth else "")
        label = f"{indent}{name}"
        lines.append(
            f"{label:<44} {_fmt_stats(delta.a)}  →  {_fmt_stats(delta.b)}  "
            f"{_fmt_ratio(delta)}".rstrip()
        )
    if not diff.phases:
        lines.append("  (no spans on either side)")

    changed = [
        (name, a, b) for name, (a, b) in diff.counters.items() if a != b
    ]
    lines.append("")
    if changed:
        lines.append(f"counter deltas ({len(changed)} changed)")
        for name, a, b in sorted(changed, key=lambda item: -abs(item[2] - item[1]))[:top]:
            lines.append(f"  {name:<58} {a:g} → {b:g}  ({b - a:+g})")
    else:
        lines.append("counter deltas: none")

    changed_hists = [
        (name, a, b) for name, (a, b) in diff.histograms.items() if a != b
    ]
    if changed_hists:
        lines.append("")
        lines.append(f"histogram deltas ({len(changed_hists)} changed)")
        for name, (count_a, sum_a), (count_b, sum_b) in changed_hists[:top]:
            lines.append(
                f"  {name:<58} n={count_a}→{count_b} "
                f"sum={sum_a:.4f}s→{sum_b:.4f}s ({sum_b - sum_a:+.4f}s)"
            )

    lines.append("")
    if diff.quality_drift:
        lines.append(f"SCHEDULE-QUALITY DRIFT ({len(diff.quality_drift)} metric(s)):")
        for entry in diff.quality_drift:
            lines.append(
                f"  {entry['metric']:<58} {entry['a']:g} → {entry['b']:g}"
            )
    else:
        lines.append("schedule-quality drift: none")
    return "\n".join(lines)


def diff_to_json(diff: TraceDiff) -> dict:
    """Machine-readable form of the diff (``--json`` output)."""

    def stats(s: "PhaseStats | None") -> "dict | None":
        if s is None:
            return None
        return {"count": s.count, "total_s": s.total, "min_s": s.min, "median_s": s.median}

    return {
        "format": 1,
        "a": {"command": diff.meta_a.get("command"), "wall_s": diff.meta_a.get("wall_s")},
        "b": {"command": diff.meta_b.get("command"), "wall_s": diff.meta_b.get("wall_s")},
        "phases": [
            {
                "path": d.path,
                "a": stats(d.a),
                "b": stats(d.b),
                "delta_total_s": d.delta_total,
                "ratio": d.ratio,
            }
            for d in diff.phases
        ],
        "counters": {
            name: {"a": a, "b": b, "delta": b - a}
            for name, (a, b) in diff.counters.items()
        },
        "histograms": {
            name: {
                "a": {"count": a[0], "sum_s": a[1]},
                "b": {"count": b[0], "sum_s": b[1]},
            }
            for name, (a, b) in diff.histograms.items()
        },
        "quality_drift": list(diff.quality_drift),
    }
