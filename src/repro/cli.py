"""Command-line interface: ``python -m repro <command>``.

Gives the library a no-code surface for the common workflows:

* ``compare``  — run the h-Switch vs cp-Switch comparison on one of the
  paper's workloads and print the aggregated metrics;
* ``figure``   — regenerate one of the paper's figures (radix sweep);
* ``schedule`` — schedule a demand matrix from a ``.npy``/``.csv`` file
  and print the resulting configurations;
* ``workload`` — sample a demand matrix from one of the paper's models
  and write it to a file (for feeding external tools or ``schedule``);
* ``robustness`` — degradation under imperfection: a hardware fault sweep
  (h vs cp completion versus injected fault rate, with the volume failed
  over from dead composite paths) followed by a demand-estimation-error
  sweep (noise / staleness / missed entries);
* ``sweep --resume <journal>`` — finish an interrupted sweep from its
  journal;
* ``serve``    — the continuous scheduling service loop: async arrival
  ingestion into the closed-loop epoch controller, advisory scheduler
  arms sharded across a warm worker pool, drain-on-SIGTERM.

Resilient execution
-------------------
Every sweep command (``compare`` / ``figure`` / ``robustness``) runs
through the crash-tolerant runner (:mod:`repro.runner`) by default: trial
results are checkpointed to an atomic JSONL journal (auto-derived from the
sweep's arguments under ``--run-dir`` / ``$REPRO_RUN_DIR``, default
``runs/``), each trial executes in a subprocess worker with optional
``--timeout`` and bounded ``--retries`` with exponential backoff, and a
trial that exhausts its retries is quarantined as a reproducible ``.npz``
instead of aborting the sweep.  Re-running the same command — or
``python -m repro sweep --resume <journal>`` — skips completed trials and
finishes only the remainder, aggregating bit-identically to an
uninterrupted run.

Examples
--------
::

    python -m repro compare --workload skewed --scheduler solstice \
        --ocs fast --radix 64 --trials 5
    python -m repro figure fig5 --ocs fast --radices 32,64 --trials 3
    python -m repro workload --workload typical --radix 32 --out demand.npy
    python -m repro schedule demand.npy --switch cp --scheduler eclipse
    python -m repro robustness --radix 32 --trials 2 \
        --fault-rates 0,0.1,0.3 --error-rates 0,0.1,0.3
    python -m repro compare --radix 32 --trials 20 --journal run.jsonl
    python -m repro sweep --resume run.jsonl
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
from pathlib import Path

import numpy as np

from repro import obs
from repro.analysis.experiment import make_workload
from repro.analysis.report import format_table
from repro.analysis.sweeps import (
    compare_specs,
    comparison_points,
    default_run_dir,
    figure_specs,
    group_payloads,
    robustness_specs,
    single_comparison,
    sweep_fingerprint,
)
from repro.core.scheduler import CpSwitchScheduler
from repro.hybrid.base import make_scheduler
from repro.matching import kernels
from repro.runner import (
    RetryPolicy,
    RunJournal,
    SweepConfig,
    SweepResult,
    SweepRunner,
    resolve_fn,
    specs_from_journal,
)
from repro.obs.summarize import (
    TraceParseError,
    load_trace_or_snapshot,
    render_summary,
)
from repro.service.stages import DEFAULT_ARMS
from repro.sim import simulate_cp, simulate_hybrid
from repro.switch.params import SwitchParams, ocs_params
from repro.utils.fileio import atomic_write_json, atomic_write_text
from repro.utils.validation import check_demand_matrix

WORKLOADS = ("skewed", "background", "typical", "intensive", "varying")


def _params(args) -> SwitchParams:
    return ocs_params(args.ocs, args.radix)


def _load_demand(path: Path) -> np.ndarray:
    if path.suffix == ".npy":
        try:
            demand = np.load(path)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read demand file {path}: {exc}") from None
    elif path.suffix == ".csv":
        try:
            demand = np.loadtxt(path, delimiter=",")
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read demand file {path}: {exc}") from None
    else:
        raise SystemExit(f"unsupported demand file type: {path} (use .npy or .csv)")
    try:
        # Rejects NaN/Inf, negative entries and non-square shapes up front,
        # with one actionable line instead of a traceback from deep inside
        # the scheduler.
        return check_demand_matrix(np.atleast_2d(np.asarray(demand, dtype=np.float64)))
    except ValueError as exc:
        raise SystemExit(
            f"invalid demand file {path}: {exc} — fix the file or regenerate "
            "it with `python -m repro workload`"
        ) from None


# ---------------------------------------------------------------------- #
# runner plumbing
# ---------------------------------------------------------------------- #


def _journal_for(args, kind: str, sweep_args: dict) -> RunJournal:
    """The journal this sweep checkpoints to (resumable-by-default).

    ``--journal`` pins an explicit path; otherwise the path is derived from
    the sweep's arguments so re-running the identical command resumes its
    own journal.  ``--no-journal`` opts out (in-memory, not resumable);
    ``--fresh`` discards an existing journal first.
    """
    if getattr(args, "no_journal", False):
        return RunJournal()
    if getattr(args, "journal", None):
        path = Path(args.journal)
    else:
        run_dir = Path(args.run_dir) if getattr(args, "run_dir", None) else default_run_dir()
        path = run_dir / f"{kind}-{sweep_fingerprint(kind, sweep_args)}.jsonl"
    if getattr(args, "fresh", False) and path.exists():
        path.unlink()
    return RunJournal(path)


def _check_positive_budget(value, flag: str, unit: str = "seconds"):
    """Validate a wall-clock budget flag: positive and finite-or-inf, never
    zero, negative, or NaN — those silently disable or wedge the run.

    Returns the value as ``float`` (``None`` passes through untouched);
    raises ``ValueError``, so call it inside :func:`_rejecting`.
    """
    if value is None:
        return None
    value = float(value)
    if math.isnan(value) or value <= 0:
        raise ValueError(
            f"{flag} must be a positive number of {unit}, got {value:g}; "
            f"drop the flag to run without a budget"
        )
    return value


def _parse_list(text: str, command: str, flag: str, cast=int) -> tuple:
    try:
        return tuple(cast(part) for part in text.split(","))
    except ValueError:
        kind = "integers" if cast is int else "numbers"
        raise SystemExit(
            f"{command}: {flag} must be comma-separated {kind}, got {text!r}"
        ) from None


@contextlib.contextmanager
def _rejecting(command: str):
    """Bad input (``--trials 0``, a radix below 2, ``serve --epochs 0``,
    ``--retries -1``) exits with one ``<command>: <message>`` line before
    anything runs or is journaled.  Wrap only argument and config
    construction."""
    try:
        yield
    except ValueError as exc:
        raise SystemExit(f"{command}: {exc}") from None


def _sweep_config(args) -> SweepConfig:
    retries = getattr(args, "retries", 2)
    if retries < 0:
        raise ValueError(f"--retries must be >= 0, got {retries}")
    return SweepConfig(
        timeout_s=_check_positive_budget(getattr(args, "timeout", None), "--timeout"),
        retry=RetryPolicy(
            max_attempts=retries + 1,
            base_delay=getattr(args, "retry_base_delay", 0.1),
        ),
        isolation=getattr(args, "isolation", "subprocess"),
        heartbeat=not getattr(args, "no_heartbeat", False),
    )


def _run_sweep(args, kind: str, sweep_args: dict, specs) -> "tuple[SweepResult, RunJournal]":
    with _rejecting(kind):
        config = _sweep_config(args)
        # Draw each experiment's first demand: a workload its radix cannot
        # hold fails here, once, instead of in every retried trial.
        drawn = set()
        for spec in specs:
            if spec.demand_fn is not None and spec.experiment not in drawn:
                drawn.add(spec.experiment)
                resolve_fn(spec.demand_fn)(**spec.kwargs)
    journal = _journal_for(args, kind, sweep_args)
    runner = SweepRunner(journal, config)
    already = journal.completed_keys() & {spec.key for spec in specs}
    if already:
        print(
            f"resuming from {journal.path}: {len(already)}/{len(specs)} trials "
            "already journaled",
            file=sys.stderr,
        )
    result = runner.run(
        specs,
        sweep_name=f"{kind}-{sweep_fingerprint(kind, sweep_args)}",
        meta={"kind": kind, "args": sweep_args},
    )
    _report_failures(result, journal)
    return result, journal


def _report_failures(result: SweepResult, journal: RunJournal) -> None:
    if not result.failures:
        return
    print(
        f"warning: {len(result.failures)} trial(s) failed after retries "
        "(sweep continued over the survivors):",
        file=sys.stderr,
    )
    for failure in result.failures:
        where = f" [repro: {failure.quarantine_path}]" if failure.quarantine_path else ""
        print(
            f"  {failure.key}: {failure.error_type}: {failure.error_message}{where}",
            file=sys.stderr,
        )


# ---------------------------------------------------------------------- #
# commands
# ---------------------------------------------------------------------- #


def _print_compare(sweep_args: dict, specs, completed: dict) -> None:
    result = single_comparison(specs, completed)
    rows = [
        ["completion total (ms)", result.h_completion_total.mean, result.cp_completion_total.mean],
        ["completion o2m (ms)", result.h_completion_o2m.mean, result.cp_completion_o2m.mean],
        ["completion m2o (ms)", result.h_completion_m2o.mean, result.cp_completion_m2o.mean],
        ["OCS fraction in window", result.h_ocs_fraction.mean, result.cp_ocs_fraction.mean],
        ["OCS configurations", result.h_configs.mean, result.cp_configs.mean],
        ["scheduler time (ms)", result.h_sched_seconds.mean * 1e3, result.cp_sched_seconds.mean * 1e3],
    ]
    title = (
        f"{sweep_args['workload']} workload, radix {sweep_args['radix']}, "
        f"{sweep_args['ocs']} OCS, {sweep_args['scheduler']}, "
        f"{result.n_trials} trials"
    )
    print(format_table(["metric", "h-Switch", "cp-Switch"], rows, title=title))


def cmd_compare(args) -> int:
    sweep_args = {
        "workload": args.workload,
        "ocs": args.ocs,
        "radix": args.radix,
        "scheduler": args.scheduler,
        "trials": args.trials,
        "seed": args.seed,
        "skewed_ports": args.skewed_ports,
    }
    with _rejecting("compare"):
        specs = compare_specs(**sweep_args)
    result, _journal = _run_sweep(args, "compare", sweep_args, specs)
    if not result.completed:
        print("error: every trial failed; nothing to aggregate", file=sys.stderr)
        return 1
    _print_compare(sweep_args, specs, result.completed)
    return 0


def _print_figure(sweep_args: dict, specs, completed: dict) -> None:
    name = sweep_args["name"]
    utilization = name in ("fig6", "fig8", "fig10")
    rows = []
    for experiment, point in comparison_points(specs, completed):
        if point is None:
            print(f"warning: {experiment}: all trials failed; point omitted", file=sys.stderr)
            continue
        res = point.result
        prefix = [point.n_ports] + ([point.skewed_ports] if point.skewed_ports is not None else [])
        if utilization:
            rows.append(prefix + [res.h_ocs_fraction.mean, res.cp_ocs_fraction.mean,
                                  res.h_configs.mean, res.cp_configs.mean])
        else:
            rows.append(prefix + [res.h_completion_total.mean, res.cp_completion_total.mean,
                                  res.h_configs.mean, res.cp_configs.mean])
    headers = ["radix"] + (["k"] if name == "fig11" else [])
    headers += (
        ["h OCS fraction", "cp OCS fraction"] if utilization else ["h total (ms)", "cp total (ms)"]
    )
    headers += ["h configs", "cp configs"]
    print(
        format_table(
            headers,
            rows,
            title=f"{name} ({sweep_args['ocs']} OCS, {sweep_args['trials']} trials)",
        )
    )


def cmd_figure(args) -> int:
    radices = _parse_list(args.radices, "figure", "--radices")
    sweep_args = {
        "name": args.name,
        "ocs": args.ocs,
        "radices": list(radices),
        "trials": args.trials,
        "seed": args.seed,
    }
    with _rejecting("figure"):
        specs = figure_specs(
            args.name, ocs=args.ocs, radices=radices, trials=args.trials, seed=args.seed
        )
    result, _journal = _run_sweep(args, "figure", sweep_args, specs)
    if not result.completed:
        print("error: every trial failed; nothing to aggregate", file=sys.stderr)
        return 1
    _print_figure(sweep_args, specs, result.completed)
    return 0


def cmd_workload(args) -> int:
    with _rejecting("workload"):
        params = _params(args)
        workload = make_workload(args.workload, params, args.skewed_ports)
        spec = workload.generate(args.radix, np.random.default_rng(args.seed))
    out = Path(args.out)
    if out.suffix == ".npy":
        np.save(out, spec.demand)
    elif out.suffix == ".csv":
        np.savetxt(out, spec.demand, delimiter=",")
    else:
        raise SystemExit(f"unsupported output type: {out} (use .npy or .csv)")
    print(
        f"wrote {args.radix}x{args.radix} {args.workload} demand "
        f"({spec.total_volume:.1f} Mb, {int((spec.demand > 0).sum())} entries) to {out}"
    )
    return 0


def cmd_schedule(args) -> int:
    demand = _load_demand(Path(args.demand))
    with _rejecting("schedule"):
        params = ocs_params(args.ocs, demand.shape[0])
    inner = make_scheduler(args.scheduler)
    if args.switch == "h":
        schedule = inner.schedule(demand, params)
        result = simulate_hybrid(demand, schedule, params)
    else:
        schedule = CpSwitchScheduler(inner).schedule(demand, params)
        result = simulate_cp(demand, schedule, params)

    for diag in getattr(inner, "last_diagnostics", []):
        print(f"scheduler watchdog: {diag.event}: {diag.detail}", file=sys.stderr)
    print(f"{args.switch}-Switch / {args.scheduler} on {demand.shape[0]} ports:")
    for index, entry in enumerate(schedule):
        inputs = np.flatnonzero(entry.matching >= 0)
        circuits = list(zip(inputs.tolist(), entry.matching[inputs].tolist()))
        if args.switch == "cp":
            circuits += [f"o2m@{port}" for port in entry.o2m_ports]
            circuits += [f"m2o@{port}" for port in entry.m2o_ports]
        print(f"  config {index}: {entry.duration:.4f} ms, {circuits}")
    print(
        f"completion {result.completion_time:.3f} ms over {result.n_configs} configurations "
        f"(makespan {result.makespan:.3f} ms)"
    )
    return 0


def _fallback_histogram(payloads: "list[dict]") -> str:
    """Merge per-trial fallback histograms into one ``L0×3 L1×2``-style cell."""
    merged: "dict[int, int]" = {}
    for payload in payloads:
        for level, count in payload.get("fallbacks", {}).items():
            merged[int(level)] = merged.get(int(level), 0) + int(count)
    return " ".join(f"L{level}×{merged[level]}" for level in sorted(merged)) or "-"


def _print_robustness(sweep_args: dict, specs, completed: dict) -> None:
    groups = group_payloads(specs, completed)
    fault_rows = []
    error_rows = []
    reroute_rows = []
    deadline_rows = []
    for experiment, payloads in groups.items():
        if not payloads:
            print(f"warning: {experiment}: all trials failed; point omitted", file=sys.stderr)
            continue
        if experiment.startswith("deadline-"):
            served = float(np.mean([p["served"] for p in payloads]))
            served_unbounded = float(np.mean([p["served_unbounded"] for p in payloads]))
            cct = float(np.mean([p["cct"] for p in payloads]))
            cct_unbounded = float(np.mean([p["cct_unbounded"] for p in payloads]))
            deadline_rows.append(
                [
                    payloads[0]["deadline_ms"],
                    float(np.mean([p["miss_rate"] for p in payloads])),
                    _fallback_histogram(payloads),
                    served / served_unbounded if served_unbounded else 1.0,
                    cct - cct_unbounded,
                    float(np.mean([p["schedule_ms"] for p in payloads])),
                ]
            )
        elif experiment.startswith("fault-"):
            h_mean = float(np.mean([p["h"] for p in payloads]))
            cp_mean = float(np.mean([p["cp"] for p in payloads]))
            fault_rows.append(
                [
                    payloads[0]["rate"],
                    h_mean,
                    cp_mean,
                    h_mean / cp_mean if cp_mean else float("inf"),
                    float(np.mean([p["released"] for p in payloads])),
                ]
            )
        elif experiment.startswith("reroute-"):
            degrade = float(np.mean([p["degrade_stranded"] for p in payloads]))
            reroute = float(np.mean([p["reroute_stranded"] for p in payloads]))
            recoveries = [p["recovery_ms"] for p in payloads if p["swaps"]]
            reroute_rows.append(
                [
                    payloads[0]["rate"],
                    degrade,
                    reroute,
                    degrade - reroute,
                    float(np.mean([p["swaps"] for p in payloads])),
                    float(np.mean(recoveries)) if recoveries else 0.0,
                ]
            )
        else:
            h_mean = float(np.mean([p["h"] for p in payloads]))
            cp_mean = float(np.mean([p["cp"] for p in payloads]))
            error_rows.append(
                [
                    payloads[0]["error"],
                    h_mean,
                    cp_mean,
                    h_mean / cp_mean if cp_mean else float("inf"),
                ]
            )
    radix = sweep_args["radix"]
    ocs = sweep_args["ocs"]
    print(
        format_table(
            ["fault rate", "h total (ms)", "cp total (ms)", "h/cp", "released (Mb)"],
            fault_rows,
            title=(
                f"hardware fault sweep — skewed workload, radix {radix}, "
                f"{ocs} OCS, solstice, {sweep_args['trials']} trials"
            ),
        )
    )
    print()
    print(
        format_table(
            ["error", "h total (ms)", "cp total (ms)", "h/cp"],
            error_rows,
            title=(
                "estimation-error sweep (noise = staleness = miss rate) — "
                f"radix {radix}, {ocs} OCS"
            ),
        )
    )
    if reroute_rows:
        print()
        print(
            format_table(
                [
                    "outage rate",
                    "degrade stranded (Mb)",
                    "reroute stranded (Mb)",
                    "delta (Mb)",
                    "swaps",
                    "recovery (ms)",
                ],
                reroute_rows,
                title=(
                    "fast-reroute vs degrade-to-EPS — skewed workload, "
                    f"radix {radix}, {ocs} OCS, solstice, {sweep_args['trials']} trials"
                ),
            )
        )
    if deadline_rows:
        print()
        print(
            format_table(
                [
                    "deadline (ms)",
                    "miss rate",
                    "fallbacks",
                    "served / unbounded",
                    "CCT delta (ms)",
                    "sched (ms)",
                ],
                deadline_rows,
                title=(
                    "deadline-aware anytime scheduling vs unbounded — skewed "
                    f"workload, radix {radix}, {ocs} OCS, solstice, "
                    f"{sweep_args['trials']} trials"
                ),
            )
        )


def cmd_robustness(args) -> int:
    fault_rates = _parse_list(args.fault_rates, "robustness", "--fault-rates", float)
    error_rates = _parse_list(args.error_rates, "robustness", "--error-rates", float)
    with _rejecting("robustness"):
        deadlines = tuple(
            _check_positive_budget(part, "--deadline", unit="milliseconds")
            for part in args.deadline.split(",")
            if part.strip()
        )
    sweep_args = {
        "ocs": args.ocs,
        "radix": args.radix,
        "trials": args.trials,
        "seed": args.seed,
        "fault_rates": list(fault_rates),
        "error_rates": list(error_rates),
        "fast_reroute": bool(args.fast_reroute),
        "deadlines": list(deadlines),
    }
    with _rejecting("robustness"):
        specs = robustness_specs(
            ocs=args.ocs,
            radix=args.radix,
            trials=args.trials,
            seed=args.seed,
            fault_rates=fault_rates,
            error_rates=error_rates,
            reroute=args.fast_reroute,
            deadlines=deadlines,
        )
    result, _journal = _run_sweep(args, "robustness", sweep_args, specs)
    if not result.completed:
        print("error: every trial failed; nothing to aggregate", file=sys.stderr)
        return 1
    _print_robustness(sweep_args, specs, result.completed)
    return 0


def cmd_sweep(args) -> int:
    """``sweep --resume <journal>``: finish an interrupted sweep."""
    path = Path(args.resume)
    if not path.exists():
        raise SystemExit(f"sweep --resume: journal {path} does not exist")
    with _rejecting("sweep"):
        config = _sweep_config(args)
        journal = RunJournal(path)
        specs = specs_from_journal(journal)
    header = journal.header
    meta = header.get("meta", {})
    done_before = len(journal.completed_keys())
    runner = SweepRunner(journal, config)
    result = runner.run(specs, sweep_name=header["sweep"], meta=meta)
    _report_failures(result, journal)
    print(
        f"resumed {path}: {done_before} trials restored, "
        f"{len(result.executed)} executed now, {result.n_failed} failed total",
        file=sys.stderr,
    )
    if not result.completed:
        print("error: every trial failed; nothing to aggregate", file=sys.stderr)
        return 1
    kind = meta.get("kind")
    sweep_args = meta.get("args", {})
    if kind == "compare":
        _print_compare(sweep_args, specs, result.completed)
    elif kind == "figure":
        _print_figure(sweep_args, specs, result.completed)
    elif kind == "robustness":
        _print_robustness(sweep_args, specs, result.completed)
    else:
        print(f"{len(result.completed)}/{len(specs)} trials complete")
    return 0


def cmd_serve(args) -> int:
    """``serve``: run the scheduling service loop for N epochs."""
    import asyncio
    import signal

    from repro.analysis.controller import EpochController
    from repro.service import SchedulingService, ServiceConfig
    from repro.workloads.arrivals import WorkloadArrivals

    use_cp = args.switch == "cp"
    arms = tuple(
        part.strip() for part in (args.arms or "").split(",") if part.strip()
    )
    with _rejecting("serve"):
        deadline_s = None
        if args.deadline is not None:
            deadline_s = (
                _check_positive_budget(args.deadline, "--deadline", unit="milliseconds")
                / 1e3
            )
            if not use_cp:
                raise ValueError("--deadline requires --switch cp")
        params = _params(args)
        arrivals = WorkloadArrivals(
            make_workload(args.workload, params, args.skewed_ports),
            n_ports=params.n_ports,
            seed=args.seed,
            intensity=args.intensity,
        )
        arrivals(0)  # a workload the radix cannot hold fails here, not at epoch 0
        journal = RunJournal(args.journal) if args.journal else None
        controller = EpochController(
            params=params,
            scheduler=make_scheduler(args.scheduler),
            use_composite_paths=use_cp,
            epoch_duration=args.epoch_ms,
            journal=journal,
            deadline_s=deadline_s,
            max_backlog=args.max_backlog,
            overflow_policy=args.overflow,
        )
        config = ServiceConfig(
            n_epochs=args.epochs,
            n_workers=args.workers,
            queue_depth=args.queue_depth,
            epoch_interval_s=args.interval,
            arms=arms,
            drain=not args.no_drain,
            telemetry_port=args.telemetry_port,
            telemetry_host=args.telemetry_host,
            incidents_dir=args.incidents_dir,
            recorder_epochs=args.recorder_epochs,
        )
    service = SchedulingService(controller, arrivals, config)
    # A scrape endpoint over the null registry would serve an empty page;
    # --telemetry-port implies live backends for the run unless --trace /
    # --metrics (main()) already installed some.
    if args.telemetry_port is not None and not obs.active():
        live_backends = obs.observability(
            tracer=obs.JsonlTracer(), metrics=obs.MetricsRegistry()
        )
    else:
        live_backends = contextlib.nullcontext()
    with live_backends:
        if args.sync:
            report = service.run_sync()
        else:

            async def _serve():
                loop = asyncio.get_running_loop()
                for signum in (signal.SIGINT, signal.SIGTERM):
                    # Drain, then exit cleanly — a deploy rollout must never
                    # strand queued demand.
                    try:
                        loop.add_signal_handler(signum, service.request_stop)
                    except (NotImplementedError, RuntimeError):
                        pass
                return await service.run()

            report = asyncio.run(_serve())

    rows = [
        [
            outcome.report.epoch,
            outcome.report.offered_volume,
            outcome.report.served_volume,
            outcome.report.backlog_after,
            outcome.report.shed_volume,
            "yes" if outcome.report.deadline_hit else "no",
            outcome.report.fallback_level,
            outcome.epoch_latency_s * 1e3,
            len(outcome.arms),
            len(outcome.shard_pids),
        ]
        for outcome in report.outcomes
    ]
    print(
        format_table(
            [
                "epoch",
                "offered (Mb)",
                "served (Mb)",
                "backlog (Mb)",
                "shed (Mb)",
                "miss",
                "fallback",
                "latency (ms)",
                "arms",
                "shards",
            ],
            rows,
            title=(
                f"scheduling service — {args.workload} workload, radix "
                f"{args.radix}, {args.scheduler}, {config.n_workers} workers"
            ),
        )
    )
    print(
        f"served {report.n_epochs} epoch(s): admitted {report.admitted_mb:.1f} Mb, "
        f"shed {report.shed_mb:.1f} Mb, parked {report.parked_mb:.1f} Mb, "
        f"backlog {report.backlog_mb:.1f} Mb; "
        f"{report.slo_violations} SLO violation(s), "
        f"{report.stage_retries} stage retrie(s), "
        f"{len(report.worker_pids)} warm worker(s)"
        + ("" if report.drained else "; stopped WITHOUT draining"),
        file=sys.stderr,
    )
    if report.incident_bundles:
        print(
            f"serve: flight recorder dumped {len(report.incident_bundles)} "
            f"incident bundle(s) — inspect with `python -m repro obs incidents "
            f"{Path(report.incident_bundles[0]).parent}`",
            file=sys.stderr,
        )
    if report.stopped_early:
        print("serve: stopped early on request (drained queued epochs)", file=sys.stderr)
    return 0


def _load_obs_file(path: "str | Path", command: str):
    """Load a trace/snapshot for an obs subcommand with one-line errors."""
    path = Path(path)
    if not path.exists():
        raise SystemExit(f"obs {command}: file {path} does not exist")
    try:
        return load_trace_or_snapshot(path)
    except TraceParseError as exc:
        raise SystemExit(f"obs {command}: {exc}") from None


def cmd_obs_summarize(args) -> int:
    data = _load_obs_file(args.trace_file, "summarize")
    print(render_summary(data, top=args.top, max_depth=args.depth))
    return 0


def cmd_obs_diff(args) -> int:
    from repro.obs.diff import diff_traces, diff_to_json, render_diff

    a = _load_obs_file(args.trace_a, "diff")
    b = _load_obs_file(args.trace_b, "diff")
    diff = diff_traces(a, b)
    print(render_diff(diff, top=args.top))
    if args.json:
        atomic_write_json(diff_to_json(diff), args.json)
        print(f"diff JSON written to {args.json}", file=sys.stderr)
    if args.fail_on_drift and diff.has_quality_drift:
        print(
            f"obs diff: {len(diff.quality_drift)} schedule-quality metric(s) "
            "drifted (--fail-on-drift)",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_obs_watch(args) -> int:
    from repro.obs.watch import watch

    path = Path(args.journal)
    if not path.exists():
        raise SystemExit(f"obs watch: journal {path} does not exist")
    try:
        watch(path, follow=args.follow, interval_s=args.interval)
    except ValueError as exc:
        raise SystemExit(f"obs watch: {exc}") from None
    except KeyboardInterrupt:
        return 130
    return 0


def cmd_obs_incidents(args) -> int:
    from repro.obs.incidents import (
        load_incident,
        render_incident,
        render_incident_listing,
    )

    path = Path(args.path)
    if not path.exists():
        raise SystemExit(f"obs incidents: {path} does not exist")
    if path.is_dir():
        print(render_incident_listing(path))
        return 0
    try:
        bundle = load_incident(path)
    except (ValueError, OSError) as exc:
        raise SystemExit(f"obs incidents: {exc}") from None
    print(render_incident(bundle, top=args.top, max_depth=args.depth))
    return 0


def cmd_obs_export(args) -> int:
    from repro.obs.export import render_openmetrics

    data = _load_obs_file(args.source, "export")
    if not data.metrics:
        raise SystemExit(
            f"obs export: {args.source} carries no metrics snapshot — "
            "record one with --metrics (or --trace, which embeds it)"
        )
    text = render_openmetrics(data.metrics)
    if args.out:
        atomic_write_text(args.out, text)
        print(f"openmetrics written to {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _parse_point_axes(args) -> "tuple[tuple[int, ...], tuple[str, ...]]":
    radices = _parse_list(args.radices, "obs baseline", "--radices")
    schedulers = tuple(part.strip() for part in args.schedulers.split(","))
    for scheduler in schedulers:
        if scheduler not in ("solstice", "eclipse"):
            raise SystemExit(
                f"obs baseline: unknown scheduler {scheduler!r} "
                "(choose from solstice, eclipse)"
            )
    if getattr(args, "quick", False):
        radices = (min(radices),)
    return radices, schedulers


def cmd_obs_baseline_record(args) -> int:
    from repro.obs.baseline import record_baseline, write_baseline

    radices, schedulers = _parse_point_axes(args)
    trials = 1 if args.quick else args.trials
    try:
        payload = record_baseline(
            radices=radices,
            schedulers=schedulers,
            ocs=args.ocs,
            n_trials=trials,
            seed=args.seed,
        )
    except ValueError as exc:  # a count or radix the pipeline cannot run
        raise SystemExit(f"obs baseline record: {exc}") from None
    write_baseline(payload, args.out)
    print(f"recorded {len(payload['points'])} baseline point(s) to {args.out}")
    return 0


def cmd_obs_check(args) -> int:
    from repro.obs.baseline import check_baseline, load_baseline, measure_like

    path = Path(args.baseline)
    if not path.exists():
        raise SystemExit(
            f"obs check: baseline {path} does not exist — record one with "
            "`python -m repro obs baseline record`"
        )
    try:
        baseline = load_baseline(path)
    except ValueError as exc:
        raise SystemExit(f"obs check: {exc}") from None
    if args.current:
        try:
            current = load_baseline(args.current)
        except ValueError as exc:
            raise SystemExit(f"obs check: {exc}") from None
    else:
        current = measure_like(baseline)
    violations = check_baseline(baseline, current)
    if violations:
        print(
            f"obs check: {len(violations)} violation(s) against {path}:",
            file=sys.stderr,
        )
        for violation in violations:
            print(f"  {violation}", file=sys.stderr)
        return 1
    print(
        f"obs check: {len(baseline.get('points', []))} point(s) match "
        f"{path}, no schedule-quality drift"
    )
    return 0


# ---------------------------------------------------------------------- #
# parser
# ---------------------------------------------------------------------- #


def _add_obs_args(p) -> None:
    group = p.add_argument_group("observability")
    group.add_argument(
        "--trace",
        metavar="PATH",
        nargs="?",
        const="auto",
        help="record spans/events to this JSONL file (render it with "
        "`python -m repro obs summarize PATH`); without a path, defaults "
        "to <command>-trace.jsonl under --run-dir / $REPRO_RUN_DIR",
    )
    group.add_argument(
        "--metrics",
        metavar="PATH",
        nargs="?",
        const="auto",
        help="write the metrics-registry snapshot to this JSON file; "
        "without a path, defaults to <command>-metrics.json under "
        "--run-dir / $REPRO_RUN_DIR",
    )


def _add_runner_args(p) -> None:
    group = p.add_argument_group("resilient execution")
    group.add_argument(
        "--journal",
        metavar="PATH",
        help="run-journal path (default: derived from the sweep's arguments "
        "under --run-dir, so re-running the same command resumes)",
    )
    group.add_argument(
        "--run-dir",
        metavar="DIR",
        help="directory for auto-derived journals (default: $REPRO_RUN_DIR or ./runs)",
    )
    group.add_argument(
        "--no-journal",
        action="store_true",
        help="keep the journal in memory only (not resumable)",
    )
    group.add_argument(
        "--fresh",
        action="store_true",
        help="discard an existing journal and start the sweep over",
    )
    group.add_argument(
        "--timeout",
        type=float,
        metavar="SECONDS",
        help="wall-clock budget per trial attempt (default: none)",
    )
    group.add_argument(
        "--retries",
        type=int,
        default=2,
        metavar="N",
        help="retry attempts per trial after the first, with exponential "
        "backoff + jitter (default: 2)",
    )
    group.add_argument(
        "--retry-base-delay",
        type=float,
        default=0.1,
        metavar="SECONDS",
        help="first backoff sleep (default: 0.1)",
    )
    group.add_argument(
        "--isolation",
        choices=("subprocess", "inline"),
        default="subprocess",
        help="run trials in subprocess workers (hang/crash-proof, default) "
        "or inline (debuggable)",
    )
    group.add_argument(
        "--no-heartbeat",
        action="store_true",
        help="skip the <journal>.hb/ heartbeat files `repro obs watch` tails",
    )


def _add_compare_args(p) -> None:
    p.add_argument("--ocs", choices=("fast", "slow"), default="fast")
    p.add_argument("--radix", type=int, default=32)
    p.add_argument("--seed", type=int, default=2016)
    p.add_argument("--workload", choices=WORKLOADS, default="skewed")
    p.add_argument("--scheduler", choices=("solstice", "eclipse", "tdm"), default="solstice")
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--skewed-ports", type=int, default=1)
    _add_runner_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_compare)


def _add_figure_args(p) -> None:
    p.add_argument(
        "name",
        choices=("fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"),
    )
    p.add_argument("--ocs", choices=("fast", "slow"), default="fast")
    p.add_argument("--radices", default="32,64,128", help="comma-separated radix sweep")
    p.add_argument("--trials", type=int, default=2)
    p.add_argument("--seed", type=int, default=2016)
    _add_runner_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_figure)


def _add_robustness_args(p) -> None:
    p.add_argument("--ocs", choices=("fast", "slow"), default="fast")
    p.add_argument("--radix", type=int, default=32)
    p.add_argument("--seed", type=int, default=2016)
    p.add_argument("--trials", type=int, default=2)
    p.add_argument(
        "--fault-rates",
        default="0,0.05,0.1,0.2,0.4",
        help="comma-separated uniform fault rates to sweep",
    )
    p.add_argument(
        "--error-rates",
        default="0,0.1,0.3",
        help="comma-separated estimation-error levels (applied as noise, staleness and miss rate)",
    )
    p.add_argument(
        "--fast-reroute",
        action="store_true",
        help="add a fast-reroute-vs-degrade arm per fault rate (outage-only "
        "plans; reports stranded-volume and recovery-time deltas)",
    )
    p.add_argument(
        "--deadline",
        default="",
        metavar="MS",
        help="comma-separated wall-clock scheduling deadlines (ms): adds a "
        "deadline-aware anytime-controller arm per value (miss rate, "
        "fallback histogram, throughput/CCT deltas vs unbounded)",
    )
    _add_runner_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_robustness)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Composite-path switching (CoNEXT'16) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--ocs", choices=("fast", "slow"), default="fast")
        p.add_argument("--radix", type=int, default=32)
        p.add_argument("--seed", type=int, default=2016)

    compare = sub.add_parser("compare", help="h-Switch vs cp-Switch on a paper workload")
    _add_compare_args(compare)

    figure = sub.add_parser("figure", help="regenerate one of the paper's figures")
    _add_figure_args(figure)

    workload = sub.add_parser("workload", help="sample a demand matrix to a file")
    common(workload)
    workload.add_argument("--workload", choices=WORKLOADS, default="typical")
    workload.add_argument("--skewed-ports", type=int, default=1)
    workload.add_argument("--out", required=True, help="output path (.npy or .csv)")
    workload.set_defaults(func=cmd_workload)

    robustness = sub.add_parser(
        "robustness",
        help="fault-injection + estimation-error degradation sweeps (h vs cp)",
    )
    _add_robustness_args(robustness)

    schedule = sub.add_parser("schedule", help="schedule a demand matrix from a file")
    schedule.add_argument("demand", help="demand matrix file (.npy or .csv)")
    schedule.add_argument("--ocs", choices=("fast", "slow"), default="fast")
    schedule.add_argument("--switch", choices=("h", "cp"), default="cp")
    schedule.add_argument("--scheduler", choices=("solstice", "eclipse", "tdm"), default="solstice")
    _add_obs_args(schedule)
    schedule.set_defaults(func=cmd_schedule)

    sweep = sub.add_parser(
        "sweep",
        help="finish an interrupted sweep from its journal (re-running the "
        "original command resumes too)",
    )
    sweep.add_argument(
        "--resume", metavar="JOURNAL", required=True, help="journal of the sweep to finish"
    )
    sweep.add_argument(
        "--timeout", type=float, metavar="SECONDS", help="wall-clock budget per trial attempt"
    )
    sweep.add_argument("--retries", type=int, default=2, metavar="N")
    sweep.add_argument("--retry-base-delay", type=float, default=0.1, metavar="SECONDS")
    sweep.add_argument("--isolation", choices=("subprocess", "inline"), default="subprocess")
    _add_obs_args(sweep)
    sweep.set_defaults(func=cmd_sweep)

    serve = sub.add_parser(
        "serve",
        help="run the continuous scheduling service loop (asyncio ingestion, "
        "monotonic epoch clock, warm-worker stage sharding)",
    )
    common(serve)
    serve.add_argument("--epochs", type=int, default=8, metavar="N")
    serve.add_argument(
        "--deadline",
        type=float,
        metavar="MS",
        help="per-epoch scheduling deadline (anytime fallback ladder)",
    )
    serve.add_argument(
        "--workers", type=int, default=2, metavar="K", help="warm stage-worker pool size (0 disables sharding)"
    )
    serve.add_argument("--workload", choices=WORKLOADS, default="skewed")
    serve.add_argument("--skewed-ports", type=int, default=1)
    serve.add_argument("--scheduler", choices=("solstice", "eclipse", "tdm"), default="solstice")
    serve.add_argument("--switch", choices=("h", "cp"), default="cp")
    serve.add_argument("--intensity", type=float, default=1.0, help="arrival volume multiplier")
    serve.add_argument(
        "--epoch-ms", type=float, metavar="MS",
        help="simulated epoch length (default: run each schedule to completion)",
    )
    serve.add_argument(
        "--interval", type=float, default=0.0, metavar="SECONDS",
        help="monotonic epoch clock period (0 free-runs)",
    )
    serve.add_argument("--queue-depth", type=int, default=4, metavar="N")
    serve.add_argument(
        "--arms", default=",".join(DEFAULT_ARMS), metavar="NAMES",
        help="comma-separated independent scheduler arms to shard each epoch "
        "('' disables)",
    )
    serve.add_argument(
        "--max-backlog", type=float, metavar="MB",
        help="backpressure threshold (see controller overflow policy)",
    )
    serve.add_argument("--overflow", choices=("shed", "park"), default="shed")
    serve.add_argument("--no-drain", action="store_true", help="on stop, abandon queued batches instead of draining")
    serve.add_argument("--sync", action="store_true", help="synchronous driver (bit-identical to the controller loop)")
    serve.add_argument("--journal", metavar="PATH", help="append per-epoch records to this journal")
    telemetry = serve.add_argument_group("live telemetry")
    telemetry.add_argument(
        "--telemetry-port", type=int, metavar="PORT",
        help="expose GET /metrics, /healthz, /status on this port while "
        "serving (0 binds an ephemeral port; default: off)",
    )
    telemetry.add_argument(
        "--telemetry-host", default="127.0.0.1", metavar="HOST",
        help="bind address for the telemetry server (default: 127.0.0.1)",
    )
    telemetry.add_argument(
        "--incidents-dir", metavar="DIR",
        help="flight-recorder bundle directory (default: <run dir>/incidents "
        "when telemetry is on)",
    )
    telemetry.add_argument(
        "--recorder-epochs", type=int, default=8, metavar="N",
        help="flight-recorder ring size: epochs of context per incident "
        "bundle (default: 8)",
    )
    _add_obs_args(serve)
    serve.set_defaults(func=cmd_serve)

    obs_parser = sub.add_parser("obs", help="observability tooling")
    obs_sub = obs_parser.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize",
        help="render a --trace JSONL: span tree, events, top-k counters",
    )
    summarize.add_argument("trace_file", help="trace file written by --trace")
    summarize.add_argument(
        "--top", type=int, default=10, help="counters/event groups to show (default: 10)"
    )
    summarize.add_argument(
        "--depth", type=int, default=None, help="maximum span-tree depth (default: unlimited)"
    )
    summarize.set_defaults(func=cmd_obs_summarize)

    diff = obs_sub.add_parser(
        "diff",
        help="align two runs' span trees by path; report timing deltas and "
        "schedule-quality drift",
    )
    diff.add_argument("trace_a", help="baseline trace (or --metrics snapshot)")
    diff.add_argument("trace_b", help="comparison trace (or --metrics snapshot)")
    diff.add_argument(
        "--json", metavar="PATH", help="also write the machine-readable diff here"
    )
    diff.add_argument(
        "--top", type=int, default=10, help="counter/histogram deltas to show (default: 10)"
    )
    diff.add_argument(
        "--fail-on-drift",
        action="store_true",
        help="exit nonzero if any schedule-quality counter differs",
    )
    diff.set_defaults(func=cmd_obs_diff)

    watch = obs_sub.add_parser(
        "watch",
        help="tail a sweep journal + heartbeats: progress, ETA, stragglers "
        "(a service journal renders as a live service row)",
    )
    watch.add_argument("journal", help="sweep journal (heartbeats in <journal>.hb/)")
    watch.add_argument(
        "--follow",
        action="store_true",
        help="keep rendering until the sweep completes (Ctrl-C to stop)",
    )
    watch.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh interval with --follow (default: 2)",
    )
    watch.set_defaults(func=cmd_obs_watch)

    incidents = obs_sub.add_parser(
        "incidents",
        help="list a flight-recorder incident directory, or render one bundle "
        "(epoch window, span tree, counters)",
    )
    incidents.add_argument(
        "path", help="an incident bundle JSON, or the incidents/ directory"
    )
    incidents.add_argument(
        "--top", type=int, default=10, help="counters to show (default: 10)"
    )
    incidents.add_argument(
        "--depth", type=int, default=None, help="maximum span-tree depth (default: unlimited)"
    )
    incidents.set_defaults(func=cmd_obs_incidents)

    export = obs_sub.add_parser(
        "export",
        help="render a metrics snapshot as a Prometheus/OpenMetrics textfile",
    )
    export.add_argument("source", help="--metrics snapshot JSON or --trace JSONL")
    export.add_argument(
        "--format",
        choices=("openmetrics",),
        default="openmetrics",
        help="output format (default: openmetrics)",
    )
    export.add_argument(
        "--out", metavar="PATH", help="write here instead of stdout"
    )
    export.set_defaults(func=cmd_obs_export)

    baseline = obs_sub.add_parser(
        "baseline", help="record schedule-quality baselines (BENCH_obs.json)"
    )
    baseline_sub = baseline.add_subparsers(dest="baseline_command", required=True)
    record = baseline_sub.add_parser(
        "record", help="measure the live pipeline and write the baseline file"
    )
    record.add_argument(
        "--out", default="BENCH_obs.json", help="baseline path (default: BENCH_obs.json)"
    )
    record.add_argument("--radices", default="32,64,128", help="comma-separated radices")
    record.add_argument(
        "--schedulers", default="solstice,eclipse", help="comma-separated schedulers"
    )
    record.add_argument("--ocs", choices=("fast", "slow"), default="fast")
    record.add_argument("--trials", type=int, default=2, help="trials per point (default: 2)")
    record.add_argument("--seed", type=int, default=2016)
    record.add_argument(
        "--quick",
        action="store_true",
        help="smallest radix only, 1 trial (CI in-job baseline)",
    )
    record.set_defaults(func=cmd_obs_baseline_record)

    check = obs_sub.add_parser(
        "check",
        help="re-measure and gate against a baseline: nonzero exit on any "
        "schedule-quality drift",
    )
    check.add_argument(
        "--baseline", required=True, metavar="PATH", help="BENCH_obs.json to gate against"
    )
    check.add_argument(
        "--current",
        metavar="PATH",
        help="compare this pre-recorded measurement instead of measuring now",
    )
    check.set_defaults(func=cmd_obs_check)
    return parser


def _resolve_obs_path(value, args, suffix: str) -> "str | None":
    """Resolve a ``--trace``/``--metrics`` value, defaulting into the run dir.

    The bare flag (``--trace`` with no path) parses as ``"auto"`` and lands
    next to the sweep's journal — ``<command>-<suffix>`` under ``--run-dir``
    / ``$REPRO_RUN_DIR`` — so one directory holds everything ``obs watch``
    and ``obs diff`` need.
    """
    if not value:
        return None
    if value != "auto":
        return value
    run_dir = (
        Path(args.run_dir) if getattr(args, "run_dir", None) else default_run_dir()
    )
    return str(run_dir / f"{args.command}-{suffix}")


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _rejecting(args.command):
        kernels.backend()  # a bad REPRO_KERNELS fails here, not in every trial
    trace_path = _resolve_obs_path(getattr(args, "trace", None), args, "trace.jsonl")
    metrics_path = _resolve_obs_path(
        getattr(args, "metrics", None), args, "metrics.json"
    )
    if not trace_path and not metrics_path:
        return args.func(args)

    # Either flag turns both backends on for the whole command: the trace
    # embeds the metrics snapshot (one file feeds `obs summarize`) and the
    # outputs are written even when the command fails partway.
    tracer = obs.JsonlTracer()
    registry = obs.MetricsRegistry()
    with obs.observability(tracer=tracer, metrics=registry):
        root = tracer.begin(f"repro.{args.command}")
        try:
            return args.func(args)
        finally:
            tracer.end(root)
            snapshot = registry.snapshot()
            if trace_path:
                tracer.dump(
                    trace_path,
                    meta={
                        "command": args.command,
                        "argv": list(argv) if argv is not None else sys.argv[1:],
                    },
                    metrics_snapshot=snapshot,
                )
                print(f"trace written to {trace_path}", file=sys.stderr)
            if metrics_path:
                atomic_write_json(snapshot, metrics_path)
                print(f"metrics written to {metrics_path}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
