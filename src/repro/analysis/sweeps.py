"""Declarative sweep specs: every paper experiment as trial units.

This module decomposes each sweep — ``compare``, ``figure``,
``robustness`` — into a flat list of
:class:`~repro.runner.isolation.TrialSpec` (one per ``(experiment, seed)``
key, all-JSON kwargs, quarantine demand hook attached) and aggregates the
trials' payloads into :class:`~repro.analysis.experiment.ComparisonAggregate`
and :class:`FigurePoint`.  It is the one definition of the paper's
experiments: the CLI hands the specs to the crash-tolerant runner
(:mod:`repro.runner`, journaled, subprocess workers), and
:mod:`repro.analysis.figures` calls the same trial functions on the same
specs in-process.  A figure's workload and scheduler live only in
:data:`FIGURE_PAIRINGS`.

Because each trial spec pins its own demand stream
(:func:`repro.analysis.experiment.trial_rng`), execution order, subprocess
isolation, retries and resume cannot change the numbers: a sweep
interrupted at any trial and resumed aggregates bit-identically to an
uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.experiment import ComparisonAggregate, comparison_from_payloads
from repro.runner.isolation import TrialSpec

#: Figure name -> (workload, scheduler) per the paper's §3 pairing.
FIGURE_PAIRINGS: "dict[str, tuple[str, str]]" = {
    "fig5": ("skewed", "solstice"),
    "fig6": ("skewed", "eclipse"),
    "fig7": ("typical", "solstice"),
    "fig8": ("typical", "eclipse"),
    "fig9": ("intensive", "solstice"),
    "fig10": ("intensive", "eclipse"),
    "fig11": ("varying", "solstice"),
}

#: Figure 11's skew sweep (k skewed ports per direction).
FIG11_SKEW_COUNTS: "tuple[int, ...]" = (1, 2, 3, 4, 5, 6)

_COMPARISON_FN = "repro.analysis.experiment:comparison_trial"
_COMPARISON_DEMAND_FN = "repro.analysis.experiment:comparison_demand"
_ERROR_FN = "repro.analysis.robustness:error_trial"
_FAULT_FN = "repro.analysis.robustness:fault_rate_trial"
_REROUTE_FN = "repro.analysis.robustness:reroute_rate_trial"
_DEADLINE_FN = "repro.analysis.robustness:deadline_trial"
_ROBUSTNESS_DEMAND_FN = "repro.analysis.robustness:robustness_demand"


@dataclass(frozen=True)
class FigurePoint:
    """One x-axis point of a figure: a radix (and optionally a skew count)
    with its aggregated h-vs-cp comparison."""

    n_ports: int
    result: ComparisonAggregate
    skewed_ports: "int | None" = None


def sweep_fingerprint(kind: str, args: dict) -> str:
    """Short stable hash of a sweep's identity (kind + all arguments).

    Two invocations with identical arguments share a fingerprint — and
    therefore a journal under :func:`default_run_dir` — which is what
    makes re-running the same command resume instead of recompute.
    """
    canonical = json.dumps({"kind": kind, "args": args}, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def default_run_dir() -> Path:
    """Journal directory: ``$REPRO_RUN_DIR`` or ``./runs``."""
    return Path(os.environ.get("REPRO_RUN_DIR", "runs"))


# ---------------------------------------------------------------------- #
# spec builders
# ---------------------------------------------------------------------- #


def _check_axes(trials: int, radices) -> None:
    """Reject a sweep no trial of which could run, before any spec exists."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for radix in radices:
        if radix < 2:
            raise ValueError(f"radix must be >= 2, got {radix}")


def _point_specs(
    experiment: str, fn: str, demand_fn: str, trials: int, **kwargs
) -> "list[TrialSpec]":
    """The ``trials`` specs of one experiment point; only ``trial`` differs."""
    return [
        TrialSpec(
            experiment=experiment,
            key=f"{experiment}:{trial:04d}",
            fn=fn,
            kwargs={**kwargs, "trial": trial},
            demand_fn=demand_fn,
        )
        for trial in range(trials)
    ]


def compare_specs(
    *,
    workload: str,
    ocs: str,
    radix: int,
    scheduler: str = "solstice",
    trials: int = 3,
    seed: int = 2016,
    skewed_ports: int = 1,
    window: "float | None" = None,
) -> "list[TrialSpec]":
    """One spec per trial of an h-vs-cp comparison point."""
    _check_axes(trials, (radix,))
    return _point_specs(
        f"compare-{workload}-{scheduler}-{ocs}-r{radix}",
        _COMPARISON_FN,
        _COMPARISON_DEMAND_FN,
        trials,
        workload=workload,
        ocs=ocs,
        radix=radix,
        scheduler=scheduler,
        seed=seed,
        skewed_ports=skewed_ports,
        window=window,
    )


def figure_specs(
    name: str,
    *,
    ocs: str,
    radices: "tuple[int, ...]",
    trials: int,
    seed: int = 2016,
    skew_counts: "tuple[int, ...]" = FIG11_SKEW_COUNTS,
) -> "list[TrialSpec]":
    """Specs of one of the paper's figure sweeps (trial granularity)."""
    if name not in FIGURE_PAIRINGS:
        raise ValueError(f"unknown figure {name!r}; expected one of {sorted(FIGURE_PAIRINGS)}")
    _check_axes(trials, radices)
    workload, scheduler = FIGURE_PAIRINGS[name]
    specs: "list[TrialSpec]" = []
    for radix in radices:
        for k in skew_counts if name == "fig11" else (1,):
            specs += _point_specs(
                f"{name}-r{radix}" + (f"-k{k}" if name == "fig11" else ""),
                _COMPARISON_FN,
                _COMPARISON_DEMAND_FN,
                trials,
                workload=workload,
                ocs=ocs,
                radix=radix,
                scheduler=scheduler,
                seed=seed,
                skewed_ports=k,
                window=None,
            )
    return specs


def robustness_specs(
    *,
    ocs: str,
    radix: int,
    trials: int,
    seed: int = 2016,
    fault_rates: "tuple[float, ...]" = (),
    error_rates: "tuple[float, ...]" = (),
    reroute: bool = False,
    deadlines: "tuple[float, ...]" = (),
) -> "list[TrialSpec]":
    """Specs of the robustness command's sweeps (fault + error, with
    ``reroute`` a fast-reroute-vs-degrade arm per fault rate, and with
    ``deadlines`` a deadline-aware anytime-controller arm per value in ms)."""
    _check_axes(trials, (radix,))
    for name, rates in (("fault rate", fault_rates), ("error rate", error_rates)):
        for rate in rates:
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
    point = {"ocs": ocs, "radix": radix, "seed": seed}
    specs: "list[TrialSpec]" = []
    for deadline_ms in deadlines:
        specs += _point_specs(
            f"deadline-{ocs}-r{radix}@{deadline_ms:g}ms",
            _DEADLINE_FN,
            _ROBUSTNESS_DEMAND_FN,
            trials,
            **point,
            deadline_ms=float(deadline_ms),
        )
    arms = ([("reroute", _REROUTE_FN)] if reroute else []) + [("fault", _FAULT_FN)]
    for arm, fn in arms:
        for rate_index, rate in enumerate(fault_rates):
            specs += _point_specs(
                f"{arm}-{ocs}-r{radix}@{rate:g}",
                fn,
                _ROBUSTNESS_DEMAND_FN,
                trials,
                **point,
                rate=float(rate),
                rate_index=rate_index,
            )
    for error in error_rates:
        specs += _point_specs(
            f"error-{ocs}-r{radix}@{error:g}",
            _ERROR_FN,
            _ROBUSTNESS_DEMAND_FN,
            trials,
            **point,
            error=float(error),
        )
    return specs


# ---------------------------------------------------------------------- #
# aggregation of journaled payloads
# ---------------------------------------------------------------------- #


def group_payloads(
    specs: "list[TrialSpec]", completed: "dict[str, dict]"
) -> "dict[str, list[dict]]":
    """Successful payloads grouped by experiment, in spec order.

    Experiments whose every trial failed map to an empty list, so callers
    can report the hole instead of silently dropping the point.
    """
    groups: "dict[str, list[dict]]" = {}
    for spec in specs:
        bucket = groups.setdefault(spec.experiment, [])
        if spec.key in completed:
            bucket.append(completed[spec.key])
    return groups


def comparison_points(
    specs: "list[TrialSpec]", completed: "dict[str, dict]"
) -> "list[tuple[str, FigurePoint | None]]":
    """(experiment, aggregated point) per experiment; ``None`` if all trials
    of that experiment failed."""
    points: "list[tuple[str, FigurePoint | None]]" = []
    for experiment, payloads in group_payloads(specs, completed).items():
        if not payloads:
            points.append((experiment, None))
            continue
        spec = next(s for s in specs if s.experiment == experiment)
        skewed = spec.kwargs.get("skewed_ports")
        result = comparison_from_payloads(payloads)
        points.append(
            (
                experiment,
                FigurePoint(
                    n_ports=result.n_ports,
                    result=result,
                    skewed_ports=skewed if "-k" in experiment else None,
                ),
            )
        )
    return points


def single_comparison(
    specs: "list[TrialSpec]", completed: "dict[str, dict]"
) -> ComparisonAggregate:
    """Aggregate a one-experiment sweep (the ``compare`` command)."""
    payloads = [completed[s.key] for s in specs if s.key in completed]
    return comparison_from_payloads(payloads)
