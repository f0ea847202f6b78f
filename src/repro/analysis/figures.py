"""Programmatic regeneration of the paper's figures and tables.

Each function reproduces one evaluation artifact of the paper (§3) and
returns structured data; the ``benchmarks/`` suite is a thin printing
layer over this module, and library users can call these directly, e.g.::

    from repro.analysis.figures import figure5
    for point in figure5("fast", radices=(32, 64), n_trials=10):
        print(point.n_ports, point.result.completion_improvement)

All functions take the OCS class name (``"fast"``/``"slow"``), the radix
sweep, the trial count, and a root seed.  They build the same trial specs
as ``python -m repro figure`` / ``compare`` (:mod:`repro.analysis.sweeps`)
and run the CLI's trial unit on each one in-process — no runner, journal
or subprocess — so a figure's workload and sub-scheduler (Solstice for
completion-time figures, Eclipse for utilization figures) are defined
once, in :data:`~repro.analysis.sweeps.FIGURE_PAIRINGS`, and both entry
points return the same numbers.
"""

from __future__ import annotations

from repro.analysis.experiment import comparison_trial, default_trials
from repro.analysis.runtime import RuntimeRow, runtime_row
from repro.analysis.sweeps import (
    FIG11_SKEW_COUNTS,
    FigurePoint,
    compare_specs,
    comparison_points,
    figure_specs,
    single_comparison,
)
from repro.runner.isolation import TrialSpec
from repro.switch.params import SwitchParams, ocs_params

#: Default radix sweep of the paper's evaluation.
PAPER_RADICES: "tuple[int, ...]" = (32, 64, 128)
#: Root seed used by the benchmark suite.
DEFAULT_SEED: int = 2016


def params_for(ocs: str, n_ports: int) -> SwitchParams:
    """Switch parameters for an OCS class name (``"fast"`` / ``"slow"``)."""
    return ocs_params(ocs, n_ports)


def _run(specs: "list[TrialSpec]") -> "dict[str, dict]":
    """Every spec's comparison trial, in-process, keyed like a journal."""
    return {spec.key: comparison_trial(**spec.kwargs) for spec in specs}


def _figure(
    name: str,
    ocs: str,
    radices: "tuple[int, ...]",
    n_trials: "int | None",
    seed: int,
    **extra,
) -> "list[FigurePoint]":
    specs = figure_specs(
        name,
        ocs=ocs,
        radices=radices,
        trials=n_trials if n_trials is not None else default_trials(),
        seed=seed,
        **extra,
    )
    return [point for _, point in comparison_points(specs, _run(specs))]


# ---------------------------------------------------------------------- #
# figures
# ---------------------------------------------------------------------- #


def figure5(
    ocs: str,
    radices: "tuple[int, ...]" = PAPER_RADICES,
    n_trials: "int | None" = None,
    seed: int = DEFAULT_SEED,
) -> "list[FigurePoint]":
    """Figure 5 — pure skewed demand, completion time (Solstice).

    Also carries the Figure 5(c) configuration counts inside each point's
    ``result``.
    """
    return _figure("fig5", ocs, radices, n_trials, seed)


def figure6(
    ocs: str,
    radices: "tuple[int, ...]" = PAPER_RADICES,
    n_trials: "int | None" = None,
    seed: int = DEFAULT_SEED,
) -> "list[FigurePoint]":
    """Figure 6 — pure skewed demand, OCS fraction in the window (Eclipse)."""
    return _figure("fig6", ocs, radices, n_trials, seed)


def figure7(
    ocs: str,
    radices: "tuple[int, ...]" = PAPER_RADICES,
    n_trials: "int | None" = None,
    seed: int = DEFAULT_SEED,
) -> "list[FigurePoint]":
    """Figure 7 — typical DCN + skewed demand, completion time (Solstice)."""
    return _figure("fig7", ocs, radices, n_trials, seed)


def figure8(
    ocs: str,
    radices: "tuple[int, ...]" = PAPER_RADICES,
    n_trials: "int | None" = None,
    seed: int = DEFAULT_SEED,
) -> "list[FigurePoint]":
    """Figure 8 — typical DCN + skewed demand, OCS fraction (Eclipse)."""
    return _figure("fig8", ocs, radices, n_trials, seed)


def figure9(
    ocs: str,
    radices: "tuple[int, ...]" = PAPER_RADICES,
    n_trials: "int | None" = None,
    seed: int = DEFAULT_SEED,
) -> "list[FigurePoint]":
    """Figure 9 — intensive (4×) DCN + skewed demand, completion time."""
    return _figure("fig9", ocs, radices, n_trials, seed)


def figure10(
    ocs: str,
    radices: "tuple[int, ...]" = PAPER_RADICES,
    n_trials: "int | None" = None,
    seed: int = DEFAULT_SEED,
) -> "list[FigurePoint]":
    """Figure 10 — intensive DCN + skewed demand, OCS fraction (Eclipse)."""
    return _figure("fig10", ocs, radices, n_trials, seed)


def figure11(
    ocs: str,
    radices: "tuple[int, ...]" = PAPER_RADICES,
    skew_counts: "tuple[int, ...]" = FIG11_SKEW_COUNTS,
    n_trials: "int | None" = None,
    seed: int = DEFAULT_SEED,
) -> "list[FigurePoint]":
    """Figure 11 — typical DCN + k skewed ports/direction (Solstice).

    One :class:`FigurePoint` per (radix, k), with ``skewed_ports`` set.
    """
    return _figure("fig11", ocs, radices, n_trials, seed, skew_counts=skew_counts)


# ---------------------------------------------------------------------- #
# tables
# ---------------------------------------------------------------------- #


def runtime_table(
    scheduler: str,
    workload: str = "typical",
    radices: "tuple[int, ...]" = PAPER_RADICES,
    n_trials: "int | None" = None,
    seed: int = DEFAULT_SEED,
) -> "list[RuntimeRow]":
    """Tables 1–2 — h vs cp scheduler wall-times, (slow, fast) per radix.

    Parameters
    ----------
    scheduler:
        ``"solstice"`` (Table 1) or ``"eclipse"`` (Table 2).
    workload:
        ``"typical"`` (§3.3) or ``"intensive"`` (§3.4).
    """
    if workload not in ("typical", "intensive"):
        raise ValueError(f"unknown workload {workload!r}; expected 'typical' or 'intensive'")
    trials = n_trials if n_trials is not None else default_trials()
    rows = []
    for n_ports in radices:
        per_ocs = {}
        for ocs in ("slow", "fast"):
            specs = compare_specs(
                workload=workload,
                ocs=ocs,
                radix=n_ports,
                scheduler=scheduler,
                trials=trials,
                seed=seed,
            )
            per_ocs[ocs] = single_comparison(specs, _run(specs))
        rows.append(runtime_row(n_ports, per_ocs["slow"], per_ocs["fast"]))
    return rows
