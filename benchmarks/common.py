"""Shared plumbing for the paper-reproduction benchmarks.

Every ``bench_*.py`` file regenerates one table or figure of the paper's
evaluation (§3) and prints it as an aligned text table; a copy lands in
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can quote runs.

Environment knobs (the paper uses radices 32/64/128 and 100 random demand
matrices per point; the defaults here keep a full suite laptop-sized):

* ``REPRO_RADICES`` — comma-separated radix list (default ``32,64,128``).
* ``REPRO_SEEDS``   — demand matrices per experiment point (default 2).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.analysis.experiment import (
    ComparisonAggregate,
    ExperimentConfig,
    default_trials,
    run_comparison,
)
from repro.analysis.report import format_table
from repro.core.config import FilterConfig
from repro.switch.params import ocs_params

RESULTS_DIR = Path(__file__).parent / "results"

#: Root seed for every benchmark (per-trial generators are spawned off it).
BENCH_SEED = 2016


def radices() -> "tuple[int, ...]":
    raw = os.environ.get("REPRO_RADICES", "32,64,128")
    values = tuple(int(part) for part in raw.split(",") if part.strip())
    if not values:
        raise ValueError(f"REPRO_RADICES={raw!r} has no radices")
    return values


def trials() -> int:
    """``REPRO_SEEDS`` under the library's rule (an integer >= 1), default 2."""
    return default_trials(default=2)


def run_point(
    workload_factory,
    scheduler: str,
    ocs: str,
    n_ports: int,
    *,
    n_trials: "int | None" = None,
    filter_config: "FilterConfig | None" = None,
) -> ComparisonAggregate:
    """One experiment point: h-Switch vs cp-Switch on one workload/radix.

    ``workload_factory(params)`` builds the demand generator so each OCS
    class gets its paper-matched volume scale.
    """
    params = ocs_params(ocs, n_ports)
    config = ExperimentConfig(
        workload=workload_factory(params),
        params=params,
        scheduler=scheduler,
        n_trials=n_trials if n_trials is not None else trials(),
        seed=BENCH_SEED,
        filter_config=filter_config or FilterConfig(),
    )
    return run_comparison(config)


def emit(name: str, title: str, headers, rows) -> str:
    """Render, print, and persist one benchmark table."""
    text = format_table(headers, rows, title=title)
    print("\n" + text + "\n")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    return text


def pct_gain(h_value: float, cp_value: float) -> float:
    """Percent reduction of cp relative to h (positive = cp better)."""
    if h_value == 0:
        return 0.0
    return (1.0 - cp_value / h_value) * 100.0
