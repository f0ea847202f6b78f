"""Ablation — the EPS reservation budget ``Ce*`` (§2.3 "EPS Reservation").

Composite paths commandeer the EPS links of every endpoint they serve,
which "may adversely impact short and delay-sensitive flows that want to
concurrently use these EPS links".  The paper's remedy is a bandwidth
budget ``Ce* <= Ce`` enforced by traffic shaping.  This bench sweeps
``Ce*`` and shows the tradeoff directly:

* small ``Ce*`` protects the background EPS traffic (its coflow
  completion approaches the no-composite case) but throttles the
  composite paths, stretching the skewed coflows;
* ``Ce* = Ce`` (the evaluation default) is fastest for the skewed
  coflows at the cost of background latency on the touched links.
"""

from __future__ import annotations

from benchmarks.common import BENCH_SEED, emit, trials
from repro.analysis.aggregate import aggregate
from repro.core.scheduler import CpSwitchScheduler
from repro.hybrid.solstice import SolsticeScheduler
from repro.sim import simulate_cp
from repro.switch.params import ocs_params
from repro.utils.rng import spawn_rngs
from repro.workloads.combined import CombinedWorkload

RADIX = 32
# Ce = 10 Mb/ms.  At radix 32 the composite paths serve ~24 endpoints, so
# the OCS leg caps the per-endpoint rate at Co/24 ~ 4.2 Mb/ms — budgets
# below that bind (throttling the composite paths); budgets above it only
# shrink the reservation.
BUDGETS = (0.5, 1.0, 2.0, 4.0, 10.0)


def _rows(ocs: str):
    base_params = ocs_params(ocs, RADIX)
    workload = CombinedWorkload.typical(base_params)
    scheduler = CpSwitchScheduler(SolsticeScheduler())
    specs = [workload.generate(RADIX, rng) for rng in spawn_rngs(BENCH_SEED, trials())]

    rows = []
    for budget in BUDGETS:
        params = base_params.with_budget(budget)
        skew_ccts, background_ccts, totals = [], [], []
        for spec in specs:
            schedule = scheduler.schedule(spec.demand, params)
            result = simulate_cp(spec.demand, schedule, params)
            skew_ccts.append(result.coflow_completion(spec.skewed_mask))
            background_ccts.append(result.coflow_completion(spec.background_mask))
            totals.append(result.completion_time)
        rows.append(
            [
                budget,
                aggregate(skew_ccts).mean,
                aggregate(background_ccts).mean,
                aggregate(totals).mean,
            ]
        )
    return rows


def test_ablation_eps_budget_fast(benchmark):
    rows = benchmark.pedantic(_rows, args=("fast",), rounds=1, iterations=1)
    emit(
        "ablation_budget",
        f"Ablation - EPS reservation budget Ce* (radix {RADIX}, typical, Fast OCS, Solstice)",
        ["Ce* (Mb/ms)", "skewed CCT (ms)", "background CCT (ms)", "total (ms)"],
        rows,
    )
    # Throttling the composite paths must not *speed up* the skewed coflows.
    skew_by_budget = [row[1] for row in rows]
    assert skew_by_budget[0] >= skew_by_budget[-1] * 0.98
