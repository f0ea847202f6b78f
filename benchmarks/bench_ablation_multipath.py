"""Ablation — k composite paths per direction (§4 "Additional Composite
Paths").

Figure 11 shows the single composite path saturating once several ports
carry skewed demand.  The paper sketches the fix — k paths per direction —
and this bench demonstrates it: with 4 skewed senders and receivers,
growing k recovers (most of) the lost completion time, at the price of k
reserved high-bandwidth port pairs.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import BENCH_SEED, emit, trials
from repro.analysis.aggregate import aggregate
from repro.core.multipath import MultiPathCpScheduler
from repro.hybrid.solstice import SolsticeScheduler
from repro.sim import simulate_hybrid, simulate_multipath
from repro.switch.params import ocs_params
from repro.utils.rng import spawn_rngs
from repro.workloads.varying import VaryingSkewWorkload

RADIX = 64
N_SKEWED = 4
PATH_COUNTS = (1, 2, 4)


def _rows(ocs: str):
    params = ocs_params(ocs, RADIX)
    workload = VaryingSkewWorkload.for_params(params, n_skewed_ports=N_SKEWED)
    h_scheduler = SolsticeScheduler()
    specs = [
        workload.generate(RADIX, rng) for rng in spawn_rngs(BENCH_SEED, trials())
    ]

    rows = []
    h_totals = [
        simulate_hybrid(
            spec.demand, h_scheduler.schedule(spec.demand, params), params
        ).completion_time
        for spec in specs
    ]
    h_skews = []
    for spec in specs:
        result = simulate_hybrid(
            spec.demand, h_scheduler.schedule(spec.demand, params), params
        )
        h_skews.append(result.coflow_completion(spec.skewed_mask))
    rows.append(["h-Switch", "-", aggregate(h_totals).mean, aggregate(h_skews).mean])

    for k in PATH_COUNTS:
        scheduler = MultiPathCpScheduler(h_scheduler, n_paths=k)
        totals, skews = [], []
        for spec in specs:
            schedule = scheduler.schedule(spec.demand, params)
            result = simulate_multipath(spec.demand, schedule, params)
            totals.append(result.completion_time)
            skews.append(result.coflow_completion(spec.skewed_mask))
        rows.append([f"cp-Switch k={k}", k, aggregate(totals).mean, aggregate(skews).mean])
    return rows


def test_ablation_multipath_fast(benchmark):
    rows = benchmark.pedantic(_rows, args=("fast",), rounds=1, iterations=1)
    emit(
        "ablation_multipath",
        f"Ablation - k composite paths ({N_SKEWED} skewed ports/direction, radix {RADIX}, Fast OCS, Solstice)",
        ["switch", "k", "total completion (ms)", "skewed completion (ms)"],
        rows,
    )
    # More composite paths must not hurt the skewed coflows.
    skew_by_k = [row[3] for row in rows[1:]]
    assert skew_by_k[-1] <= skew_by_k[0] * 1.05
