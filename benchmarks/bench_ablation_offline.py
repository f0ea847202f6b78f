"""Ablation — offline execution / permutation reordering (§4 "Offline
Execution").

Reordering the permutation matrices cannot change the total completion
time or windowed utilization (same configurations, same durations), but it
*can* pull skewed coflows earlier.  The paper observes that reordering
barely helps h-Switch (skewed traffic is gated by many reconfigurations
regardless of order) while for cp-Switch scheduling composite-path
configurations first reduces the skewed coflows' completion.
"""

from __future__ import annotations

import numpy as np

from benchmarks.common import BENCH_SEED, emit, trials
from repro.analysis.aggregate import aggregate
from repro.core.offline import reorder
from repro.core.scheduler import CpSwitchScheduler
from repro.hybrid.solstice import SolsticeScheduler
from repro.sim import simulate_cp, simulate_hybrid
from repro.switch.params import ocs_params
from repro.utils.rng import spawn_rngs
from repro.workloads.combined import CombinedWorkload

RADIX = 64


def _rows(ocs: str):
    params = ocs_params(ocs, RADIX)
    workload = CombinedWorkload.typical(params)
    h_scheduler = SolsticeScheduler()
    cp_scheduler = CpSwitchScheduler(h_scheduler)
    specs = [workload.generate(RADIX, rng) for rng in spawn_rngs(BENCH_SEED, trials())]

    h_online, h_reversed, cp_online, cp_offline = [], [], [], []
    cp_total_online, cp_total_offline = [], []
    for spec in specs:
        skew = spec.skewed_mask
        h_schedule = h_scheduler.schedule(spec.demand, params)
        h_online.append(
            simulate_hybrid(spec.demand, h_schedule, params).coflow_completion(skew)
        )
        h_reversed.append(
            simulate_hybrid(
                spec.demand, reorder(h_schedule, "reversed"), params
            ).coflow_completion(skew)
        )
        cp_schedule = cp_scheduler.schedule(spec.demand, params)
        online = simulate_cp(spec.demand, cp_schedule, params)
        cp_online.append(online.coflow_completion(skew))
        cp_total_online.append(online.completion_time)
        offline = simulate_cp(
            spec.demand, reorder(cp_schedule, "composite-first"), params
        )
        cp_offline.append(offline.coflow_completion(skew))
        cp_total_offline.append(offline.completion_time)

    return [
        ["h-Switch online", aggregate(h_online).mean],
        ["h-Switch reversed", aggregate(h_reversed).mean],
        ["cp-Switch online", aggregate(cp_online).mean],
        ["cp-Switch composite-first", aggregate(cp_offline).mean],
    ], (aggregate(cp_total_online).mean, aggregate(cp_total_offline).mean)


def test_ablation_offline_fast(benchmark):
    rows, (total_online, total_offline) = benchmark.pedantic(
        _rows, args=("fast",), rounds=1, iterations=1
    )
    emit(
        "ablation_offline",
        f"Ablation - offline permutation reordering (radix {RADIX}, typical, Fast OCS, Solstice): "
        "skewed coflow completion (ms)",
        ["execution", "skewed completion (ms)"],
        rows,
    )
    # Reordering must leave the total completion essentially unchanged
    # (same configurations, same total circuit + reconfiguration time).
    np.testing.assert_allclose(total_offline, total_online, rtol=0.05)
    # Composite-first must not hurt the skewed coflows.
    cp_online = rows[2][1]
    cp_offline = rows[3][1]
    assert cp_offline <= cp_online * 1.05
