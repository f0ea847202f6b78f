"""Ablation — scheduling under imperfect demand estimates.

The paper (and Solstice/Eclipse before it) assumes the scheduler sees the
exact VOQ occupancies.  This study perturbs the estimate the scheduler
works from (noise / staleness / missed entries) while executing against
the true demand, and asks whether the cp-Switch's advantage survives —
i.e. whether the composite-path idea depends on demand-knowledge
precision.  Expected answer (and the headline of the table): it does not —
filtering thresholds are coarse (an entry merely needs to stay under
``Bt`` and its row/column over ``Rt``), so moderate estimation error
leaves the reduction nearly unchanged.
"""

from __future__ import annotations

from benchmarks.common import BENCH_SEED, emit, trials
from repro.analysis.aggregate import aggregate
from repro.analysis.robustness import robustness_trial
from repro.hybrid.solstice import SolsticeScheduler
from repro.switch.params import ocs_params
from repro.utils.rng import spawn_rngs
from repro.workloads.combined import CombinedWorkload

RADIX = 64
SCENARIOS = (
    ("exact", dict()),
    ("noise 20%", dict(noise=0.2)),
    ("stale 30%", dict(staleness=0.3)),
    ("miss 10%", dict(miss_rate=0.1)),
    ("all of the above", dict(noise=0.2, staleness=0.3, miss_rate=0.1)),
)


def _rows(ocs: str):
    params = ocs_params(ocs, RADIX)
    workload = CombinedWorkload.typical(params)
    scheduler = SolsticeScheduler()
    specs = [workload.generate(RADIX, rng) for rng in spawn_rngs(BENCH_SEED, trials())]

    rows = []
    for label, kwargs in SCENARIOS:
        h_totals, cp_totals, h_skews, cp_skews = [], [], [], []
        for index, spec in enumerate(specs):
            import numpy as np

            rng = np.random.default_rng(BENCH_SEED * 31 + index)
            h_result, cp_result = robustness_trial(
                spec.demand, scheduler, params, rng, **kwargs
            )
            h_totals.append(h_result.completion_time)
            cp_totals.append(cp_result.completion_time)
            h_skews.append(h_result.coflow_completion(spec.skewed_mask))
            cp_skews.append(cp_result.coflow_completion(spec.skewed_mask))
        rows.append(
            [
                label,
                aggregate(h_totals).mean,
                aggregate(cp_totals).mean,
                aggregate(h_skews).mean,
                aggregate(cp_skews).mean,
            ]
        )
    return rows


def test_ablation_robustness_fast(benchmark):
    rows = benchmark.pedantic(_rows, args=("fast",), rounds=1, iterations=1)
    emit(
        "ablation_robustness",
        f"Ablation - demand-estimate quality (radix {RADIX}, typical, Fast OCS, Solstice)",
        ["estimate", "h total (ms)", "cp total (ms)", "h skewed (ms)", "cp skewed (ms)"],
        rows,
    )
    # The cp skewed-coflow advantage must survive every scenario.
    for row in rows:
        assert row[4] < row[3], f"cp lost its skewed advantage under {row[0]!r}"
