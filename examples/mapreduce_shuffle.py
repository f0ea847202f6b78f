#!/usr/bin/env python3
"""Domain example: a MapReduce-style partition/aggregate epoch.

§1 motivates composite paths with aggregation traffic: "Many-to-one, e.g.,
aggregation of data (i.e., MapReduce, Partition-Aggregate)".  This example
builds one reduce epoch over a 64-port switch:

* ``n_reducers`` racks each aggregate a shard from ~50 mapper racks
  (many-to-one coflows, delay-sensitive);
* the remaining racks exchange a light all-to-all shuffle of small
  flows (background many-to-many, EPS territory);

and reports the *coflow completion time* of each reducer's aggregation —
the metric a job scheduler actually waits on — for h-Switch vs cp-Switch
under both OCS classes.  With several reducers contending for the single
many-to-one composite path, the base cp-Switch can saturate (the §3.5
effect); the run also includes the §4 extension with one composite path
per reducer, which resolves the contention.

Run:  python examples/mapreduce_shuffle.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    CpSwitchScheduler,
    SolsticeScheduler,
    fast_ocs_params,
    simulate_cp,
    simulate_hybrid,
    slow_ocs_params,
)
from repro.workloads.base import volume_scale_for


def build_epoch(params, rng, n_reducers=3):
    """One partition/aggregate epoch: demand plus per-reducer masks."""
    n = params.n_ports
    scale = volume_scale_for(params)
    demand = np.zeros((n, n))
    reducers = rng.choice(n, size=n_reducers, replace=False)
    reducer_masks = {}
    for reducer in reducers.tolist():
        mappers = rng.choice(
            np.setdiff1d(np.arange(n), [reducer]), size=50, replace=False
        )
        demand[mappers, reducer] += rng.uniform(1.0, 1.3, size=50) * scale
        mask = np.zeros((n, n), dtype=bool)
        mask[mappers, reducer] = True
        reducer_masks[reducer] = mask

    # Light all-to-all shuffle among non-reducer racks: 6 small flows each.
    others = np.setdiff1d(np.arange(n), reducers)
    for rack in others.tolist():
        peers = rng.choice(np.setdiff1d(others, [rack]), size=6, replace=False)
        demand[rack, peers] += rng.uniform(0.2, 0.6, size=6) * scale
    return demand, reducer_masks


def run(params, label: str) -> None:
    rng = np.random.default_rng(2016)
    demand, reducer_masks = build_epoch(params, rng)

    solstice = SolsticeScheduler()
    h_result = simulate_hybrid(demand, solstice.schedule(demand, params), params)
    cp_scheduler = CpSwitchScheduler(solstice)
    cp_result = simulate_cp(demand, cp_scheduler.schedule(demand, params), params)
    # §4 extension: one many-to-one composite path per reducer.
    k = len(reducer_masks)
    mp_scheduler = CpSwitchScheduler(solstice, n_paths=k)
    mp_result = simulate_cp(demand, mp_scheduler.schedule(demand, params), params)

    print(f"\n=== {label}: {demand.sum():.0f} Mb epoch, "
          f"{k} reducers x 50 mappers ===")
    print(
        f"{'reducer':>12}  {'h-Switch (ms)':>14}  {'cp k=1 (ms)':>12}  "
        f"{f'cp k={k} (ms)':>12}"
    )
    for reducer, mask in sorted(reducer_masks.items()):
        print(
            f"{reducer:>12}  {h_result.coflow_completion(mask):>14.3f}  "
            f"{cp_result.coflow_completion(mask):>12.3f}  "
            f"{mp_result.coflow_completion(mask):>12.3f}"
        )
    print(
        f"{'epoch total':>12}  {h_result.completion_time:>14.3f}  "
        f"{cp_result.completion_time:>12.3f}  {mp_result.completion_time:>12.3f}"
    )
    print(
        f"OCS configurations: h-Switch {h_result.n_configs}, "
        f"cp-Switch {cp_result.n_configs}, cp k={k}: {mp_result.n_configs}"
    )


def main() -> None:
    run(fast_ocs_params(64), "Fast OCS (delta = 20 us)")
    run(slow_ocs_params(64), "Slow OCS (delta = 20 ms)")


if __name__ == "__main__":
    main()
