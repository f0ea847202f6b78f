"""Frozen pre-optimization reference implementations of the hot paths.

This module preserves, verbatim, the seed revision's implementations of
the kernels that the vectorization work rewrote:

* :class:`ReferenceFluidEngine` — the original per-event full-matrix
  fluid engine (``n×n`` rate/residual arrays rebuilt on every event);
* :func:`reference_quick_stuff` — Solstice's QuickStuff with the
  per-entry numpy-scalar pass-1 loop;
* :func:`reference_maximum_matching_mask` — the Hopcroft–Karp wrapper
  that builds its CSR graph through scipy's dense→COO→CSR conversion;
* :func:`reference_cp_switch_demand_reduction` — Algorithm 1 with the
  numpy-scalar greedy both-qualify loop.

They are **ground truth**: the optimized pipeline must be *bit-identical*
to the reference on the seeded Figure 5/6 benchmark points (same
per-entry finish times, same completion times, conservation intact).
``tests/test_reference_pipeline.py`` composes the seed pipeline from these
kernels and asserts this at radix 32/64/128 under Solstice and Eclipse.
:class:`ReferenceFluidEngine` is also the only cp-Switch fluid engine
independent of the live one, since the packet-level model
(:mod:`repro.sim.packetlevel`) has no composite paths.

The only intentional behavioural difference is the phase-skip dust bug
(see ``FluidEngine.run_phase``): the reference engine preserves the seed
behaviour of idling out the rest of a phase when a near-drained entry's
drain time falls below ``TIME_TOL``, while the optimized engine snaps the
dust entry to zero and keeps serving everyone else.  The seeded benchmark
points never enter that branch, which is what makes the bit-identical
comparison meaningful.

Do not "improve" this module: its value is that it does not change.
"""

from __future__ import annotations

import numpy as np

from repro.hybrid.schedule import Schedule, ScheduleEntry
from repro.sim.metrics import RateSegment, SimulationResult
from repro.sim.rates import max_min_fair_rate_matrix
from repro.switch.params import SwitchParams
from repro.utils.validation import VOLUME_TOL, check_demand_matrix

try:  # scipy backend, as in the seed hopcroft_karp module
    from scipy.sparse import csr_matrix as _csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching as _scipy_matching
except ImportError:  # pragma: no cover - scipy is a hard dependency
    _csr_matrix = None
    _scipy_matching = None

#: Durations shorter than this (ms) are treated as elapsed (seed value).
TIME_TOL: float = 1e-12

#: Sentinel for "unmatched" in the matching arrays (seed value).
UNMATCHED: int = -1


class ReferenceFluidEngine:
    """The seed revision's fluid engine, kept verbatim.

    Per-event cost is O(n²): every event rebuilds full ``reg_rate`` /
    ``comp_rate`` matrices and re-scans the full residual matrices.  See
    :class:`repro.sim.engine.FluidEngine` for the optimized replacement.
    """

    def __init__(self, demand: np.ndarray, params: SwitchParams) -> None:
        demand = check_demand_matrix(demand)
        if demand.shape[0] != params.n_ports:
            raise ValueError(
                f"demand is {demand.shape[0]}x{demand.shape[1]} but "
                f"params.n_ports={params.n_ports}"
            )
        self.params = params
        self.n = params.n_ports
        self.regular = demand.copy()
        self.composite = np.zeros_like(demand)
        self.demanded = demand > VOLUME_TOL
        self.finish_times = np.full(demand.shape, np.nan)
        self.clock = 0.0
        self.segments: list[RateSegment] = []
        self.served_ocs_direct = 0.0
        self.served_composite = 0.0
        self.served_eps = 0.0
        self.total_demand = float(demand.sum())

    def assign_composite(self, filtered: np.ndarray) -> None:
        filtered = np.asarray(filtered, dtype=np.float64)
        if filtered.shape != self.regular.shape:
            raise ValueError(f"filtered shape {filtered.shape} != demand shape")
        if np.any(filtered > self.regular + 1e-9):
            raise ValueError("filtered demand exceeds remaining regular demand")
        if self.clock > 0:
            raise RuntimeError("assign_composite must run before the first phase")
        self.regular = np.maximum(self.regular - filtered, 0.0)
        self.composite = self.composite + filtered

    def merge_composite_into_regular(self) -> None:
        self.regular += self.composite
        self.composite[:] = 0.0

    def run_phase(
        self,
        duration: "float | None",
        circuits: "np.ndarray | None" = None,
        composites=(),
        eps_enabled: bool = True,
    ) -> None:
        open_ended = duration is None
        remaining = np.inf if open_ended else float(duration)
        if not open_ended and remaining < 0:
            raise ValueError(f"duration must be non-negative, got {duration}")
        if circuits is not None:
            circuit_rows, circuit_cols = np.nonzero(circuits)
        else:
            circuit_rows = circuit_cols = np.empty(0, dtype=np.int64)

        while remaining > TIME_TOL:
            reg_rate, comp_rate, breakdown = self._current_rates(
                circuit_rows, circuit_cols, composites, eps_enabled
            )
            dt_event = self._next_drain(reg_rate, comp_rate)
            if not np.isfinite(dt_event) and open_ended:
                break  # nothing left to serve
            dt = min(dt_event, remaining)
            if dt <= TIME_TOL:
                # Seed behaviour (the phase-skip dust bug): idle out the
                # rest of the phase even though other entries may still be
                # served at positive rates.
                self.clock += remaining
                break
            self._apply(reg_rate, comp_rate, breakdown, dt)
            remaining -= dt

    def _current_rates(self, circuit_rows, circuit_cols, composites, eps_enabled):
        params = self.params
        n = self.n
        reg_rate = np.zeros_like(self.regular)
        comp_rate = np.zeros_like(self.regular)
        in_cap = np.full(n, params.eps_rate)
        out_cap = np.full(n, params.eps_rate)

        circuit_total = 0.0
        if circuit_rows.size:
            live = self.regular[circuit_rows, circuit_cols] > VOLUME_TOL
            rows, cols = circuit_rows[live], circuit_cols[live]
            reg_rate[rows, cols] = params.ocs_rate
            circuit_total = params.ocs_rate * rows.size

        budget = params.effective_eps_budget
        composite_total = 0.0
        for service in composites:
            if service.kind == "o2m":
                vector = self.composite[service.port, :]
            else:
                vector = self.composite[:, service.port]
            active = vector > VOLUME_TOL
            if service.lane_mask is not None:
                active = active & service.lane_mask
            count = int(active.sum())
            if count == 0:
                continue
            rate = min(budget, params.ocs_rate / count)
            if service.kind == "o2m":
                comp_rate[service.port, active] += rate
                out_cap[active] -= rate
            else:
                comp_rate[active, service.port] += rate
                in_cap[active] -= rate
            composite_total += rate * count
        np.clip(in_cap, 0.0, None, out=in_cap)
        np.clip(out_cap, 0.0, None, out=out_cap)

        eps_total = 0.0
        if eps_enabled:
            eps_active = (self.regular > VOLUME_TOL) & (reg_rate <= 0)
            if eps_active.any():
                eps_rates = max_min_fair_rate_matrix(eps_active, in_cap, out_cap)
                reg_rate += eps_rates
                eps_total = float(eps_rates.sum())
        return reg_rate, comp_rate, (circuit_total, composite_total, eps_total)

    def _next_drain(self, reg_rate: np.ndarray, comp_rate: np.ndarray) -> float:
        dt = np.inf
        served = reg_rate > 0
        if served.any():
            dt = min(dt, float((self.regular[served] / reg_rate[served]).min()))
        served = comp_rate > 0
        if served.any():
            dt = min(dt, float((self.composite[served] / comp_rate[served]).min()))
        return dt

    def _apply(self, reg_rate, comp_rate, breakdown, dt: float) -> None:
        circuit_total, composite_total, eps_total = breakdown
        before = self.regular + self.composite

        self.regular -= reg_rate * dt
        self.composite -= comp_rate * dt
        np.clip(self.regular, 0.0, None, out=self.regular)
        np.clip(self.composite, 0.0, None, out=self.composite)
        self.regular[self.regular <= VOLUME_TOL] = 0.0
        self.composite[self.composite <= VOLUME_TOL] = 0.0

        after = self.regular + self.composite
        newly_done = self.demanded & (before > VOLUME_TOL) & (after <= VOLUME_TOL)
        self.finish_times[newly_done] = self.clock + dt

        self.served_ocs_direct += circuit_total * dt
        self.served_composite += composite_total * dt
        self.served_eps += eps_total * dt

        self.segments.append(
            RateSegment(
                start=self.clock,
                end=self.clock + dt,
                ocs_direct_rate=circuit_total,
                composite_rate=composite_total,
                eps_rate=eps_total,
            )
        )
        self.clock += dt

    def residual_total(self) -> float:
        return float(self.regular.sum() + self.composite.sum())

    def result(
        self, n_configs: int, makespan: float, *, allow_residual: bool = False
    ) -> SimulationResult:
        leftover = self.residual_total()
        if leftover > VOLUME_TOL * max(1, self.n) ** 2 and not allow_residual:
            raise RuntimeError(
                f"simulation ended with {leftover} Mb undelivered; "
                "run a final drain phase first"
            )
        finished = self.finish_times[self.demanded]
        if finished.size == 0:
            completion = 0.0
        elif np.isnan(finished).any():
            completion = float("nan")
        else:
            completion = float(finished.max())
        result = SimulationResult(
            finish_times=self.finish_times,
            completion_time=completion,
            n_configs=n_configs,
            makespan=makespan,
            segments=self.segments,
            served_ocs_direct=self.served_ocs_direct,
            served_composite=self.served_composite,
            served_eps=self.served_eps,
            total_demand=self.total_demand,
            residual=(self.regular + self.composite) if allow_residual else None,
        )
        result.check_conservation(tol=1e-6)
        return result


# ---------------------------------------------------------------------- #
# schedule-path kernels (seed versions)
# ---------------------------------------------------------------------- #


def reference_quick_stuff(demand: np.ndarray) -> np.ndarray:
    """Seed QuickStuff: per-entry numpy-scalar loop in pass 1."""
    stuffed = check_demand_matrix(demand)
    n = stuffed.shape[0]
    row_sums = stuffed.sum(axis=1)
    col_sums = stuffed.sum(axis=0)
    phi = float(max(row_sums.max(), col_sums.max()))
    if phi <= VOLUME_TOL:
        return stuffed

    rows, cols = np.nonzero(stuffed > VOLUME_TOL)
    order = np.argsort(-stuffed[rows, cols], kind="stable")
    for k in order:
        i, j = int(rows[k]), int(cols[k])
        slack = min(phi - row_sums[i], phi - col_sums[j])
        if slack > 0:
            stuffed[i, j] += slack
            row_sums[i] += slack
            col_sums[j] += slack

    row_slack = phi - row_sums
    col_slack = phi - col_sums
    open_rows = [int(i) for i in np.argsort(-row_slack) if row_slack[i] > VOLUME_TOL]
    open_cols = [int(j) for j in np.argsort(-col_slack) if col_slack[j] > VOLUME_TOL]
    ri = ci = 0
    while ri < len(open_rows) and ci < len(open_cols):
        i, j = open_rows[ri], open_cols[ci]
        fill = min(row_slack[i], col_slack[j])
        if fill > VOLUME_TOL:
            stuffed[i, j] += fill
            row_slack[i] -= fill
            col_slack[j] -= fill
        if row_slack[i] <= VOLUME_TOL:
            ri += 1
        if col_slack[j] <= VOLUME_TOL:
            ci += 1

    if max(np.abs(stuffed.sum(axis=1) - phi).max(), np.abs(stuffed.sum(axis=0) - phi).max()) > n * 1e-9 * max(phi, 1.0):
        raise RuntimeError("QuickStuff failed to equalize row/column sums")
    return stuffed


def reference_maximum_matching_mask(mask: np.ndarray) -> "tuple[np.ndarray, int]":
    """Seed matching wrapper: dense mask → scipy COO → CSR → Hopcroft–Karp."""
    mask = np.asarray(mask, dtype=bool)
    graph = _csr_matrix(mask)
    match_left = np.asarray(_scipy_matching(graph, perm_type="column"), dtype=np.int64)
    return match_left, int((match_left != UNMATCHED).sum())


def _reference_big_slice(stuffed: np.ndarray, *, max_probes: "int | None" = 64):
    """Seed BigSlice, using the seed matching wrapper."""
    matrix = np.asarray(stuffed, dtype=np.float64)
    values = np.unique(matrix[matrix > VOLUME_TOL])
    if values.size == 0:
        raise ValueError("big_slice called on an (effectively) empty matrix")
    if max_probes is not None and values.size > max_probes:
        grid = np.linspace(0.0, 1.0, max_probes)
        values = np.unique(np.quantile(values, grid, method="nearest"))

    n = matrix.shape[0]

    def probe(threshold: float) -> "np.ndarray | None":
        match, size = reference_maximum_matching_mask(matrix >= threshold)
        return match if size == n else None

    lo, hi = 0, values.size - 1
    best_match = probe(float(values[lo]))
    if best_match is None:
        raise ValueError(
            "no perfect matching over positive entries; matrix is not stuffed "
            "(row/column sums unequal?)"
        )
    lo += 1
    while lo <= hi:
        mid = (lo + hi) // 2
        match = probe(float(values[mid]))
        if match is not None:
            best_match = match
            lo = mid + 1
        else:
            hi = mid - 1

    rows = np.arange(n)
    threshold = float(matrix[rows, best_match].min())
    permutation = np.zeros((n, n), dtype=np.int8)
    permutation[rows, best_match] = 1
    return threshold, permutation


def reference_solstice_schedule(demand: np.ndarray, params: SwitchParams) -> Schedule:
    """Seed Solstice loop wired to the seed stuffing/matching kernels."""
    demand = check_demand_matrix(demand)
    n = demand.shape[0]
    delta = params.reconfig_delay
    ocs_rate = params.ocs_rate
    eps_rate = params.eps_rate
    cap = n * n

    entries: list[ScheduleEntry] = []
    makespan = 0.0
    leftover = demand.copy()
    stuffed = reference_quick_stuff(demand)

    while len(entries) < cap:
        port_load = max(leftover.sum(axis=1).max(), leftover.sum(axis=0).max())
        if port_load <= VOLUME_TOL:
            break
        if port_load / eps_rate <= makespan:
            break
        if stuffed.max(initial=0.0) <= VOLUME_TOL:
            break
        threshold, permutation = _reference_big_slice(stuffed)
        duration = threshold / ocs_rate
        mask = permutation.astype(bool)
        stuffed[mask] = np.maximum(stuffed[mask] - threshold, 0.0)
        capacity = duration * ocs_rate
        leftover[mask] = np.maximum(leftover[mask] - capacity, 0.0)
        entries.append(ScheduleEntry(permutation=permutation, duration=duration))
        makespan += duration + delta

    return Schedule(entries=tuple(entries), reconfig_delay=delta)


def reference_cp_switch_demand_reduction(
    demand: np.ndarray,
    fanout_threshold: int,
    volume_threshold: float,
):
    """Seed Algorithm 1 with the numpy-scalar greedy both-qualify loop.

    Returns a :class:`repro.core.reduction.ReducedDemand` (imported lazily
    to avoid a core ↔ sim import cycle).
    """
    from repro.core.reduction import ReducedDemand
    from repro.utils.validation import check_nonnegative

    demand = check_demand_matrix(demand)
    if fanout_threshold < 1:
        raise ValueError(f"fanout_threshold (Rt) must be >= 1, got {fanout_threshold}")
    check_nonnegative("volume_threshold", volume_threshold)
    n = demand.shape[0]

    low = demand.copy()
    low[low > volume_threshold] = 0.0

    nonzero = low > VOLUME_TOL
    row_qualifies = nonzero.sum(axis=1) >= fanout_threshold
    col_qualifies = nonzero.sum(axis=0) >= fanout_threshold

    reduced = np.zeros((n + 1, n + 1), dtype=np.float64)
    filtered = np.zeros_like(demand)
    o2m_mask = np.zeros((n, n), dtype=bool)
    m2o_mask = np.zeros((n, n), dtype=bool)
    o2m_loads = reduced[:n, n]
    m2o_loads = reduced[n, :n]

    only_rows = nonzero & row_qualifies[:, None] & ~col_qualifies[None, :]
    filtered[only_rows] = demand[only_rows]
    np.add.at(o2m_loads, np.nonzero(only_rows)[0], demand[only_rows])
    o2m_mask |= only_rows

    only_cols = nonzero & ~row_qualifies[:, None] & col_qualifies[None, :]
    filtered[only_cols] = demand[only_cols]
    np.add.at(m2o_loads, np.nonzero(only_cols)[1], demand[only_cols])
    m2o_mask |= only_cols

    both = nonzero & row_qualifies[:, None] & col_qualifies[None, :]
    for i, j in zip(*np.nonzero(both)):
        value = demand[i, j]
        filtered[i, j] = value
        if o2m_loads[i] <= m2o_loads[j]:
            o2m_loads[i] += value
            o2m_mask[i, j] = True
        else:
            m2o_loads[j] += value
            m2o_mask[i, j] = True

    reduced[:n, :n] = demand - filtered

    return ReducedDemand(
        reduced=reduced,
        filtered=filtered,
        o2m_assignment=o2m_mask,
        m2o_assignment=m2o_mask,
        volume_threshold=float(volume_threshold),
        fanout_threshold=int(fanout_threshold),
    )
