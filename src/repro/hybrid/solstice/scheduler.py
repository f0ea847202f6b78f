"""The Solstice scheduling loop (Liu et al., CoNEXT 2015).

Solstice targets **demand completion time** on a hybrid switch: it stuffs
the demand matrix (see :mod:`repro.hybrid.solstice.stuffing`), then greedily
extracts long-lived circuit configurations with BigSlice (see
:mod:`repro.hybrid.solstice.slicing`) until the *leftover* demand — the part
the extracted circuits do not cover — is small enough for the packet switch
to finish within the circuit schedule's own makespan.  At that point adding
another configuration can only push completion later (every configuration
costs an extra δ of dark OCS), so the loop stops.

Stopping rule
-------------
The Solstice paper states the loop runs "until the remaining demand can be
sent over the packet switch" in comparable time; the exact inequality is an
implementation choice.  We use the natural completion-time form: stop before
adding a configuration when::

    max_port_load(leftover) / Ce  <=  makespan(schedule so far)

where ``max_port_load / Ce`` is the EPS's lower bound for draining the
leftover (EPS runs concurrently with the circuit schedule from time 0), and
the makespan counts one δ per configuration.  A safety cap of ``n^2``
configurations (the BvN bound) guarantees termination even for adversarial
inputs.

The kernel backend decides this rule without an n×n pass per slice (see
:func:`eps_finishes_leftover`): the leftover changes only on the demand's
nonzeros, so per-port sums over those bound the port load, and the dense
sums run only when the bound cannot show that the loop goes on.

Watchdogs
---------
The loop never raises on non-convergence.  If the stuffed matrix loses the
equal-sum invariant (so BigSlice finds no perfect matching), or a slice
stops advancing the schedule, the loop stops extracting circuits and the
remaining demand drains over the packet switch — a valid, merely
suboptimal, schedule.  Each such degradation is recorded as a
:class:`~repro.hybrid.diagnostics.SchedulerDiagnostics` entry on
``last_diagnostics`` (reset at every :meth:`SolsticeScheduler.schedule`
call) so sweeps can report it instead of crashing on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.hybrid.diagnostics import SchedulerDiagnostics
from repro.hybrid.schedule import Schedule, ScheduleEntry
from repro.hybrid.solstice.slicing import BigSliceState, big_slice
from repro.hybrid.solstice.stuffing import quick_stuff_diagnosed
from repro.matching import kernels
from repro.switch.params import SwitchParams
from repro.utils.validation import VOLUME_TOL, check_demand_matrix

#: Relative margin by which :func:`eps_finishes_leftover` shrinks its
#: support sums before trusting them.
LOAD_MARGIN: float = 1e-9


def eps_finishes_leftover(
    leftover: np.ndarray,
    eps_rate: float,
    makespan: float,
    support: "tuple[np.ndarray, np.ndarray] | None" = None,
) -> bool:
    """Solstice's stopping rule: whether the EPS alone drains ``leftover``
    within ``makespan``.

    True when the leftover's largest row or column sum, ``port_load``, is
    at most ``VOLUME_TOL`` or ``port_load / eps_rate <= makespan``, with
    ``port_load`` summed densely as ``leftover.sum(axis=1)`` and
    ``leftover.sum(axis=0)``.

    ``support``, a pair of index arrays covering every nonzero of
    ``leftover``, lets a per-port ``np.bincount`` over those entries decide
    first.  Two float sums of the same k non-negative terms, taken in
    different orders, differ by at most 2(k-1)·2⁻⁵³ relative (about 6e-14
    at k = 256); so the bincount's largest port sum, shrunk by
    :data:`LOAD_MARGIN`, is below the dense ``port_load``.  When even that
    lower value shows both tests failing (rounded division is monotone),
    the dense value would fail them too and the answer is False; otherwise
    the dense sums decide, so the answer is always the dense rule's.
    """
    if support is not None:
        rows, cols = support
        n = leftover.shape[0]
        values = leftover[rows, cols]
        bound = max(
            np.bincount(rows, values, n).max(), np.bincount(cols, values, n).max()
        )
        lower = bound * (1.0 - LOAD_MARGIN)
        if lower > VOLUME_TOL and lower / eps_rate > makespan:
            return False
    port_load = max(leftover.sum(axis=1).max(), leftover.sum(axis=0).max())
    return port_load <= VOLUME_TOL or port_load / eps_rate <= makespan


@dataclass
class SolsticeScheduler:
    """Completion-time-driven h-Switch scheduler.

    Parameters
    ----------
    max_configs:
        Optional hard cap on the number of OCS configurations; ``None``
        means the BvN bound ``n^2``.

    Attributes
    ----------
    last_diagnostics:
        Watchdog records from the most recent :meth:`schedule` call (empty
        when the loop converged normally).
    """

    max_configs: "int | None" = None
    name: str = "solstice"
    last_diagnostics: "list[SchedulerDiagnostics]" = field(
        default_factory=list, repr=False, compare=False
    )
    #: Optional :class:`~repro.service.deadline.DeadlineBudget` polled at
    #: the stuffing boundary and every slicing iteration (duck-typed to
    #: avoid an import cycle).  A budget that never exhausts changes
    #: nothing — checkpoints only read the clock.
    budget: "object | None" = field(default=None, repr=False, compare=False)

    def schedule(self, demand: np.ndarray, params: SwitchParams) -> Schedule:
        """Compute the Solstice OCS schedule for ``demand``.

        The demand may be any square size (Solstice is size-agnostic; the
        cp-Switch scheduler feeds it (n+1)×(n+1) reduced demands).
        """
        demand = check_demand_matrix(demand)
        n = demand.shape[0]
        delta = params.reconfig_delay
        ocs_rate = params.ocs_rate
        eps_rate = params.eps_rate
        cap = self.max_configs if self.max_configs is not None else n * n

        entries: list[ScheduleEntry] = []
        makespan = 0.0
        leftover = demand.copy()  # real demand not yet covered by circuits
        self.last_diagnostics = []

        obs_on = obs.active()
        span = (
            obs.get_tracer().begin("solstice.schedule", n=n, cap=cap)
            if obs_on and obs.get_tracer().enabled
            else None
        )

        with obs.profiled("solstice.stuffing"):
            stuffed, stuffing_diag = quick_stuff_diagnosed(demand)
        if stuffing_diag is not None:
            self.last_diagnostics.append(stuffing_diag)
            if obs_on:
                obs.record_watchdog(stuffing_diag)
        if self.budget is not None:
            # Stage marker only: exhaustion here surfaces at the first
            # slicing checkpoint below, keeping a single degradation path.
            self.budget.checkpoint("solstice.stuffing")

        # Kernel backend: carry the warm-start/certificate memo across the
        # slicing loop (see BigSliceState).  Every number it influences is
        # bit-identical to the oracle path; REPRO_KERNELS=oracle disables it.
        slice_state = BigSliceState(stuffed) if kernels.kernels_active() else None
        rows = np.arange(n)
        # The leftover only shrinks, and only where the demand is nonzero.
        support = np.nonzero(leftover) if slice_state is not None else None

        while len(entries) < cap:
            if self.budget is not None and not self.budget.checkpoint(
                "solstice.slice"
            ):
                self._degrade(
                    "deadline",
                    f"wall-clock budget exhausted after {len(entries)} slices; "
                    "the EPS drains the leftover",
                    len(entries),
                    cap,
                    leftover,
                )
                break
            if eps_finishes_leftover(leftover, eps_rate, makespan, support):
                # Circuits already cover everything, or the EPS finishes
                # the leftover within the schedule anyway.
                break
            if slice_state is not None:
                decomposed = slice_state.refresh().size == 0
            else:
                decomposed = stuffed.max(initial=0.0) <= VOLUME_TOL
            if decomposed:
                break  # stuffed matrix fully decomposed
            try:
                threshold, matching = big_slice(stuffed, state=slice_state)
            except ValueError as exc:
                # Equal-sum invariant broken (adversarial stuffing residue):
                # stop extracting circuits; the EPS drains the leftover.
                self._degrade(
                    "slice-infeasible", str(exc), len(entries), cap, leftover
                )
                break
            duration = threshold / ocs_rate
            if duration <= 0.0:
                # A zero-thickness slice advances neither the makespan nor
                # the leftover — without this guard the loop spins to the
                # configuration cap doing nothing.
                self._degrade(
                    "slice-stall",
                    f"slice threshold {threshold:.3g} Mb yields a zero-duration "
                    "configuration",
                    len(entries),
                    cap,
                    leftover,
                )
                break
            capacity = duration * ocs_rate
            if slice_state is not None:
                # O(n) subtraction along the matched entries, by their flat
                # keys ``row*n + matching``.  The oracle's boolean mask
                # visits the same entries in the same (row-major) order, so
                # the arithmetic is element-for-element identical to the
                # oracle branch.
                keys = slice_state.row_keys + matching
                stuffed.put(keys, np.maximum(stuffed.take(keys) - threshold, 0.0))
                leftover.put(keys, np.maximum(leftover.take(keys) - capacity, 0.0))
            else:
                mask = np.zeros((n, n), dtype=bool)
                mask[rows, matching] = True
                stuffed[mask] = np.maximum(stuffed[mask] - threshold, 0.0)
                # Circuits serve real demand up to the slice capacity.
                leftover[mask] = np.maximum(leftover[mask] - capacity, 0.0)
            entries.append(ScheduleEntry(matching=matching, duration=duration))
            makespan += duration + delta
        else:
            # Configuration cap hit with demand still uncovered — the EPS
            # picks up the remainder; record that the cap bound the loop.
            if not eps_finishes_leftover(leftover, eps_rate, makespan):
                self._degrade(
                    "config-cap",
                    f"configuration cap {cap} reached with "
                    f"{float(leftover.sum()):.3g} Mb not circuit-covered",
                    len(entries),
                    cap,
                    leftover,
                )

        if obs_on:
            if span is not None:
                obs.get_tracer().end(
                    span, slices=len(entries), makespan_ms=makespan
                )
            tracer = obs.get_tracer()
            if tracer.enabled:
                # Schedule-quality audit: deterministic decisions only, the
                # alignment record for `obs diff` / the BENCH_obs gate.
                tracer.event(
                    "scheduler.audit",
                    scheduler=self.name,
                    n=n,
                    configs=len(entries),
                    makespan_ms=makespan,
                    watchdogs=len(self.last_diagnostics),
                    residual_mb=float(leftover.sum()),
                )
            metrics = obs.get_metrics()
            if metrics.enabled:
                metrics.counter(
                    "solstice_slices_total", "BigSlice configurations extracted"
                ).inc(len(entries))
                metrics.counter(
                    "solstice_schedules_total", "SolsticeScheduler.schedule() calls"
                ).inc()

        return Schedule(entries=tuple(entries), reconfig_delay=delta)

    def _degrade(
        self,
        event: str,
        detail: str,
        iterations: int,
        cap: int,
        leftover: np.ndarray,
    ) -> None:
        """Record one watchdog degradation on ``last_diagnostics``."""
        diagnostics = SchedulerDiagnostics(
            scheduler=self.name,
            event=event,
            detail=detail,
            iterations=iterations,
            cap=cap,
            residual=float(leftover.sum()),
        )
        self.last_diagnostics.append(diagnostics)
        if obs.active():
            obs.record_watchdog(diagnostics)
