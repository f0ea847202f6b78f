"""The Eclipse scheduling loop (Bojja Venkatakrishnan et al., Sigmetrics '16).

Eclipse targets **OCS utilization**: maximize the total demand transmitted
over the circuit switch inside a fixed scheduling window ``W``, paying a
reconfiguration penalty δ for every configuration.  The objective is
monotone submodular in the chosen set of (configuration, duration) pairs,
and the paper's greedy — repeatedly pick the pair maximizing *served volume
per unit of wall time* — is a 1/2-approximation.

One greedy step here:

1. build the candidate duration grid (see
   :mod:`repro.hybrid.eclipse.durations`);
2. for each α, solve a maximum-weight matching with weights
   ``min(residual_ij, α · Co)``;
3. keep the (α, M) with the best ``value / (α + δ)``;
4. commit it: subtract the served volume, advance the window clock by
   ``α + δ``.

The loop ends when the window cannot fit another reconfiguration plus a
positive-duration configuration, or no residual demand remains.

Watchdogs
---------
With a tiny reconfiguration penalty and a residual full of near-tolerance
entries, the greedy can legally take astronomically many microscopic steps
before the window fills — a hung trial from the sweep's point of view.  A
step cap (``max_steps``, default ``8·n + 256`` — generous against the
handful of steps any realistic window admits) and a clock-stall detector
bound the loop; on either trigger the scheduler returns the schedule built
so far (valid — the EPS serves the rest) and records a
:class:`~repro.hybrid.diagnostics.SchedulerDiagnostics` entry on
``last_diagnostics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.hybrid.diagnostics import SchedulerDiagnostics
from repro.hybrid.eclipse.durations import candidate_durations
from repro.hybrid.schedule import Schedule, ScheduleEntry
from repro.matching import kernels
from repro.matching.max_weight import assignment_to_permutation, max_weight_matching
from repro.switch.params import SwitchParams
from repro.utils.validation import VOLUME_TOL, check_demand_matrix


@dataclass
class EclipseScheduler:
    """Utilization-driven h-Switch scheduler.

    Parameters
    ----------
    window:
        Scheduling window ``W`` in ms.  ``None`` selects the paper's pairing
        by OCS class (:attr:`~repro.switch.params.SwitchParams.ocs_class`):
        1 ms for the fast OCS, 100 ms for the slow one.
    grid_size:
        Number of candidate durations evaluated per greedy step.
    max_steps:
        Watchdog cap on greedy steps; ``None`` uses ``8·n + 256``.

    Attributes
    ----------
    last_diagnostics:
        Watchdog records from the most recent :meth:`schedule` call (empty
        when the loop converged normally).
    """

    window: "float | None" = None
    grid_size: int = 16
    max_steps: "int | None" = None
    name: str = "eclipse"
    last_diagnostics: "list[SchedulerDiagnostics]" = field(
        default_factory=list, repr=False, compare=False
    )
    #: Optional :class:`~repro.service.deadline.DeadlineBudget` polled at
    #: every greedy step (duck-typed to avoid an import cycle).  A budget
    #: that never exhausts changes nothing — checkpoints only read the
    #: clock.
    budget: "object | None" = field(default=None, repr=False, compare=False)

    def resolved_window(self, params: SwitchParams) -> float:
        """The window actually used for ``params`` (resolving the default)."""
        if self.window is not None:
            if self.window <= 0:
                raise ValueError(f"window must be positive, got {self.window}")
            return float(self.window)
        return params.ocs_class.eclipse_window

    def schedule(self, demand: np.ndarray, params: SwitchParams) -> Schedule:
        """Greedy submodular schedule of ``demand`` within the window."""
        residual = check_demand_matrix(demand)
        delta = params.reconfig_delay
        ocs_rate = params.ocs_rate
        window = self.resolved_window(params)

        entries: list[ScheduleEntry] = []
        clock = 0.0
        self.last_diagnostics = []
        n = residual.shape[0]
        step_cap = self.max_steps if self.max_steps is not None else 8 * n + 256

        span = (
            obs.get_tracer().begin(
                "eclipse.schedule", n=n, window_ms=window, step_cap=step_cap
            )
            if obs.active() and obs.get_tracer().enabled
            else None
        )
        # Steps whose clock advance is below float resolution of the window
        # would let the loop run ~forever without ever filling it.
        min_advance = np.finfo(np.float64).eps * max(window, 1.0)
        while residual.max(initial=0.0) > VOLUME_TOL:
            if self.budget is not None and not self.budget.checkpoint(
                "eclipse.step"
            ):
                self._degrade(
                    "deadline",
                    f"wall-clock budget exhausted after {len(entries)} greedy "
                    f"steps with {window - clock:.3g} ms of window unused",
                    len(entries),
                    step_cap,
                    residual,
                )
                break
            available = window - clock - delta
            if available <= 0:
                break
            if len(entries) >= step_cap:
                self._degrade(
                    "step-cap",
                    f"greedy step cap {step_cap} reached with "
                    f"{window - clock:.3g} ms of window unused",
                    len(entries),
                    step_cap,
                    residual,
                )
                break
            best = self._best_step(residual, ocs_rate, delta, available)
            if best is None:
                break
            duration, permutation, served = best
            if duration + delta <= min_advance:
                self._degrade(
                    "clock-stall",
                    f"step advance {duration + delta:.3g} ms is below the "
                    "window's float resolution",
                    len(entries),
                    step_cap,
                    residual,
                )
                break
            residual -= served
            np.clip(residual, 0.0, None, out=residual)
            entries.append(ScheduleEntry(permutation=permutation, duration=duration))
            clock += duration + delta

        if obs.active():
            if span is not None:
                obs.get_tracer().end(
                    span, steps=len(entries), window_used_ms=clock
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
                    window_used_ms=clock,
                    watchdogs=len(self.last_diagnostics),
                    residual_mb=float(residual.sum()),
                )
            metrics = obs.get_metrics()
            if metrics.enabled:
                metrics.counter(
                    "eclipse_steps_total", "greedy (configuration, duration) steps"
                ).inc(len(entries))
                metrics.counter(
                    "eclipse_schedules_total", "EclipseScheduler.schedule() calls"
                ).inc()

        return Schedule(entries=tuple(entries), reconfig_delay=delta)

    def _degrade(
        self,
        event: str,
        detail: str,
        iterations: int,
        cap: int,
        residual: np.ndarray,
    ) -> None:
        """Record one watchdog degradation on ``last_diagnostics``."""
        diagnostics = SchedulerDiagnostics(
            scheduler=self.name,
            event=event,
            detail=detail,
            iterations=iterations,
            cap=cap,
            residual=float(residual.sum()),
        )
        self.last_diagnostics.append(diagnostics)
        if obs.active():
            obs.record_watchdog(diagnostics)

    def _best_step(
        self,
        residual: np.ndarray,
        ocs_rate: float,
        delta: float,
        available: float,
    ) -> "tuple[float, np.ndarray, np.ndarray] | None":
        """Best (duration, permutation, served-volume matrix) this step.

        Returns ``None`` when no candidate serves positive volume.
        """
        durations = candidate_durations(
            residual, ocs_rate, available, grid_size=self.grid_size
        )
        if kernels.kernels_active():
            return self._best_step_kernel(residual, ocs_rate, delta, durations)
        best_rate = 0.0
        best: "tuple[float, np.ndarray, np.ndarray] | None" = None
        for alpha in durations.tolist():
            weights = np.minimum(residual, alpha * ocs_rate)
            assignment, value = max_weight_matching(weights)
            if value <= VOLUME_TOL:
                continue
            rate = value / (alpha + delta)
            if rate > best_rate * (1 + 1e-12):
                rows = np.arange(residual.shape[0])
                served = np.zeros_like(residual)
                served[rows, assignment] = weights[rows, assignment]
                # Prune circuits that carry nothing: they would otherwise
                # read as spurious composite-path assignments downstream.
                permutation = assignment_to_permutation(assignment)
                permutation[served <= VOLUME_TOL] = 0
                best_rate = rate
                best = (alpha, permutation, served)
        return best

    def _best_step_kernel(
        self,
        residual: np.ndarray,
        ocs_rate: float,
        delta: float,
        durations: np.ndarray,
    ) -> "tuple[float, np.ndarray, np.ndarray] | None":
        """Kernel-backend :meth:`_best_step` — bit-identical decisions.

        Three accelerations over the oracle loop above, none changing any
        number it publishes:

        * **Bound pruning** — the assignment value is at most the smaller
          of the row-max and column-max sums of the weights (each matched
          entry is bounded by its row's and column's maximum, and each row
          and column is used at most once); the row/col maxes of
          ``min(residual, cap)`` are ``min(max(residual), cap)``, so the
          bound is O(n) per candidate against the O(n³) solve.  A 1e-9
          relative margin swamps summation rounding, so no candidate the
          oracle would accept is ever pruned.
        * **Saturation sharing** — candidates with
          ``cap >= residual.max()`` all have ``min(residual, cap) ==
          residual`` element-wise, hence one (deterministic) LSAP solve
          serves them all.
        * **Deferred construction** — the served-volume and permutation
          matrices are materialised once for the winning candidate instead
          of on every incumbent update (the oracle's rates typically rise
          with α, so it rebuilds them nearly every iteration).
        """
        row_max = residual.max(axis=1)
        col_max = residual.max(axis=0)
        residual_max = float(row_max.max())
        saturated: "tuple[np.ndarray, float] | None" = None
        best_rate = 0.0
        best_alpha = 0.0
        best_assignment: "np.ndarray | None" = None
        for alpha in durations.tolist():
            cap = alpha * ocs_rate
            bound = min(
                float(np.minimum(row_max, cap).sum()),
                float(np.minimum(col_max, cap).sum()),
            )
            if bound <= VOLUME_TOL * (1 - 1e-9):
                continue  # value <= VOLUME_TOL: oracle would skip too
            if bound * (1 + 1e-9) <= best_rate * (1 + 1e-12) * (alpha + delta):
                continue  # cannot beat the incumbent rate
            if cap >= residual_max:
                if saturated is None:
                    saturated = max_weight_matching(residual)
                assignment, value = saturated
            else:
                assignment, value = max_weight_matching(
                    np.minimum(residual, cap)
                )
            if value <= VOLUME_TOL:
                continue
            rate = value / (alpha + delta)
            if rate > best_rate * (1 + 1e-12):
                best_rate = rate
                best_alpha = alpha
                best_assignment = assignment
        if best_assignment is None:
            return None
        weights = np.minimum(residual, best_alpha * ocs_rate)
        rows = np.arange(residual.shape[0])
        served = np.zeros_like(residual)
        served[rows, best_assignment] = weights[rows, best_assignment]
        permutation = assignment_to_permutation(best_assignment)
        permutation[served <= VOLUME_TOL] = 0
        return best_alpha, permutation, served
