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
from repro.matching.max_weight import max_weight_matching
from repro.switch.params import SwitchParams
from repro.utils.validation import VOLUME_TOL, check_demand_matrix

#: One greedy step's choice: (duration, matching, served-volume matrix).
_Step = tuple[float, np.ndarray, np.ndarray]
#: The kernel path's per-duration value bounds, passed from step to step.
_Carry = tuple[np.ndarray, np.ndarray]


@dataclass
class EclipseScheduler:
    """Utilization-driven h-Switch scheduler.

    Parameters
    ----------
    window:
        Scheduling window ``W`` in ms, positive and finite.  ``None``
        selects the paper's pairing by OCS class
        (:attr:`~repro.switch.params.SwitchParams.ocs_class`): 1 ms for the
        fast OCS, 100 ms for the slow one.
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
            if not 0 < self.window < np.inf:  # NaN and inf fail too
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
        # What the last greedy step learned about each duration's value;
        # local to this call (see _best_step_kernel).
        carry: "_Carry | None" = None
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
            best, carry = self._best_step(
                residual, ocs_rate, delta, available, carry
            )
            if best is None:
                break
            duration, matching, served = best
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
            entries.append(ScheduleEntry(matching=matching, duration=duration))
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
        carry: "_Carry | None",
    ) -> "tuple[_Step | None, _Carry | None]":
        """Best (duration, matching, served volume) this step.

        The first element is ``None`` when no candidate serves positive
        volume.  The second is the carry for the next step: the kernel
        path's per-duration value bounds (see :meth:`_best_step_kernel`),
        ``None`` on the oracle path, which ignores ``carry``.
        """
        durations = candidate_durations(
            residual, ocs_rate, available, grid_size=self.grid_size
        )
        if kernels.kernels_active():
            return self._best_step_kernel(
                residual, ocs_rate, delta, durations, carry
            )
        best_rate = 0.0
        best: "_Step | None" = None
        for alpha in durations.tolist():
            weights = np.minimum(residual, alpha * ocs_rate)
            assignment, value = max_weight_matching(weights)
            if value <= VOLUME_TOL:
                continue
            rate = value / (alpha + delta)
            if rate > best_rate * (1 + 1e-12):
                best_rate = rate
                best = _step(alpha, assignment, weights)
        return best, None

    def _best_step_kernel(
        self,
        residual: np.ndarray,
        ocs_rate: float,
        delta: float,
        durations: np.ndarray,
        carry: "_Carry | None",
    ) -> "tuple[_Step | None, _Carry]":
        """Kernel-backend :meth:`_best_step` — bit-identical decisions.

        The oracle loop above solves one assignment problem per candidate
        duration.  This path solves only the candidates that can still
        matter and picks the same winner:

        * **Carried bounds** — between greedy steps the residual only
          shrinks, and an assignment's value never falls as the duration
          cap grows.  So this step's value at α is at most the value the
          previous step had at its smallest duration ≥ α.  One always
          exists after the first step, because the largest candidate,
          ``available``, shrinks every step.  ``carry`` holds the previous
          step's durations and, for each, its solved value or, if it was
          not solved, its bound; the returned carry does the same for this
          step.  It lives only inside one :meth:`schedule` call and never
          on ``self``: in one trial an instance schedules the n×n h-Switch
          demand and then the (n+1)×(n+1) reduced demand, and the deadline
          ladder reuses instances.
        * **Row/column-max bound** — the assignment value is also at most
          the smaller of the row-max and column-max sums of the weights
          (each matched entry is bounded by its row's and column's
          maximum, and each row and column is used at most once); the
          row/col maxes of ``min(residual, cap)`` are
          ``min(max(residual), cap)``, so this bound is O(n) per candidate
          against the O(n³) solve.  A candidate's bound is the smaller of
          the two.
        * **Solve order and skip rule** — candidates are solved in
          descending order of bound/(α + δ).  One is skipped when
          ``bound·(1+1e-9) <= max_rate·(1+1e-12)·(α+δ)``, where
          ``max_rate`` is the best rate solved so far in this step, or
          when its bound shows a value ≤ ``VOLUME_TOL`` (the oracle skips
          those too).
        * **Winner** — the oracle's ascending record rule,
          ``rate > best·(1+1e-12)``, applied to the solved candidates in
          ascending α; not the best rate in solve order.
        * **Saturation sharing** — candidates with
          ``cap >= residual.max()`` all have ``min(residual, cap) ==
          residual`` element-wise, hence one (deterministic) LSAP solve
          serves them all.
        * **Deferred construction** — the served-volume matrix and the
          pruned matching are built once, for the winning candidate.

        Why the winner is the oracle's.  A bound is an upper bound on the
        value it stands for: summation and LSAP rounding (about 1e-14
        relative at n = 129) lie far inside the 1e-9 margin.  Let M be the
        step's best solved rate and f = 1 + 1e-12.  Every skipped candidate
        has a rate below M·f/(1+1e-9), which is below M/f^18.  There are at
        most ``grid_size + 1`` = 17 candidates, so one of the 18 bands
        [M/f^(j+1), M/f^j), j = 0..17, holds none; let T = M/f^j for that
        band.  Let G be the first candidate, in ascending α, whose rate is
        ≥ T.  G exists (the candidate reaching M) and was solved, because
        every skipped rate is below M/f^18 < T.  Every candidate before G
        is below T and so, the band being empty, below T/f: G beats every
        earlier record by more than f and is a record under both rules,
        whatever earlier candidates each rule saw.  From G on the incumbent
        is ≥ T, so only candidates above T can become records, and all of
        those were solved: both rules see the same records from G on and
        pick the same winner.  "A skipped candidate cannot displace the
        winner" alone is not enough, because removing a candidate can
        change the records *before* the winner; the empty band rules that
        out.  The comparisons' own roundings (an ulp each) only widen the
        bands by that much, and the argument holds for any ``grid_size``
        whose (grid_size + 2)·1e-12 stays well inside the 1e-9 margin.
        """
        row_max = residual.max(axis=1)
        col_max = residual.max(axis=0)
        residual_max = float(row_max.max())
        caps = (durations * ocs_rate)[:, None]
        bounds = np.minimum(
            np.minimum(row_max, caps).sum(axis=1),
            np.minimum(col_max, caps).sum(axis=1),
        )
        if carry is not None:
            previous, carried = carry
            index = np.searchsorted(previous, durations, side="left")
            bounds = np.minimum(bounds, np.append(carried, np.inf)[index])
        alphas = durations.tolist()
        values = bounds.tolist()  # a solved candidate's entry becomes its value
        assignments: "list[np.ndarray | None]" = [None] * len(alphas)
        saturated: "tuple[np.ndarray, float] | None" = None
        max_rate = 0.0
        order = np.argsort(-bounds / (durations + delta), kind="stable")
        for i in order.tolist():
            alpha, bound = alphas[i], values[i]
            if bound <= VOLUME_TOL * (1 - 1e-9):
                continue  # value <= VOLUME_TOL: oracle would skip too
            if bound * (1 + 1e-9) <= max_rate * (1 + 1e-12) * (alpha + delta):
                continue  # cannot reach the best rate solved so far
            cap = alpha * ocs_rate
            if cap >= residual_max:
                if saturated is None:
                    saturated = max_weight_matching(residual)
                assignments[i], values[i] = saturated
            else:
                assignments[i], values[i] = max_weight_matching(
                    np.minimum(residual, cap)
                )
            if values[i] > VOLUME_TOL:
                max_rate = max(max_rate, values[i] / (alpha + delta))
        next_carry = (durations, np.array(values))
        best_rate = 0.0
        best: "int | None" = None
        for i, alpha in enumerate(alphas):
            if assignments[i] is None or values[i] <= VOLUME_TOL:
                continue
            rate = values[i] / (alpha + delta)
            if rate > best_rate * (1 + 1e-12):
                best_rate = rate
                best = i
        if best is None:
            return None, next_carry
        best_alpha = alphas[best]
        weights = np.minimum(residual, best_alpha * ocs_rate)
        return _step(best_alpha, assignments[best], weights), next_carry


def _step(alpha: float, assignment: np.ndarray, weights: np.ndarray) -> _Step:
    """The step holding ``assignment`` for ``alpha``, with ``weights`` the
    residual capped at ``alpha * Co``.

    Circuits that carry nothing are pruned from the matching: they would
    otherwise read as spurious composite-path grants downstream.
    """
    rows = np.arange(weights.shape[0])
    carried = weights[rows, assignment]
    served = np.zeros_like(weights)
    served[rows, assignment] = carried
    matching = np.where(carried <= VOLUME_TOL, np.int64(-1), assignment)
    return alpha, matching, served
