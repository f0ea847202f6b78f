"""Simulation outputs and the paper's evaluation metrics (§3.1).

Three metrics drive every figure:

* **completion time** — when the last bit of a demand (sub)set is
  delivered; Solstice's optimization target (Figures 5, 7, 9, 11);
* **fraction of demand served by the OCS** within a scheduling window —
  Eclipse's target, a proxy for OCS utilization (Figures 6, 8, 10); volume
  crossing composite paths counts, since it traverses the OCS leg;
* **number of OCS configurations** — strongly correlated with both
  (Figures 5c–10c).

:class:`SimulationResult` carries per-entry finish times (for coflow
completion on arbitrary entry subsets) and a piecewise-constant service
rate timeline (for windowed volume integrals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.faults.plan import FaultSummary
from repro.faults.reroute import RerouteOutcome
from repro.utils.validation import VOLUME_TOL


@dataclass(frozen=True)
class RateSegment:
    """Aggregate service rates over one constant-rate interval.

    Attributes
    ----------
    start, end:
        Interval bounds (ms, absolute simulation time).
    ocs_direct_rate:
        Total rate over regular OCS-OCS circuits (Mb/ms).
    composite_rate:
        Total rate over composite paths (Mb/ms) — also OCS traffic.
    eps_rate:
        Total rate over regular EPS-EPS paths (Mb/ms).
    """

    start: float
    end: float
    ocs_direct_rate: float
    composite_rate: float
    eps_rate: float

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def ocs_rate(self) -> float:
        """Total rate crossing the OCS (direct + composite)."""
        return self.ocs_direct_rate + self.composite_rate


@dataclass
class SimulationResult:
    """Outcome of executing one schedule on one demand matrix.

    Attributes
    ----------
    finish_times:
        n×n array: time (ms) entry (i, j) fully drained; ``nan`` for
        entries with no demand.
    completion_time:
        Max finish time over all demanded entries (ms); 0 for empty demand.
    n_configs:
        OCS configurations executed.
    makespan:
        OCS schedule length (circuit time + one δ per configuration), ms.
    segments:
        Constant-rate service timeline covering [0, completion_time].
    served_ocs_direct, served_composite, served_eps:
        Volume (Mb) delivered by each mechanism; with the residual, their
        sum equals the total demand (conservation is asserted by the
        engine).
    total_demand:
        Total input demand volume (Mb).
    residual:
        Undelivered n×n demand (Mb) — non-zero only for horizon-bounded
        executions; entries still pending have ``nan`` finish times and
        ``completion_time`` is then ``nan`` as well.
    released_composite:
        Volume (Mb) that was parked on a composite path whose port died
        and *fell back* to the regular EPS/OCS paths (graceful cp-Switch →
        h-Switch degradation).  Whatever of it was delivered is counted
        under ``served_ocs_direct``/``served_eps``, so conservation is
        unaffected; this field records how much demand had to be re-routed.
    fault_summary:
        Record of the faults injected into this run, or ``None`` for a
        fault-free execution.
    reroute:
        :class:`~repro.faults.reroute.RerouteOutcome` of a run executed
        with fast-reroute backups armed (swap events, recovery latency,
        re-parked volume); ``None`` when the feature was off.
    """

    finish_times: np.ndarray
    completion_time: float
    n_configs: int
    makespan: float
    segments: "list[RateSegment]" = field(default_factory=list)
    served_ocs_direct: float = 0.0
    served_composite: float = 0.0
    served_eps: float = 0.0
    total_demand: float = 0.0
    residual: "np.ndarray | None" = None
    released_composite: float = 0.0
    fault_summary: "FaultSummary | None" = None
    reroute: "RerouteOutcome | None" = None

    @property
    def residual_total(self) -> float:
        """Total undelivered volume (Mb); 0 for run-to-completion results."""
        return float(self.residual.sum()) if self.residual is not None else 0.0

    @property
    def delivered_volume(self) -> float:
        """Total volume (Mb) delivered across all mechanisms."""
        return self.served_ocs_direct + self.served_composite + self.served_eps

    @property
    def stranded_volume(self) -> float:
        """Volume (Mb) still undelivered when the run ended.

        The delivered-vs-stranded ledger: ``delivered_volume +
        stranded_volume == total_demand`` (asserted by
        :meth:`check_conservation`).  Run-to-completion executions strand
        nothing — even under faults, dead-path demand falls back to the
        regular paths and drains; horizon-bounded executions strand the
        residual.
        """
        return self.residual_total

    @property
    def finished(self) -> bool:
        """Whether every demanded bit was delivered.

        The cutoff is *relative* to the total demand (floored at the
        absolute :data:`~repro.utils.validation.VOLUME_TOL`), matching
        :meth:`check_conservation` — a petabit-scale run must not report
        unfinished over accumulated float dust.
        """
        return self.residual_total <= VOLUME_TOL * max(1.0, self.total_demand)

    @property
    def delivered_fraction(self) -> float:
        """Share of the demand delivered (1.0 when finished).

        Zero-demand convention: 1.0 — an empty demand is vacuously fully
        served.  :meth:`ocs_fraction_within` follows the same convention.
        """
        if self.total_demand <= 0:
            return 1.0
        return 1.0 - self.residual_total / self.total_demand

    # ------------------------------------------------------------------ #
    # coflow completion
    # ------------------------------------------------------------------ #

    def coflow_completion(self, mask: np.ndarray) -> float:
        """Completion time (ms) of the demand subset selected by ``mask``.

        The coflow abstraction (§1): a collection of flows sharing a
        completion time — the last flow's finish.  Returns 0.0 if the mask
        selects no demanded entries, and ``math.inf`` if any selected flow
        was still pending when the run ended (horizon-bounded executions):
        a coflow whose flows never finished has no finite completion time,
        and reporting 0.0 would silently rank it *best* in every figure.
        """
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != self.finish_times.shape:
            raise ValueError(
                f"mask shape {mask.shape} != finish_times shape {self.finish_times.shape}"
            )
        selected = self.finish_times[mask]
        pending = np.isnan(selected)
        if pending.any() and self.residual is not None:
            # nan finish + leftover volume = the flow never drained (as
            # opposed to nan-because-never-demanded, which contributes 0).
            if np.any(self.residual[mask][pending] > VOLUME_TOL):
                obs.get_metrics().counter(
                    "coflow_never_finished_total",
                    "coflow_completion() calls whose mask held unfinished flows",
                ).inc()
                return math.inf
        selected = selected[~pending]
        return float(selected.max()) if selected.size else 0.0

    # ------------------------------------------------------------------ #
    # windowed volume integrals
    # ------------------------------------------------------------------ #

    def ocs_volume_by(self, time: float) -> float:
        """Volume (Mb) delivered across the OCS in [0, ``time``].

        Includes composite-path traffic (it crosses the OCS leg).
        """
        return self._integrate(time, lambda s: s.ocs_rate)

    def ocs_fraction_within(self, window: float) -> float:
        """Fraction of the total demand the OCS delivered in [0, window].

        This is Eclipse's objective and the y-axis of Figures 6, 8 and 10.

        Zero-demand convention: returns 1.0, like
        :attr:`delivered_fraction` — an empty demand is vacuously fully
        served (and ``finished`` is ``True``), so every "fraction of
        demand" metric agrees on 1.0 rather than a mix of 0.0 and 1.0.
        """
        if self.total_demand <= 0:
            return 1.0
        return self.ocs_volume_by(window) / self.total_demand

    def _integrate(self, time: float, rate_of) -> float:
        if not time >= 0:  # NaN-safe; inf is the whole run
            raise ValueError(f"time must be non-negative, got {time}")
        volume = 0.0
        for segment in self.segments:
            if segment.start >= time:
                break
            overlap = min(segment.end, time) - segment.start
            if overlap > 0:
                volume += overlap * rate_of(segment)
        return volume

    # ------------------------------------------------------------------ #
    # sanity
    # ------------------------------------------------------------------ #

    def check_conservation(self, tol: float = 1e-6) -> None:
        """Raise if delivered + stranded volume does not match the demand.

        This must hold under every fault mix: faults re-route volume
        (dead composite paths fall back to regular paths) or delay it
        (failed circuits, straggling reconfigurations), but never destroy
        it.  Both comparisons are written so that a NaN fails them.
        """
        delivered = self.delivered_volume
        drift = abs(delivered + self.residual_total - self.total_demand)
        if not drift <= tol * max(1.0, self.total_demand):
            raise AssertionError(
                f"volume conservation violated: delivered={delivered} Mb, "
                f"residual={self.residual_total} Mb, demand={self.total_demand} Mb"
            )
        if not self.released_composite <= self.total_demand + tol * max(
            1.0, self.total_demand
        ):
            raise AssertionError(
                f"released composite volume ({self.released_composite} Mb) exceeds "
                f"the total demand ({self.total_demand} Mb)"
            )
