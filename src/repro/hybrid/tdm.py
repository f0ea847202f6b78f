"""Round-robin TDM scheduling — the Figure 1(a) strawman.

The paper's opening figure shows what a hybrid switch does to a
one-to-many coflow without clever scheduling: "the flows are serialized
with Time Division Multiplexing (TDM)" — the OCS visits each demanded
(input, output) pair in turn, paying δ per visit.  This scheduler makes
that strawman concrete:

* group the demanded entries into *rounds* of non-conflicting circuits
  (a greedy edge-coloring of the demand graph);
* hold every round for a fixed quantum (or until its largest residual
  drains, with ``adaptive=True``);
* cycle rounds until the leftover fits the EPS within the makespan (the
  same stopping rule Solstice uses here, for comparability).

It is intentionally naive — the useful baseline *below* Solstice/Eclipse:
examples use it to show how much scheduling intelligence contributes
before composite paths add their part.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hybrid.schedule import Schedule, ScheduleEntry
from repro.switch.params import SwitchParams
from repro.utils.validation import VOLUME_TOL, check_demand_matrix


@dataclass
class TdmScheduler:
    """Fixed-quantum round-robin circuit scheduler.

    Parameters
    ----------
    quantum:
        Hold time per round (ms); ``None`` derives it from the mean
        demanded entry (one quantum drains an average entry).
    adaptive:
        Size each round's duration to its largest residual entry instead
        of the fixed quantum (still no cross-round intelligence).
    max_cycles:
        Safety cap on full round-robin cycles.
    """

    quantum: "float | None" = None
    adaptive: bool = False
    max_cycles: int = 64
    name: str = "tdm"

    def schedule(self, demand: np.ndarray, params: SwitchParams) -> Schedule:
        """Serialize the demand over the OCS in round-robin rounds."""
        demand = check_demand_matrix(demand)
        residual = demand.copy()
        delta = params.reconfig_delay
        rounds = self._edge_coloring(residual > VOLUME_TOL)
        quantum = self._resolve_quantum(residual, params)

        entries: list[ScheduleEntry] = []
        makespan = 0.0
        for _cycle in range(self.max_cycles):
            port_load = 0.0
            if residual.size:
                port_load = max(residual.sum(axis=1).max(), residual.sum(axis=0).max())
            if port_load <= VOLUME_TOL or port_load / params.eps_rate <= makespan:
                break
            progressed = False
            for matching in rounds:
                rows = np.flatnonzero(matching >= 0)
                cols = matching[rows]
                live = residual[rows, cols] > VOLUME_TOL
                if not live.any():
                    continue
                active = np.full_like(matching, -1)
                active[rows[live]] = cols[live]
                if self.adaptive:
                    duration = float(residual[rows[live], cols[live]].max()) / params.ocs_rate
                else:
                    duration = quantum
                served = duration * params.ocs_rate
                residual[rows[live], cols[live]] = np.maximum(
                    residual[rows[live], cols[live]] - served, 0.0
                )
                entries.append(ScheduleEntry(matching=active, duration=duration))
                makespan += duration + delta
                progressed = True
            if not progressed:
                break
        return Schedule(entries=tuple(entries), reconfig_delay=delta)

    # ------------------------------------------------------------------ #

    def _resolve_quantum(self, demand: np.ndarray, params: SwitchParams) -> float:
        if self.quantum is not None:
            if self.quantum <= 0:
                raise ValueError(f"quantum must be positive, got {self.quantum}")
            return self.quantum
        values = demand[demand > VOLUME_TOL]
        if values.size == 0:
            return params.reconfig_delay  # arbitrary: nothing to schedule
        return float(values.mean()) / params.ocs_rate

    @staticmethod
    def _edge_coloring(mask: np.ndarray) -> "list[np.ndarray]":
        """Greedy partition of demanded entries into rounds, each a matching
        (see :mod:`repro.hybrid.schedule`)."""
        remaining = mask.copy()
        rounds: list[np.ndarray] = []
        while remaining.any():
            matching = np.full(mask.shape[0], -1, dtype=np.int64)
            used_cols = np.zeros(mask.shape[1], dtype=bool)
            rows, cols = np.nonzero(remaining)
            for i, j in zip(rows.tolist(), cols.tolist()):
                if matching[i] < 0 and not used_cols[j]:
                    matching[i] = j
                    used_cols[j] = True
                    remaining[i, j] = False
            rounds.append(matching)
        return rounds
