"""Schedule containers shared by every scheduler in the library.

An OCS schedule is an ordered list of (configuration, duration) pairs
(§2.2): during entry *k* the OCS is configured as the (possibly partial)
permutation ``P_k`` for ``t_k`` milliseconds, preceded by a reconfiguration
penalty δ during which the OCS carries no traffic.  The EPS runs throughout.

Each entry holds its configuration as a *matching*: an ``(m,)`` integer
array whose entry ``i`` is the output port input ``i``'s circuit reaches,
or -1 if input ``i`` has no circuit.  The schedulers find their
configurations as matchings and hand them over, the entry validates one
in O(m) when it is built, and the simulator and the cp-Switch
interpretation read it; no m×m matrix is built anywhere on the way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import check_matching, check_nonnegative


@dataclass(frozen=True)
class ScheduleEntry:
    """One OCS configuration: a (partial) permutation held for a duration.

    Attributes
    ----------
    matching:
        The configuration's circuits as an ``(m,)`` matching (module
        docstring), stored as a read-only int64 copy.  For a plain h-Switch
        schedule m = n; for a schedule produced from a reduced cp-Switch
        demand m = n + k and inputs/outputs ``n`` to ``n + k - 1`` stand
        for the k composite paths per direction.
    duration:
        Time the configuration is held, ms (excluding the reconfiguration
        penalty, which the simulator charges separately).
    """

    matching: np.ndarray
    duration: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "matching", check_matching(self.matching))
        check_nonnegative("duration", self.duration)

    @property
    def size(self) -> int:
        """Port count m of the configuration."""
        return self.matching.shape[0]

    @property
    def circuits(self) -> "list[tuple[int, int]]":
        """The (input, output) pairs connected by this configuration."""
        rows = np.flatnonzero(self.matching >= 0)
        return list(zip(rows.tolist(), self.matching[rows].tolist()))


@dataclass(frozen=True)
class Schedule:
    """An ordered OCS schedule plus the reconfiguration penalty that applies
    between configurations.

    The convention throughout the library (matching the paper's accounting,
    where *m* configurations cost *m* reconfigurations of idle OCS time) is
    that **every** entry, including the first, is preceded by one δ penalty:
    the OCS starts unconfigured.
    """

    entries: "tuple[ScheduleEntry, ...]"
    reconfig_delay: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        check_nonnegative("reconfig_delay", self.reconfig_delay)
        sizes = {entry.size for entry in self.entries}
        if len(sizes) > 1:
            raise ValueError(f"schedule mixes configuration sizes: {sorted(sizes)}")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, index: int) -> ScheduleEntry:
        return self.entries[index]

    @property
    def n_configs(self) -> int:
        """Number of OCS configurations (the paper's 'OCS configurations')."""
        return len(self.entries)

    @property
    def circuit_time(self) -> float:
        """Total circuit-active time, ms (sum of durations)."""
        return float(sum(entry.duration for entry in self.entries))

    @property
    def reconfig_time(self) -> float:
        """Total OCS-idle reconfiguration time, ms."""
        return self.n_configs * self.reconfig_delay

    @property
    def makespan(self) -> float:
        """End-to-end OCS schedule length: circuit time plus penalties, ms."""
        return self.circuit_time + self.reconfig_time

    def served_volume(self, demand: np.ndarray, ocs_rate: float) -> float:
        """Volume (Mb) of ``demand`` this schedule can push through the OCS.

        Fluid accounting: entry (i, j) matched for duration t serves
        ``min(demand[i, j] residual, t * ocs_rate)``.  Used by tests and by
        Solstice's stopping rule; the simulator does the authoritative
        accounting.
        """
        residual = np.asarray(demand, dtype=np.float64).copy()
        served = 0.0
        for entry in self.entries:
            capacity = entry.duration * ocs_rate
            rows = np.flatnonzero(entry.matching >= 0)
            cols = entry.matching[rows]
            take = np.minimum(residual[rows, cols], capacity)
            residual[rows, cols] -= take
            served += float(take.sum())
        return served

    def reordered(self, order: "list[int]") -> "Schedule":
        """New schedule with entries permuted by ``order`` (offline execution,
        §4): same configurations, different execution order."""
        if sorted(order) != list(range(len(self.entries))):
            raise ValueError("order must be a permutation of entry indices")
        return Schedule(
            entries=tuple(self.entries[i] for i in order),
            reconfig_delay=self.reconfig_delay,
        )
