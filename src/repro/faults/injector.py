"""Stateful realization of a :class:`~repro.faults.plan.FaultPlan`.

One :class:`FaultInjector` accompanies one simulation run.  The simulators
query it at each decision point (a reconfiguration about to start, a
configuration's circuits about to establish, a composite path about to be
granted) and it answers from seeded draws, accumulating a
:class:`~repro.faults.plan.FaultSummary` of everything it injected.

Zero-rate channels never touch the generator, so a null plan asks no
entropy at all and the simulation is bit-identical to a fault-free one;
adding draws for one channel does not shift the draws of another run with
the same plan (the query sequence is fixed by the schedule being
executed).
"""

from __future__ import annotations

import numpy as np

from repro.faults.plan import FaultPlan, FaultSummary


class FaultInjector:
    """Per-run fault oracle; construct via :meth:`FaultPlan.injector`.

    Parameters
    ----------
    plan:
        The fault plan to realize.
    n_ports:
        Switch radix (sizes the per-port EPS degradation draw).
    stream:
        Sub-stream index; realizations with different streams are
        statistically independent but reproducible from the same plan.
    """

    def __init__(self, plan: FaultPlan, n_ports: int, stream: int = 0) -> None:
        if n_ports < 2:
            raise ValueError(f"n_ports must be >= 2, got {n_ports}")
        self.plan = plan
        self.n_ports = int(n_ports)
        self.stream = int(stream)
        self._rng = np.random.default_rng(
            np.random.SeedSequence(entropy=plan.seed, spawn_key=(self.stream,))
        )
        self.summary = FaultSummary()
        self.dead_o2m: "set[int]" = set()
        self.dead_m2o: "set[int]" = set()
        #: (direction, port) pairs already drawn, dead or not.
        self._composite_drawn: "set[tuple[str, int]]" = set()
        self._eps_scale = self._draw_eps_degradation()

    # ------------------------------------------------------------------ #
    # per-run state
    # ------------------------------------------------------------------ #

    def _draw_eps_degradation(self) -> "np.ndarray | None":
        plan = self.plan
        if plan.eps_degradation_rate == 0.0:
            return None
        degraded = self._rng.random(self.n_ports) < plan.eps_degradation_rate
        if not degraded.any():
            return None
        scale = np.ones(self.n_ports)
        scale[degraded] = plan.eps_degradation_factor
        self.summary.degraded_eps_ports = tuple(
            int(p) for p in np.nonzero(degraded)[0]
        )
        return scale

    @property
    def eps_port_scale(self) -> "np.ndarray | None":
        """Per-port EPS capacity factors, or ``None`` when nothing is degraded."""
        return self._eps_scale

    # ------------------------------------------------------------------ #
    # per-configuration queries
    # ------------------------------------------------------------------ #

    def reconfigure(self, delta: float) -> "tuple[float, bool]":
        """Outcome of one OCS reconfiguration attempt.

        Returns ``(actual_delay, established)``: the time the fabric spends
        dark, and whether the configuration comes up at all.  A failed
        reconfiguration still burns the nominal δ; a straggler multiplies
        it by the plan's ``straggle_factor``.
        """
        plan = self.plan
        if plan.reconfig_failure_rate > 0.0:
            if self._rng.random() < plan.reconfig_failure_rate:
                self.summary.reconfig_failures += 1
                return delta, False
        if plan.reconfig_straggle_rate > 0.0:
            if self._rng.random() < plan.reconfig_straggle_rate:
                self.summary.reconfig_straggles += 1
                extra = delta * (plan.straggle_factor - 1.0)
                self.summary.extra_reconfig_delay += extra
                return delta + extra, True
        return delta, True

    def surviving_circuits(self, circuits: "np.ndarray | None") -> "np.ndarray | None":
        """Drop each circuit of an established configuration independently.

        ``circuits`` is the configuration's matching (entry ``i`` the
        output of input ``i``'s circuit, -1 for none).  Returns it
        unchanged when the channel is off (keeping the fault-free path
        bit-identical); otherwise a copy with failed circuits set to -1.
        """
        if circuits is None or self.plan.circuit_failure_rate == 0.0:
            return circuits
        # One draw per circuit, in ascending input-port order: the
        # row-major order of the permutation matrix's circuits, so a
        # seeded plan fails the same circuits it did on matrices.
        inputs = np.flatnonzero(np.asarray(circuits) >= 0)
        if inputs.size == 0:
            return circuits
        failed = self._rng.random(inputs.size) < self.plan.circuit_failure_rate
        if not failed.any():
            return circuits
        survived = np.array(circuits, copy=True)
        survived[inputs[failed]] = -1
        self.summary.failed_circuits += int(failed.sum())
        return survived

    def composite_port_up(self, kind: str, port: int) -> bool:
        """Whether the composite path of ``(kind, port)`` is alive.

        The outage draw happens at most once per (direction, port); a dead
        port stays dead for the rest of the run — the paper's composite
        links are physical OCS ports, not per-configuration resources.
        """
        if kind not in ("o2m", "m2o"):
            raise ValueError(f"kind must be 'o2m' or 'm2o', got {kind!r}")
        dead = self.dead_o2m if kind == "o2m" else self.dead_m2o
        if port in dead:
            return False
        rate = (
            self.plan.o2m_outage_rate if kind == "o2m" else self.plan.m2o_outage_rate
        )
        if rate == 0.0 or (kind, port) in self._composite_drawn:
            return True
        self._composite_drawn.add((kind, port))
        if self._rng.random() < rate:
            dead.add(port)
            if kind == "o2m":
                self.summary.dead_o2m_ports = tuple(sorted(self.dead_o2m))
            else:
                self.summary.dead_m2o_ports = tuple(sorted(self.dead_m2o))
            return False
        return True

    def mark_dead(self, kind: str, ports) -> None:
        """Pre-seed known-dead composite ports (no draw will be made).

        The epoch controller carries outages across epochs: a port that
        died in epoch *e* must stay dead in epoch *e+1* even though that
        epoch uses a fresh injector.
        """
        if kind not in ("o2m", "m2o"):
            raise ValueError(f"kind must be 'o2m' or 'm2o', got {kind!r}")
        dead = self.dead_o2m if kind == "o2m" else self.dead_m2o
        for port in ports:
            dead.add(int(port))
            self._composite_drawn.add((kind, int(port)))

    def note_released(self, volume: float) -> None:
        """Record filtered volume released off a dead composite path."""
        self.summary.released_composite += float(volume)


def as_injector(
    faults: "FaultPlan | FaultInjector | None", n_ports: int
) -> "FaultInjector | None":
    """Normalize a simulator's ``faults`` argument.

    ``None`` stays ``None`` (the fault-free fast path); a plan is realized
    with stream 0; an injector passes through so callers (the epoch
    controller) can share state across calls.
    """
    if faults is None:
        return None
    if isinstance(faults, FaultPlan):
        return faults.injector(n_ports)
    if isinstance(faults, FaultInjector):
        if faults.n_ports != n_ports:
            raise ValueError(
                f"injector was built for {faults.n_ports} ports, switch has {n_ports}"
            )
        return faults
    raise TypeError(
        f"faults must be a FaultPlan, FaultInjector or None, got {type(faults).__name__}"
    )
