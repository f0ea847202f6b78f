"""Seedable fault plans for imperfect cp-Switch / h-Switch hardware.

The paper evaluates a perfect fabric: every OCS reconfiguration lands on
time, every circuit establishes, every composite port stays up, every EPS
port runs at its line rate.  A :class:`FaultPlan` describes the ways a real
2D/3D MEMS fabric misbehaves — and nothing else; the *consequences* live in
the simulators, which consume the plan through a
:class:`~repro.faults.injector.FaultInjector`:

* **reconfiguration failures** — the OCS burns the δ penalty but none of
  the configuration's circuits (or composite grants) establish; the EPS
  keeps serving while the schedule loses the whole hold phase;
* **reconfiguration stragglers** — the reconfiguration completes but takes
  ``straggle_factor × δ``, eating into the schedule;
* **circuit setup failures** — individual circuits of an otherwise
  successful configuration come up dark and serve zero rate;
* **composite-path port outages** — a granted one-to-many / many-to-one
  composite port fails permanently; demand parked on the dead path *falls
  back to the regular EPS/OCS paths* (graceful cp-Switch → h-Switch
  degradation — volume is never lost);
* **EPS port rate degradation** — a port's electronic line runs at a
  fraction of ``Ce`` for the whole run.

All draws are made by a generator seeded from :attr:`FaultPlan.seed`, so a
plan replays identically; the all-zero plan (:meth:`FaultPlan.is_null`)
injects nothing and executes bit-identically to a fault-free simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


def _check_probability(name: str, value: float) -> None:
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class FaultPlan:
    """Immutable, seedable description of the faults to inject into one run.

    Attributes
    ----------
    seed:
        Root seed for every fault draw; two runs with the same plan see the
        same fault realization for the same sequence of injection queries.
    reconfig_failure_rate:
        Probability that an OCS reconfiguration fails outright.  The δ
        penalty is still paid, but the configuration never establishes:
        its circuits and composite grants serve zero rate for the whole
        hold phase (the EPS keeps serving).
    reconfig_straggle_rate:
        Probability that a (successful) reconfiguration straggles, taking
        ``straggle_factor`` times the nominal δ.
    straggle_factor:
        Finite multiplier (≥ 1) applied to δ for a straggling reconfiguration.
    circuit_failure_rate:
        Per-circuit probability that one circuit of an established
        configuration fails to set up and serves zero rate.
    o2m_outage_rate, m2o_outage_rate:
        Probability — drawn once per (direction, port), on first grant —
        that the composite-path port fails *permanently*.  Filtered demand
        parked on a dead path is released back to the regular paths.
    eps_degradation_rate:
        Per-port probability (drawn once per run) that an EPS port is
        degraded for the whole run.
    eps_degradation_factor:
        Fraction of ``Ce`` a degraded EPS port still delivers, in (0, 1]
        (exactly 0 would leave the port's queues undrainable forever).
    """

    seed: int = 0
    reconfig_failure_rate: float = 0.0
    reconfig_straggle_rate: float = 0.0
    straggle_factor: float = 4.0
    circuit_failure_rate: float = 0.0
    o2m_outage_rate: float = 0.0
    m2o_outage_rate: float = 0.0
    eps_degradation_rate: float = 0.0
    eps_degradation_factor: float = 0.5

    def __post_init__(self) -> None:
        _check_probability("reconfig_failure_rate", self.reconfig_failure_rate)
        _check_probability("reconfig_straggle_rate", self.reconfig_straggle_rate)
        _check_probability("circuit_failure_rate", self.circuit_failure_rate)
        _check_probability("o2m_outage_rate", self.o2m_outage_rate)
        _check_probability("m2o_outage_rate", self.m2o_outage_rate)
        _check_probability("eps_degradation_rate", self.eps_degradation_rate)
        # A factor of exactly 0 would leave a port's VOQ undrainable and the
        # open-ended final drain spinning forever; degradation must leave a
        # trickle.
        if not (0.0 < self.eps_degradation_factor <= 1.0):
            raise ValueError(
                "eps_degradation_factor must be in (0, 1], "
                f"got {self.eps_degradation_factor}"
            )
        if not 1.0 <= self.straggle_factor < float("inf"):  # NaN fails too
            raise ValueError(
                f"straggle_factor must be finite and >= 1, got {self.straggle_factor}"
            )

    @property
    def is_null(self) -> bool:
        """Whether this plan can never inject a fault."""
        return (
            self.reconfig_failure_rate == 0.0
            and self.reconfig_straggle_rate == 0.0
            and self.circuit_failure_rate == 0.0
            and self.o2m_outage_rate == 0.0
            and self.m2o_outage_rate == 0.0
            and self.eps_degradation_rate == 0.0
        )

    def with_seed(self, seed: int) -> "FaultPlan":
        """Copy of this plan with a different root seed (new realization)."""
        return replace(self, seed=seed)

    def injector(self, n_ports: int, stream: int = 0) -> "FaultInjector":
        """Realize this plan for one run on an ``n_ports`` switch.

        ``stream`` derives an independent fault realization from the same
        plan (the epoch controller passes the epoch index so each epoch
        sees fresh faults while the whole trajectory replays from one
        seed).
        """
        from repro.faults.injector import FaultInjector

        return FaultInjector(self, n_ports, stream=stream)

    @classmethod
    def uniform(cls, rate: float, seed: int = 0) -> "FaultPlan":
        """A plan applying ``rate`` to every fault channel at once.

        The degradation-curve experiments sweep this single knob: it
        couples reconfiguration failures/stragglers, circuit setup
        failures, composite-port outages, and EPS degradation to one
        severity parameter.
        """
        return cls(
            seed=seed,
            reconfig_failure_rate=rate,
            reconfig_straggle_rate=rate,
            circuit_failure_rate=rate,
            o2m_outage_rate=rate,
            m2o_outage_rate=rate,
            eps_degradation_rate=rate,
        )


@dataclass
class FaultSummary:
    """What actually happened during one faulted run.

    Attached to :class:`repro.sim.metrics.SimulationResult` so callers can
    correlate the degradation they measure with the faults that caused it.
    """

    reconfig_failures: int = 0
    reconfig_straggles: int = 0
    extra_reconfig_delay: float = 0.0
    failed_circuits: int = 0
    dead_o2m_ports: "tuple[int, ...]" = ()
    dead_m2o_ports: "tuple[int, ...]" = ()
    degraded_eps_ports: "tuple[int, ...]" = ()
    released_composite: float = 0.0

    @property
    def composite_outages(self) -> int:
        """Number of composite-path ports that failed permanently."""
        return len(self.dead_o2m_ports) + len(self.dead_m2o_ports)

    @property
    def total_events(self) -> int:
        """Total count of discrete fault events this run."""
        return (
            self.reconfig_failures
            + self.reconfig_straggles
            + self.failed_circuits
            + self.composite_outages
            + len(self.degraded_eps_ports)
        )
