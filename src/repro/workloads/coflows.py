"""First-class coflow abstraction (§1).

The paper frames datacenter traffic "using the coflow abstraction, as a
collection of flows with a shared completion time" and classifies coflows
into four types:

(a) **many-to-many** — data-parallel stages, dataflow pipelines;
(b) **one-to-one**   — bulk transfers between distributed-FS nodes;
(c) **one-to-many**  — replication, distributed storage, query fan-out;
(d) **many-to-one**  — aggregation (MapReduce, Partition-Aggregate).

(c) and (d) are the delay-sensitive patterns composite paths exist for.

This module provides:

* :class:`Flow` / :class:`Coflow` — value objects with constructors per
  type;
* :class:`CoflowSet` — a collection that renders to a demand matrix,
  tracks per-coflow entry masks, and evaluates per-coflow completion times
  from a :class:`~repro.sim.metrics.SimulationResult`, so experiments can
  be phrased in the paper's own taxonomy.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.sim.metrics import SimulationResult
from repro.workloads.base import DemandSpec


class CoflowType(enum.Enum):
    """The paper's four coflow classes (§1)."""

    MANY_TO_MANY = "many-to-many"
    ONE_TO_ONE = "one-to-one"
    ONE_TO_MANY = "one-to-many"
    MANY_TO_ONE = "many-to-one"


@dataclass(frozen=True)
class Flow:
    """One point-to-point transfer inside a coflow."""

    source: int
    destination: int
    volume: float  # Mb

    def __post_init__(self) -> None:
        if self.source < 0 or self.destination < 0:
            raise ValueError("ports must be non-negative")
        if self.source == self.destination:
            raise ValueError(f"flow from port {self.source} to itself")
        if self.volume <= 0:
            raise ValueError(f"flow volume must be positive, got {self.volume}")


_coflow_ids = itertools.count()


@dataclass(frozen=True)
class Coflow:
    """A set of flows that completes when its last flow completes."""

    flows: "tuple[Flow, ...]"
    kind: CoflowType
    name: str = ""
    coflow_id: int = field(default_factory=lambda: next(_coflow_ids))

    def __post_init__(self) -> None:
        if not self.flows:
            raise ValueError("a coflow needs at least one flow")
        object.__setattr__(self, "flows", tuple(self.flows))
        if not self.name:
            object.__setattr__(self, "name", f"{self.kind.value}-{self.coflow_id}")

    # ------------------------------------------------------------------ #
    # constructors per paper type
    # ------------------------------------------------------------------ #

    @classmethod
    def one_to_one(cls, source: int, destination: int, volume: float, **kw) -> "Coflow":
        """(b): one big point-to-point transfer."""
        return cls(flows=(Flow(source, destination, volume),), kind=CoflowType.ONE_TO_ONE, **kw)

    @classmethod
    def one_to_many(
        cls, source: int, destinations: "list[int]", volumes: "list[float] | float", **kw
    ) -> "Coflow":
        """(c): one sender fanning out, e.g. replication."""
        volumes = _broadcast(volumes, len(destinations))
        flows = tuple(
            Flow(source, dst, vol) for dst, vol in zip(destinations, volumes)
        )
        return cls(flows=flows, kind=CoflowType.ONE_TO_MANY, **kw)

    @classmethod
    def many_to_one(
        cls, sources: "list[int]", destination: int, volumes: "list[float] | float", **kw
    ) -> "Coflow":
        """(d): aggregation into one receiver, e.g. a reduce task."""
        volumes = _broadcast(volumes, len(sources))
        flows = tuple(Flow(src, destination, vol) for src, vol in zip(sources, volumes))
        return cls(flows=flows, kind=CoflowType.MANY_TO_ONE, **kw)

    @classmethod
    def many_to_many(
        cls,
        sources: "list[int]",
        destinations: "list[int]",
        volume_per_flow: float,
        **kw,
    ) -> "Coflow":
        """(a): all-to-all between two port sets, e.g. a shuffle."""
        flows = tuple(
            Flow(src, dst, volume_per_flow)
            for src in sources
            for dst in destinations
            if src != dst
        )
        return cls(flows=flows, kind=CoflowType.MANY_TO_MANY, **kw)

    # ------------------------------------------------------------------ #

    @property
    def volume(self) -> float:
        """Total coflow volume (Mb)."""
        return float(sum(flow.volume for flow in self.flows))

    @property
    def ports(self) -> "set[int]":
        """All ports this coflow touches."""
        return {f.source for f in self.flows} | {f.destination for f in self.flows}

    def entry_mask(self, n_ports: int) -> np.ndarray:
        """Boolean n×n mask of the demand entries this coflow occupies."""
        mask = np.zeros((n_ports, n_ports), dtype=bool)
        for flow in self.flows:
            mask[flow.source, flow.destination] = True
        return mask

    def is_skewed(self) -> bool:
        """Whether this is a (c)/(d) coflow — composite-path territory."""
        return self.kind in (CoflowType.ONE_TO_MANY, CoflowType.MANY_TO_ONE)


def _broadcast(volumes, count: int) -> "list[float]":
    if np.isscalar(volumes):
        return [float(volumes)] * count
    volumes = list(volumes)
    if len(volumes) != count:
        raise ValueError(f"{len(volumes)} volumes for {count} endpoints")
    return [float(v) for v in volumes]


class CoflowSet:
    """A collection of coflows over one switch, with metric plumbing.

    Notes
    -----
    Flows of different coflows may share a (source, destination) cell; the
    demand matrix sums them, and a shared cell's finish time then counts
    towards every owning coflow (the cell drains once).
    """

    def __init__(self, n_ports: int, coflows: "list[Coflow] | None" = None) -> None:
        if n_ports < 2:
            raise ValueError(f"n_ports must be >= 2, got {n_ports}")
        self._n = int(n_ports)
        self._coflows: list[Coflow] = []
        for coflow in coflows or []:
            self.add(coflow)

    @property
    def n_ports(self) -> int:
        return self._n

    @property
    def coflows(self) -> "tuple[Coflow, ...]":
        return tuple(self._coflows)

    def add(self, coflow: Coflow) -> None:
        """Add a coflow (validating its ports fit this switch)."""
        if any(port >= self._n for port in coflow.ports):
            raise ValueError(
                f"coflow {coflow.name} uses ports beyond radix {self._n}"
            )
        self._coflows.append(coflow)

    def __len__(self) -> int:
        return len(self._coflows)

    def __iter__(self):
        return iter(self._coflows)

    # ------------------------------------------------------------------ #

    def demand(self) -> np.ndarray:
        """The summed n×n demand matrix (Mb)."""
        demand = np.zeros((self._n, self._n))
        for coflow in self._coflows:
            for flow in coflow.flows:
                demand[flow.source, flow.destination] += flow.volume
        return demand

    def to_spec(self) -> DemandSpec:
        """Render as a :class:`DemandSpec` with skew masks from (c)/(d)."""
        o2m = np.zeros((self._n, self._n), dtype=bool)
        m2o = np.zeros((self._n, self._n), dtype=bool)
        o2m_senders: list[int] = []
        m2o_receivers: list[int] = []
        for coflow in self._coflows:
            if coflow.kind is CoflowType.ONE_TO_MANY:
                o2m |= coflow.entry_mask(self._n)
                o2m_senders.extend({f.source for f in coflow.flows})
            elif coflow.kind is CoflowType.MANY_TO_ONE:
                m2o |= coflow.entry_mask(self._n)
                m2o_receivers.extend({f.destination for f in coflow.flows})
        return DemandSpec(
            demand=self.demand(),
            skewed_mask=o2m | m2o,
            o2m_mask=o2m,
            m2o_mask=m2o,
            o2m_senders=tuple(o2m_senders),
            m2o_receivers=tuple(m2o_receivers),
        )

    def completion_times(self, result: SimulationResult) -> "dict[str, float]":
        """Per-coflow completion time (ms) from a simulation result."""
        return {
            coflow.name: result.coflow_completion(coflow.entry_mask(self._n))
            for coflow in self._coflows
        }

    def average_completion(self, result: SimulationResult) -> float:
        """Mean coflow completion time — the metric coflow schedulers chase."""
        times = self.completion_times(result)
        return float(np.mean(list(times.values()))) if times else 0.0
