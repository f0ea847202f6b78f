"""Workload protocol and the demand-specification container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.switch.params import OcsClass, SwitchParams
from repro.utils.validation import check_demand_matrix


def volume_scale_for(params: SwitchParams) -> float:
    """The paper's volume scale for this OCS class (1× fast, 100× slow).

    §3.2/§3.3 use demands 100× larger with the slow OCS so that serving a
    flow stays comparable to the 1000× larger reconfiguration penalty.
    """
    return 1.0 if params.ocs_class is OcsClass.FAST else 100.0


@dataclass(frozen=True)
class DemandSpec:
    """A generated demand plus the provenance experiments need.

    Attributes
    ----------
    demand:
        The n×n demand matrix ``D`` (Mb).
    skewed_mask:
        Boolean n×n mask of entries belonging to the one-to-many /
        many-to-one coflows — the subset whose coflow completion the
        figures report as "o2m" / "m2o".
    o2m_mask, m2o_mask:
        The skewed mask split by direction.
    o2m_senders, m2o_receivers:
        The ports hosting the skewed coflows.
    """

    demand: np.ndarray
    skewed_mask: np.ndarray
    o2m_mask: np.ndarray
    m2o_mask: np.ndarray
    o2m_senders: "tuple[int, ...]" = field(default=())
    m2o_receivers: "tuple[int, ...]" = field(default=())

    def __post_init__(self) -> None:
        demand = check_demand_matrix(self.demand)
        demand.setflags(write=False)
        object.__setattr__(self, "demand", demand)
        for name in ("skewed_mask", "o2m_mask", "m2o_mask"):
            mask = np.asarray(getattr(self, name), dtype=bool)
            if mask.shape != demand.shape:
                raise ValueError(f"{name} shape {mask.shape} != demand shape {demand.shape}")
            mask.setflags(write=False)
            object.__setattr__(self, name, mask)

    @property
    def n_ports(self) -> int:
        return self.demand.shape[0]

    @property
    def total_volume(self) -> float:
        return float(self.demand.sum())

    @property
    def skewed_volume(self) -> float:
        """Volume (Mb) of the skewed o2m/m2o coflows."""
        return float(self.demand[self.skewed_mask].sum())

    @property
    def background_mask(self) -> np.ndarray:
        """Entries that are background (non-skewed) demand."""
        return (self.demand > 0) & ~self.skewed_mask


def empty_spec(n_ports: int) -> DemandSpec:
    """An all-zero demand spec (useful as a combination identity)."""
    zeros = np.zeros((n_ports, n_ports))
    mask = np.zeros((n_ports, n_ports), dtype=bool)
    return DemandSpec(
        demand=zeros, skewed_mask=mask, o2m_mask=mask.copy(), m2o_mask=mask.copy()
    )


def merge_specs(first: DemandSpec, second: DemandSpec) -> DemandSpec:
    """Sum two demand specs entry-wise, unioning masks and provenance."""
    if first.n_ports != second.n_ports:
        raise ValueError(
            f"cannot merge specs with {first.n_ports} and {second.n_ports} ports"
        )
    return DemandSpec(
        demand=first.demand + second.demand,
        skewed_mask=first.skewed_mask | second.skewed_mask,
        o2m_mask=first.o2m_mask | second.o2m_mask,
        m2o_mask=first.m2o_mask | second.m2o_mask,
        o2m_senders=tuple(first.o2m_senders) + tuple(second.o2m_senders),
        m2o_receivers=tuple(first.m2o_receivers) + tuple(second.m2o_receivers),
    )


@runtime_checkable
class Workload(Protocol):
    """Anything that can generate demand matrices for a given radix."""

    def generate(self, n_ports: int, rng: np.random.Generator) -> DemandSpec:
        """Draw one random demand for an ``n_ports``-radix switch."""
        ...
