"""Physical parameters of the hybrid / composite-path switch.

The paper (§2.1, §3) evaluates a switch with:

* ``Ce = 10 Gbps`` electronic packet switch (EPS) port rate,
* ``Co = 100 Gbps`` optical circuit switch (OCS) port rate (1:10 ratio),
* a *Fast OCS* with reconfiguration penalty ``δ = 20 µs`` (2D MEMS
  wavelength-selective switches) and a *Slow OCS* with ``δ = 20 ms``
  (3D MEMS),
* radix (port count) n ∈ {32, 64, 128}.

Composite paths add a per-EPS-link bandwidth budget ``Ce* ≤ Ce`` (§2.3,
"EPS Reservation") that the scheduler hands to CPSched instead of ``Ce``.
The paper's evaluation does not reserve headroom, so ``Ce*`` defaults to
``Ce``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.utils.units import us_to_ms
from repro.utils.validation import check_nonnegative, check_positive

#: Fast (2D MEMS) OCS reconfiguration penalty, ms.
FAST_OCS_DELTA_MS: float = us_to_ms(20.0)

#: Slow (3D MEMS) OCS reconfiguration penalty, ms.
SLOW_OCS_DELTA_MS: float = 20.0

#: Eclipse scheduling-window lengths the paper pairs with each OCS class, ms.
FAST_OCS_WINDOW_MS: float = 1.0
SLOW_OCS_WINDOW_MS: float = 100.0

#: Reconfiguration penalties at or below this (ms) make an OCS "fast".
FAST_OCS_MAX_DELTA_MS: float = 1.0


class OcsClass(enum.Enum):
    """The two OCS technology classes evaluated in the paper."""

    FAST = "fast"
    SLOW = "slow"

    @property
    def reconfig_delay(self) -> float:
        """Reconfiguration penalty δ in ms."""
        return FAST_OCS_DELTA_MS if self is OcsClass.FAST else SLOW_OCS_DELTA_MS

    @property
    def eclipse_window(self) -> float:
        """Eclipse scheduling window W in ms (§3.1)."""
        return FAST_OCS_WINDOW_MS if self is OcsClass.FAST else SLOW_OCS_WINDOW_MS


@dataclass(frozen=True)
class SwitchParams:
    """Immutable description of one hybrid / cp-Switch instance.

    Attributes
    ----------
    n_ports:
        Switch radix n — number of sender and receiver ports.
    eps_rate:
        EPS link rate ``Ce`` in Mb/ms (== Gbps).
    ocs_rate:
        OCS link rate ``Co`` in Mb/ms (== Gbps).
    reconfig_delay:
        OCS reconfiguration penalty ``δ`` in ms.  During reconfiguration no
        data crosses the OCS (§2.1).
    eps_budget:
        ``Ce*`` — per-EPS-link bandwidth budget available to composite
        paths (§2.3).  ``None`` means "no reservation", i.e. ``Ce* = Ce``.
    """

    n_ports: int
    eps_rate: float = 10.0
    ocs_rate: float = 100.0
    reconfig_delay: float = FAST_OCS_DELTA_MS
    eps_budget: float | None = field(default=None)

    def __post_init__(self) -> None:
        if int(self.n_ports) != self.n_ports or self.n_ports < 2:
            raise ValueError(f"n_ports must be an integer >= 2, got {self.n_ports}")
        check_positive("eps_rate", self.eps_rate)
        check_positive("ocs_rate", self.ocs_rate)
        check_nonnegative("reconfig_delay", self.reconfig_delay)
        if self.eps_rate > self.ocs_rate:
            raise ValueError(
                "hybrid switching assumes the EPS is the low-bandwidth fabric: "
                f"eps_rate={self.eps_rate} > ocs_rate={self.ocs_rate}"
            )
        if self.eps_budget is not None:
            check_positive("eps_budget", self.eps_budget)
            if self.eps_budget > self.eps_rate:
                raise ValueError(
                    f"eps_budget (Ce*={self.eps_budget}) cannot exceed eps_rate (Ce={self.eps_rate})"
                )

    @property
    def ocs_class(self) -> OcsClass:
        """The paper's OCS class for this δ: fast when ``δ ≤ 1 ms``."""
        if self.reconfig_delay <= FAST_OCS_MAX_DELTA_MS:
            return OcsClass.FAST
        return OcsClass.SLOW

    @property
    def effective_eps_budget(self) -> float:
        """``Ce*`` with the "no reservation" default resolved to ``Ce``."""
        return self.eps_rate if self.eps_budget is None else self.eps_budget

    @property
    def rate_ratio(self) -> float:
        """OCS-to-EPS speedup ``Co / Ce`` (10 in the paper)."""
        return self.ocs_rate / self.eps_rate

    def with_ports(self, n_ports: int) -> "SwitchParams":
        """Copy of these parameters at a different radix."""
        return replace(self, n_ports=n_ports)

    def with_budget(self, eps_budget: float | None) -> "SwitchParams":
        """Copy of these parameters with a different composite-path budget."""
        return replace(self, eps_budget=eps_budget)


def fast_ocs_params(n_ports: int, *, eps_rate: float = 10.0, ocs_rate: float = 100.0) -> SwitchParams:
    """Paper's Fast-OCS switch: ``δ = 20 µs`` (§3, 2D MEMS)."""
    return SwitchParams(
        n_ports=n_ports,
        eps_rate=eps_rate,
        ocs_rate=ocs_rate,
        reconfig_delay=FAST_OCS_DELTA_MS,
    )


def slow_ocs_params(n_ports: int, *, eps_rate: float = 10.0, ocs_rate: float = 100.0) -> SwitchParams:
    """Paper's Slow-OCS switch: ``δ = 20 ms`` (§3, 3D MEMS)."""
    return SwitchParams(
        n_ports=n_ports,
        eps_rate=eps_rate,
        ocs_rate=ocs_rate,
        reconfig_delay=SLOW_OCS_DELTA_MS,
    )


def ocs_params(ocs: str, n_ports: int) -> SwitchParams:
    """Switch parameters by OCS class name (``"fast"`` / ``"slow"``).

    The string form is what journaled trial specs store, so resumable
    sweeps rebuild parameters through this helper.
    """
    if ocs == "fast":
        return fast_ocs_params(n_ports)
    if ocs == "slow":
        return slow_ocs_params(n_ports)
    raise ValueError(f"unknown OCS class {ocs!r}; expected 'fast' or 'slow'")
