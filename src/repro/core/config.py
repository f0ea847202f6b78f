"""Demand-filtering configuration for the cp-Switch (§2.2, §4).

Two thresholds drive Algorithm 1:

* ``Bt`` (volume threshold, Mb) — entries **larger** than ``Bt`` are never
  sent over a composite path: a big entry is cheaper to serve with its own
  circuit than to time-share the composite path's per-endpoint EPS rate
  (intuition (b), §2.2).  The paper's heuristic ties it to the
  reconfiguration cost: ``Bt = α · (δ · Co)`` with α = 1 for the fast OCS
  (→ 2 Mb) and α = 0.1 for the slow OCS (→ 200 Mb).
* ``Rt`` (fan-out threshold, count) — only rows/columns with at least
  ``Rt`` surviving entries qualify: a row with 1–2 entries gains nothing
  from aggregation (intuition (a)).  The paper sets ``Rt = β · n`` with
  β = 0.7.

:class:`FilterConfig` captures (α, β) and resolves them against concrete
switch parameters; explicit ``Bt``/``Rt`` overrides are supported for the
tuning ablation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.switch.params import OcsClass, SwitchParams
from repro.utils.validation import check_positive

#: Paper default: ``Bt = α · δ · Co`` with α = 1 for the fast OCS.
DEFAULT_ALPHA_FAST: float = 1.0
#: Paper default: α = 0.1 for the slow OCS.
DEFAULT_ALPHA_SLOW: float = 0.1
#: Paper default: ``Rt = β · n`` with β = 0.7.
DEFAULT_BETA: float = 0.7


@dataclass(frozen=True)
class FilterConfig:
    """Resolves the (Rt, Bt) filtering thresholds of Algorithm 1.

    Attributes
    ----------
    alpha:
        Proportionality factor for ``Bt = alpha * delta * Co``.  ``None``
        selects the paper's OCS-class default (1.0 fast / 0.1 slow).
    beta:
        Fan-out fraction for ``Rt = ceil(beta * n)``, 0 < beta <= 1.
    volume_threshold:
        Explicit ``Bt`` override (Mb); bypasses ``alpha``.
    fanout_threshold:
        Explicit ``Rt`` override (count); bypasses ``beta``.
    """

    alpha: "float | None" = None
    beta: float = DEFAULT_BETA
    volume_threshold: "float | None" = None
    fanout_threshold: "int | None" = None

    def __post_init__(self) -> None:
        if self.alpha is not None:
            check_positive("alpha", self.alpha)
        if not (0.0 < self.beta <= 1.0):
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if self.volume_threshold is not None:
            check_positive("volume_threshold", self.volume_threshold)
        if self.fanout_threshold is not None and self.fanout_threshold < 1:
            raise ValueError(f"fanout_threshold must be >= 1, got {self.fanout_threshold}")

    def resolve_volume_threshold(self, params: SwitchParams) -> float:
        """``Bt`` in Mb for this switch (§4 'Tuning Heuristic')."""
        if self.volume_threshold is not None:
            return self.volume_threshold
        alpha = self.alpha
        if alpha is None:
            alpha = (
                DEFAULT_ALPHA_FAST
                if params.ocs_class is OcsClass.FAST
                else DEFAULT_ALPHA_SLOW
            )
        return alpha * params.reconfig_delay * params.ocs_rate

    def resolve_fanout_threshold(self, params: SwitchParams) -> int:
        """``Rt`` as an entry count for this switch."""
        if self.fanout_threshold is not None:
            return int(self.fanout_threshold)
        return max(1, math.ceil(self.beta * params.n_ports))
