"""Analytic completion-time lower bounds.

Simulation numbers mean more next to the physics: these bounds say how
fast *any* schedule could possibly deliver a demand matrix on a given
switch, so an experiment can report "cp-Switch is within x % of the
fluid optimum" instead of a bare millisecond count.

All bounds are per-port capacity arguments:

* :func:`eps_only_bound` — the busiest port through the EPS alone.
* :func:`hybrid_bound` — the busiest port through its EPS link plus its
  one OCS transceiver, which carries nothing before the first
  reconfiguration ends.  It holds for the h-Switch and the cp-Switch
  alike; :func:`cp_bound` is the same function.
* :func:`reconfiguration_bound` — δ times the minimum number of distinct
  configurations any all-OCS service of the demand needs (the maximum
  row/column *count* of entries too big for the EPS share, a Birkhoff
  argument).

Every bound is validated in the test suite against the simulator: no
simulated completion may undercut it.
"""

from __future__ import annotations

import numpy as np

from repro.switch.params import SwitchParams
from repro.utils.validation import VOLUME_TOL, check_demand_matrix


def _peak_port_load(demand: np.ndarray) -> float:
    """The busiest port's load (Mb): its row (egress) or column (ingress)."""
    return float(max(demand.sum(axis=1).max(), demand.sum(axis=0).max()))


def eps_only_bound(demand: np.ndarray, params: SwitchParams) -> float:
    """Completion lower bound (ms) using the EPS alone."""
    demand = check_demand_matrix(demand)
    return _peak_port_load(demand) / params.eps_rate


def hybrid_bound(demand: np.ndarray, params: SwitchParams) -> float:
    """Completion lower bound (ms) for any h-Switch or cp-Switch schedule.

    Let ``L`` be the busiest port's load.  By time ``t`` that port has
    moved at most ``Ce·t`` on its EPS link.  Its one OCS transceiver moves
    at most ``Co`` while it is up, and it is dark until the first
    reconfiguration δ ends, so it adds at most ``Co·max(0, t − δ)``.  A
    circuit and a composite path both use that transceiver (a composite
    path's other leg rides the EPS links, inside ``Ce``), so composite
    paths add no capacity.  Finishing therefore needs
    ``L ≤ Ce·t + Co·max(0, t − δ)``, whose least solution is

        ``t = min(L / Ce, (L + Co·δ) / (Ce + Co))``

    — the EPS-only time when the demand fits inside the first gap
    (``L ≤ Ce·δ``), else the two fabrics together after paying one δ.
    A degraded or faulted fabric only lowers capacity, so the bound holds
    under faults too.
    """
    demand = check_demand_matrix(demand)
    load = _peak_port_load(demand)
    ce, co = params.eps_rate, params.ocs_rate
    return min(load / ce, (load + co * params.reconfig_delay) / (ce + co))


#: The cp-Switch bound is :func:`hybrid_bound`: composite paths share each
#: port's one OCS transceiver and EPS link (see its docstring).
cp_bound = hybrid_bound


def reconfiguration_bound(demand: np.ndarray, params: SwitchParams, horizon: float) -> float:
    """Lower bound (ms) on OCS dark time if everything rides the OCS.

    If the demand were served by circuits alone within ``horizon``, each
    port's distinct partners need distinct configurations, so at least
    ``max row/column non-zero count`` configurations — and that many δ of
    dark time — are required.  (The h-Switch escapes via the EPS for small
    entries; the cp-Switch via composite paths.  The bound quantifies what
    they are escaping from.)
    """
    demand = check_demand_matrix(demand)
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")
    nonzero = demand > VOLUME_TOL
    fanout = max(int(nonzero.sum(axis=1).max()), int(nonzero.sum(axis=0).max()))
    return float(fanout * params.reconfig_delay)


def efficiency(completion_time: float, bound: float) -> float:
    """``bound / completion`` — 1.0 means the schedule achieved the bound."""
    if completion_time <= 0:
        return 1.0 if bound <= 0 else 0.0
    return min(1.0, bound / completion_time)
