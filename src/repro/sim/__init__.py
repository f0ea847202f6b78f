"""Fluid, event-driven simulation of h-Switch and cp-Switch executions.

The paper's evaluation executes each schedule "online" (permutations in the
order the scheduler emitted them) on a fluid model of the switch: circuits
drain their VOQ at ``Co``, the EPS serves residual demand under per-port
capacity ``Ce``, and — for the cp-Switch — composite paths serve the
filtered demand at the CPSched rates with ``Ce*`` reserved on the EPS links
they traverse.  This package implements that model exactly, with per-entry
completion times and a piecewise-constant service-rate timeline for
windowed utilization metrics.
"""

from repro.sim.cp_sim import simulate_cp
from repro.sim.hybrid_sim import simulate_hybrid
from repro.sim.metrics import RateSegment, SimulationResult
from repro.sim.rates import max_min_fair_rates

__all__ = [
    "RateSegment",
    "SimulationResult",
    "max_min_fair_rates",
    "simulate_cp",
    "simulate_hybrid",
]
