"""Max-min fair rate allocation for the EPS fabric.

The EPS can send from any port to any port simultaneously (§1), limited by
each input and output link's rate ``Ce``.  Among the demand entries it
serves concurrently, the simulator allocates **max-min fair** rates — the
classic water-filling allocation, which is what per-VOQ fair queueing on a
crossbar converges to.  (The packet-level cross-check in
:mod:`repro.sim.packetlevel` validates the abstraction.)

The algorithm is vectorized progressive filling: all unfrozen flows grow at
the same rate until some port saturates; flows through saturated ports
freeze; repeat.  Each round saturates at least one port, so there are at
most ``2n`` rounds of O(E) numpy work.

Inputs and outputs share one port axis (inputs first), so a round divides,
steps and tests saturation once over that axis instead of once per side;
the per-port flow counts are carried from round to round, losing only the
flows that froze, instead of recounted.  A port whose flows have all
frozen gets an infinite remainder, which keeps it out of every later share
and saturation test without a mask.  Every flow grows by the same steps
until it freezes, so a flow's rate is the running sum of the steps up to
its round, added in the same order as per-flow accumulation would.
"""

from __future__ import annotations

import numpy as np

_RATE_TOL = 1e-12


def max_min_fair_rates(
    rows: np.ndarray,
    cols: np.ndarray,
    in_capacity: np.ndarray,
    out_capacity: np.ndarray,
) -> np.ndarray:
    """Max-min fair rates for flows ``(rows[k], cols[k])``.

    Parameters
    ----------
    rows, cols:
        Flow endpoints: flow ``k`` goes from input ``rows[k]`` to output
        ``cols[k]``.  Multiple flows may share endpoints.
    in_capacity, out_capacity:
        Per-port available capacities (Mb/ms).  May be zero (e.g. a link
        fully reserved by a composite path), in which case flows through
        that port get rate 0.

    Returns
    -------
    Array of per-flow rates (Mb/ms), same length as ``rows``.  The
    allocation saturates every bottleneck port: no flow can be sped up
    without slowing a flow of equal or lower rate.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if rows.shape != cols.shape or rows.ndim != 1:
        raise ValueError("rows and cols must be 1-D arrays of equal length")
    n_flows = rows.size
    rates = np.zeros(n_flows, dtype=np.float64)
    if n_flows == 0:
        return rates

    n_in = int(in_capacity.shape[0])
    n_ports = n_in + int(out_capacity.shape[0])
    remaining = np.concatenate((in_capacity, out_capacity), dtype=np.float64)
    if not remaining.min() >= -_RATE_TOL:
        raise ValueError("capacities must be non-negative")
    np.maximum(remaining, 0.0, out=remaining)

    # Each active flow's input and output port on the shared axis.
    active = np.arange(n_flows)
    ins = rows
    outs = cols + n_in
    count = np.bincount(np.concatenate((ins, outs)), minlength=n_ports)
    remaining[count == 0] = np.inf
    level = 0.0
    for _round in range(n_ports + 1):
        step = (remaining / count).min()
        if _RATE_TOL < step < np.inf:
            level += step
            # Rounding can leave a port a hair below zero; such a port
            # saturates below, so it leaves every later round, clamped or not.
            remaining -= step * count
        # Freeze flows through ports that are now saturated (or whose
        # remaining capacity is below one per-flow tolerance share — such
        # ports would otherwise stall the filling loop with sub-tolerance
        # steps forever).
        saturated = remaining <= _RATE_TOL * count
        frozen = saturated[ins] | saturated[outs]
        n_frozen = np.count_nonzero(frozen)
        if n_frozen in (0, active.size):
            # Either every flow froze, or none did: then no port saturated
            # and all remaining shares were infinite, which cannot happen
            # while counts are positive (a defensive break).
            break
        rates[active[frozen]] = level
        keep = ~frozen
        active = active[keep]
        count -= np.bincount(
            np.concatenate((ins[frozen], outs[frozen])), minlength=n_ports
        )
        ins = ins[keep]
        outs = outs[keep]
        remaining[count == 0] = np.inf
    rates[active] = level
    return rates


#: The most hub ports a :class:`HubLeafQuotient` may have.  Each hub adds
#: nodes and classes that the scalar filling walks every round and the
#: engine's class loop every event, so past a few dozen hub ports the
#: port-level fill is cheaper; the bound sits below the crossover measured
#: at radix 128 (docs/performance.md).
QUOTIENT_MAX_HUBS = 16


class HubLeafQuotient:
    """Max-min fair rates of flows under one capacity on every port, solved
    on the flow graph's hub/leaf quotient.

    A *hub* is a port with two or more flows; it is a node of its own.
    The one-flow inputs whose flow reaches output hub ``h`` form one node,
    as do the one-flow outputs that input hub ``h`` reaches; the flows
    between two one-flow ports (isolated pairs) put their inputs in one
    node and their outputs in another.  A *class* is the set of flows
    between two nodes: a hub-to-hub flow, a leaf node's flows, or the
    isolated pairs.

    Every port of a node has the same capacity and, in every round of
    progressive filling, the same number of unfrozen flows: a hub node is
    one port, and each port of a leaf node carries one flow, frozen in the
    round its class freezes.  So :meth:`rates` fills the nodes with Python
    scalars, and each node's shares, steps, remainders and saturation
    tests are the numbers :func:`max_min_fair_rates` computes for each of
    its ports, by the same operations in the same order: every class gets
    the bits each of its flows gets there.

    Draining flows keeps the partition valid: a drained leaf leaves its
    node, and a hub stays a node of its own at any count.  :meth:`drain`
    records it; ports never gain flows.
    """

    def __init__(
        self,
        flow_class: np.ndarray,
        ends: "list[tuple[int, int]]",
        hub: "list[bool]",
        capacity: float,
    ) -> None:
        #: Each flow's class, in flow order.
        self.flow_class = flow_class
        #: Each class's live flow count.
        self.sizes = np.bincount(flow_class, minlength=len(ends)).tolist()
        self._ends = ends
        self._hub = hub
        self._capacity = float(capacity)

    def drain(self, cls: int, count: int) -> None:
        """Remove ``count`` drained flows from class ``cls``."""
        self.sizes[cls] -= count

    def rates(self) -> "list[float]":
        """Each class's max-min fair rate over its live flows (0.0 for a
        class with none)."""
        sizes = self.sizes
        ends = self._ends
        hub = self._hub
        # Unfrozen flows per port of each node: a hub counts its classes'
        # flows, a leaf node's ports one each.
        count = [0] * len(hub)
        active = []
        for cls, size in enumerate(sizes):
            if size:
                active.append(cls)
                a, b = ends[cls]
                count[a] += size if hub[a] else 1
                count[b] += size if hub[b] else 1
        rates = [0.0] * len(sizes)
        if not active:
            return rates
        nodes = [node for node, n_flows in enumerate(count) if n_flows]
        remaining = [self._capacity] * len(count)
        level = 0.0
        while True:
            step = min([remaining[node] / count[node] for node in nodes])
            if _RATE_TOL < step < np.inf:
                level += step
                for node in nodes:
                    remaining[node] -= step * count[node]
            saturated = [False] * len(count)
            for node in nodes:
                saturated[node] = remaining[node] <= _RATE_TOL * count[node]
            frozen, thawed = [], []
            for cls in active:
                a, b = ends[cls]
                (frozen if saturated[a] or saturated[b] else thawed).append(cls)
            if not frozen or not thawed:
                break
            for cls in frozen:
                rates[cls] = level
                a, b = ends[cls]
                count[a] -= sizes[cls] if hub[a] else 1
                count[b] -= sizes[cls] if hub[b] else 1
            active = thawed
            nodes = [node for node in nodes if count[node]]
        for cls in active:
            rates[cls] = level
        return rates


def hub_leaf_quotient(
    rows: np.ndarray, cols: np.ndarray, capacity: float
) -> "HubLeafQuotient | None":
    """The hub/leaf quotient of flows ``(rows[k], cols[k])``, or ``None``
    when the graph has more than :data:`QUOTIENT_MAX_HUBS` hub ports.

    Flows must be distinct ``(row, col)`` pairs, as a demand matrix's
    entries are, and every port's capacity ``capacity``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    in_hub = np.bincount(rows) >= 2
    out_hub = np.bincount(cols) >= 2
    if np.count_nonzero(in_hub) + np.count_nonzero(out_hub) > QUOTIENT_MAX_HUBS:
        return None
    # One key per class: hub to hub (row, col); input hub to its leaves;
    # leaves to an output hub; isolated pairs.
    span = max(in_hub.size, out_hub.size)
    row_hub = in_hub[rows]
    col_hub = out_hub[cols]
    keys = np.where(
        row_hub,
        np.where(col_hub, rows * span + cols, span * span + rows),
        np.where(col_hub, span * (span + 1) + cols, span * (span + 2)),
    )
    keys, flow_class = np.unique(keys, return_inverse=True)
    nodes: "dict[tuple[str, int], int]" = {}
    hub: "list[bool]" = []

    def node(name: "tuple[str, int]", is_hub: bool) -> int:
        if name not in nodes:
            nodes[name] = len(hub)
            hub.append(is_hub)
        return nodes[name]

    ends = []
    for key in keys.tolist():
        kind, port = divmod(key, span)
        if kind < span:  # input hub ``kind`` → output hub ``port``
            ends.append((node(("in", kind), True), node(("out", port), True)))
        elif kind == span:  # input hub → its one-flow outputs
            ends.append((node(("in", port), True), node(("leaves of in", port), False)))
        elif kind == span + 1:  # one-flow inputs → output hub
            ends.append((node(("leaves of out", port), False), node(("out", port), True)))
        else:  # isolated pairs
            ends.append((node(("pair in", 0), False), node(("pair out", 0), False)))
    return HubLeafQuotient(flow_class.reshape(-1), ends, hub, capacity)
