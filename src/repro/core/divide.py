"""Algorithm 3 — ``DivideByType`` (§2.3).

An h-Switch scheduler fed the reduced (n+1)×(n+1) demand returns
configurations over n+1 "ports", each as a matching (see
:mod:`repro.hybrid.schedule`).  DivideByType decomposes one into:

* the regular circuits — an ``(n,)`` matching of ordinary OCS circuits,
* the sender (if any) granted the **one-to-many** composite path — the
  input ``i`` whose circuit reaches output ``n`` (``P[i, n] == 1``),
* the receiver (if any) granted the **many-to-one** composite path — the
  output of input ``n``'s circuit (``P[n, j] == 1``).

Note on fidelity: the paper's listing returns the permutation *rows*
(``Srow = P[row, :]``) but Algorithm 4 then treats them as demand vectors
(``Df[r, :] = CPSched(Sr, ...)``).  The only consistent reading — and the
one matching the CPSched worked example (Figure 3) — is that CPSched
consumes ``Df`` rows/columns, so this function returns the composite *port
indices* and the caller fetches the demand vectors from ``Df``
(see DESIGN.md §1).

A corner case the reduction can produce: ``P[n, n] == 1`` (the two
composite "ports" matched to each other) carries no demand — ``DI[n, n]``
is always 0 — and is ignored.
"""

from __future__ import annotations

import numpy as np


def divide_by_type(matching: np.ndarray) -> "tuple[np.ndarray, int | None, int | None]":
    """Algorithm 3: split a reduced-space configuration into path types.

    Parameters
    ----------
    matching:
        The ``(n+1,)`` matching of a configuration an h-Switch scheduler
        produced on a reduced demand.  It was validated when its schedule
        entry was built, so it is not checked again here: O(n).

    Returns
    -------
    regular, o2m_port, m2o_port:
        The regular circuits as a new ``(n,)`` matching (the sender's
        circuit to the composite port removed), the sender granted the
        one-to-many path and the receiver granted the many-to-one path
        (each ``None`` if not granted).
    """
    n = matching.shape[0] - 1
    if n < 1:
        raise ValueError(f"a reduced configuration has at least 2 ports, got {n + 1}")
    regular = matching[:n].copy()
    senders = np.flatnonzero(regular == n)
    o2m_port = None
    if senders.size:
        o2m_port = int(senders[0])
        regular[o2m_port] = -1
    receiver = int(matching[n])
    m2o_port = receiver if 0 <= receiver < n else None
    return regular, o2m_port, m2o_port
