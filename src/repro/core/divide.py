"""Algorithm 3 — ``DivideByType`` (§2.3), for k paths (§4).

An h-Switch scheduler fed the reduced (n+k)×(n+k) demand returns
configurations over n+k "ports", each as a matching (see
:mod:`repro.hybrid.schedule`).  DivideByType decomposes one into:

* the regular circuits — an ``(n,)`` matching of ordinary OCS circuits,
* the senders granted a **one-to-many** composite path — each input ``i``
  whose circuit reaches a path output ``n + p`` (``P[i, n + p] == 1``),
* the receivers granted a **many-to-one** composite path — the output of
  each path input ``n + q`` (``P[n + q, j] == 1``).

A matching gives each input one output and each output one input, so a
configuration grants a port at most one path per direction.

Note on fidelity: the paper's listing returns the permutation *rows*
(``Srow = P[row, :]``) but Algorithm 4 then treats them as demand vectors
(``Df[r, :] = CPSched(Sr, ...)``).  The only consistent reading — and the
one matching the CPSched worked example (Figure 3) — is that CPSched
consumes ``Df`` rows/columns, so this function returns the composite *port
indices* and the caller fetches the demand vectors from ``Df``
(see DESIGN.md §1).

A corner case the reduction can produce: a path input matched to a path
output (``P[n + q, n + p] == 1``, at k = 1 ``P[n, n]``) carries no demand —
``DI[n:, n:]`` is always 0 — and is ignored.
"""

from __future__ import annotations

import numpy as np


def divide_by_type(
    matching: np.ndarray, n_ports: int
) -> "tuple[np.ndarray, tuple[int, ...], tuple[int, ...]]":
    """Algorithm 3: split a reduced-space configuration into path types.

    Parameters
    ----------
    matching:
        The ``(n+k,)`` matching of a configuration an h-Switch scheduler
        produced on a reduced demand.  It was validated when its schedule
        entry was built, so it is not checked again here: O(n + k).
    n_ports:
        n — the regular ports; the other ``k`` are composite paths.

    Returns
    -------
    regular, o2m_ports, m2o_ports:
        The regular circuits as a new ``(n,)`` matching (the senders'
        circuits to composite paths removed), the senders granted a
        one-to-many path and the receivers granted a many-to-one path,
        each a tuple in path order (empty if no path is granted).
    """
    n = int(n_ports)
    if n < 1 or matching.shape[0] <= n:
        raise ValueError(
            f"a configuration of {matching.shape[0]} ports cannot host "
            f"{n} ports and a composite path"
        )
    regular = matching[:n].copy()
    senders = np.flatnonzero(regular >= n)
    o2m_ports = tuple(senders[np.argsort(regular[senders])].tolist())
    regular[senders] = -1
    m2o_ports = tuple(j for j in matching[n:].tolist() if 0 <= j < n)
    return regular, o2m_ports, m2o_ports
