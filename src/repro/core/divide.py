"""Algorithm 3 — ``DivideByType`` (§2.3).

An h-Switch scheduler fed the reduced (n+1)×(n+1) demand returns
permutation matrices over n+1 "ports".  DivideByType decomposes each into:

* ``regular`` — the n×n sub-permutation of ordinary OCS circuits,
* the sender (if any) granted the **one-to-many** composite path — the row
  ``i`` with ``P[i, n] == 1``,
* the receiver (if any) granted the **many-to-one** composite path — the
  column ``j`` with ``P[n, j] == 1``.

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

:func:`split_matching` is the same split on a configuration's matching
(see :mod:`repro.hybrid.schedule`), in O(n); the cp-Switch interpretation
uses it on schedule entries, which were validated when they were built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.validation import permutation_matching


@dataclass(frozen=True)
class DividedPermutation:
    """Decomposition of one reduced-space permutation matrix.

    Attributes
    ----------
    regular:
        n×n partial permutation of regular OCS-OCS circuits.
    o2m_port:
        Sender index granted the one-to-many composite path, or ``None``.
    m2o_port:
        Receiver index granted the many-to-one composite path, or ``None``.
    """

    regular: np.ndarray
    o2m_port: "int | None"
    m2o_port: "int | None"

    @property
    def has_composite(self) -> bool:
        """Whether this configuration creates any composite path."""
        return self.o2m_port is not None or self.m2o_port is not None


def divide_by_type(permutation: np.ndarray) -> DividedPermutation:
    """Algorithm 3: split a reduced-space permutation into path types.

    Parameters
    ----------
    permutation:
        (n+1)×(n+1) 0/1 matrix with at most one 1 per row/column, as
        produced by an h-Switch scheduler on a reduced demand.

    Returns
    -------
    DividedPermutation
    """
    perm, matching = permutation_matching(permutation, partial=True)
    m = perm.shape[0]
    if m < 2:
        raise ValueError(f"reduced permutation must be at least 2x2, got {m}x{m}")
    n = m - 1
    _, o2m_port, m2o_port = split_matching(matching)
    return DividedPermutation(
        regular=perm[:n, :n].copy(), o2m_port=o2m_port, m2o_port=m2o_port
    )


def split_matching(matching: np.ndarray) -> "tuple[np.ndarray, int | None, int | None]":
    """Algorithm 3 on a reduced-space matching of shape ``(n+1,)``.

    Returns the regular circuits as an ``(n,)`` matching (the sender's
    circuit to the composite port ``n`` removed), the sender granted the
    one-to-many path and the receiver granted the many-to-one path (each
    ``None`` if not granted).  Input ``n`` matched to output ``n`` is the
    ``P[n, n]`` corner and grants nothing.  The caller guarantees a valid
    matching (no output used twice).
    """
    n = matching.shape[0] - 1
    regular = matching[:n].copy()
    senders = np.flatnonzero(regular == n)
    o2m_port = None
    if senders.size:
        o2m_port = int(senders[0])
        regular[o2m_port] = -1
    receiver = int(matching[n])
    m2o_port = receiver if 0 <= receiver < n else None
    return regular, o2m_port, m2o_port
