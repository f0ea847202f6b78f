"""Tests for Algorithm 3 — DivideByType."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.divide import divide_by_type
from repro.hybrid.schedule import ScheduleEntry


def reduced_matching(n: int, pairs: "list[tuple[int, int]]") -> np.ndarray:
    """The (n+1,) matching of a reduced-space configuration's circuits."""
    matching = np.full(n + 1, -1)
    for i, j in pairs:
        matching[i] = j
    return matching


def circuit_count(regular: np.ndarray) -> int:
    return int((regular >= 0).sum())


class TestDivideByType:
    def test_pure_regular_permutation(self):
        matching = reduced_matching(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
        regular, o2m_ports, m2o_ports = divide_by_type(matching, 4)
        assert o2m_ports == ()
        assert m2o_ports == ()
        np.testing.assert_array_equal(regular, [1, 0, 3, 2])

    def test_one_to_many_grant(self):
        # Sender 2 matched to the composite column.
        matching = reduced_matching(4, [(2, 4), (0, 1), (1, 0)])
        regular, o2m_ports, m2o_ports = divide_by_type(matching, 4)
        assert o2m_ports == (2,)
        assert m2o_ports == ()
        assert circuit_count(regular) == 2
        assert regular[2] == -1  # the grant is not a regular circuit

    def test_many_to_one_grant(self):
        matching = reduced_matching(4, [(4, 3), (0, 0)])
        _, o2m_ports, m2o_ports = divide_by_type(matching, 4)
        assert m2o_ports == (3,)
        assert o2m_ports == ()

    def test_both_grants_in_one_permutation(self):
        matching = reduced_matching(4, [(1, 4), (4, 2), (0, 0), (3, 3)])
        regular, o2m_ports, m2o_ports = divide_by_type(matching, 4)
        assert o2m_ports == (1,)
        assert m2o_ports == (2,)
        np.testing.assert_array_equal(regular, [0, -1, -1, 3])

    def test_composite_to_composite_corner_ignored(self):
        # P[n, n] = 1 carries no demand (DI[n, n] == 0 by construction).
        matching = reduced_matching(4, [(4, 4), (0, 1)])
        regular, o2m_ports, m2o_ports = divide_by_type(matching, 4)
        assert o2m_ports == m2o_ports == ()
        np.testing.assert_array_equal(regular, [1, -1, -1, -1])

    def test_regular_block_is_a_copy(self):
        entry = ScheduleEntry(matching=reduced_matching(3, [(0, 0)]), duration=1.0)
        regular, _, _ = divide_by_type(entry.matching, 3)
        regular[0] = -1  # writable, although the entry's matching is not
        assert entry.matching[0] == 0

    def test_rejects_non_permutation(self):
        # Two senders on the composite port: the reduced configuration is
        # rejected where its entry is built, so it never reaches the split.
        bad = reduced_matching(4, [(0, 4), (1, 4)])
        with pytest.raises(ValueError, match="more than once"):
            ScheduleEntry(matching=bad, duration=1.0)

    def test_rejects_tiny_matrix(self):
        # No regular port, or no composite path.
        with pytest.raises(ValueError):
            divide_by_type(np.full(1, -1), 0)
        with pytest.raises(ValueError):
            divide_by_type(np.full(4, -1), 4)

    def test_partial_permutation_accepted(self):
        matching = reduced_matching(4, [(0, 2)])
        regular, o2m_ports, m2o_ports = divide_by_type(matching, 4)
        assert circuit_count(regular) == 1
        assert o2m_ports == m2o_ports == ()
