"""Configurations as matchings: the same circuits as their permutation matrices.

Schedule entries carry their circuits as a matching (entry ``i`` the output
of input ``i``'s circuit, -1 for none), derived in the scan that validates
the matrix or handed over by the scheduler.  The cp-Switch interpretation
splits a reduced configuration from its matching, and the fluid engine
takes circuits only as a matching.  These properties check that each of
those describes exactly the circuits of the matrix it stands for.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.divide import divide_by_type, split_matching
from repro.core.multipath import _split_matching_multipath, divide_by_type_multipath
from repro.core.scheduler import CompositeScheduleEntry
from repro.hybrid.schedule import ScheduleEntry
from repro.matching import matching_to_permutation
from repro.sim.engine import FluidEngine
from repro.switch.params import SwitchParams
from repro.utils.validation import permutation_matching

DTYPES = (np.int8, np.bool_, np.float64)


@st.composite
def partial_permutations(draw, min_size=1, max_size=8):
    """An m×m partial permutation matrix at radix 1-8, as int8, bool or
    float 0/1, with the (row, column) pairs it connects."""
    m = draw(st.integers(min_size, max_size))
    cols = draw(st.permutations(range(m)))
    rows = draw(st.lists(st.booleans(), min_size=m, max_size=m))
    dtype = draw(st.sampled_from(DTYPES))
    pairs = [(i, cols[i]) for i in range(m) if rows[i]]
    matrix = np.zeros((m, m), dtype=dtype)
    for i, j in pairs:
        matrix[i, j] = 1
    return matrix, pairs


class TestEntryMatching:
    @given(case=partial_permutations())
    @settings(max_examples=200, deadline=None)
    def test_matching_and_permutation_describe_the_same_circuits(self, case):
        matrix, pairs = case
        entry = ScheduleEntry(permutation=matrix, duration=1.0)
        assert entry.matching.shape == (matrix.shape[0],)
        assert entry.circuits == pairs
        n = matrix.shape[0]
        np.testing.assert_array_equal(
            matching_to_permutation(entry.matching, n), entry.permutation
        )
        assert entry.permutation.dtype == np.int8
        assert not entry.matching.flags.writeable

    @given(case=partial_permutations())
    @settings(max_examples=100, deadline=None)
    def test_composite_entry_from_a_matrix(self, case):
        matrix, pairs = case
        entry = CompositeScheduleEntry(
            regular=matrix, duration=1.0, composite_served=np.zeros(matrix.shape)
        )
        n = matrix.shape[0]
        np.testing.assert_array_equal(
            matching_to_permutation(entry.matching, n), entry.regular
        )
        assert [(i, int(entry.matching[i])) for i, _ in pairs] == pairs

    @pytest.mark.parametrize(
        "matrix",
        [
            np.array([[1, 1], [0, 0]]),  # row used twice
            np.array([[1, 0], [1, 0]]),  # column used twice
            np.array([[2, 0], [0, 0]]),
            np.array([[0.5, 0.0], [0.0, 0.0]]),
            np.array([[np.nan, 0.0], [0.0, 0.0]]),
        ],
    )
    def test_invalid_matrix_rejected(self, matrix):
        with pytest.raises(ValueError):
            ScheduleEntry(permutation=matrix, duration=1.0)

    def test_full_permutation_required_when_asked(self):
        matrix = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match="exactly one"):
            permutation_matching(matrix, partial=False)
        matrix[2, 2] = 1
        np.testing.assert_array_equal(
            permutation_matching(matrix, partial=False)[1], [1, 0, 2]
        )


class TestSplitMatching:
    @given(case=partial_permutations(min_size=2, max_size=9))
    @settings(max_examples=300, deadline=None)
    def test_split_equals_divide_by_type(self, case):
        matrix, _ = case
        n = matrix.shape[0] - 1
        divided = divide_by_type(matrix)
        regular, o2m_port, m2o_port = split_matching(permutation_matching(matrix)[1])
        assert regular.shape == (n,)
        np.testing.assert_array_equal(
            matching_to_permutation(regular, n), divided.regular
        )
        assert (o2m_port, m2o_port) == (divided.o2m_port, divided.m2o_port)

    def test_composite_to_composite_corner_grants_nothing(self):
        # P[n, n] == 1: the two composite "ports" matched to each other.
        matrix = np.zeros((3, 3), dtype=np.int8)
        matrix[0, 1] = matrix[2, 2] = 1
        regular, o2m_port, m2o_port = split_matching(permutation_matching(matrix)[1])
        divided = divide_by_type(matrix)
        assert o2m_port is m2o_port is None
        assert divided.o2m_port is divided.m2o_port is None
        np.testing.assert_array_equal(regular, [1, -1])

    def test_both_grants(self):
        # Sender 1 on the one-to-many path, receiver 0 on the many-to-one.
        matching = np.array([-1, 2, 0])
        regular, o2m_port, m2o_port = split_matching(matching)
        np.testing.assert_array_equal(regular, [-1, -1])
        assert (o2m_port, m2o_port) == (1, 0)
        np.testing.assert_array_equal(matching, [-1, 2, 0])  # input untouched

    @given(case=partial_permutations(min_size=3, max_size=8), k=st.integers(1, 2))
    @settings(max_examples=200, deadline=None)
    def test_k_path_split_equals_divide_by_type_multipath(self, case, k):
        matrix, _ = case
        n = matrix.shape[0] - k
        regular_matrix, o2m, m2o = divide_by_type_multipath(matrix, n)
        regular, o2m_split, m2o_split = _split_matching_multipath(
            permutation_matching(matrix)[1], n
        )
        np.testing.assert_array_equal(
            matching_to_permutation(regular, n), regular_matrix
        )
        assert list(o2m_split.items()) == list(o2m.items())
        assert list(m2o_split.items()) == list(m2o.items())


class TestRunPhaseMatchingValidation:
    @staticmethod
    def engine(n=4):
        demand = np.ones((n, n))
        return FluidEngine(demand, SwitchParams(n_ports=n))

    @given(case=partial_permutations(min_size=2, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_valid_matching_accepted(self, case):
        matrix, pairs = case
        n = matrix.shape[0]
        engine = self.engine(n)
        # Each circuit serves half of its 1 Mb entry at Co = 100 Mb/ms.
        engine.run_phase(0.005, circuits=permutation_matching(matrix)[1])
        assert engine.served_ocs_direct == pytest.approx(len(pairs) * 0.5)

    @given(
        case=partial_permutations(min_size=2, max_size=8),
        corruption=st.sampled_from(["long", "short", "below", "above", "twice"]),
        offset=st.integers(0, 1000),
        position=st.integers(0, 7),
    )
    @settings(max_examples=200, deadline=None)
    def test_corrupted_matching_rejected(self, case, corruption, offset, position):
        matrix, pairs = case
        n = matrix.shape[0]
        circuits = permutation_matching(matrix)[1]
        i = position % n
        if corruption == "long":
            circuits = np.append(circuits, -1)
        elif corruption == "short":
            circuits = circuits[:-1]
        elif corruption == "below":
            circuits[i] = -2 - offset
        elif corruption == "above":
            circuits[i] = n + offset
        else:  # a second input on an output already in use
            if not pairs:
                return
            used_by, output = pairs[0]
            circuits[(used_by + 1 + position % (n - 1)) % n] = output
        engine = self.engine(n)
        with pytest.raises(ValueError):
            engine.run_phase(0.1, circuits=circuits)
        assert engine.clock == 0.0

    @pytest.mark.parametrize(
        "circuits",
        [
            np.full(5, -1),  # one input too many
            np.full(3, -1),  # one input too few
            np.full((4, 4), -1),
            np.zeros((4, 4), dtype=np.int8),  # a permutation matrix
        ],
        ids=["long", "short", "square", "matrix"],
    )
    def test_wrong_shape_rejected(self, circuits):
        engine = self.engine()
        with pytest.raises(ValueError, match="shape"):
            engine.run_phase(0.1, circuits=circuits)
        assert engine.clock == 0.0

    @pytest.mark.parametrize("value", [-2, 4, 5, np.iinfo(np.int64).max])
    def test_value_out_of_range_rejected(self, value):
        engine = self.engine()
        circuits = np.array([-1, 1, value, -1])
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            engine.run_phase(0.1, circuits=circuits)
        assert engine.clock == 0.0

    def test_output_used_twice_rejected(self):
        engine = self.engine()
        with pytest.raises(ValueError, match="more than once"):
            engine.run_phase(0.1, circuits=np.array([2, -1, 2, -1]))
        assert engine.clock == 0.0

    def test_non_integer_matching_rejected(self):
        engine = self.engine()
        with pytest.raises(ValueError, match="integers"):
            engine.run_phase(0.1, circuits=np.array([1.0, -1.0, -1.0, -1.0]))

    def test_reduced_space_circuit_cannot_alias(self):
        # The 5×5 reduced-space circuit (0, 4) goes to the composite port;
        # as a row-major key it would alias entry (1, 0) of a 4-port
        # engine.  Its matching has the wrong shape, and the output 4 is
        # out of range in a 4-port matching.
        demand = np.zeros((4, 4))
        demand[1, 0] = demand[0, 1] = 10.0
        engine = FluidEngine(demand, SwitchParams(n_ports=4))
        for circuits in (np.array([4, -1, -1, -1, -1]), np.array([4, -1, -1, -1])):
            with pytest.raises(ValueError):
                engine.run_phase(0.1, circuits=circuits)
        assert engine.served_ocs_direct == 0.0
