"""Configurations as matchings: the one stored form of a configuration.

Schedule entries hold their circuits only as a matching (entry ``i`` the
output of input ``i``'s circuit, -1 for none), validated once where the
entry is built.  The cp-Switch interpretation splits a reduced
configuration from its matching (Algorithm 3), and the fluid engine takes
circuits only as a matching.  These properties check that a matching
describes exactly the circuits of the permutation matrix it stands for,
that the split agrees with Algorithm 3 read off that matrix for one and two
composite paths, and that the entry constructors and ``run_phase`` reject
the same invalid matchings.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.divide import divide_by_type
from repro.core.scheduler import CompositeScheduleEntry
from repro.hybrid.schedule import ScheduleEntry
from repro.matching import matching_to_permutation
from repro.sim.engine import FluidEngine
from repro.switch.params import SwitchParams
from repro.utils.validation import matching_from_permutation

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


def corrupt(matching, pairs, corruption, offset, position):
    """``matching`` made invalid, or ``None`` if ``corruption`` cannot
    apply (a second use of an output needs a circuit to copy)."""
    matching = matching.copy()
    n = matching.shape[0]
    i = position % n
    if corruption == "long":
        return np.append(matching, -1)
    if corruption == "short":
        return matching[:-1]
    if corruption == "below":
        matching[i] = -2 - offset
    elif corruption == "above":
        matching[i] = n + offset
    else:  # a second input on an output already in use
        if not pairs:
            return None
        used_by, output = pairs[0]
        matching[(used_by + 1 + position % (n - 1)) % n] = output
    return matching


#: The two entry types, each built from a matching of ``n`` ports.
CONSTRUCTORS = {
    "ScheduleEntry": lambda matching, n: ScheduleEntry(matching=matching, duration=1.0),
    "CompositeScheduleEntry": lambda matching, n: CompositeScheduleEntry(
        matching=matching, duration=1.0
    ),
}

#: Invalid 4-port matchings: (matching, error message pattern).
INVALID_MATCHINGS = {
    "long": (np.full(5, -1), None),
    "short": (np.full(3, -1), None),
    "square": (np.full((4, 4), -1), "shape"),
    "matrix": (np.zeros((4, 4), dtype=np.int8), "shape"),
    "below": (np.array([-1, 1, -2, -1]), r"\[0, 4\)"),
    "at_n": (np.array([-1, 1, 4, -1]), r"\[0, 4\)"),
    "above": (np.array([-1, 1, np.iinfo(np.int64).max, -1]), r"\[0, 4\)"),
    "twice": (np.array([2, -1, 2, -1]), "more than once"),
    "float": (np.array([1.0, -1.0, -1.0, -1.0]), "integers"),
}


def reduced_split(matrix: np.ndarray, n: int):
    """Algorithm 3 read off a reduced permutation matrix with composite
    ports ``n..m-1``: the n×n regular block and, in path order, the sender
    in each path's column and the receiver in each path's row."""
    m = matrix.shape[0]
    o2m = []
    m2o = []
    for p in range(m - n):
        o2m += np.flatnonzero(matrix[:n, n + p]).tolist()
        m2o += np.flatnonzero(matrix[n + p, :n]).tolist()
    return matrix[:n, :n].astype(np.int8), tuple(o2m), tuple(m2o)


class TestEntryMatching:
    @given(case=partial_permutations())
    @settings(max_examples=200, deadline=None)
    def test_matching_and_permutation_describe_the_same_circuits(self, case):
        matrix, pairs = case
        entry = ScheduleEntry(matching=matching_from_permutation(matrix), duration=1.0)
        assert entry.matching.shape == (matrix.shape[0],)
        assert entry.matching.dtype == np.int64
        assert entry.circuits == pairs
        n = matrix.shape[0]
        np.testing.assert_array_equal(
            matching_to_permutation(entry.matching, n), matrix.astype(np.int8)
        )
        assert not entry.matching.flags.writeable

    @given(case=partial_permutations())
    @settings(max_examples=100, deadline=None)
    def test_composite_entry_from_a_matrix(self, case):
        matrix, pairs = case
        entry = CompositeScheduleEntry(
            matching=matching_from_permutation(matrix), duration=1.0
        )
        n = matrix.shape[0]
        np.testing.assert_array_equal(
            matching_to_permutation(entry.matching, n), matrix.astype(np.int8)
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
            matching_from_permutation(matrix)


#: An entry fixes no port count of its own: a matching one port longer or
#: shorter is a valid configuration of another switch, which ``Schedule``
#: (mixed sizes) and the simulators (size != n) reject.
SIZED_BY_CALLER = {
    (constructor, corruption)
    for constructor in CONSTRUCTORS
    for corruption in ("long", "short")
}


class TestEntryValidation:
    """Every entry type rejects what ``run_phase`` rejects."""

    @pytest.mark.parametrize("constructor", sorted(CONSTRUCTORS))
    @given(
        case=partial_permutations(min_size=2, max_size=8),
        corruption=st.sampled_from(["long", "short", "below", "above", "twice"]),
        offset=st.integers(0, 1000),
        position=st.integers(0, 7),
    )
    @settings(max_examples=100, deadline=None)
    def test_corrupted_matching_rejected(
        self, constructor, case, corruption, offset, position
    ):
        matrix, pairs = case
        n = matrix.shape[0]
        matching = corrupt(
            matching_from_permutation(matrix), pairs, corruption, offset, position
        )
        if matching is None or (constructor, corruption) in SIZED_BY_CALLER:
            return
        with pytest.raises(ValueError):
            CONSTRUCTORS[constructor](matching, n)

    @pytest.mark.parametrize("constructor", sorted(CONSTRUCTORS))
    @pytest.mark.parametrize("case", sorted(INVALID_MATCHINGS))
    def test_invalid_matching_rejected(self, constructor, case):
        matching, message = INVALID_MATCHINGS[case]
        if (constructor, case) in SIZED_BY_CALLER:
            assert CONSTRUCTORS[constructor](matching, 4).matching.shape == matching.shape
            return
        with pytest.raises(ValueError, match=message):
            CONSTRUCTORS[constructor](matching, 4)

    @pytest.mark.parametrize("constructor", sorted(CONSTRUCTORS))
    def test_valid_matching_stored_as_frozen_int64_copy(self, constructor):
        matching = np.array([2, -1, 0, 1], dtype=np.int32)
        entry = CONSTRUCTORS[constructor](matching, 4)
        assert entry.matching.dtype == np.int64
        assert not entry.matching.flags.writeable
        matching[0] = 3
        np.testing.assert_array_equal(entry.matching, [2, -1, 0, 1])


class TestSplitMatching:
    @given(case=partial_permutations(min_size=2, max_size=9))
    @settings(max_examples=300, deadline=None)
    def test_split_equals_divide_by_type(self, case):
        # divide_by_type on the matching equals Algorithm 3 read off the
        # permutation matrix.
        matrix, _ = case
        self.assert_split_equals_divide_by_type(matrix, matrix.shape[0] - 1)

    @given(case=partial_permutations(min_size=3, max_size=9), k=st.integers(2, 3))
    @settings(max_examples=300, deadline=None)
    def test_k_path_split_equals_divide_by_type_multipath(self, case, k):
        # With k composite paths the same split grants each path's sender
        # and receiver, in ascending path order.
        matrix, _ = case
        n = matrix.shape[0] - k
        assume(n >= 1)
        self.assert_split_equals_divide_by_type(matrix, n)

    @staticmethod
    def assert_split_equals_divide_by_type(matrix, n):
        regular_matrix, o2m, m2o = reduced_split(matrix, n)
        regular, o2m_ports, m2o_ports = divide_by_type(
            matching_from_permutation(matrix), n
        )
        assert regular.shape == (n,)
        np.testing.assert_array_equal(
            matching_to_permutation(regular, n), regular_matrix
        )
        assert (o2m_ports, m2o_ports) == (o2m, m2o)

    def test_composite_to_composite_corner_grants_nothing(self):
        # P[n, n] == 1: the two composite "ports" matched to each other.
        matrix = np.zeros((3, 3), dtype=np.int8)
        matrix[0, 1] = matrix[2, 2] = 1
        regular, o2m_ports, m2o_ports = divide_by_type(
            matching_from_permutation(matrix), 2
        )
        assert o2m_ports == m2o_ports == ()
        np.testing.assert_array_equal(regular, [1, -1])

    def test_both_grants(self):
        # Sender 1 on the one-to-many path, receiver 0 on the many-to-one.
        matching = np.array([-1, 2, 0])
        regular, o2m_ports, m2o_ports = divide_by_type(matching, 2)
        np.testing.assert_array_equal(regular, [-1, -1])
        assert (o2m_ports, m2o_ports) == ((1,), (0,))
        np.testing.assert_array_equal(matching, [-1, 2, 0])  # input untouched


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
        engine.run_phase(0.005, circuits=matching_from_permutation(matrix))
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
        circuits = corrupt(
            matching_from_permutation(matrix), pairs, corruption, offset, position
        )
        if circuits is None:
            return
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
