"""Tests for the Solstice scheduler: QuickStuff, BigSlice, and the loop."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hybrid.solstice.scheduler import SolsticeScheduler, eps_finishes_leftover
from repro.hybrid.solstice.slicing import big_slice
from repro.hybrid.solstice.stuffing import quick_stuff, stuffing_overhead
from repro.switch.params import fast_ocs_params
from repro.utils.validation import VOLUME_TOL


class TestQuickStuff:
    def test_equalizes_row_and_column_sums(self, sparse_demand):
        stuffed = quick_stuff(sparse_demand)
        phi = max(sparse_demand.sum(axis=1).max(), sparse_demand.sum(axis=0).max())
        np.testing.assert_allclose(stuffed.sum(axis=1), phi)
        np.testing.assert_allclose(stuffed.sum(axis=0), phi)

    def test_never_reduces_entries(self, sparse_demand):
        stuffed = quick_stuff(sparse_demand)
        assert (stuffed >= sparse_demand - 1e-12).all()

    def test_empty_demand(self):
        stuffed = quick_stuff(np.zeros((4, 4)))
        assert stuffed.sum() == 0.0

    def test_already_stuffed_is_unchanged(self):
        matrix = np.array([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(quick_stuff(matrix), matrix)

    def test_prefers_existing_nonzeros(self):
        # phi = 5 (column 0).  The non-zero pass grows the existing entry
        # (1,1) from 2 to 4 before the zero pass opens (0,1) for the last
        # unit of slack — only one new entry appears.
        demand = np.array(
            [
                [4.0, 0.0],
                [1.0, 2.0],
            ]
        )
        stuffed = quick_stuff(demand)
        assert stuffed[1, 1] == pytest.approx(4.0)
        assert stuffed[0, 1] == pytest.approx(1.0)
        assert int((stuffed > 0).sum()) == int((demand > 0).sum()) + 1

    def test_overhead_metric(self, sparse_demand):
        stuffed = quick_stuff(sparse_demand)
        overhead = stuffing_overhead(sparse_demand, stuffed)
        assert 0.0 <= overhead < 1.0
        assert overhead == pytest.approx(
            (stuffed.sum() - sparse_demand.sum()) / stuffed.sum()
        )

    def test_single_entry(self):
        demand = np.zeros((3, 3))
        demand[1, 2] = 5.0
        stuffed = quick_stuff(demand)
        np.testing.assert_allclose(stuffed.sum(axis=0), 5.0)
        np.testing.assert_allclose(stuffed.sum(axis=1), 5.0)


class TestBigSlice:
    def test_slices_preserve_stuffedness(self, sparse_demand):
        stuffed = quick_stuff(sparse_demand)
        for _ in range(3):
            if stuffed.max() <= VOLUME_TOL:
                break
            threshold, cols = big_slice(stuffed)
            assert threshold > 0
            rows = np.arange(stuffed.shape[0])
            assert (stuffed[rows, cols] >= threshold - 1e-12).all()
            stuffed[rows, cols] -= threshold
            np.clip(stuffed, 0.0, None, out=stuffed)
            sums = np.concatenate([stuffed.sum(axis=0), stuffed.sum(axis=1)])
            assert sums.max() - sums.min() < 1e-6

    def test_threshold_is_min_matched_entry(self):
        matrix = np.array(
            [
                [5.0, 1.0],
                [1.0, 5.0],
            ]
        )
        threshold, matching = big_slice(matrix)
        assert threshold == pytest.approx(5.0)
        np.testing.assert_array_equal(matching, [0, 1])

    def test_exhaustive_probe_equals_quantized_on_small_input(self):
        rng = np.random.default_rng(9)
        stuffed = quick_stuff(rng.uniform(0, 5, (6, 6)))
        t_exact, _ = big_slice(stuffed, max_probes=None)
        t_quant, _ = big_slice(stuffed, max_probes=64)
        # 36 unique values < 64 probes: identical search space.
        assert t_quant == pytest.approx(t_exact)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            big_slice(np.zeros((3, 3)))

    def test_rejects_unstuffed(self):
        # Row 0 only connects to column 0; rows 0 and 1 both need it.
        matrix = np.array(
            [
                [1.0, 0.0],
                [1.0, 0.0],
            ]
        )
        with pytest.raises(ValueError):
            big_slice(matrix)


class TestSolsticeScheduler:
    def test_schedule_covers_demand_with_eps(self, sparse_demand):
        params = fast_ocs_params(8)
        schedule = SolsticeScheduler().schedule(sparse_demand, params)
        # The stopping rule guarantees: leftover demand (not coverable by
        # the schedule's circuits) drains on the EPS within the makespan.
        residual = sparse_demand.copy()
        for entry in schedule:
            rows = np.flatnonzero(entry.matching >= 0)
            cols = entry.matching[rows]
            residual[rows, cols] = np.maximum(
                residual[rows, cols] - entry.duration * params.ocs_rate, 0.0
            )
        port_load = max(residual.sum(axis=1).max(), residual.sum(axis=0).max())
        assert port_load / params.eps_rate <= schedule.makespan + 1e-9

    def test_durations_match_thresholds(self, sparse_demand):
        params = fast_ocs_params(8)
        schedule = SolsticeScheduler().schedule(sparse_demand, params)
        for entry in schedule:
            assert entry.duration > 0

    def test_empty_demand_gives_empty_schedule(self):
        params = fast_ocs_params(4)
        schedule = SolsticeScheduler().schedule(np.zeros((4, 4)), params)
        assert schedule.n_configs == 0
        assert schedule.makespan == 0.0

    def test_single_big_flow_gets_one_circuit(self):
        params = fast_ocs_params(4)
        demand = np.zeros((4, 4))
        demand[1, 2] = 50.0
        schedule = SolsticeScheduler().schedule(demand, params)
        assert schedule.n_configs == 1
        entry = schedule[0]
        assert entry.matching[1] == 2
        assert entry.duration == pytest.approx(0.5)  # 50 Mb / 100 Mb/ms

    def test_max_configs_cap_respected(self, sparse_demand):
        params = fast_ocs_params(8)
        schedule = SolsticeScheduler(max_configs=2).schedule(sparse_demand, params)
        assert schedule.n_configs <= 2

    def test_more_reconfig_delay_means_fewer_configs(self, sparse_demand):
        fast = fast_ocs_params(8)
        slow = fast.with_ports(8)
        from repro.switch.params import slow_ocs_params

        slow = slow_ocs_params(8)
        n_fast = SolsticeScheduler().schedule(sparse_demand, fast).n_configs
        n_slow = SolsticeScheduler().schedule(sparse_demand, slow).n_configs
        assert n_slow <= n_fast

    def test_skewed_demand_needs_many_configs(self, skewed_demand):
        # The h-Switch pathology the paper fixes: one-to-many rows force
        # one circuit per destination.
        params = fast_ocs_params(8)
        schedule = SolsticeScheduler().schedule(skewed_demand, params)
        assert schedule.n_configs >= 4


def dense_stop(leftover, eps_rate, makespan):
    """The stopping rule as the Solstice loop wrote it before
    :func:`eps_finishes_leftover`: dense sums on every slice."""
    port_load = max(leftover.sum(axis=1).max(), leftover.sum(axis=0).max())
    return port_load <= VOLUME_TOL or port_load / eps_rate <= makespan


@st.composite
def stop_cases(draw):
    """A leftover on a random support (up to n terms per port, zeros
    allowed on it), an EPS rate and a makespan at, one ulp either side of,
    or away from the dense port load / Ce; sometimes scaled so that the
    port load sits at or around ``VOLUME_TOL``."""
    n = draw(st.integers(1, 24))
    density = draw(st.sampled_from([0.1, 0.3, 0.7, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((n, n)) < density
    leftover = np.where(mask, 10.0 ** rng.uniform(-3.0, 3.0, (n, n)), 0.0)
    leftover[rng.random((n, n)) < 0.2] = 0.0  # drained entries on the support
    eps_rate = draw(st.sampled_from([10.0, 3.0, 0.7, 12.5]))
    load = max(leftover.sum(axis=1).max(), leftover.sum(axis=0).max())
    if load > 0 and draw(st.booleans()):
        factor = draw(st.sampled_from([0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 2.0]))
        leftover *= VOLUME_TOL * factor / load
        load = max(leftover.sum(axis=1).max(), leftover.sum(axis=0).max())
    at = load / eps_rate
    makespan = draw(
        st.sampled_from(
            [at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf), 0.0, at * 2]
        )
    )
    return leftover, np.nonzero(mask), eps_rate, float(makespan)


class TestStopRule:
    """The kernel's support-sum stop decision is the dense rule's."""

    @given(case=stop_cases())
    @settings(max_examples=600, deadline=None)
    def test_support_decision_equals_the_dense_rule(self, case):
        leftover, support, eps_rate, makespan = case
        expected = dense_stop(leftover, eps_rate, makespan)
        assert eps_finishes_leftover(leftover, eps_rate, makespan, support) == expected
        assert eps_finishes_leftover(leftover, eps_rate, makespan) == expected

    def test_support_sum_one_ulp_off_the_dense_sum(self):
        # A row whose sequential (bincount) sum differs from numpy's
        # pairwise row sum: the support sum alone would decide wrongly one
        # ulp from the boundary; the margin hands that case to the dense
        # sums.
        rng = np.random.default_rng(0)
        while True:
            row = rng.uniform(0.0, 100.0, 16)
            sequential = 0.0
            for value in row:
                sequential += value
            if sequential != row.sum():
                break
        leftover = np.zeros((16, 16))
        leftover[0] = row
        support = np.nonzero(leftover)
        load = leftover.sum(axis=1).max()
        for makespan in (load / 10.0, np.nextafter(load / 10.0, -np.inf)):
            assert eps_finishes_leftover(
                leftover, 10.0, makespan, support
            ) == dense_stop(leftover, 10.0, makespan)

    def test_empty_leftover_stops(self):
        leftover = np.zeros((3, 3))
        assert eps_finishes_leftover(leftover, 10.0, 0.0, np.nonzero(leftover))

    def test_kernel_and_oracle_schedules_are_byte_identical(self, skewed_demand):
        from repro.matching import kernels

        params = fast_ocs_params(8)
        demand = skewed_demand * 3.0
        with kernels.use_backend("oracle"):
            oracle = SolsticeScheduler().schedule(demand, params)
        with kernels.use_backend("kernel"):
            kernel = SolsticeScheduler().schedule(demand, params)
        assert len(kernel) == len(oracle)
        for ours, theirs in zip(kernel, oracle):
            assert ours.matching.tobytes() == theirs.matching.tobytes()
            assert ours.duration == theirs.duration

