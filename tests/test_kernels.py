"""Kernel-vs-oracle bit-identity suite for the ``REPRO_KERNELS`` backends.

The kernel layer (:func:`repro.matching.kernels.scipy_matching_csr`, the
``BigSliceState`` warm-start path, the Eclipse greedy that carries each
duration's value bound from one step to the next) is only admissible if
it is **bit-identical** to the pure-Python/seed oracles it replaces — not
approximately equal: the repo's regression gates compare schedules and
simulations entry-for-entry.  This suite fuzzes that contract with
hypothesis over random demands and fault plans.

Float-valued demands never make two Eclipse candidate rates tie, so the
greedy is also fuzzed on small integer demands with unit OCS rate and
delay, where rates tie exactly and the kernel's 1e-9 skip margin and its
ascending record rule decide the winner.  Two wrong kernels pass the
float fuzz but changed about 5 % of 20,000 such schedules: taking the
best rate in solve order, and dropping the margin.  A third, carrying the
bound from the largest previous duration ≤ α, changed 0.75 %.  Two pinned
examples catch all three on every run.

Targeted regressions cover the three bugfixes that rode along with the
kernel work:

* the recursive Hopcroft–Karp DFS blowing Python's recursion limit on deep
  augmenting paths (now an explicit-stack walk);
* ``is_equal_sum`` spuriously rejecting large-φ stuffed matrices whose
  float error is a few ulps of φ (now a relative tolerance);
* tied-slack ordering in QuickStuff depending on numpy's unstable introsort
  (now ``kind="stable"`` everywhere ordering feeds arithmetic).
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.faults import FaultPlan
from repro.hybrid.eclipse.scheduler import EclipseScheduler
from repro.hybrid.solstice.scheduler import SolsticeScheduler
from repro.hybrid.solstice.slicing import BigSliceState, big_slice
from repro.hybrid.solstice.stuffing import quick_stuff_diagnosed
from repro.matching import kernels
from repro.matching.birkhoff import birkhoff_von_neumann, is_equal_sum
from repro.matching.hopcroft_karp import maximum_matching_mask
from repro.sim import simulate_hybrid
from repro.switch.params import SwitchParams
from repro.utils.validation import VOLUME_TOL

PARAMS = SwitchParams(n_ports=6, eps_rate=10.0, ocs_rate=100.0, reconfig_delay=0.02)


def demand_matrices(max_n: int = 7, max_value: float = 30.0):
    """Square non-negative demand matrices with some sparsity."""
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda n: st.tuples(
            arrays(
                np.float64,
                (n, n),
                elements=st.floats(0.0, max_value, allow_nan=False, width=32),
            ),
            arrays(np.bool_, (n, n)),
        ).map(lambda pair: pair[0] * pair[1])
    )


def tied_demands():
    """Radix 2–4 demands of integers 1–4 with about half the entries zero.

    With unit OCS rate and delay these make Eclipse's candidate rates tie
    exactly, which float-valued demands never do.
    """
    return st.integers(min_value=2, max_value=4).flatmap(
        lambda n: st.tuples(
            arrays(np.int64, (n, n), elements=st.integers(1, 4)),
            arrays(np.bool_, (n, n)),
        ).map(lambda pair: (pair[0] * pair[1]).astype(np.float64))
    )


def masks(max_n: int = 8):
    """Square boolean biadjacency masks."""
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: arrays(np.bool_, (n, n))
    )


def fault_plans():
    """Arbitrary valid fault plans, including the all-zero one."""
    rates = st.floats(0.0, 1.0, allow_nan=False)
    return st.builds(
        FaultPlan,
        seed=st.integers(min_value=0, max_value=2**16),
        reconfig_failure_rate=rates,
        reconfig_straggle_rate=rates,
        straggle_factor=st.floats(1.0, 8.0, allow_nan=False),
        circuit_failure_rate=rates,
        eps_degradation_rate=rates,
        eps_degradation_factor=st.floats(0.1, 1.0, allow_nan=False),
    )


def _schedules_equal(a, b) -> bool:
    return len(a) == len(b) and all(
        ea.duration == eb.duration
        and np.array_equal(ea.matching, eb.matching)
        for ea, eb in zip(a, b)
    )


def _params_for(n: int) -> SwitchParams:
    return SwitchParams(
        n_ports=n, eps_rate=10.0, ocs_rate=100.0, reconfig_delay=0.02
    )


# ---------------------------------------------------------------------- #
# QuickStuff
# ---------------------------------------------------------------------- #


class TestQuickStuffIdentity:
    def test_tied_slack_ordering_is_deterministic(self):
        # Regression: every load duplicated, so pass 1's value sort and
        # pass 2's slack sorts are all ties.  The unstable introsort used
        # to order these differently across numpy builds; kind="stable"
        # pins one order, which both backends must share exactly.
        demand = np.zeros((6, 6))
        for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)):
            demand[i, j] = 7.0
        demand[0, 3] = demand[1, 4] = demand[2, 5] = 7.0
        with kernels.use_backend(kernels.ORACLE):
            first, _ = quick_stuff_diagnosed(demand)
            second, _ = quick_stuff_diagnosed(demand)
        with kernels.use_backend(kernels.KERNEL):
            third, _ = quick_stuff_diagnosed(demand)
        assert np.array_equal(first, second)
        assert np.array_equal(first, third)
        phi = max(demand.sum(axis=0).max(), demand.sum(axis=1).max())
        np.testing.assert_allclose(first.sum(axis=0), phi, rtol=1e-12)
        np.testing.assert_allclose(first.sum(axis=1), phi, rtol=1e-12)


# ---------------------------------------------------------------------- #
# maximum matching
# ---------------------------------------------------------------------- #


class TestMatchingIdentity:
    @given(mask=masks())
    @settings(max_examples=80, deadline=None)
    def test_csr_direct_matches_mask_path(self, mask):
        # The recycled-CSR kernel must return the plain scipy wrapper's
        # matching exactly, not just one of the same size.
        n = mask.shape[0]
        indices = np.flatnonzero(mask).astype(np.int32) % np.int32(n)
        indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(mask.sum(axis=1, dtype=np.int32), out=indptr[1:])
        mask_match, mask_size = maximum_matching_mask(mask)
        csr_match, csr_size = kernels.scipy_matching_csr(indices, indptr, n)
        assert mask_size == csr_size
        assert np.array_equal(mask_match, csr_match)

    @given(mask=masks(max_n=6))
    @settings(max_examples=60, deadline=None)
    def test_cardinality_matches_pure_python(self, mask):
        # Matchings may legally differ between algorithms; their size may
        # not — feasibility verdicts hang off the cardinality alone.
        _, scipy_size = maximum_matching_mask(mask)
        _, python_size = maximum_matching_mask(mask, use_scipy=False)
        assert scipy_size == python_size

    def test_deep_augmenting_path_no_recursion_error(self):
        # Regression: rows 0..n-2 see columns {i, i+1}, row n-1 sees only
        # column 0 — the greedy first phase matches i -> i, and the last
        # row's augmenting path then rethreads the whole chain (length
        # ~2n).  The recursive DFS died on Python's 1000-frame limit here;
        # the explicit-stack version must find the perfect matching.
        n = 1500
        mask = np.zeros((n, n), dtype=bool)
        idx = np.arange(n - 1)
        mask[idx, idx] = True
        mask[idx, idx + 1] = True
        mask[n - 1, 0] = True
        match, size = maximum_matching_mask(mask, use_scipy=False)
        assert size == n
        assert np.array_equal(np.sort(match), np.arange(n))


# ---------------------------------------------------------------------- #
# BigSlice
# ---------------------------------------------------------------------- #


class TestBigSliceIdentity:
    @given(demand=demand_matrices(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_slicing_loop_bit_identity(self, demand):
        with kernels.use_backend(kernels.ORACLE):
            stuffed, _ = quick_stuff_diagnosed(demand)
        if stuffed.max(initial=0.0) <= VOLUME_TOL:
            return
        oracle = stuffed.copy()
        kernel = stuffed.copy()
        state = BigSliceState(kernel)
        n = stuffed.shape[0]
        rows = np.arange(n)
        for _ in range(n * n):
            if oracle.max(initial=0.0) <= VOLUME_TOL:
                break
            oracle_exc = kernel_exc = None
            try:
                o_threshold, o_match = big_slice(oracle)
            except ValueError as exc:
                oracle_exc = str(exc)
            try:
                k_threshold, k_match = big_slice(kernel, state=state)
            except ValueError as exc:
                kernel_exc = str(exc)
            # Exception parity: degraded matrices must degrade identically.
            assert oracle_exc == kernel_exc
            if oracle_exc is not None:
                break
            assert o_threshold == k_threshold
            assert np.array_equal(o_match, k_match)
            mask = np.zeros((n, n), dtype=bool)
            mask[rows, o_match] = True
            oracle[mask] = np.maximum(oracle[mask] - o_threshold, 0.0)
            kernel[rows, k_match] = np.maximum(
                kernel[rows, k_match] - k_threshold, 0.0
            )
            assert np.array_equal(oracle, kernel)


# ---------------------------------------------------------------------- #
# full schedulers, demands and fault plans
# ---------------------------------------------------------------------- #


class TestSchedulerIdentity:
    @given(demand=demand_matrices(max_n=6))
    @settings(max_examples=40, deadline=None)
    def test_solstice_schedule_bit_identity(self, demand):
        params = _params_for(demand.shape[0])
        with kernels.use_backend(kernels.ORACLE):
            scheduler = SolsticeScheduler()
            oracle = scheduler.schedule(demand, params)
            oracle_events = [d.event for d in scheduler.last_diagnostics]
        with kernels.use_backend(kernels.KERNEL):
            scheduler = SolsticeScheduler()
            kernel = scheduler.schedule(demand, params)
            kernel_events = [d.event for d in scheduler.last_diagnostics]
        assert _schedules_equal(oracle, kernel)
        assert oracle_events == kernel_events

    @given(demand=demand_matrices(max_n=6))
    @settings(max_examples=25, deadline=None)
    def test_eclipse_schedule_bit_identity(self, demand):
        params = _params_for(demand.shape[0])
        with kernels.use_backend(kernels.ORACLE):
            oracle = EclipseScheduler().schedule(demand, params)
        with kernels.use_backend(kernels.KERNEL):
            kernel = EclipseScheduler().schedule(demand, params)
        assert _schedules_equal(oracle, kernel)

    @given(demand=tied_demands(), window=st.integers(min_value=3, max_value=30))
    @example(  # one greedy step: skip margin and winner rule
        demand=np.array([[1, 1, 1, 2], [2, 2, 1, 1], [1, 1, 1, 2], [1, 1, 1, 1.0]]),
        window=3,
    )
    @example(  # later steps: the carry comes from the smallest duration >= α
        demand=np.array([[0, 1, 3, 1], [1, 1, 1, 1], [1, 1, 1, 3], [1, 1, 1, 1.0]]),
        window=9,
    )
    @settings(max_examples=400, deadline=None)
    def test_eclipse_matches_oracle_on_exact_rate_ties(self, demand, window):
        # Exact ties are where the kernel's skip margin and its ascending
        # record rule over the solved candidates decide the winner.  Each
        # pinned demand broke a wrong kernel (see the module docstring).
        params = SwitchParams(
            n_ports=demand.shape[0], eps_rate=0.5, ocs_rate=1.0, reconfig_delay=1.0
        )
        with kernels.use_backend(kernels.ORACLE):
            oracle = EclipseScheduler(window=window).schedule(demand, params)
        with kernels.use_backend(kernels.KERNEL):
            kernel = EclipseScheduler(window=window).schedule(demand, params)
        assert _schedules_equal(oracle, kernel)

    @given(
        demand=demand_matrices(max_n=6, max_value=20.0),
        plan=fault_plans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_simulated_results_identical_under_faults(self, demand, plan):
        n = demand.shape[0]
        params = _params_for(n)
        with kernels.use_backend(kernels.ORACLE):
            oracle_sched = SolsticeScheduler().schedule(demand, params)
        with kernels.use_backend(kernels.KERNEL):
            kernel_sched = SolsticeScheduler().schedule(demand, params)
        oracle_result = simulate_hybrid(demand, oracle_sched, params, faults=plan)
        kernel_result = simulate_hybrid(demand, kernel_sched, params, faults=plan)
        assert np.array_equal(
            oracle_result.finish_times, kernel_result.finish_times, equal_nan=True
        )
        same_completion = (
            oracle_result.completion_time == kernel_result.completion_time
            or (
                np.isnan(oracle_result.completion_time)
                and np.isnan(kernel_result.completion_time)
            )
        )
        assert same_completion


# ---------------------------------------------------------------------- #
# equal-sum tolerance
# ---------------------------------------------------------------------- #


class TestEqualSumTolerance:
    def test_large_phi_ulp_noise_accepted(self):
        # Regression: a few ulps of φ = 1e12 is ~1e-4 in absolute terms —
        # far above the old absolute 1e-6 cutoff, but exactly the float
        # dust big stuffed matrices carry.  The relative tolerance must
        # accept it.
        matrix = np.full((4, 4), 2.5e11)
        matrix[0, 0] += 3e-4
        assert is_equal_sum(matrix)

    def test_genuinely_unequal_sums_rejected(self):
        matrix = np.full((4, 4), 2.5e11)
        matrix[0, 0] += 1e7  # 10 ppm of phi: a real imbalance
        assert not is_equal_sum(matrix)

    def test_large_phi_decomposes(self):
        rng = np.random.default_rng(7)
        demand = rng.random((8, 8)) * 1e9
        with kernels.use_backend(kernels.ORACLE):
            stuffed, diag = quick_stuff_diagnosed(demand)
        assert diag is None
        assert is_equal_sum(stuffed)
        # The dust threshold must scale with φ like the equal-sum check
        # does: at φ ~ 1e10 the subtraction noise alone dwarfs any fixed
        # absolute cutoff.
        phi = float(stuffed.sum(axis=1).max())
        terms = birkhoff_von_neumann(stuffed, tol=1e-9 * phi)
        total = sum(term.weight for term in terms)
        assert abs(total - phi) <= 1e-6 * phi
