"""Tests for Algorithm 2 — CPSched (scheduling within a composite path)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cpsched import composite_path_rate, cpsched
from repro.utils.validation import VOLUME_TOL


def frozen_cpsched(demands, duration, ocs_rate, eps_rate):
    """Algorithm 2's drain-event loop as first written, kept as an oracle.

    Every step re-finds the active endpoints with a full scan, takes the
    smallest of them and serves them all for the time it needs, clamped
    at zero.  ``cpsched`` must return the same bits.
    """
    remaining = np.asarray(demands, dtype=np.float64).copy()
    tau = float(duration)
    while tau > 0:
        active = np.nonzero(remaining > VOLUME_TOL)[0]
        active_count = active.size
        if active_count == 0:
            break
        smallest = float(remaining[active].min())
        rate = min(eps_rate, ocs_rate / active_count)
        tmax = max(smallest / eps_rate, smallest * active_count / ocs_rate)
        tcurr = min(tmax, tau)
        remaining[active] = np.maximum(remaining[active] - tcurr * rate, 0.0)
        tau -= tcurr
    return remaining


@st.composite
def composite_paths(draw):
    """A path's demands, duration and rates, with ties and dust.

    Entries come from a small pool, so several share a value; the pool
    holds zeros and values at, just below and just above ``VOLUME_TOL``.
    ``Co`` is drawn relative to the live count, so the path starts in the
    ``Co/Rc`` regime (more live endpoints than ``Co/Ce*``) or in the
    ``Ce*`` regime.
    """
    pool = draw(
        st.lists(
            st.one_of(
                st.sampled_from([0.0, VOLUME_TOL, VOLUME_TOL / 2, 2 * VOLUME_TOL]),
                st.floats(0.0, 50.0, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
        )
    )
    demands = np.array(
        draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40)), dtype=np.float64
    )
    eps_rate = draw(st.floats(0.5, 20.0))
    live = max(int((demands > VOLUME_TOL).sum()), 1)
    if draw(st.booleans()):  # Co/Ce* below the live count
        ocs_rate = eps_rate * live * draw(st.floats(0.05, 0.95))
    else:
        ocs_rate = eps_rate * live * draw(st.floats(1.0, 4.0))
    duration = draw(st.one_of(st.just(0.0), st.floats(0.0, 10.0, allow_nan=False)))
    return demands, duration, ocs_rate, eps_rate


class TestFigure3Example:
    """The paper's CPSched walk-through (Figure 3).

    A one-to-many composite path is granted for 3 time slots; it can serve
    up to 3 packets from each non-zero entry of the gray row [5, 3, 6], so
    only the first and third entries keep packets: [2, 0, 3].
    """

    def test_residuals_match_figure(self):
        demands = np.array([5.0, 3.0, 6.0])
        # "up to 3 packets from each entry" => per-entry rate 1 packet/slot:
        # Ce = 1, and Co large enough not to bind (Co/Rc >= 1).
        remaining = cpsched(demands, duration=3.0, ocs_rate=10.0, eps_rate=1.0)
        np.testing.assert_allclose(remaining, [2.0, 0.0, 3.0])

    def test_with_zero_entries_interleaved(self):
        demands = np.array([0.0, 5.0, 0.0, 3.0, 6.0, 0.0])
        remaining = cpsched(demands, duration=3.0, ocs_rate=10.0, eps_rate=1.0)
        np.testing.assert_allclose(remaining, [0.0, 2.0, 0.0, 0.0, 3.0, 0.0])


class TestRatePolicy:
    def test_eps_limited_when_few_endpoints(self):
        # 2 endpoints, Co/Rc = 50 >> Ce = 10: per-endpoint rate is Ce.
        demands = np.array([10.0, 10.0])
        remaining = cpsched(demands, duration=0.5, ocs_rate=100.0, eps_rate=10.0)
        np.testing.assert_allclose(remaining, [5.0, 5.0])

    def test_ocs_limited_when_many_endpoints(self):
        # 20 endpoints: Co/Rc = 5 < Ce = 10 -> rate 5 each.
        demands = np.full(20, 10.0)
        remaining = cpsched(demands, duration=1.0, ocs_rate=100.0, eps_rate=10.0)
        np.testing.assert_allclose(remaining, np.full(20, 5.0))

    def test_rate_rises_as_endpoints_drain(self):
        # Start OCS-limited with 4 endpoints (rate 2.5); when the small one
        # finishes the rest speed up to min(10, 10/3) = 10/3.
        demands = np.array([2.5, 10.0, 10.0, 10.0])
        remaining = cpsched(demands, duration=2.0, ocs_rate=10.0, eps_rate=10.0)
        # Phase 1: 1 ms at 2.5 each drains entry 0. Phase 2: 1 ms at 10/3.
        np.testing.assert_allclose(remaining, [0.0, 7.5 - 10 / 3, 7.5 - 10 / 3, 7.5 - 10 / 3])

    def test_zero_duration_serves_nothing(self):
        demands = np.array([1.0, 2.0])
        np.testing.assert_allclose(cpsched(demands, 0.0, 100.0, 10.0), demands)

    def test_all_drained_before_duration_ends(self):
        demands = np.array([1.0, 1.0])
        remaining = cpsched(demands, duration=100.0, ocs_rate=100.0, eps_rate=10.0)
        np.testing.assert_allclose(remaining, [0.0, 0.0])

    def test_never_negative(self):
        rng = np.random.default_rng(3)
        demands = rng.uniform(0, 5, 30)
        remaining = cpsched(demands, 1.7, 100.0, 10.0)
        assert (remaining >= 0).all()

    def test_monotone_in_duration(self):
        demands = np.array([4.0, 2.0, 7.0, 1.0])
        previous = demands.copy()
        for duration in (0.1, 0.2, 0.5, 1.0, 2.0):
            current = cpsched(demands, duration, 20.0, 5.0)
            assert (current <= previous + 1e-12).all()
            previous = current

    def test_input_not_mutated(self):
        demands = np.array([4.0, 2.0])
        cpsched(demands, 1.0, 100.0, 10.0)
        np.testing.assert_allclose(demands, [4.0, 2.0])


class TestMatchesFrozenLoop:
    @given(path=composite_paths())
    @settings(max_examples=400, deadline=None)
    def test_bit_identical_to_frozen_loop(self, path):
        demands, duration, ocs_rate, eps_rate = path
        expected = frozen_cpsched(demands, duration, ocs_rate, eps_rate)
        result = cpsched(demands, duration, ocs_rate, eps_rate)
        assert result.tobytes() == expected.tobytes()

    def test_endpoint_falling_to_volume_tol_leaves_the_path(self):
        # b - a is exactly VOLUME_TOL: once a drains, b holds VOLUME_TOL,
        # which is dust, not a live endpoint.
        a, b = 1.3777067972682586e-09, 2.3777067972682586e-09
        assert b - a == VOLUME_TOL
        demands = np.array([a, b])
        result = cpsched(demands, 1.0, 100.0, 1.0)
        assert result.tobytes() == frozen_cpsched(demands, 1.0, 100.0, 1.0).tobytes()
        assert result[1] == VOLUME_TOL


class TestCompositePathRate:
    def test_zero_endpoints(self):
        assert composite_path_rate(0, 100.0, 10.0) == 0.0

    def test_eps_bound(self):
        assert composite_path_rate(2, 100.0, 10.0) == 10.0

    def test_ocs_bound(self):
        assert composite_path_rate(50, 100.0, 10.0) == pytest.approx(2.0)


class TestValidation:
    def test_rejects_negative_demand(self):
        with pytest.raises(ValueError):
            cpsched(np.array([-1.0]), 1.0, 100.0, 10.0)

    def test_rejects_matrix_input(self):
        with pytest.raises(ValueError):
            cpsched(np.zeros((2, 2)), 1.0, 100.0, 10.0)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            cpsched(np.array([1.0]), -1.0, 100.0, 10.0)

    def test_rejects_zero_rates(self):
        with pytest.raises(ValueError):
            cpsched(np.array([1.0]), 1.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            cpsched(np.array([1.0]), 1.0, 100.0, 0.0)
