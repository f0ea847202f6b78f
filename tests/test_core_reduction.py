"""Tests for Algorithm 1 — cp-SwitchDemandReduction."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import FilterConfig
from repro.core.reduction import cp_switch_demand_reduction, reduce_with_config
from repro.switch.params import fast_ocs_params, slow_ocs_params


def figure2_demand() -> np.ndarray:
    """A 6-port demand reconstructing every value the paper's Figure 2
    walk-through states (Bt=10, Rt=4): the 'orange' entry D[5,2] = 3
    (1-based) belongs to both a qualifying row and a qualifying column,
    with DI[5, n+1] = 15 and DI[n+1, 2] = 14 at the moment it is assigned,
    so it lands on the many-to-one path, making DI[n+1, 2] = 17."""
    demand = np.zeros((6, 6))
    demand[0, 1] = 5.0
    demand[1, 1] = 4.0
    demand[2, 1] = 5.0
    demand[1, 3] = 20.0  # above Bt: never composite, stays regular
    demand[4, 0] = 4.0
    demand[4, 1] = 3.0  # the "orange" entry: row 5 / col 2 in paper numbering
    demand[4, 2] = 5.0
    demand[4, 3] = 6.0
    return demand


class TestFigure2Example:
    """The worked demand-reduction example of the paper (Figure 2)."""

    @pytest.fixture
    def reduction(self):
        return cp_switch_demand_reduction(figure2_demand(), fanout_threshold=4, volume_threshold=10.0)

    def test_qualifying_row_aggregates_to_o2m_column(self, reduction):
        # Row 5 (0-based 4) is the only qualifying row; its three row-only
        # entries 4+5+6 = 15 aggregate into the one-to-many column.
        assert reduction.reduced[4, 6] == pytest.approx(15.0)
        assert reduction.reduced[:4, 6].sum() == 0.0
        assert reduction.reduced[5, 6] == 0.0

    def test_orange_entry_balances_to_lighter_path(self, reduction):
        # At assignment time the o2m sum is 15 and the m2o sum is 14, so
        # the orange entry joins the many-to-one path: 14 + 3 = 17, and
        # the one-to-many aggregate stays 15 (18 had it gone there).
        assert reduction.filtered[4, 1] == 3.0
        assert reduction.reduced[6, 1] == 17.0
        assert reduction.reduced[4, 6] == 15.0
        assert reduction.m2o_loads[1] == 17.0
        assert reduction.o2m_loads[4] == 15.0

    def test_entry_above_bt_stays_regular(self, reduction):
        assert reduction.filtered[1, 3] == 0.0
        assert reduction.reduced[1, 3] == pytest.approx(20.0)

    def test_filtered_matches_paper(self, reduction):
        expected_filtered = np.zeros((6, 6))
        expected_filtered[0, 1] = 5.0
        expected_filtered[1, 1] = 4.0
        expected_filtered[2, 1] = 5.0
        expected_filtered[4, 0] = 4.0
        expected_filtered[4, 1] = 3.0
        expected_filtered[4, 2] = 5.0
        expected_filtered[4, 3] = 6.0
        np.testing.assert_allclose(reduction.filtered, expected_filtered)

    def test_regular_block_is_demand_minus_filtered(self, reduction):
        np.testing.assert_allclose(
            reduction.reduced[:6, :6], figure2_demand() - reduction.filtered
        )

    def test_volume_conserved(self, reduction):
        assert reduction.reduced.sum() == pytest.approx(figure2_demand().sum())


class TestReductionBasics:
    def test_empty_demand_reduces_to_empty(self):
        reduction = cp_switch_demand_reduction(np.zeros((4, 4)), 2, 1.0)
        assert reduction.reduced.shape == (5, 5)
        assert reduction.reduced.sum() == 0.0
        assert reduction.filtered.sum() == 0.0

    def test_no_qualifying_fanout_keeps_everything_regular(self):
        demand = np.diag([1.0, 2.0, 3.0, 4.0])
        reduction = cp_switch_demand_reduction(demand, fanout_threshold=2, volume_threshold=10.0)
        assert reduction.filtered.sum() == 0.0
        np.testing.assert_allclose(reduction.reduced[:4, :4], demand)

    def test_uniform_row_above_threshold_goes_composite(self):
        demand = np.zeros((6, 6))
        demand[2, [0, 1, 3, 4, 5]] = 2.0
        reduction = cp_switch_demand_reduction(demand, fanout_threshold=4, volume_threshold=5.0)
        assert reduction.reduced[2, 6] == pytest.approx(10.0)
        assert reduction.reduced[:6, :6].sum() == 0.0

    def test_big_entries_never_composite(self):
        demand = np.zeros((6, 6))
        demand[2, [0, 1, 3, 4, 5]] = 100.0  # huge fan-out but entries > Bt
        reduction = cp_switch_demand_reduction(demand, fanout_threshold=4, volume_threshold=5.0)
        assert reduction.filtered.sum() == 0.0

    def test_composite_row_and_column_corner_is_zero(self):
        demand = np.zeros((6, 6))
        demand[2, [0, 1, 3, 4, 5]] = 2.0
        demand[[0, 1, 3, 4], 5] += 2.0
        reduction = cp_switch_demand_reduction(demand, fanout_threshold=4, volume_threshold=5.0)
        assert reduction.reduced[6, 6] == 0.0

    def test_loads_partition_filtered(self):
        # Every filtered entry rides exactly one composite path: the
        # aggregates add up to Df, each within its own line of Df.
        rng = np.random.default_rng(7)
        demand = rng.uniform(0, 3, (10, 10)) * (rng.random((10, 10)) < 0.6)
        reduction = cp_switch_demand_reduction(demand, 3, 2.0)
        filtered = reduction.filtered
        o2m, m2o = reduction.o2m_loads, reduction.m2o_loads
        assert o2m.sum() + m2o.sum() == pytest.approx(filtered.sum(), rel=1e-12)
        assert (o2m <= filtered.sum(axis=1) * (1 + 1e-12)).all()
        assert (m2o <= filtered.sum(axis=0) * (1 + 1e-12)).all()
        assert o2m.any() and m2o.any()

    def test_loads_match_greedy_assignment(self):
        # Lines 6-11: a row-only entry joins its sender's path, a
        # column-only entry its receiver's.  Lines 12-15: then, in
        # row-major order, an entry of both goes to the lighter path (ties
        # to the sender's).
        rng = np.random.default_rng(8)
        demand = rng.uniform(0, 3, (10, 10)) * (rng.random((10, 10)) < 0.6)
        reduction = cp_switch_demand_reduction(demand, 3, 2.0)
        small = (demand > 0) & (demand <= 2.0)
        rows, cols = small.sum(axis=1) >= 3, small.sum(axis=0) >= 3
        o2m = (demand * (small & rows[:, None] & ~cols[None, :])).sum(axis=1)
        m2o = (demand * (small & ~rows[:, None] & cols[None, :])).sum(axis=0)
        for i, j in zip(*np.nonzero(small & rows[:, None] & cols[None, :])):
            if o2m[i] <= m2o[j]:
                o2m[i] += demand[i, j]
            else:
                m2o[j] += demand[i, j]
        assert (rows & cols).any(), "the demand must exercise the greedy"
        np.testing.assert_allclose(reduction.o2m_loads, o2m, rtol=1e-12)
        np.testing.assert_allclose(reduction.m2o_loads, m2o, rtol=1e-12)

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            cp_switch_demand_reduction(np.zeros((3, 3)), 0, 1.0)
        with pytest.raises(ValueError):
            cp_switch_demand_reduction(np.zeros((3, 3)), 1, -1.0)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            cp_switch_demand_reduction(np.zeros((3, 4)), 1, 1.0)


class TestFilterConfig:
    def test_paper_defaults_fast_ocs(self):
        params = fast_ocs_params(128)
        config = FilterConfig()
        # Bt = alpha * delta * Co = 1 * 0.02 ms * 100 Mb/ms = 2 Mb.
        assert config.resolve_volume_threshold(params) == pytest.approx(2.0)
        # Rt = ceil(0.7 * 128) = 90.
        assert config.resolve_fanout_threshold(params) == 90

    def test_paper_defaults_slow_ocs(self):
        params = slow_ocs_params(64)
        config = FilterConfig()
        # Bt = 0.1 * 20 ms * 100 Mb/ms = 200 Mb.
        assert config.resolve_volume_threshold(params) == pytest.approx(200.0)
        assert config.resolve_fanout_threshold(params) == 45

    def test_explicit_overrides_win(self):
        params = fast_ocs_params(32)
        config = FilterConfig(volume_threshold=7.5, fanout_threshold=5)
        assert config.resolve_volume_threshold(params) == 7.5
        assert config.resolve_fanout_threshold(params) == 5

    def test_alpha_beta_knobs(self):
        params = fast_ocs_params(32)
        config = FilterConfig(alpha=0.5, beta=0.5)
        assert config.resolve_volume_threshold(params) == pytest.approx(1.0)
        assert config.resolve_fanout_threshold(params) == 16

    def test_invalid_beta_rejected(self):
        with pytest.raises(ValueError):
            FilterConfig(beta=0.0)
        with pytest.raises(ValueError):
            FilterConfig(beta=1.5)

    def test_reduce_with_config(self):
        params = fast_ocs_params(6)
        demand = figure2_demand()
        reduction = reduce_with_config(
            demand, params, FilterConfig(volume_threshold=10.0, fanout_threshold=4)
        )
        assert reduction.reduced[6, 1] == pytest.approx(17.0)


class TestFrozenReduction:
    """ReducedDemand arrays are provenance shared by every derived
    schedule; mutating them must fail loudly, not corrupt silently."""

    def test_arrays_read_only(self):
        reduction = cp_switch_demand_reduction(figure2_demand(), 4, 10.0)
        for name in ("reduced", "filtered"):
            with pytest.raises(ValueError):
                getattr(reduction, name)[0, 0] = 1

    def test_load_views_inherit_read_only(self):
        reduction = cp_switch_demand_reduction(figure2_demand(), 4, 10.0)
        with pytest.raises(ValueError):
            reduction.o2m_loads[0] = 1.0
        with pytest.raises(ValueError):
            reduction.m2o_loads[0] = 1.0
