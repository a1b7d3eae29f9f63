"""Shape tests for the figure experiments — the paper's observations must
hold on the small scale the test suite runs at."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.config import NetFilterConfig
from repro.experiments.harness import ExperimentScale
from repro.experiments.sweep import (
    FIGURES,
    predicted_optimal_f,
    predicted_optimal_g,
    run_sweep,
)

SMALL = ExperimentScale.small()


def _sweep(name, **changes):
    return run_sweep(replace(FIGURES[name], **changes), SMALL, seed=0)


@pytest.fixture(scope="module")
def fig5_rows():
    return _sweep("fig5", values=(25, 50, 100, 200, 400))


@pytest.fixture(scope="module")
def fig6_rows():
    return _sweep("fig6", values=(1, 2, 3, 5, 8))


class TestFigure5:
    def test_candidates_decrease_with_g(self, fig5_rows):
        candidates = [row["candidates/peer"] for row in fig5_rows]
        assert candidates[0] > candidates[-1]
        assert candidates == sorted(candidates, reverse=True)

    def test_small_g_prunes_nothing(self, fig5_rows):
        # Paper: at g <= 50 filtering performs like naive — candidates per
        # peer near the local-set size o (=500 at this scale).
        assert fig5_rows[0]["candidates/peer"] > 400

    def test_filtering_cost_linear_in_g(self, fig5_rows):
        for row in fig5_rows:
            assert row["filtering"] == pytest.approx(4 * 3 * row["g"] * 0.99, rel=0.02)

    def test_total_cost_u_shaped_with_interior_minimum(self, fig5_rows):
        totals = [row["total"] for row in fig5_rows]
        best = totals.index(min(totals))
        assert 0 < best < len(totals) - 1

    def test_minimum_near_formula3_prediction(self, fig5_rows):
        predicted = predicted_optimal_g(SMALL, seed=0)
        best = min(fig5_rows, key=lambda row: row["total"])["g"]
        assert best / 2 <= predicted <= best * 2

    def test_heavy_groups_rise_then_fall(self, fig5_rows):
        counts = [row["heavy groups"] for row in fig5_rows]
        peak = counts.index(max(counts))
        assert counts[peak] >= counts[0]
        assert counts[-1] < counts[peak]


class TestFigure6:
    def test_candidates_monotone_nonincreasing_in_f(self, fig6_rows):
        candidates = [row["candidates"] for row in fig6_rows]
        assert all(a >= b for a, b in zip(candidates, candidates[1:]))

    def test_heavy_groups_increase_with_f(self, fig6_rows):
        counts = [row["heavy groups"] for row in fig6_rows]
        assert counts == sorted(counts)

    def test_filtering_cost_linear_in_f(self, fig6_rows):
        for row in fig6_rows:
            assert row["filtering"] == pytest.approx(4 * row["f"] * 100 * 0.99, rel=0.02)

    def test_filtering_cost_strictly_increases_with_f(self, fig6_rows):
        filtering = [row["filtering"] for row in fig6_rows]
        assert all(a < b for a, b in zip(filtering, filtering[1:]))

    def test_total_cost_minimized_at_small_f(self, fig6_rows):
        best = min(fig6_rows, key=lambda row: row["total"])["f"]
        assert best in (2, 3, 4)

    def test_prediction_close_to_measured(self, fig6_rows):
        predicted = predicted_optimal_f(SMALL, seed=0)
        best = min(fig6_rows, key=lambda row: row["total"])["f"]
        assert abs(predicted - best) <= 1


class TestFigure7:
    @pytest.fixture(scope="class")
    def rows(self):
        return _sweep("fig7", values=(0.0, 0.5, 1.0))

    def test_netfilter_beats_naive_at_moderate_skew(self, rows):
        for row in rows:
            assert row["netFilter"] < row["naive"]

    def test_both_costs_decrease_with_skew(self, rows):
        naive = [row["naive"] for row in rows]
        netfilter = [row["netFilter"] for row in rows]
        assert naive[-1] < naive[0]
        assert netfilter[-1] < netfilter[0]

    def test_cost_ratio_small_at_default_skew(self, rows):
        # The paper reports 2-5% at n=1e6; at small scale netFilter's fixed
        # s_a·f·g filtering cost weighs more, so the bound is looser.
        assert rows[-1]["alpha"] == 1.0
        assert rows[-1]["ratio"] < 0.45

    def test_tuned_f_is_five_at_a_million_items(self):
        large = FIGURES["fig7"].configs_at(ExperimentScale.large())
        assert [config.num_filters for config in large] == [5]
        assert [config.num_filters for config in FIGURES["fig7"].configs_at(SMALL)] == [3]


def _rho_columns(row):
    """Figure 8's netFilter costs, in ascending-ρ column order."""
    return [cost for column, cost in row.columns.items() if column.startswith("rho=")]


class TestFigure8:
    @pytest.fixture(scope="class")
    def rows(self):
        # Scaled-down settings: g tracks 1/rho as in the paper.
        return _sweep(
            "fig8",
            values=(0.5, 1.0),
            configs=tuple(
                NetFilterConfig(filter_size=g, num_filters=f, threshold_ratio=rho)
                for rho, g, f in ((0.005, 200, 2), (0.01, 100, 3), (0.1, 10, 4))
            ),
        )

    def test_larger_ratio_costs_less(self, rows):
        for row in rows:
            costs = _rho_columns(row)
            # Sorted by rho ascending: cost should not increase.
            assert len(costs) == 3
            assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_all_netfilter_curves_below_naive(self, rows):
        for row in rows:
            assert max(_rho_columns(row)) < row["naive"]
