"""Tests for cost breakdowns."""

from __future__ import annotations

from repro.metrics.accounting import CostAccounting
from repro.metrics.breakdown import CostBreakdown
from repro.net.wire import CostCategory


def test_total_is_the_three_netfilter_components():
    breakdown = CostBreakdown(
        filtering=10.0, dissemination=2.0, aggregation=5.0, control=100.0
    )
    assert breakdown.total == 17.0


def test_grand_total_includes_everything():
    breakdown = CostBreakdown(
        filtering=1.0, dissemination=1.0, aggregation=1.0,
        control=1.0, naive=1.0, sampling=1.0, gossip=1.0,
    )
    assert breakdown.grand_total == 7.0


def test_from_delta_of_empty_snapshot_divides_by_population():
    accounting = CostAccounting()
    accounting.record(0, CostCategory.FILTERING, 100)
    accounting.record(1, CostCategory.DISSEMINATION, 40)
    accounting.record(2, CostCategory.AGGREGATION, 60)
    breakdown = CostBreakdown.from_delta({}, accounting.bytes_by_category(), n_peers=10)
    assert breakdown.filtering == 10.0
    assert breakdown.dissemination == 4.0
    assert breakdown.aggregation == 6.0
    assert breakdown.total == 20.0


def test_str_mentions_total():
    assert "total=" in str(CostBreakdown(filtering=3.0))
