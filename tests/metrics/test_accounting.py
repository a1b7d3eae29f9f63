"""Tests for byte accounting."""

from __future__ import annotations

import pytest

from repro.metrics.accounting import CostAccounting
from repro.metrics.breakdown import CostBreakdown
from repro.net.wire import NETFILTER_CATEGORIES, CostCategory


@pytest.fixture
def accounting() -> CostAccounting:
    acc = CostAccounting()
    acc.record(0, CostCategory.FILTERING, 100)
    acc.record(1, CostCategory.FILTERING, 200)
    acc.record(1, CostCategory.AGGREGATION, 50)
    acc.record(2, CostCategory.NAIVE, 400)
    return acc


def test_total_bytes_all(accounting):
    assert accounting.total_bytes() == 750


def test_total_bytes_filtered(accounting):
    assert accounting.total_bytes(CostCategory.FILTERING) == 300
    assert accounting.total_bytes(CostCategory.FILTERING, CostCategory.AGGREGATION) == 350


def test_per_peer(accounting):
    assert accounting.per_peer_bytes(CostCategory.FILTERING) == {0: 100, 1: 200}
    assert accounting.peer_bytes(1) == 250
    assert accounting.peer_bytes(1, CostCategory.AGGREGATION) == 50


def test_average_divides_by_population(accounting):
    # The paper's divisor is the whole population, not the three peers
    # that transmitted.
    assert len(accounting.per_peer_bytes()) == 3
    assert accounting.total_bytes() / 10 == 75.0
    assert accounting.total_bytes([CostCategory.FILTERING]) / 10 == 30.0
    breakdown = CostBreakdown.from_delta({}, accounting.bytes_by_category(), 10)
    assert breakdown.filtering == 30.0
    assert breakdown.grand_total == 75.0


def test_average_rejects_bad_population(accounting):
    with pytest.raises(ZeroDivisionError):
        CostBreakdown.from_delta({}, accounting.bytes_by_category(), 0)


def test_netfilter_average(accounting):
    # filtering + aggregation; the naive bytes are not netFilter's
    assert accounting.total_bytes(NETFILTER_CATEGORIES) / 10 == 35.0


def test_message_counts(accounting):
    assert accounting.message_count() == 4
    assert accounting.message_count(CostCategory.FILTERING) == 2


def test_bytes_by_category(accounting):
    totals = accounting.bytes_by_category()
    assert totals[CostCategory.NAIVE] == 400


def test_max_peer_bytes(accounting):
    assert max(accounting.per_peer_bytes().values()) == 400
    assert max(accounting.per_peer_bytes(CostCategory.FILTERING).values()) == 200
    assert CostAccounting().per_peer_bytes() == {}


def test_explicit_empty_selection_means_zero(accounting):
    """An explicit empty category list selects nothing — never 'all'."""
    assert accounting.total_bytes([]) == 0
    assert accounting.message_count([]) == 0
    assert accounting.per_peer_bytes([]) == {}
    assert accounting.peer_bytes(1, []) == 0


def test_iterable_selection_matches_varargs(accounting):
    both = [CostCategory.FILTERING, CostCategory.AGGREGATION]
    assert accounting.total_bytes(both) == accounting.total_bytes(*both)
    assert accounting.message_count(both) == accounting.message_count(*both)
    assert accounting.per_peer_bytes(both) == accounting.per_peer_bytes(*both)
    assert accounting.peer_bytes(1, both) == accounting.peer_bytes(1, *both)
    assert accounting.total_bytes(iter(both)) == 350  # any iterable works
