"""Unit tests for heavy-group bookkeeping and candidate materialization."""

from __future__ import annotations

import numpy as np

from repro.core.filters import FilterBank
from repro.core.verification import HeavyGroups, materialize_candidates
from repro.items.itemset import LocalItemSet
from repro.net.wire import SizeModel


def test_from_aggregate_extracts_heavy_groups():
    bank = FilterBank(num_filters=2, filter_size=3)
    flat = np.array([10, 0, 0, 0, 10, 10])
    heavy = HeavyGroups.from_aggregate(bank, flat, threshold=10)
    assert heavy.per_filter[0].tolist() == [0]
    assert heavy.per_filter[1].tolist() == [1, 2]
    assert heavy.total_count == 3
    assert heavy.counts == (1, 2)


def test_wire_bytes_is_sg_per_identifier():
    heavy = HeavyGroups(per_filter=(np.array([1, 2]), np.array([5])))
    assert heavy.wire_bytes(SizeModel()) == 12


def test_is_empty_when_any_filter_has_none():
    partial = HeavyGroups(per_filter=(np.array([1]), np.array([], dtype=np.int64)))
    assert partial.is_empty()
    full = HeavyGroups(per_filter=(np.array([1]), np.array([0])))
    assert not full.is_empty()


def test_materialize_keeps_only_all_heavy_items():
    bank = FilterBank(num_filters=1, filter_size=4, hash_seed=0)
    items = LocalItemSet.from_pairs({i: i + 1 for i in range(20)})
    groups = bank.filters[0].group_of(items.ids)
    heavy = HeavyGroups(per_filter=(np.array([0, 2]),))
    result = materialize_candidates(items, bank, heavy)
    expected_ids = items.ids[np.isin(groups, [0, 2])]
    assert result.ids.tolist() == expected_ids.tolist()
    # Local values are preserved exactly.
    for item_id in result.ids.tolist():
        assert result.value_of(item_id) == items.value_of(item_id)


def test_materialize_empty_heavy_set_gives_nothing():
    bank = FilterBank(num_filters=2, filter_size=4)
    items = LocalItemSet.from_pairs({1: 5})
    heavy = HeavyGroups(per_filter=(np.array([], dtype=np.int64), np.array([0])))
    assert len(materialize_candidates(items, bank, heavy)) == 0


def test_materialize_empty_item_set():
    bank = FilterBank(num_filters=1, filter_size=4)
    heavy = HeavyGroups(per_filter=(np.array([0]),))
    assert len(materialize_candidates(LocalItemSet.empty(), bank, heavy)) == 0


def test_heavy_item_is_always_materialized():
    # The no-false-negative invariant at the single-peer level: an item
    # whose global value exceeds the threshold makes all its groups heavy,
    # so the peer holding it must keep it.
    bank = FilterBank(num_filters=3, filter_size=8, hash_seed=1)
    items = LocalItemSet.from_pairs({42: 1000, 7: 1})
    flat = bank.local_group_aggregates(items)
    heavy = HeavyGroups.from_aggregate(bank, flat, threshold=500)
    result = materialize_candidates(items, bank, heavy)
    assert 42 in result


def test_lookup_is_built_once_and_matches_the_aggregate():
    bank = FilterBank(num_filters=2, filter_size=3)
    flat = np.array([10, 0, 0, 0, 10, 10])
    from_root = HeavyGroups.from_aggregate(bank, flat, threshold=10)
    assert from_root.lookup(bank).tolist() == [True, False, False, False, True, True]
    from_wire = HeavyGroups(per_filter=from_root.per_filter)
    assert from_wire.lookup(bank).tolist() == from_root.lookup(bank).tolist()
    assert from_wire.lookup(bank) is from_wire.lookup(bank)
