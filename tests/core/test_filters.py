"""Unit and property tests for the hash filter bank."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import filters
from repro.core.filters import FilterBank, HashFilter, splitmix64
from repro.errors import ConfigurationError
from repro.items.itemset import LocalItemSet


class TestSplitmix:
    def test_bijective_on_sample(self):
        values = np.arange(10_000, dtype=np.uint64)
        mixed = splitmix64(values)
        assert np.unique(mixed).size == values.size

    def test_deterministic(self):
        values = np.arange(100, dtype=np.uint64)
        assert np.array_equal(splitmix64(values), splitmix64(values))


class TestHashFilter:
    def test_groups_in_range(self):
        hash_filter = HashFilter(n_groups=16, salt=7)
        groups = hash_filter.group_of(np.arange(1000))
        assert groups.min() >= 0
        assert groups.max() < 16

    def test_consecutive_ids_spread_uniformly(self):
        # The regression that motivated splitmix64: consecutive ids must
        # not concentrate in a strided subset of groups.
        hash_filter = HashFilter(n_groups=100, salt=123)
        groups = hash_filter.group_of(np.arange(100_000))
        counts = np.bincount(groups, minlength=100)
        assert counts.min() > 0.8 * counts.mean()
        assert counts.max() < 1.2 * counts.mean()

    def test_different_salts_give_different_functions(self):
        ids = np.arange(1000)
        a = HashFilter(50, salt=1).group_of(ids)
        b = HashFilter(50, salt=2).group_of(ids)
        assert not np.array_equal(a, b)

    def test_local_group_values_conserve_mass(self):
        hash_filter = HashFilter(n_groups=8, salt=0)
        items = LocalItemSet.from_pairs({i: i + 1 for i in range(50)})
        vector = hash_filter.local_group_values(items)
        assert vector.sum() == items.total_value

    def test_empty_item_set_gives_zero_vector(self):
        hash_filter = HashFilter(n_groups=8, salt=0)
        assert hash_filter.local_group_values(LocalItemSet.empty()).tolist() == [0] * 8

    def test_invalid_groups_rejected(self):
        with pytest.raises(ConfigurationError):
            HashFilter(0, salt=1)


class TestFilterBank:
    def test_aggregate_shape(self):
        bank = FilterBank(num_filters=3, filter_size=10)
        items = LocalItemSet.from_pairs({1: 5})
        assert bank.local_group_aggregates(items).shape == (30,)

    def test_each_filter_conserves_mass(self):
        bank = FilterBank(num_filters=4, filter_size=7, hash_seed=2)
        items = LocalItemSet.from_pairs({i: 2 * i + 1 for i in range(30)})
        for vector in bank.split_aggregate(bank.local_group_aggregates(items)):
            assert vector.sum() == items.total_value

    def test_split_roundtrip(self):
        bank = FilterBank(num_filters=2, filter_size=3)
        flat = np.arange(6)
        parts = bank.split_aggregate(flat)
        assert np.array_equal(np.concatenate(parts), flat)

    def test_split_wrong_shape_rejected(self):
        bank = FilterBank(num_filters=2, filter_size=3)
        with pytest.raises(ConfigurationError):
            bank.split_aggregate(np.zeros(5))

    def test_heavy_groups_thresholding(self):
        bank = FilterBank(num_filters=1, filter_size=4)
        heavy = bank.heavy_groups_per_filter(np.array([5, 10, 9, 0]), threshold=9)
        assert heavy[0].tolist() == [1, 2]

    def test_same_seed_same_bank(self):
        ids = np.arange(100)
        a = FilterBank(3, 10, hash_seed=5)
        b = FilterBank(3, 10, hash_seed=5)
        for fa, fb in zip(a.filters, b.filters):
            assert np.array_equal(fa.group_of(ids), fb.group_of(ids))

    def test_candidate_mask_requires_all_filters_heavy(self):
        bank = FilterBank(num_filters=2, filter_size=4, hash_seed=1)
        ids = np.array([11, 22, 33])
        groups0 = bank.filters[0].group_of(ids)
        groups1 = bank.filters[1].group_of(ids)
        # Only item 22's groups are heavy under both filters.
        heavy = [np.array([groups0[1]]), np.array([groups1[1]])]
        mask = bank.candidate_mask(ids, heavy)
        expected = [
            groups0[k] == groups0[1] and groups1[k] == groups1[1] for k in range(3)
        ]
        assert mask.tolist() == expected
        assert mask[1]

    def test_candidate_mask_wrong_filter_count_rejected(self):
        bank = FilterBank(num_filters=2, filter_size=4)
        with pytest.raises(ConfigurationError):
            bank.candidate_mask(np.array([1]), [np.array([0])])

    def test_invalid_bank_rejected(self):
        with pytest.raises(ConfigurationError):
            FilterBank(num_filters=0, filter_size=4)


class TestProperties:
    @given(
        st.sets(st.integers(min_value=0, max_value=10**9), max_size=100),
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=50)
    def test_group_assignment_total_and_range(self, ids, n_groups, salt):
        hash_filter = HashFilter(n_groups=n_groups, salt=salt)
        id_array = np.fromiter(ids, dtype=np.int64, count=len(ids))
        groups = hash_filter.group_of(id_array)
        assert groups.shape == id_array.shape
        if groups.size:
            assert 0 <= groups.min() and groups.max() < n_groups

    @given(st.dictionaries(st.integers(0, 10**6), st.integers(0, 10**6), max_size=50))
    @settings(max_examples=50)
    def test_bank_mass_conservation(self, pairs):
        bank = FilterBank(num_filters=2, filter_size=9, hash_seed=4)
        items = LocalItemSet.from_pairs(pairs)
        flat = bank.local_group_aggregates(items)
        for vector in bank.split_aggregate(flat):
            assert vector.sum() == items.total_value


_MASK64 = (1 << 64) - 1


def reference_group(item_id: int, salt: int, n_groups: int) -> int:
    """``mix64(x XOR salt) mod g`` in Python integers — the splitmix64
    finalizer as published, independent of the numpy kernel."""
    z = ((item_id ^ salt) + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) % n_groups


def per_filter_mask(bank: FilterBank, ids: np.ndarray, heavy: list[np.ndarray]) -> np.ndarray:
    """The candidate decision as one lookup per filter, ANDed."""
    mask = np.ones(ids.shape, dtype=bool)
    for hash_filter, groups in zip(bank.filters, heavy):
        mask &= np.isin(hash_filter.group_of(ids), groups)
    return mask


item_ids = st.sets(st.integers(min_value=-(2**63), max_value=2**63 - 1), max_size=60)
bank_shapes = st.tuples(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=2**32),
)


class TestFusedKernel:
    @given(item_ids, bank_shapes)
    @settings(max_examples=60)
    def test_rows_equal_per_filter_group_of(self, ids, shape):
        num_filters, filter_size, seed = shape
        bank = FilterBank(num_filters, filter_size, hash_seed=seed)
        id_array = np.array(sorted(ids), dtype=np.int64)
        flat = bank.flat_groups(id_array)
        assert flat.shape == (num_filters, id_array.size)
        assert flat.dtype == np.int64
        for index, hash_filter in enumerate(bank.filters):
            groups = hash_filter.group_of(id_array)
            assert np.array_equal(flat[index], index * filter_size + groups)
            assert groups.tolist() == [
                reference_group(x & _MASK64, hash_filter.salt, filter_size)
                for x in id_array.tolist()
            ]

    def test_blocking_does_not_change_groups(self, monkeypatch):
        bank = FilterBank(3, 17, hash_seed=9)
        ids = np.arange(-50, 50, dtype=np.int64) * 2**40
        whole = bank.flat_groups(ids)
        monkeypatch.setattr(filters, "_BLOCK", 7)
        assert np.array_equal(bank.flat_groups(ids), whole)
        assert np.array_equal(bank.filters[1].group_of(ids), whole[1] - 17)

    @given(
        st.dictionaries(
            st.integers(-(2**63), 2**63 - 1), st.integers(0, 2**40), max_size=60
        ),
        bank_shapes,
    )
    @settings(max_examples=60)
    def test_aggregates_conserve_mass_per_filter(self, pairs, shape):
        bank = FilterBank(*shape)
        items = LocalItemSet.from_pairs(pairs)
        flat = bank.local_group_aggregates(items)
        assert flat.dtype == np.int64
        for hash_filter, vector in zip(bank.filters, bank.split_aggregate(flat)):
            assert int(vector.sum()) == items.total_value
            assert np.array_equal(vector, hash_filter.local_group_values(items))

    def test_empty_set_aggregates_to_zeros(self):
        bank = FilterBank(3, 5, hash_seed=1)
        flat = bank.local_group_aggregates(LocalItemSet.empty())
        assert flat.dtype == np.int64
        assert flat.tolist() == [0] * 15
        no_ids = np.empty(0, dtype=np.int64)
        assert bank.candidate_mask(no_ids, [no_ids] * 3).shape == (0,)

    def test_aggregates_are_exact_above_2_to_53(self):
        # float64 weights would round 2**53 + 1 down and lose a unit of mass.
        items = LocalItemSet.from_pairs({10: 2**53 + 1, 11: 2})
        bank = FilterBank(2, 8, 3)
        for vector in bank.split_aggregate(bank.local_group_aggregates(items)):
            assert int(vector.sum()) == 2**53 + 3
        assert int(bank.filters[0].local_group_values(items).sum()) == 2**53 + 3

    @given(item_ids, bank_shapes, st.data())
    @settings(max_examples=60)
    def test_candidate_mask_equals_per_filter_and(self, ids, shape, data):
        num_filters, filter_size, seed = shape
        bank = FilterBank(num_filters, filter_size, hash_seed=seed)
        id_array = np.array(sorted(ids), dtype=np.int64)
        heavy_ids = st.sets(st.integers(0, filter_size - 1))
        heavy = [
            np.array(sorted(data.draw(heavy_ids)), dtype=np.int64)
            for _ in range(num_filters)
        ]
        expected = per_filter_mask(bank, id_array, heavy)
        assert np.array_equal(bank.candidate_mask(id_array, heavy), expected)
        assert np.array_equal(bank.candidate_mask(id_array, bank.heavy_lookup(heavy)), expected)

    def test_filter_without_heavy_group_prunes_everything(self):
        bank = FilterBank(2, 4, hash_seed=1)
        heavy = [np.arange(4), np.empty(0, dtype=np.int64)]
        assert not bank.candidate_mask(np.arange(50), heavy).any()
