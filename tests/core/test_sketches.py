"""Tests for the Count-Min sketch."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sketches import CountMinSketch
from repro.errors import ConfigurationError
from repro.items.itemset import LocalItemSet
from repro.net.wire import SizeModel


def test_never_underestimates():
    sketch = CountMinSketch(width=32, depth=3, seed=0)
    items = LocalItemSet.from_pairs({i: i + 1 for i in range(200)})
    sketch.add(items)
    estimates = sketch.estimate(items.ids)
    assert (estimates >= items.values).all()


def test_add_is_exact_above_2_to_53():
    # float64 weights would round 2**53 + 1 down and lose a unit of mass.
    sketch = CountMinSketch(width=8, depth=2, seed=3)
    sketch.add(LocalItemSet.from_pairs({10: 2**53 + 1, 11: 2}))
    assert [int(row.sum()) for row in sketch.counts] == [2**53 + 3] * 2


def test_exact_when_no_collisions():
    sketch = CountMinSketch(width=4096, depth=4, seed=0)
    items = LocalItemSet.from_pairs({1: 10, 2: 20, 3: 30})
    sketch.add(items)
    assert sketch.estimate(items.ids).tolist() == [10, 20, 30]


def test_linearity_merge_equals_union():
    a = LocalItemSet.from_pairs({i: 2 * i + 1 for i in range(50)})
    b = LocalItemSet.from_pairs({i: 7 for i in range(25, 75)})
    separate = CountMinSketch(width=64, depth=3, seed=5)
    separate.add(a)
    other = CountMinSketch(width=64, depth=3, seed=5)
    other.add(b)
    merged_counts = separate.to_vector() + other.to_vector()
    together = CountMinSketch(width=64, depth=3, seed=5)
    together.add(a.merge(b))
    assert np.array_equal(merged_counts, together.to_vector())


def test_vector_roundtrip():
    sketch = CountMinSketch(width=8, depth=2, seed=1)
    sketch.add(LocalItemSet.from_pairs({3: 9}))
    rebuilt = CountMinSketch.from_vector(sketch.to_vector(), 8, 2, 1)
    assert np.array_equal(rebuilt.counts, sketch.counts)
    assert rebuilt.estimate(np.array([3]))[0] >= 9


def test_from_error_sizing():
    sketch = CountMinSketch.from_error(epsilon=0.01, delta=0.05)
    assert sketch.width == 272  # ceil(e / 0.01)
    assert sketch.depth == 3  # ceil(ln 20)


def test_error_bound_statistically():
    rng = np.random.default_rng(0)
    values = rng.integers(1, 50, size=2000)
    items = LocalItemSet(np.arange(2000), values)
    total = items.total_value
    sketch = CountMinSketch.from_error(epsilon=0.01, delta=0.05, seed=3)
    sketch.add(items)
    over = sketch.estimate(items.ids) - items.values
    # At most ~delta fraction exceed epsilon * total.
    violations = int((over > 0.01 * total).sum())
    assert violations <= 0.1 * len(items)


def test_empty_queries_and_adds():
    sketch = CountMinSketch(width=8, depth=2)
    sketch.add(LocalItemSet.empty())
    assert sketch.estimate(np.array([], dtype=np.int64)).size == 0
    assert sketch.counts.sum() == 0


def test_size_bytes():
    sketch = CountMinSketch(width=100, depth=3)
    assert sketch.size_bytes(SizeModel()) == 1200


def test_invalid_params():
    with pytest.raises(ConfigurationError):
        CountMinSketch(width=0, depth=1)
    with pytest.raises(ConfigurationError):
        CountMinSketch.from_error(epsilon=0.0, delta=0.1)
    with pytest.raises(ConfigurationError):
        CountMinSketch.from_error(epsilon=0.1, delta=1.0)
    with pytest.raises(ConfigurationError):
        CountMinSketch.from_vector(np.zeros(5), 4, 2, 0)


@given(st.dictionaries(st.integers(0, 10**6), st.integers(1, 1000), max_size=60))
@settings(max_examples=40)
def test_upper_bound_property(pairs):
    items = LocalItemSet.from_pairs(pairs)
    sketch = CountMinSketch(width=16, depth=2, seed=7)
    sketch.add(items)
    if len(items):
        assert (sketch.estimate(items.ids) >= items.values).all()
    # Total mass per row is conserved.
    assert (sketch.counts.sum(axis=1) == items.total_value).all()
