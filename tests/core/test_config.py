"""Unit tests for netFilter configuration validation."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import NetFilterConfig, carve_at_ratio, ceil_threshold
from repro.errors import ConfigurationError
from repro.items.itemset import LocalItemSet


def test_valid_ratio_config():
    config = NetFilterConfig(filter_size=100, num_filters=3, threshold_ratio=0.01)
    assert config.resolve_threshold(1_000_000) == 10_000


def test_threshold_ceil_rounding():
    config = NetFilterConfig(filter_size=10, threshold_ratio=0.01)
    assert config.resolve_threshold(101) == 2  # ceil(1.01)


def test_threshold_never_below_one():
    config = NetFilterConfig(filter_size=10, threshold_ratio=0.001)
    assert config.resolve_threshold(5) == 1


def test_absolute_threshold_passthrough():
    config = NetFilterConfig(filter_size=10, threshold=42)
    assert config.resolve_threshold(999_999) == 42


def test_both_thresholds_rejected():
    with pytest.raises(ConfigurationError):
        NetFilterConfig(filter_size=10, threshold_ratio=0.1, threshold=5)


def test_neither_threshold_rejected():
    with pytest.raises(ConfigurationError):
        NetFilterConfig(filter_size=10)


@given(
    ratio=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
    total=st.integers(min_value=0, max_value=10**12),
)
def test_ceil_threshold_is_the_canonical_ceil(ratio, total):
    """Every consumer of the t = ceil(rho * v) derivation (NetFilter,
    request carving, the front-door cache) goes through
    :func:`ceil_threshold`; pin it to the mathematical definition."""
    value = ceil_threshold(ratio, total)
    assert value == max(math.ceil(ratio * total), 1)
    assert value >= 1


@given(
    ratio=st.floats(min_value=1e-6, max_value=1.0, allow_nan=False),
    total=st.integers(min_value=1, max_value=10**9),
)
def test_ceil_threshold_agrees_with_resolve_threshold(ratio, total):
    config = NetFilterConfig(filter_size=10, threshold_ratio=ratio)
    assert config.resolve_threshold(total) == ceil_threshold(ratio, total)


def test_carve_at_ratio_keeps_the_threshold_boundary():
    # grand total 1000 at ratio 0.0101 -> t = ceil(10.1) = 11
    frequent = LocalItemSet.from_pairs({1: 10, 2: 11, 3: 40})
    items, threshold = carve_at_ratio(frequent, 0.0101, 1000)
    assert threshold == ceil_threshold(0.0101, 1000) == 11
    assert items == LocalItemSet.from_pairs({2: 11, 3: 40})


def test_invalid_filter_size_rejected():
    with pytest.raises(ConfigurationError):
        NetFilterConfig(filter_size=0, threshold_ratio=0.1)


def test_invalid_num_filters_rejected():
    with pytest.raises(ConfigurationError):
        NetFilterConfig(filter_size=10, num_filters=0, threshold_ratio=0.1)


def test_ratio_out_of_range_rejected():
    with pytest.raises(ConfigurationError):
        NetFilterConfig(filter_size=10, threshold_ratio=0.0)
    with pytest.raises(ConfigurationError):
        NetFilterConfig(filter_size=10, threshold_ratio=1.5)


def test_negative_threshold_rejected():
    with pytest.raises(ConfigurationError):
        NetFilterConfig(filter_size=10, threshold=0)
