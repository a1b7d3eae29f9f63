"""Tests for the metric primitives and the registry."""

from __future__ import annotations

import math

import pytest

from repro.metrics.registry import (
    DEFAULT_TIME_BUCKETS,
    CounterMetric,
    HistogramMetric,
    MetricsRegistry,
)


# ----------------------------------------------------------------------
# Counter
# ----------------------------------------------------------------------
def test_counter_increments():
    counter = CounterMetric("c")
    counter.inc()
    counter.inc(5)
    assert counter.value == 6


def test_counter_rejects_decrease():
    counter = CounterMetric("c")
    with pytest.raises(ValueError):
        counter.inc(-1)


# ----------------------------------------------------------------------
# Histogram bucket math
# ----------------------------------------------------------------------
def test_histogram_bucket_boundaries_are_inclusive():
    # A value exactly on a bound must land in that bound's bucket
    # (Prometheus ``le`` semantics).
    hist = HistogramMetric("h", buckets=(1.0, 10.0, 100.0))
    for value in (1.0, 10.0, 100.0):
        hist.observe(value)
    assert hist.bucket_counts == [1, 1, 1, 0]


def test_histogram_overflow_bucket():
    hist = HistogramMetric("h", buckets=(1.0, 10.0))
    hist.observe(10.000001)
    hist.observe(1e9)
    assert hist.bucket_counts == [0, 0, 2]


def test_histogram_underflow_goes_to_first_bucket():
    hist = HistogramMetric("h", buckets=(1.0, 10.0))
    hist.observe(-5.0)
    hist.observe(0.0)
    assert hist.bucket_counts[0] == 2


def test_histogram_stats():
    hist = HistogramMetric("h", buckets=(1.0, 10.0))
    for value in (0.5, 2.0, 3.5):
        hist.observe(value)
    assert hist.count == 3
    assert hist.total == 6.0
    assert hist.mean == 2.0
    assert hist.min == 0.5
    assert hist.max == 3.5


def test_histogram_quantiles():
    hist = HistogramMetric("h", buckets=(1.0, 10.0, 100.0))
    for _ in range(99):
        hist.observe(0.5)
    hist.observe(50.0)
    assert hist.quantile(0.5) == 1.0
    assert hist.quantile(1.0) == 100.0
    assert hist.quantile(0.0) == 1.0
    # q = 0 names the smallest observation's bucket, never an empty one.
    single = HistogramMetric("s", buckets=(1.0, 10.0, 100.0))
    single.observe(50.0)
    assert single.quantile(0.0) == 100.0
    assert math.isnan(HistogramMetric("e", buckets=(1.0,)).quantile(0.5))
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_histogram_rejects_bad_buckets():
    with pytest.raises(ValueError):
        HistogramMetric("h", buckets=())
    with pytest.raises(ValueError):
        HistogramMetric("h", buckets=(10.0, 1.0))
    with pytest.raises(ValueError):
        HistogramMetric("h", buckets=(1.0, 1.0))


def test_histogram_trailing_inf_bound_is_dropped():
    hist = HistogramMetric("h", buckets=(1.0, math.inf))
    assert hist.bounds == (1.0,)
    assert len(hist.bucket_counts) == 2


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_get_or_create_returns_same_object():
    registry = MetricsRegistry()
    a = registry.counter("x")
    b = registry.counter("x")
    assert a is b


def test_registry_names_and_len():
    registry = MetricsRegistry()
    registry.counter("b")
    registry.counter("a")
    assert registry.names() == ["a", "b"]
    assert registry.get("a") is not None
    assert registry.get("missing") is None


def test_default_time_buckets_strictly_increasing():
    assert list(DEFAULT_TIME_BUCKETS) == sorted(set(DEFAULT_TIME_BUCKETS))
