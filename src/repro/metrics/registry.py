"""In-process metric primitives: named counters and a fixed-bucket histogram.

The registry complements the event-level :class:`~repro.sim.trace.Tracer`:
where the tracer answers "what happened, when", the registry's counters
answer "how often" for the events a robustness run asserts on (drops,
retransmits, failovers, ...) without keeping one record per occurrence.
Every per-event fact with a value (latency, size, duration) lives in the
trace once; the run report folds it back into a :class:`HistogramMetric`.

Bucket convention follows Prometheus: a bucket is an inclusive upper bound
(``value <= bound``) and the last bucket is always ``+inf``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Sequence

#: Default histogram buckets, in simulated time units (link latency is 1.0
#: by default, so these resolve one-hop through deep-tree round trips).
DEFAULT_TIME_BUCKETS: tuple[float, ...] = (
    0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 250.0, 1000.0,
)


class CounterMetric:
    """A monotonically increasing count.

    Examples
    --------
    >>> c = CounterMetric("msgs")
    >>> c.inc(); c.inc(2)
    >>> c.value
    3
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (got {amount})")
        self.value += amount


class HistogramMetric:
    """Fixed-bucket histogram with inclusive upper bounds.

    The bucket list is closed with ``+inf`` automatically; an observation
    lands in the first bucket whose bound it does not exceed, so a value
    exactly on a boundary counts toward that boundary's bucket.

    Examples
    --------
    >>> h = HistogramMetric("lat", buckets=(1.0, 10.0))
    >>> for v in (0.5, 1.0, 3.0, 99.0):
    ...     h.observe(v)
    >>> h.bucket_counts
    [2, 1, 1]
    >>> h.count, h.total
    (4, 103.5)
    """

    __slots__ = (
        "name",
        "bounds",
        "bucket_counts",
        "count",
        "total",
        "min",
        "max",
        "_last_value",
        "_last_index",
    )

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_TIME_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one finite bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        if math.isinf(bounds[-1]):
            bounds = bounds[:-1]
        self.name = name
        self.bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        # Memoized bucket index for the most recent value: metrics like
        # message latency observe long runs of identical values (zero
        # jitter), making the bisect redundant.  NaN never equals itself,
        # so the cache starts cold.
        self._last_value = math.nan
        self._last_index = 0

    def observe(self, value: float) -> None:
        if value == self._last_value:
            index = self._last_index
        else:
            index = bisect_left(self.bounds, value)
            self._last_value = value
            self._last_index = index
        self.bucket_counts[index] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Mean observed value (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket containing
        the ``q``-th observation (``inf`` if it falls in the overflow
        bucket, ``nan`` when empty).  ``q = 0`` names the smallest
        observation's bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        # Rank 1 at least: the q-th observation is a real one, so an empty
        # leading bucket never answers.
        rank = max(q * self.count, 1.0)
        running = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts):
            running += bucket
            if running >= rank:
                return bound
        return math.inf


# Nothing in ``repro`` constructs a gauge or a timer.  The two classes below
# remain only as the ``GaugeMetric.inc`` and ``TimerMetric.observe`` rows of
# the profiler's patch table (``perf/trace.py``), and go with that table.
class GaugeMetric:
    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class TimerMetric:
    __slots__ = ("histogram",)

    def __init__(self, name: str) -> None:
        self.histogram = HistogramMetric(name)

    def observe(self, duration: float) -> None:
        self.histogram.observe(duration)


class MetricsRegistry:
    """Named counters, created on first use.

    ``registry.counter("net.msgs").inc()`` either creates the counter or
    returns the existing one, so every component naming a counter shares
    the same object.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, CounterMetric] = {}

    def counter(self, name: str) -> CounterMetric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = CounterMetric(name)
        return metric

    def get(self, name: str) -> CounterMetric | None:
        """The counter registered under ``name`` (None if absent)."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        """All registered counter names, sorted."""
        return sorted(self._metrics)
