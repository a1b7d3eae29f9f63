"""Measurement: byte accounting and cost breakdowns.

The paper's single performance metric (Section IV) is *the average number
of bytes propagated per peer*, split into candidate-filtering,
candidate-dissemination and candidate-aggregation cost.  This package
measures that metric directly from transport activity
(:class:`~repro.metrics.accounting.CostAccounting`) and summarizes it
(:class:`~repro.metrics.breakdown.CostBreakdown`).
"""

from repro.metrics.accounting import CostAccounting
from repro.metrics.breakdown import CostBreakdown
from repro.metrics.registry import CounterMetric, HistogramMetric, MetricsRegistry

__all__ = [
    "CostAccounting",
    "CostBreakdown",
    "CounterMetric",
    "HistogramMetric",
    "MetricsRegistry",
]
