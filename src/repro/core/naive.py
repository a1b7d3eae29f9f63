"""The naive baseline (Section IV-B).

Every peer forwards its full local item set up the hierarchy; internal
nodes merge (keyed-sum) what they receive with their own set and forward
the union.  The root ends with the exact global value of *every* item and
filters by the threshold.

This is exact but wasteful — the point of the paper's evaluation (Figures
7 and 8) is that netFilter achieves the same exact answer at a few percent
of this cost.  Note the measured cost is far below the intuitive
``O(n · N)``: a peer only propagates pairs for items with non-zero values
in its subtree, which is what Formula 2 bounds by ``(s_a+s_i)·o·(h-1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.aggregation.combiners import KeyedSumCombiner
from repro.aggregation.hierarchical import AggregationEngine
from repro.aggregation.spec import AggregateSpec
from repro.core.config import NetFilterConfig
from repro.core.netfilter import totals_spec
from repro.items.itemset import LocalItemSet
from repro.metrics.breakdown import CostBreakdown
from repro.net.node import Node
from repro.net.wire import CostCategory


@dataclass(frozen=True)
class NaiveResult:
    """Outcome of one naive-collection run."""

    frequent: LocalItemSet
    all_items: LocalItemSet
    threshold: int
    grand_total: int
    n_participants: int
    breakdown: CostBreakdown
    avg_items_per_peer: float
    #: Simulated time the run took (two convergecasts).
    elapsed_time: float = 0.0
    #: Worst per-phase coverage fraction across the two convergecasts.
    coverage: float = 1.0
    #: Whether both convergecasts covered every live peer (exactness
    #: holds only when they did).
    complete: bool = True

    @property
    def frequent_ids(self) -> np.ndarray:
        """Ids of the reported frequent items, ascending."""
        return self.frequent.ids

    @property
    def total_cost(self) -> float:
        """Average per-peer bytes of the full collection."""
        return self.breakdown.naive

    def __str__(self) -> str:
        return (
            f"NaiveResult({len(self.frequent)} frequent items, "
            f"{self.breakdown.naive:.0f} B/peer)"
        )


def full_collection_spec() -> AggregateSpec:
    """The naive keyed-sum over complete local item sets."""

    def contribute(node: Node, _: Any) -> LocalItemSet:
        return node.items

    return AggregateSpec(
        name="naive.full_collection",
        combiner=KeyedSumCombiner(),
        contribute=contribute,
        up_category=CostCategory.NAIVE,
    )


class NaiveProtocol:
    """Collect every item's global value at the root, then threshold.

    Accepts the same configuration object as :class:`~repro.core.netfilter.NetFilter`
    (only the threshold fields are used) so experiments can swap protocols.
    """

    def __init__(self, config: NetFilterConfig) -> None:
        self.config = config

    def run(self, engine: AggregationEngine) -> NaiveResult:
        """Execute the full collection and return the thresholded answer
        with measured costs."""
        network = engine.network
        accounting = network.accounting
        before = accounting.bytes_by_category()
        started_at = engine.sim.now

        totals_handle = engine.run_session(totals_spec())
        grand_total, n_participants = totals_handle.value
        threshold = self.config.resolve_threshold(int(grand_total))

        collection_handle = engine.run_session(full_collection_spec())
        all_items: LocalItemSet = collection_handle.value
        frequent = all_items.filter_values(threshold)

        breakdown = CostBreakdown.from_delta(
            before, accounting.bytes_by_category(), network.n_peers
        )
        return NaiveResult(
            frequent=frequent,
            all_items=all_items,
            threshold=threshold,
            grand_total=int(grand_total),
            n_participants=int(n_participants),
            breakdown=breakdown,
            avg_items_per_peer=breakdown.naive / network.size_model.pair_bytes,
            elapsed_time=engine.sim.now - started_at,
            coverage=min(totals_handle.coverage, collection_handle.coverage),
            complete=totals_handle.complete and collection_handle.complete,
        )
