"""Sketch-based *approximate* IFI — the related-work comparator.

The paper's related work ([9], [12]; footnote 5) covers techniques that
return an approximate frequent-item set with an ε error tolerance: false
positives are possible, reported values carry error, and the cost scales
as ``O(a/ε)``.  The paper declines to compare against them quantitatively
because the guarantees differ; this module implements a representative
member of that class so the trade-off can actually be measured (see the
``approximate vs exact`` ablation bench).

Protocol (one hierarchical round trip, like each netFilter phase):

1. *Candidate nomination* — every peer nominates its local items with
   value ≥ t/N.  By pigeonhole, any globally frequent item has local
   value ≥ t/N at some peer, so the nominated union has **no false
   negatives**.  Nominations merge as a keyed union up the tree.
2. *Sketch aggregation* — every peer contributes a Count-Min sketch of
   its full local set; sketches are linear, so a vector-sum convergecast
   yields the sketch of the global values.
3. The root reports every nominated item whose sketch estimate is ≥ t.
   Estimates only over-count (by ≤ ε·v w.h.p.), so the report is a
   **superset** of the exact answer with approximate values — exactly the
   guarantee profile of the ε-tolerant related work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.aggregation.combiners import KeyedSumCombiner, VectorSumCombiner
from repro.aggregation.hierarchical import AggregationEngine
from repro.aggregation.spec import AggregateSpec
from repro.core.netfilter import totals_spec
from repro.core.sketches import CountMinSketch
from repro.errors import ConfigurationError
from repro.items.itemset import LocalItemSet
from repro.metrics.breakdown import CostBreakdown
from repro.net.node import Node
from repro.net.wire import CostCategory


@dataclass(frozen=True)
class ApproximateConfig:
    """Configuration of the approximate protocol.

    Attributes
    ----------
    epsilon:
        Relative over-estimate tolerance: estimates exceed true values by
        at most ``ε·v`` with probability ``1-δ`` per item.
    delta:
        Per-item failure probability of the ε bound.
    threshold_ratio:
        ``ρ`` with ``t = ρ·v``.
    sketch_seed:
        Shared seed for the sketch hash salts.
    """

    epsilon: float = 0.001
    delta: float = 0.05
    threshold_ratio: float = 0.01
    sketch_seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.threshold_ratio <= 1:
            raise ConfigurationError(
                f"threshold_ratio must be in (0, 1], got {self.threshold_ratio}"
            )
        # epsilon/delta are validated by CountMinSketch.from_error.


@dataclass(frozen=True)
class ApproximateResult:
    """Outcome of one approximate-IFI run.

    ``reported`` holds sketch *estimates*, not exact values; it is a
    superset of the exact answer (no false negatives) but may contain
    false positives — compare with
    :class:`~repro.core.netfilter.NetFilterResult`'s exact guarantees.
    """

    reported: LocalItemSet
    threshold: int
    grand_total: int
    breakdown: CostBreakdown
    config: ApproximateConfig

    @property
    def total_cost(self) -> float:
        """Average per-peer bytes of the run."""
        return self.breakdown.sketch


class ApproximateIFIProtocol:
    """A representative ε-tolerant frequent-items protocol."""

    def __init__(self, config: ApproximateConfig) -> None:
        self.config = config
        self._template = CountMinSketch.from_error(
            config.epsilon, config.delta, seed=config.sketch_seed
        )

    # ------------------------------------------------------------------
    # Specs
    # ------------------------------------------------------------------
    def _nomination_spec(self, local_threshold: float) -> AggregateSpec:
        def contribute(node: Node, _: Any) -> LocalItemSet:
            nominated = node.items.select(node.items.values >= local_threshold)
            # Union semantics: values are irrelevant here (the sketch
            # supplies estimates); normalize to 1 so the merged set is a
            # membership union priced at one pair per nominee.
            return LocalItemSet(nominated.ids, np.ones(len(nominated), dtype=np.int64))

        return AggregateSpec(
            name="approx.nominate",
            combiner=KeyedSumCombiner(),
            contribute=contribute,
            up_category=CostCategory.SKETCH,
        )

    def _sketch_spec(self) -> AggregateSpec:
        width, depth, seed = (
            self._template.width,
            self._template.depth,
            self._template.seed,
        )

        def contribute(node: Node, _: Any) -> np.ndarray:
            sketch = CountMinSketch(width=width, depth=depth, seed=seed)
            sketch.add(node.items)
            return sketch.to_vector()

        return AggregateSpec(
            name="approx.sketch",
            combiner=VectorSumCombiner(width * depth),
            contribute=contribute,
            up_category=CostCategory.SKETCH,
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, engine: AggregationEngine) -> ApproximateResult:
        """One approximate-IFI round over the engine's hierarchy."""
        network = engine.network
        before = network.accounting.bytes_by_category()

        grand_total, n_participants = engine.run(totals_spec())
        threshold = max(int(np.ceil(self.config.threshold_ratio * grand_total)), 1)
        local_threshold = threshold / max(float(n_participants), 1.0)

        nominated: LocalItemSet = engine.run(self._nomination_spec(local_threshold))
        flat = engine.run(self._sketch_spec())
        sketch = CountMinSketch.from_vector(
            flat, self._template.width, self._template.depth, self._template.seed
        )

        estimates = sketch.estimate(nominated.ids)
        keep = estimates >= threshold
        reported = LocalItemSet(nominated.ids[keep], estimates[keep])

        breakdown = CostBreakdown.from_delta(
            before, network.accounting.bytes_by_category(), network.n_peers
        )
        return ApproximateResult(
            reported=reported,
            threshold=threshold,
            grand_total=int(grand_total),
            breakdown=breakdown,
            config=self.config,
        )
