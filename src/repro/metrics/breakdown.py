"""Cost breakdown summaries.

A :class:`CostBreakdown` is an immutable snapshot of the paper's reported
quantities for one protocol run: the three component costs, their total,
and the supporting counts (candidates, heavy groups, results).  Experiment
modules build one per trial and the report layer renders them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.metrics.accounting import CostAccounting
from repro.net.wire import NETFILTER_CATEGORIES, CostCategory


@dataclass(frozen=True)
class CostBreakdown:
    """Average per-peer byte costs for one netFilter (or naive) run.

    All values are *averages per peer* in bytes, matching the y-axes of
    Figures 5(b), 6(b), 7 and 8 of the paper.
    """

    filtering: float = 0.0
    dissemination: float = 0.0
    aggregation: float = 0.0
    control: float = 0.0
    naive: float = 0.0
    sampling: float = 0.0
    gossip: float = 0.0
    sketch: float = 0.0
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        """The netFilter total the paper reports: filtering +
        dissemination + aggregation (control traffic excluded, as in
        Section IV)."""
        return self.filtering + self.dissemination + self.aggregation

    @property
    def grand_total(self) -> float:
        """Everything measured, including control/sampling/gossip/naive."""
        return (
            self.total
            + self.control
            + self.naive
            + self.sampling
            + self.gossip
            + self.sketch
        )

    @classmethod
    def from_accounting(cls, accounting: CostAccounting, n_peers: int) -> "CostBreakdown":
        """Summarize a :class:`CostAccounting` into per-peer averages."""
        return cls.from_delta({}, accounting.bytes_by_category(), n_peers)

    @classmethod
    def from_delta(
        cls,
        before: dict[CostCategory, int],
        after: dict[CostCategory, int],
        n_peers: int,
    ) -> "CostBreakdown":
        """Per-peer averages of what was charged between two
        :meth:`CostAccounting.bytes_by_category` snapshots — the cost of
        one protocol run on a network that carries other traffic too."""

        def avg(category: CostCategory) -> float:
            return (after.get(category, 0) - before.get(category, 0)) / n_peers

        return cls(
            filtering=avg(CostCategory.FILTERING),
            dissemination=avg(CostCategory.DISSEMINATION),
            aggregation=avg(CostCategory.AGGREGATION),
            control=avg(CostCategory.CONTROL),
            naive=avg(CostCategory.NAIVE),
            sampling=avg(CostCategory.SAMPLING),
            gossip=avg(CostCategory.GOSSIP),
            sketch=avg(CostCategory.SKETCH),
        )

    def as_dict(self) -> dict[str, float]:
        """Flat dictionary (used by the experiment report tables)."""
        return {
            "filtering": self.filtering,
            "dissemination": self.dissemination,
            "aggregation": self.aggregation,
            "total": self.total,
            "control": self.control,
            "naive": self.naive,
            "sampling": self.sampling,
            "gossip": self.gossip,
            "sketch": self.sketch,
            **self.extras,
        }

    def __str__(self) -> str:
        return (
            f"CostBreakdown(total={self.total:.1f} B/peer: "
            f"filtering={self.filtering:.1f}, "
            f"dissemination={self.dissemination:.1f}, "
            f"aggregation={self.aggregation:.1f})"
        )


NETFILTER_TOTAL_CATEGORIES = NETFILTER_CATEGORIES
"""Re-exported for callers that need the category tuple with the breakdown."""
