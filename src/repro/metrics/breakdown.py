"""Cost breakdown summaries.

A :class:`CostBreakdown` is an immutable snapshot of the paper's reported
quantities for one protocol run: the three component costs, their total,
and the per-peer bytes of every other category.
:meth:`~CostBreakdown.from_delta` is the one derivation of the paper's
metric from the byte accounting; experiment modules build one per trial
and the report layer renders them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.wire import CostCategory


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
    #: Push-sum bytes, priced by :mod:`repro.vec.gossip`; no category holds them.
    gossip: float = 0.0
    sketch: float = 0.0

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
    def from_delta(
        cls,
        before: dict[CostCategory, int],
        after: dict[CostCategory, int],
        n_peers: int,
    ) -> "CostBreakdown":
        """Per-peer averages of what was charged between two
        :meth:`CostAccounting.bytes_by_category` snapshots — the cost of
        one protocol run on a network that carries other traffic too
        (``before={}``: everything so far).  The divisor is the whole
        population, not only the peers that transmitted, as in the paper."""

        def avg(category: CostCategory) -> float:
            return (after.get(category, 0) - before.get(category, 0)) / n_peers

        return cls(
            filtering=avg(CostCategory.FILTERING),
            dissemination=avg(CostCategory.DISSEMINATION),
            aggregation=avg(CostCategory.AGGREGATION),
            control=avg(CostCategory.CONTROL),
            naive=avg(CostCategory.NAIVE),
            sampling=avg(CostCategory.SAMPLING),
            sketch=avg(CostCategory.SKETCH),
        )

    def __str__(self) -> str:
        return (
            f"CostBreakdown(total={self.total:.1f} B/peer: "
            f"filtering={self.filtering:.1f}, "
            f"dissemination={self.dissemination:.1f}, "
            f"aggregation={self.aggregation:.1f})"
        )

