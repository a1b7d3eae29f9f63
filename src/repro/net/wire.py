"""Wire-size model and cost categories.

Section IV of the paper measures communication cost in bytes using three
size constants: ``s_a`` (an aggregate value), ``s_g`` (an item-group
identifier) and ``s_i`` (an item identifier), all 4 bytes in the evaluation
(Table III).  :class:`SizeModel` holds these constants; every payload class
computes its own size from them, so changing the model re-prices every
protocol consistently.

:class:`CostCategory` names the buckets the paper's evaluation splits the
total cost into (candidate filtering / dissemination / aggregation), plus
buckets for the baseline and for traffic the paper explicitly excludes
(hierarchy formation and maintenance, i.e. ``CONTROL``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class CostCategory(str, enum.Enum):
    """Accounting bucket for transmitted bytes.

    The paper's evaluation (Section V) reports ``FILTERING``,
    ``DISSEMINATION`` and ``AGGREGATION`` for netFilter, and the total for
    the naive baseline (``NAIVE``).  ``CONTROL`` covers hierarchy
    formation/maintenance traffic, which Section IV explicitly excludes
    from the cost model; we still measure it so ablations can quantify it.
    """

    #: Hierarchy build, heartbeats, repair, request routing.
    CONTROL = "control"
    #: Phase-1 up-sweep: item-group aggregate vectors (s_a · f · g per peer).
    FILTERING = "filtering"
    #: Heavy-group identifiers pushed down the hierarchy (s_g · f · w).
    DISSEMINATION = "dissemination"
    #: Phase-2 up-sweep: candidate (identifier, value) pairs.
    AGGREGATION = "aggregation"
    #: The naive baseline's full item-set convergecast.
    NAIVE = "naive"
    #: Random-branch sampling traffic for parameter estimation (Section IV-E).
    SAMPLING = "sampling"
    #: Sketch-based approximate-IFI traffic (the related-work comparator
    #: of the paper's footnote 5).
    SKETCH = "sketch"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: The categories that make up the paper's reported netFilter total.
NETFILTER_CATEGORIES: tuple[CostCategory, ...] = (
    CostCategory.FILTERING,
    CostCategory.DISSEMINATION,
    CostCategory.AGGREGATION,
)


@dataclass(frozen=True)
class SizeModel:
    """Byte sizes of the wire primitives (paper Table II / III).

    Attributes
    ----------
    aggregate_bytes:
        ``s_a`` — one aggregate value.
    group_id_bytes:
        ``s_g`` — one item-group identifier.
    item_id_bytes:
        ``s_i`` — one item identifier.
    header_bytes:
        Fixed per-message overhead.  The paper counts payload only, so the
        default is 0; set it to model realistic packet headers in
        sensitivity studies.
    """

    aggregate_bytes: int = 4
    group_id_bytes: int = 4
    item_id_bytes: int = 4
    header_bytes: int = 0

    def __post_init__(self) -> None:
        for name in ("aggregate_bytes", "group_id_bytes", "item_id_bytes"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.header_bytes < 0:
            raise ValueError("header_bytes must be non-negative")

    @property
    def pair_bytes(self) -> int:
        """``s_a + s_i`` — one (identifier, value) pair, the unit of both
        candidate aggregation and the naive baseline."""
        return self.aggregate_bytes + self.item_id_bytes


#: Default model used throughout the evaluation (4-byte integers).
PAPER_SIZE_MODEL = SizeModel()
