"""Count-Min sketches.

The linear-sketch workhorse behind the *approximate* distributed
frequent-item techniques the paper positions itself against ([9], [12] in
its related work; footnote 5 discusses their ``O(a/ε)`` cost).  A
Count-Min sketch with width ``w = ⌈e/ε⌉`` and depth ``d = ⌈ln(1/δ)⌉``
over-estimates any item's value by at most ``ε·v`` with probability at
least ``1-δ``, never under-estimates, and — being linear — merges by
element-wise addition, i.e. it aggregates hierarchically with the same
vector-sum machinery as netFilter's phase 1.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.filters import salted_groups
from repro.errors import ConfigurationError
from repro.items.itemset import LocalItemSet
from repro.net.wire import SizeModel


class CountMinSketch:
    """A Count-Min sketch over item ids.

    Parameters
    ----------
    width:
        Counters per row (``w``); the over-estimate bound is ``e/w`` of
        the total mass per row.
    depth:
        Independent hash rows (``d``); the failure probability is
        ``e^-d``.
    seed:
        Seed for the per-row hash salts — all peers must share it, just
        like netFilter's filter-bank seed.

    Examples
    --------
    >>> sketch = CountMinSketch(width=64, depth=3, seed=1)
    >>> sketch.add(LocalItemSet.from_pairs({5: 10, 9: 2}))
    >>> bool(sketch.estimate(np.array([5]))[0] >= 10)
    True
    """

    def __init__(self, width: int, depth: int, seed: int = 0) -> None:
        if width <= 0 or depth <= 0:
            raise ConfigurationError("width and depth must be positive")
        self.width = width
        self.depth = depth
        self.seed = seed
        rng = np.random.default_rng(seed)
        salts = rng.integers(0, 1 << 63, size=depth, dtype=np.int64)
        self._salts = salts.astype(np.uint64)[:, None]
        self.counts = np.zeros((depth, width), dtype=np.int64)

    @classmethod
    def from_error(cls, epsilon: float, delta: float, seed: int = 0) -> "CountMinSketch":
        """Size the sketch for over-estimate ``ε·(total mass)`` with
        probability ``1-δ``: ``w = ⌈e/ε⌉``, ``d = ⌈ln(1/δ)⌉``."""
        if not 0 < epsilon < 1:
            raise ConfigurationError(f"epsilon must be in (0, 1), got {epsilon}")
        if not 0 < delta < 1:
            raise ConfigurationError(f"delta must be in (0, 1), got {delta}")
        width = math.ceil(math.e / epsilon)
        depth = math.ceil(math.log(1.0 / delta))
        return cls(width=width, depth=max(depth, 1), seed=seed)

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------
    def _row_positions(self, item_ids: np.ndarray) -> np.ndarray:
        """Shape (depth, len(ids)): the counter index per row per item."""
        return salted_groups(item_ids, self._salts, self.width)

    # ------------------------------------------------------------------
    # Updates and queries
    # ------------------------------------------------------------------
    def add(self, item_set: LocalItemSet) -> None:
        """Fold a local item set into the sketch (exact int64)."""
        for row, positions in zip(self.counts, self._row_positions(item_set.ids)):
            np.add.at(row, positions, item_set.values)

    def estimate(self, item_ids: np.ndarray) -> np.ndarray:
        """Upper-bound estimates (min over rows) for the given ids."""
        per_row = np.take_along_axis(self.counts, self._row_positions(item_ids), axis=1)
        estimates: np.ndarray = per_row.min(axis=0)
        return estimates

    # ------------------------------------------------------------------
    # Linearity (what makes hierarchical aggregation work)
    # ------------------------------------------------------------------
    def to_vector(self) -> np.ndarray:
        """Flatten to a ``depth·width`` vector for vector-sum aggregation."""
        return self.counts.reshape(-1).copy()

    @classmethod
    def from_vector(
        cls, vector: np.ndarray, width: int, depth: int, seed: int
    ) -> "CountMinSketch":
        """Rebuild a sketch from an aggregated flat vector."""
        vector = np.asarray(vector, dtype=np.int64)
        if vector.shape != (width * depth,):
            raise ConfigurationError(
                f"expected a flat vector of {width * depth} counters, "
                f"got shape {vector.shape}"
            )
        sketch = cls(width=width, depth=depth, seed=seed)
        sketch.counts = vector.reshape(depth, width).copy()
        return sketch

    def size_bytes(self, model: SizeModel) -> int:
        """Wire size: one aggregate value per counter."""
        return model.aggregate_bytes * self.width * self.depth
