"""netFilter configuration.

The two knobs the whole paper revolves around: the filter size ``g``
(item groups per filter) and the number of filters ``f``; plus the
threshold, expressed either as the ratio ``ρ`` of the grand total ``v``
(the paper's formulation, Section IV) or as an absolute value.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.items.itemset import LocalItemSet


def ceil_threshold(threshold_ratio: float, grand_total: int | float) -> int:
    """The canonical ratio-to-absolute threshold derivation ``t = ⌈ρ·v⌉``
    (floored at 1 so an empty network still has a meaningful threshold).

    Every layer that turns a ratio into an absolute threshold —
    :meth:`NetFilterConfig.resolve_threshold` and every carve through
    :func:`carve_at_ratio` — must go through this one function, or two
    layers can disagree on item-set membership at the threshold boundary.
    """
    return max(int(-(-threshold_ratio * grand_total // 1)), 1)


def carve_at_ratio(
    frequent: LocalItemSet, threshold_ratio: float, grand_total: int | float
) -> tuple[LocalItemSet, int]:
    """The items of ``frequent`` (computed at a ratio no higher than
    ``threshold_ratio``, over ``grand_total``) that are frequent at
    ``threshold_ratio``, and that ratio's threshold: the one min-ratio
    carve of shared sessions, front-door batches and the answer cache."""
    threshold = ceil_threshold(threshold_ratio, grand_total)
    return frequent.filter_values(threshold), threshold


@dataclass(frozen=True)
class NetFilterConfig:
    """Parameters of one netFilter run.

    Attributes
    ----------
    filter_size:
        ``g`` — the number of item groups per filter.
    num_filters:
        ``f`` — how many independent hash filters to apply; an item stays
        a candidate only if *all* its groups are heavy (Section III-B.2).
    threshold_ratio:
        ``ρ`` with ``t = ρ · v``.  Mutually exclusive with ``threshold``.
    threshold:
        Absolute threshold ``t``.  Mutually exclusive with
        ``threshold_ratio``.
    hash_seed:
        Seed for the universal hash coefficients, so a configuration is a
        complete, reproducible description of a run.

    Examples
    --------
    >>> cfg = NetFilterConfig(filter_size=100, num_filters=3, threshold_ratio=0.01)
    >>> cfg.filter_size, cfg.num_filters
    (100, 3)
    """

    filter_size: int
    num_filters: int = 1
    threshold_ratio: float | None = None
    threshold: int | None = None
    hash_seed: int = 0

    def __post_init__(self) -> None:
        if self.filter_size <= 0:
            raise ConfigurationError(
                f"filter_size (g) must be positive, got {self.filter_size}"
            )
        if self.num_filters <= 0:
            raise ConfigurationError(
                f"num_filters (f) must be positive, got {self.num_filters}"
            )
        if (self.threshold_ratio is None) == (self.threshold is None):
            raise ConfigurationError(
                "exactly one of threshold_ratio and threshold must be given"
            )
        if self.threshold_ratio is not None and not 0 < self.threshold_ratio <= 1:
            raise ConfigurationError(
                f"threshold_ratio must be in (0, 1], got {self.threshold_ratio}"
            )
        if self.threshold is not None and self.threshold <= 0:
            raise ConfigurationError(
                f"threshold must be positive, got {self.threshold}"
            )

    def resolve_threshold(self, grand_total: int) -> int:
        """The absolute threshold ``t`` for a given grand total ``v``."""
        if self.threshold is not None:
            return self.threshold
        assert self.threshold_ratio is not None
        return ceil_threshold(self.threshold_ratio, grand_total)
