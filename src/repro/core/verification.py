"""Candidate-set materialization (Section III-C, Algorithm 2).

After candidate filtering, no peer holds the complete candidate set — and
collecting the full item universe to build it centrally would cost as much
as the naive approach.  The paper's key observation: given the list of
heavy item groups, *each peer can materialize its own partial candidate
set* from its local items, and the partial sets merge implicitly during
the phase-2 aggregation.

This module provides :class:`HeavyGroups` (the disseminated heavy-group
lists, which know their wire size: ``s_g`` per identifier) and
:func:`materialize_candidates` (one peer's partial candidate set).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.filters import FilterBank
from repro.items.itemset import LocalItemSet
from repro.net.wire import SizeModel


@dataclass(frozen=True, eq=False)
class HeavyGroups:
    """The heavy item groups of every filter, as found by phase 1.

    Attributes
    ----------
    per_filter:
        ``per_filter[i]`` is the array of heavy group ids under filter i.
    total_count:
        Total heavy-group identifiers across filters — the paper's
        ``f · w`` (Section IV-A prices dissemination at ``s_g · f · w``).
    """

    per_filter: tuple[np.ndarray, ...]
    total_count: int = field(init=False)
    _lookup: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "total_count", sum(int(groups.size) for groups in self.per_filter)
        )

    @classmethod
    def from_aggregate(
        cls, bank: FilterBank, flat_aggregate: np.ndarray, threshold: float
    ) -> "HeavyGroups":
        """Extract heavy groups from the phase-1 aggregate vector."""
        return cls(
            per_filter=tuple(bank.heavy_groups_per_filter(flat_aggregate, threshold)),
            _lookup=np.asarray(flat_aggregate) >= threshold,
        )

    def lookup(self, bank: FilterBank) -> np.ndarray:
        """The flat ``f·g`` heavy-group boolean ``bank.candidate_mask``
        gathers from, built once and shared by every peer that receives
        these heavy groups."""
        lookup = self._lookup
        if lookup is None:
            lookup = bank.heavy_lookup(self.per_filter)
            object.__setattr__(self, "_lookup", lookup)
        return lookup

    @property
    def counts(self) -> tuple[int, ...]:
        """Heavy-group count per filter."""
        return tuple(int(groups.size) for groups in self.per_filter)

    def wire_bytes(self, model: SizeModel) -> int:
        """Dissemination payload size: one group id per heavy group."""
        return model.group_id_bytes * self.total_count

    def is_empty(self) -> bool:
        """True when any filter has no heavy group — then *no* item can be
        a candidate (it would need a heavy group under every filter)."""
        return any(groups.size == 0 for groups in self.per_filter)


def materialize_candidates(
    item_set: LocalItemSet, bank: FilterBank, heavy: HeavyGroups
) -> LocalItemSet:
    """One peer's partial candidate set (Algorithm 2, line 2).

    The peer keeps exactly those local items whose group is heavy under
    *every* filter, with their local values — the ``(identifier, local
    value)`` pairs it will propagate in phase 2.
    """
    if len(item_set) == 0 or heavy.is_empty():
        return LocalItemSet.empty()
    mask = bank.candidate_mask(item_set.ids, heavy.lookup(bank))
    return item_set.select(mask)
