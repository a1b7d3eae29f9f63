"""Per-peer, per-category byte accounting.

The transport calls :meth:`CostAccounting.record` once per sent message;
everything else (totals, per-peer maps, the per-peer averages of
:meth:`CostBreakdown.from_delta`) is derived.  Costs are attributed to
the *sender*, matching the paper's definition of "bytes propagated per
peer".
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.net.wire import CostCategory


class MessageCell:
    """A mutable per-category message count.

    Handed out by :meth:`CostAccounting.message_cell` so the transport can
    count a sent message with one attribute increment instead of a dict
    walk.  A category's cell is created once and never replaced, so
    cached references never go stale.
    """

    __slots__ = ("n",)

    def __init__(self) -> None:
        self.n = 0


class CostAccounting:
    """Accumulates bytes and message counts sent per peer per category.

    Examples
    --------
    >>> acc = CostAccounting()
    >>> acc.record(peer=1, category=CostCategory.FILTERING, size=1200)
    >>> acc.record(peer=2, category=CostCategory.FILTERING, size=1200)
    >>> acc.total_bytes(CostCategory.FILTERING)
    2400
    >>> acc.per_peer_bytes(CostCategory.FILTERING)
    {1: 1200, 2: 1200}
    """

    def __init__(self) -> None:
        self._bytes: dict[CostCategory, dict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self._messages: dict[CostCategory, MessageCell] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(self, peer: int, category: CostCategory, size: int) -> None:
        """Charge ``size`` bytes sent by ``peer`` to ``category``."""
        self._bytes[category][peer] += size
        self.message_cell(category).n += 1

    def bucket(self, category: CostCategory) -> dict[int, int]:
        """The live per-peer byte map for one category.

        Hot-path handle for the transport: charging a message becomes
        ``bucket[peer] += size`` on the returned (default-)dict.  The
        mapping is never replaced, so callers may cache it for the
        lifetime of the accounting.
        """
        return self._bytes[category]

    def message_cell(self, category: CostCategory) -> MessageCell:
        """The live :class:`MessageCell` for one category (see
        :meth:`bucket` for the caching contract)."""
        cell = self._messages.get(category)
        if cell is None:
            cell = self._messages[category] = MessageCell()
        return cell

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    # Every query takes the categories to select over either as varargs
    # (``total_bytes(CostCategory.FILTERING, ...)``) or as one explicit
    # iterable (``total_bytes([])``).  No arguments means *all* categories;
    # an explicit empty iterable means an empty selection — zero bytes, zero
    # messages — never silently "all".
    def _select(
        self, categories: tuple, default: Iterable[CostCategory]
    ) -> tuple[CostCategory, ...]:
        if len(categories) == 1 and not isinstance(categories[0], CostCategory):
            return tuple(categories[0])
        if categories:
            return categories
        return tuple(default)

    def total_bytes(
        self, *categories: CostCategory | Iterable[CostCategory]
    ) -> int:
        """Total bytes over the given categories (all categories if none)."""
        selected = self._select(categories, self._bytes)
        return sum(
            sum(self._bytes.get(category, {}).values()) for category in selected
        )

    def message_count(
        self, *categories: CostCategory | Iterable[CostCategory]
    ) -> int:
        """Total messages over the given categories (all if none given)."""
        selected = self._select(categories, self._messages)
        total = 0
        for cat in selected:
            cell = self._messages.get(cat)
            if cell is not None:
                total += cell.n
        return total

    def bytes_by_category(self) -> dict[CostCategory, int]:
        """Total bytes per category (categories with no recorded bytes
        are omitted)."""
        return {
            cat: sum(per_peer.values())
            for cat, per_peer in self._bytes.items()
            if per_peer
        }

    def per_peer_bytes(
        self, *categories: CostCategory | Iterable[CostCategory]
    ) -> dict[int, int]:
        """Bytes sent by each peer over the given categories."""
        selected = self._select(categories, self._bytes)
        out: dict[int, int] = defaultdict(int)
        for cat in selected:
            for peer, size in self._bytes.get(cat, {}).items():
                out[peer] += size
        return dict(out)

    def peer_bytes(
        self, peer: int, *categories: CostCategory | Iterable[CostCategory]
    ) -> int:
        """Bytes sent by one peer over the given categories."""
        selected = self._select(categories, self._bytes)
        return sum(self._bytes.get(cat, {}).get(peer, 0) for cat in selected)
