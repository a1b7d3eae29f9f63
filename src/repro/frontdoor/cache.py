"""The cached fast path: still-fresh answers with honest staleness.

Every committed shared session (and, when the front door is wired to a
standing :class:`~repro.service.MonitorService`, every monitoring epoch)
deposits its result here.  A later request whose threshold ratio is *at
least* the entry's base ratio can be carved from the cached superset —
items frequent at a larger threshold are a subset of those frequent at a
smaller one — so the hit costs one answer message instead of three
convergecasts.

Honesty rules:

* an entry can only serve ratios ``>= base_ratio`` (carving downward
  would fabricate items the cached run never verified);
* the served ``staleness`` is the entry's age in front-door rounds plus
  any staleness the entry already carried when deposited (a degraded
  monitor answer ages from its *committed* epoch, not from when the
  front door happened to see it);
* a hit must fit the requester's ``max_staleness`` tolerance, or it is
  a miss and the request falls through to a fresh session.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import carve_at_ratio
from repro.core.netfilter import NetFilterResult
from repro.items.itemset import LocalItemSet


@dataclass(frozen=True)
class CacheEntry:
    """One deposited result the fast path may carve answers from."""

    #: Front-door round that deposited the entry.
    round_no: int
    #: Where it came from ("session" or "monitor") — trace metadata.
    source: str
    #: Threshold ratio the underlying run used; the entry serves any
    #: request ratio >= this.
    base_ratio: float
    #: Grand total the run measured (per-request thresholds re-derive
    #: from it through the canonical ceil).
    grand_total: float
    #: The run's frequent set at ``base_ratio``.
    frequent: LocalItemSet
    #: Staleness the entry was born with (monitor answers may already be
    #: degraded), in the same rounds unit the front door advertises.
    base_staleness: int = 0


@dataclass(frozen=True)
class CacheHit:
    """A successful fast-path lookup: the carved answer and its bound."""

    items: LocalItemSet
    threshold: int
    grand_total: float
    staleness: int
    source: str


class AnswerCache:
    """Keeps the freshest deposited entry per source.

    One slot per source is enough: a newer session supersedes an older
    one wholesale (same engine, fresher data), and likewise for monitor
    epochs.  Lookup prefers whichever compatible entry is *least stale*.
    """

    def __init__(self) -> None:
        self._entries: dict[str, CacheEntry] = {}
        self.hits = 0
        self.misses = 0

    def put_session(
        self, result: NetFilterResult, base_ratio: float, round_no: int
    ) -> None:
        """Deposit a committed shared session's result."""
        self._entries["session"] = CacheEntry(
            round_no=round_no,
            source="session",
            base_ratio=base_ratio,
            grand_total=float(result.grand_total),
            frequent=result.frequent,
            base_staleness=0,
        )

    def put_monitor(
        self,
        frequent: LocalItemSet,
        base_ratio: float,
        grand_total: float,
        staleness: int,
        round_no: int,
    ) -> None:
        """Deposit a monitoring-service answer (possibly already degraded)."""
        self._entries["monitor"] = CacheEntry(
            round_no=round_no,
            source="monitor",
            base_ratio=base_ratio,
            grand_total=grand_total,
            frequent=frequent,
            base_staleness=staleness,
        )

    def entry(self, source: str) -> CacheEntry | None:
        """The current entry for one source, if any."""
        return self._entries.get(source)

    def lookup(
        self, threshold_ratio: float, max_staleness: int, current_round: int
    ) -> CacheHit | None:
        """The least-stale compatible answer within tolerance, or None."""
        best: tuple[int, str, CacheEntry] | None = None
        for source in sorted(self._entries):
            entry = self._entries[source]
            if threshold_ratio < entry.base_ratio:
                continue
            staleness = max(current_round - entry.round_no, 0) + entry.base_staleness
            if staleness > max_staleness:
                continue
            if best is None or staleness < best[0]:
                best = (staleness, source, entry)
        if best is None:
            self.misses += 1
            return None
        staleness, _, entry = best
        items, threshold = carve_at_ratio(entry.frequent, threshold_ratio, entry.grand_total)
        self.hits += 1
        return CacheHit(
            items=items,
            threshold=threshold,
            grand_total=entry.grand_total,
            staleness=staleness,
            source=entry.source,
        )
