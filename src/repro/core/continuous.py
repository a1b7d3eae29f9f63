"""Continuous IFI monitoring with delta filtering and time decay.

The paper evaluates one-shot queries, but every Table I application is a
standing monitoring task.  Rerunning plain netFilter each epoch repays the
full ``s_a·f·g`` filtering cost every time, even though most item groups
barely move between epochs.  :class:`ContinuousNetFilter` amortizes it:

* Each peer keeps a **committed ledger** of what the root has already
  folded in (its raw group vector and item snapshot as of the last epoch
  it participated in) and, each epoch, ships only the arrivals since —
  sparse ``(group index, delta)`` pairs at ``s_a + s_g`` bytes per
  changed group.  Deltas sum along the tree like any keyed aggregate.
* The root folds the aggregated delta into its running group-total vector
  — which then equals exactly what a full phase 1 would have computed —
  so candidate selection and verification (Algorithm 2) stay *exact*.
* On **heavy-change epochs** the sparse pairs would cost more than the
  dense vector (the documented first-epoch 2× penalty), so the monitor
  predicts next epoch's mode from this epoch's changed-group count (an
  exact rider on the phase-1 aggregate) and falls back to a dense phase 1
  when sparse would lose — the first epoch is always dense.

Epochs are **two-phase committed**.  A phase-1 contribution only *stages*
a pending ledger entry; the caller commits the attempt after every phase
completed with full coverage, or abandons it (deadline missed, coverage
short, root lost), in which case nothing moved — neither the root totals
nor any peer cache — so a failed epoch can never poison the delta sum.
The :mod:`repro.service` layer drives exactly that loop with deadlines
and degraded-mode serving.

**Time decay** (:class:`~repro.core.decay.DecayConfig`) redefines the
monitored quantity as exponentially faded or sliding-window counts.
Decay is applied at the root per commit — peers still ship raw arrival
deltas, dated by the commit that first includes them — and the threshold
tracks the faded grand total (the filter-0 slice of the faded group
vector, since each filter partitions all items).  A **dense re-baseline**
(forced by the service after repeated abandons, or by the cost
crossover) re-anchors the root vector to the live participants' full
faded state; peers that were down across a re-baseline detect it from
the epoch request's committed/baseline anchor and **resync** — they
re-ship their entire faded contribution instead of a delta that the
root's vector no longer has a base for.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.aggregation.combiners import (
    Combiner,
    KeyedSumCombiner,
    ScalarSumCombiner,
    TupleCombiner,
    VectorSumCombiner,
)
from repro.aggregation.hierarchical import AggregationEngine
from repro.aggregation.spec import AggregateSpec
from repro.core.config import NetFilterConfig
from repro.core.decay import DecayConfig
from repro.core.filters import FilterBank
from repro.core.netfilter import NetFilterResult, totals_spec, verification_spec
from repro.core.session import AttemptPlan, run_attempt
from repro.errors import AggregationError
from repro.items.itemset import FadedItemSet, LocalItemSet
from repro.net.node import Node
from repro.net.wire import CostCategory, SizeModel

#: Phase-1 modes an epoch can run in.
SPARSE = "sparse"
DENSE = "dense"


def sparse_cheaper_than_dense(
    changed_total: int, participants: int, total_groups: int, model: SizeModel
) -> bool:
    """The cost-crossover predicate for next epoch's phase-1 mode.

    Sparse shipping costs at most ``(s_a + s_g)`` per changed group per
    peer (tree levels above the leaves merge overlapping change sets, so
    this is an upper bound); dense costs ``s_a · f·g`` on each of the
    ``participants - 1`` tree edges.  Predicting from the summed per-peer
    changed counts is exact on a star and conservative (dense-leaning) on
    deeper trees.
    """
    edges = max(participants - 1, 0)
    sparse = (model.aggregate_bytes + model.group_id_bytes) * changed_total
    dense = model.aggregate_bytes * total_groups * edges
    return sparse < dense


@dataclass(frozen=True)
class EpochAnchor:
    """What the phase-1 request carries down the tree (3 aggregate ints):
    the wall epoch being attempted, the root's last committed epoch, and
    its baseline (last dense re-anchor) epoch.  A peer whose ledger
    predates the baseline knows its cached base is gone from the root's
    vector and resyncs."""

    epoch: int
    committed_epoch: int
    baseline_epoch: int


@dataclass(frozen=True)
class EpochReport:
    """One committed epoch's outcome: the result plus delta statistics."""

    epoch: int
    result: NetFilterResult
    changed_groups: int
    dense_equivalent_bytes: float
    #: Phase-1 mode this epoch ran in (sparse / dense).
    mode: str = SPARSE
    #: Exact sum of per-peer changed-group counts (the crossover rider).
    changed_total: int = 0
    #: The decayed grand total the threshold was resolved against
    #: (equals the raw grand total when no decay is configured).
    faded_total: float = 0.0
    #: Peers that resynced their ledger from the root's committed state.
    resyncs: int = 0

    @property
    def filtering_savings(self) -> float:
        """Fraction of the *current* dense phase-1 cost saved this epoch
        (negative on heavy-change sparse epochs — sparse pairs cost 2×
        per entry).  The baseline is what a dense recompute would cost
        over this epoch's participants — under churn or decay that is the
        honest comparison, not the undecayed full-population vector."""
        if self.dense_equivalent_bytes == 0:
            return 0.0
        return 1.0 - self.result.breakdown.filtering / self.dense_equivalent_bytes


@dataclass
class _PeerLedger:
    """One peer's durable committed state: what of its data the root's
    vector already contains, and (under decay) its own faded history.
    Survives crash + revival, exactly like ``node.items`` does."""

    base_epoch: int = -1
    groups: np.ndarray | None = None
    items: LocalItemSet = field(default_factory=LocalItemSet.empty)
    faded: FadedItemSet | None = None
    window: deque[tuple[int, LocalItemSet]] = field(default_factory=deque)


@dataclass
class _PendingContribution:
    """What one peer staged during a (not yet committed) epoch attempt."""

    groups: np.ndarray
    items: LocalItemSet
    fresh: LocalItemSet
    delta_set: LocalItemSet
    changed: int
    resynced: bool
    faded: FadedItemSet | None


@dataclass
class _FoldPreview:
    """The root-side fold of one attempt's phase-1 aggregate, computed
    without touching committed state (applied only on commit)."""

    group_totals: np.ndarray
    dense_delta: np.ndarray
    changed_groups: int
    changed_total: int
    faded_total: float
    threshold: float
    grand_total: float
    expired: int


class _GroupDeltaCombiner(KeyedSumCombiner):
    """Keyed sum whose keys are group indices: priced at ``s_a + s_g``
    per entry (a group id, not an item id)."""

    def size_bytes(self, value: LocalItemSet, model: SizeModel) -> int:
        return (model.aggregate_bytes + model.group_id_bytes) * len(value)


class _FadedDeltaCombiner(_GroupDeltaCombiner):
    """Group-delta sum in float space, for exponentially faded monitors.

    Fresh deltas are integers (exactly representable in float64, so tree
    order cannot change the sum); only resync contributions carry
    genuinely faded float values.
    """

    def identity(self) -> LocalItemSet:
        return FadedItemSet(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))

    def combine(self, left: LocalItemSet, right: LocalItemSet) -> LocalItemSet:
        return FadedItemSet.merge_faded([left, right])


def _integer_diff(current: LocalItemSet, base: LocalItemSet) -> LocalItemSet:
    """Per-item arrivals since ``base`` (values only ever grow)."""
    if len(base) == 0:
        return current
    merged = LocalItemSet.merge_many(
        [current, LocalItemSet(base.ids, -base.values)]
    )
    return merged.select(merged.values != 0)


def _faded_group_vector(bank: FilterBank, faded: FadedItemSet) -> np.ndarray:
    """The flat ``f·g`` group projection of a faded item set (float64)."""
    return np.bincount(
        bank.flat_groups(faded.ids).ravel(),
        weights=np.tile(faded.values, bank.num_filters),
        minlength=bank.total_groups,
    )


class EpochAttempt:
    """One attempt at one wall epoch: stage, preview, then commit or
    abandon.

    The attempt owns its pending dict, so a late request from an
    abandoned attempt can never leak staged state into a newer one — the
    closure of each attempt's specs captures *this* attempt.
    """

    def __init__(self, monitor: "ContinuousNetFilter", epoch: int, mode: str) -> None:
        if epoch <= monitor.committed_epoch:
            raise AggregationError(
                f"epoch {epoch} is not past the committed epoch "
                f"{monitor.committed_epoch}: committed epochs are monotone"
            )
        self.monitor = monitor
        self.epoch = epoch
        self.mode = mode
        self.closed = False
        self._pending: dict[int, _PendingContribution] = {}
        self._preview: _FoldPreview | None = None

    @property
    def anchor(self) -> EpochAnchor:
        return EpochAnchor(
            epoch=self.epoch,
            committed_epoch=self.monitor.committed_epoch,
            baseline_epoch=self.monitor.baseline_epoch,
        )

    @property
    def dense(self) -> bool:
        return self.mode != SPARSE

    # ------------------------------------------------------------------
    # Peer-side staging
    # ------------------------------------------------------------------
    def _stage(self, node: Node) -> _PendingContribution:
        pend = self._pending.get(node.peer_id)
        if pend is not None:
            return pend
        monitor = self.monitor
        bank = monitor.bank
        ledger = monitor._ledger.get(node.peer_id)
        current_groups = bank.local_group_aggregates(node.items)
        resynced = (
            ledger is not None
            and ledger.base_epoch >= 0
            and ledger.base_epoch < monitor.baseline_epoch
        )
        if ledger is None or resynced:
            # Nothing of this peer's history is in the root's committed
            # vector: a first-time participant, or a peer that was down
            # across a dense re-baseline.  Its full state is the delta.
            prev_groups: np.ndarray | None = None
        else:
            prev_groups = ledger.groups
        # ``fresh`` is always relative to the peer's own ledger base: a
        # resync re-ships the *whole* contribution on the wire, but the
        # faded recurrence must not re-date already-counted arrivals.
        prev_items = LocalItemSet.empty() if ledger is None else ledger.items
        delta = (
            current_groups.copy() if prev_groups is None else current_groups - prev_groups
        )
        fresh = _integer_diff(node.items, prev_items)
        faded: FadedItemSet | None = None
        decay = monitor.decay
        if decay is not None and decay.exponential:
            if ledger is not None and ledger.faded is not None and ledger.base_epoch >= 0:
                mult = decay.multiplier(self.epoch - ledger.base_epoch)
                faded = ledger.faded.scaled(mult).merge(fresh)
            else:
                faded = FadedItemSet.from_integer(fresh)
            if resynced:
                # The delta re-ships the whole faded contribution — the
                # only place float values enter the up-sweep.
                vector = _faded_group_vector(bank, faded)
                changed_idx = np.flatnonzero(vector)
                delta_set: LocalItemSet = FadedItemSet(changed_idx, vector[changed_idx])
            else:
                changed_idx = np.flatnonzero(delta)
                delta_set = FadedItemSet(
                    changed_idx, delta[changed_idx].astype(np.float64)
                )
        else:
            changed_idx = np.flatnonzero(delta)
            delta_set = LocalItemSet(changed_idx, delta[changed_idx])
        if resynced:
            sim = node.network.sim
            sim.telemetry.registry.counter("monitor.resyncs").inc()
            sim.trace.emit(
                sim.now,
                "monitor.resync",
                peer=node.peer_id,
                base_epoch=-1 if ledger is None else ledger.base_epoch,
                baseline_epoch=monitor.baseline_epoch,
                epoch=self.epoch,
            )
        pend = _PendingContribution(
            groups=current_groups,
            items=node.items,
            fresh=fresh,
            delta_set=delta_set,
            changed=len(delta_set),
            resynced=resynced,
            faded=faded,
        )
        self._pending[node.peer_id] = pend
        return pend

    def _window_view(self, peer_id: int, pend: _PendingContribution) -> LocalItemSet:
        """A peer's in-window items: committed window entries that have
        not aged out, plus this attempt's fresh arrivals (dated now)."""
        decay = self.monitor.decay
        assert decay is not None and decay.windowed
        horizon = self.epoch - decay.window
        ledger = self.monitor._ledger.get(peer_id)
        parts = (
            [items for (ep, items) in ledger.window if ep > horizon] if ledger else []
        )
        parts.append(pend.fresh)
        return LocalItemSet.merge_many(parts)

    def _dense_vector(self, node: Node, pend: _PendingContribution) -> np.ndarray:
        decay = self.monitor.decay
        bank = self.monitor.bank
        if decay is None:
            return pend.groups
        if decay.exponential:
            assert pend.faded is not None
            return _faded_group_vector(bank, pend.faded)
        return bank.local_group_aggregates(self._window_view(node.peer_id, pend))

    def _view_items(self, node: Node) -> LocalItemSet:
        """The item set verification should materialize candidates from —
        the same state this attempt's phase 1 represented."""
        decay = self.monitor.decay
        pend = self._stage(node)
        if decay is None:
            return pend.items
        if decay.exponential:
            assert pend.faded is not None
            return pend.faded
        return self._window_view(node.peer_id, pend)

    # ------------------------------------------------------------------
    # Specs
    # ------------------------------------------------------------------
    def phase1_spec(self) -> AggregateSpec:
        """This attempt's phase-1 aggregation: (delta-or-vector, changed
        count) pairs, with the epoch anchor riding down in the request."""
        monitor = self.monitor
        attempt = self
        dense = self.dense
        decay = monitor.decay
        part: Combiner[Any]
        if dense:
            part = VectorSumCombiner(monitor.bank.total_groups)
        elif decay is not None and decay.exponential:
            part = _FadedDeltaCombiner()
        else:
            part = _GroupDeltaCombiner()

        def contribute(node: Node, _: Any) -> tuple[Any, int]:
            pend = attempt._stage(node)
            if dense:
                return attempt._dense_vector(node, pend), pend.changed
            return pend.delta_set, pend.changed

        def request_bytes(request_data: Any, model: SizeModel) -> int:
            # The (epoch, committed, baseline) anchor: 3 aggregate ints.
            return 3 * model.aggregate_bytes

        return AggregateSpec(
            name="netfilter.group_deltas",
            combiner=TupleCombiner(part, ScalarSumCombiner()),
            contribute=contribute,
            up_category=CostCategory.FILTERING,
            request_bytes=request_bytes,
        )

    def verification_spec(self) -> AggregateSpec:
        """Phase 2 over this attempt's staged views (faded / windowed /
        raw), so verification prices candidates in the same decayed space
        phase 1 selected them in."""
        return verification_spec(self.monitor.bank, items_of=self._view_items)

    def plan(self) -> AttemptPlan:
        """This attempt as data for :func:`repro.core.session.run_attempt`:
        the totals phase only when the threshold needs it (no decay), the
        epoch anchor in the phase-1 request, and :meth:`fold` between the
        phases."""
        monitor = self.monitor

        def fold(aggregate: Any, grand_total: float | None) -> tuple[np.ndarray, float, float]:
            preview = self.fold(aggregate, grand_total=grand_total)
            return preview.group_totals, preview.threshold, preview.grand_total

        return AttemptPlan(
            config=monitor.config,
            bank=monitor.bank,
            totals=totals_spec() if monitor.decay is None else None,
            phase1=self.phase1_spec(),
            phase1_request=self.anchor,
            fold=fold,
            verification=self.verification_spec(),
        )

    # ------------------------------------------------------------------
    # Root-side fold
    # ------------------------------------------------------------------
    def fold(self, aggregate: Any, grand_total: float | None = None) -> _FoldPreview:
        """Fold the phase-1 aggregate against committed state, without
        committing — the preview feeds heavy-group selection, and is
        applied to the monitor only by :meth:`commit`."""
        monitor = self.monitor
        bank = monitor.bank
        decay = monitor.decay
        epoch = self.epoch
        expired = 0
        if self.dense:
            vector, changed_total = aggregate
            dtype = np.float64 if decay is not None and decay.exponential else np.int64
            group_totals = np.asarray(vector, dtype=dtype)
            dense_delta = group_totals.copy()
            changed_groups = bank.total_groups
            changed_total = int(changed_total)
        else:
            delta_set, changed_total = aggregate
            changed_total = int(changed_total)
            changed_groups = len(delta_set)
            dense_delta = np.zeros_like(monitor._group_totals)
            if len(delta_set):
                dense_delta[delta_set.ids] = delta_set.values
            if decay is not None and decay.exponential:
                mult = (
                    decay.multiplier(epoch - monitor.committed_epoch)
                    if monitor.committed_epoch >= 0
                    else 1.0
                )
                group_totals = monitor._group_totals * mult + dense_delta
            elif decay is not None and decay.windowed:
                group_totals = monitor._group_totals + dense_delta
                horizon = epoch - decay.window
                for commit_epoch, vec in monitor._window_history:
                    if commit_epoch <= horizon:
                        group_totals = group_totals - vec
                        expired += 1
            else:
                group_totals = monitor._group_totals + dense_delta
        # Filter 0 partitions all items, so its slice sums every item's
        # (faded) mass exactly once — the (faded) grand total.
        faded_total = float(group_totals[: bank.filter_size].sum())
        if decay is None:
            if grand_total is None:
                raise AggregationError(
                    "an undecayed monitor resolves its threshold from the "
                    "totals phase; pass grand_total to fold()"
                )
            threshold: float = monitor.config.resolve_threshold(int(grand_total))
        else:
            grand_total = faded_total
            if monitor.config.threshold is not None:
                threshold = monitor.config.threshold
            elif decay.windowed:
                threshold = monitor.config.resolve_threshold(int(faded_total))
            else:
                assert monitor.config.threshold_ratio is not None
                threshold = max(monitor.config.threshold_ratio * faded_total, 1.0)
        preview = _FoldPreview(
            group_totals=group_totals,
            dense_delta=dense_delta,
            changed_groups=changed_groups,
            changed_total=changed_total,
            faded_total=faded_total,
            threshold=threshold,
            grand_total=float(grand_total),
            expired=expired,
        )
        self._preview = preview
        return preview

    # ------------------------------------------------------------------
    # Commit / abandon
    # ------------------------------------------------------------------
    def commit(
        self, result: NetFilterResult, participants: Sequence[int]
    ) -> EpochReport:
        """Apply the previewed fold and promote every staged ledger entry.

        Only call this when every phase completed with full coverage over
        an unchanged live set — commit assumes each staged contribution
        was actually folded into the aggregate.
        """
        if self.closed:
            raise AggregationError("this epoch attempt is already closed")
        preview = self._preview
        if preview is None:
            raise AggregationError("commit before fold(): run phase 1 first")
        monitor = self.monitor
        decay = monitor.decay
        epoch = self.epoch
        monitor._group_totals = preview.group_totals
        if decay is not None and decay.windowed:
            history = monitor._window_history
            if self.dense:
                history.clear()
            horizon = epoch - decay.window
            while history and history[0][0] <= horizon:
                history.popleft()
            history.append((epoch, preview.dense_delta))
        resyncs = 0
        for peer_id in sorted(self._pending):
            pend = self._pending[peer_id]
            resyncs += int(pend.resynced)
            previous = monitor._ledger.get(peer_id)
            window: deque[tuple[int, LocalItemSet]] = deque()
            if decay is not None and decay.windowed:
                horizon = epoch - decay.window
                if previous is not None and not pend.resynced:
                    window.extend(
                        entry for entry in previous.window if entry[0] > horizon
                    )
                if len(pend.fresh):
                    window.append((epoch, pend.fresh))
            monitor._ledger[peer_id] = _PeerLedger(
                base_epoch=epoch,
                groups=pend.groups,
                items=pend.items,
                faded=pend.faded,
                window=window,
            )
        monitor.committed_epoch = epoch
        monitor.commit_count += 1
        monitor.epoch = max(monitor.epoch, epoch + 1)
        if self.dense:
            monitor.baseline_epoch = epoch
        allow_dense = decay is None or decay.exponential
        monitor._dense_next = allow_dense and not sparse_cheaper_than_dense(
            preview.changed_total,
            result.n_participants,
            monitor.bank.total_groups,
            monitor.engine.network.size_model,
        )
        model = monitor.engine.network.size_model
        population = monitor.engine.network.n_peers
        dense_equivalent = (
            model.aggregate_bytes
            * monitor.bank.total_groups
            * max(result.n_participants - 1, 0)
            / population
        )
        report = EpochReport(
            epoch=epoch,
            result=result,
            changed_groups=preview.changed_groups,
            dense_equivalent_bytes=dense_equivalent,
            mode=self.mode,
            changed_total=preview.changed_total,
            faded_total=preview.faded_total,
            resyncs=resyncs,
        )
        monitor.reports.append(report)
        monitor._record_probes(report)
        self.closed = True
        participants_tuple = tuple(int(p) for p in participants)
        for listener in monitor._commit_listeners:
            listener(report, participants_tuple)
        return report

    def abandon(self) -> None:
        """Discard the attempt: no committed state moved, no peer ledger
        advanced — the next attempt computes deltas against the same
        committed base."""
        self.closed = True
        self._pending.clear()
        self._preview = None


class ContinuousNetFilter:
    """Epoch-driven netFilter with committed delta filtering and decay.

    Drive it synchronously (each call is one wall epoch that always
    commits)::

        monitor = ContinuousNetFilter(config, engine)
        for _ in range(epochs):
            stream.apply_to(network)
            report = monitor.run_epoch()

    or supervise it as a standing service with deadlines and degraded
    answers via :class:`repro.service.MonitorService`, which drives the
    :meth:`begin_attempt` / commit-or-abandon cycle explicitly.

    Parameters
    ----------
    config:
        Filter settings and threshold (resolved against each epoch's
        (faded) grand total, so the threshold tracks the data).
    engine:
        The aggregation engine to run over.
    decay:
        Optional time-decay semantics (exponential fading or sliding
        window).

    Rerunning dense phase 1 every epoch is one-shot netFilter, run once
    per epoch: ``NetFilter(config).run(engine)``.
    """

    def __init__(
        self,
        config: NetFilterConfig,
        engine: AggregationEngine,
        decay: DecayConfig | None = None,
    ) -> None:
        self.config = config
        self.engine = engine
        self.decay = decay
        self.bank = FilterBank(
            config.num_filters, config.filter_size, config.hash_seed
        )
        #: Next wall epoch (what run_epoch will attempt).
        self.epoch = 0
        #: Wall epoch of the last committed attempt (-1: nothing yet).
        self.committed_epoch = -1
        #: Wall epoch of the last dense re-anchor (resync watermark).
        self.baseline_epoch = 0
        self.commit_count = 0
        self.reports: list[EpochReport] = []
        dtype = np.float64 if decay is not None and decay.exponential else np.int64
        # Root-side running totals; the per-peer committed ledgers play
        # the role of each peer's own durable cache in a real deployment.
        self._group_totals = np.zeros(self.bank.total_groups, dtype=dtype)
        self._window_history: deque[tuple[int, np.ndarray]] = deque()
        self._ledger: dict[int, _PeerLedger] = {}
        self._dense_next = True
        self._commit_listeners: list[
            Callable[[EpochReport, tuple[int, ...]], None]
        ] = []

    # ------------------------------------------------------------------
    # Attempt lifecycle
    # ------------------------------------------------------------------
    def on_commit(
        self, listener: Callable[[EpochReport, tuple[int, ...]], None]
    ) -> None:
        """Subscribe to commits: ``listener(report, participants)`` runs
        after each successful epoch commit (oracle trackers use this)."""
        self._commit_listeners.append(listener)

    def choose_mode(self, force_dense: bool = False) -> str:
        """Phase-1 mode for the next attempt: dense on the first epoch
        (everything changed), then whatever last commit's cost-crossover
        predicted; ``force_dense`` escalates to a dense re-baseline
        (window mode has no re-anchor semantics and stays sparse after
        its first commit)."""
        if self.commit_count == 0:
            return DENSE
        if self.decay is not None and self.decay.windowed:
            return SPARSE
        if force_dense or self._dense_next:
            return DENSE
        return SPARSE

    def begin_attempt(
        self, epoch: int | None = None, force_dense: bool = False
    ) -> EpochAttempt:
        """Open an attempt at wall epoch ``epoch`` (default: the next).

        Nothing commits until :meth:`EpochAttempt.commit`; an abandoned
        attempt leaves all committed state untouched.
        """
        if epoch is None:
            epoch = self.epoch
        return EpochAttempt(self, epoch, self.choose_mode(force_dense))

    # ------------------------------------------------------------------
    # Synchronous driver (one call = one committed wall epoch)
    # ------------------------------------------------------------------
    def run_epoch(self) -> EpochReport:
        """Run one monitoring epoch over the current peer data."""
        attempt = self.begin_attempt()
        result, reason = run_attempt(self.engine, attempt.plan())
        if reason:
            attempt.abandon()
            raise AggregationError(
                f"epoch {attempt.epoch} did not complete ({reason}); supervise "
                "the monitor with repro.service.MonitorService to retry"
            )
        return attempt.commit(result, tuple(self.engine.network.live_peers()))

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def _record_probes(self, report: EpochReport) -> None:
        """Feed the windowed epoch timeseries, when one is enabled.

        Staleness (sim time from epoch start to the exact result),
        changed-group count, frequent-set size, and filtering savings land
        as probes in the telemetry epoch grid, so continuous runs can plot
        recall/staleness over time from the ring buffer or the
        ``epoch.snapshot`` trace events.
        """
        epochs = self.engine.sim.telemetry.epochs
        if epochs is None:
            return
        result = report.result
        epochs.record("monitor.staleness", result.elapsed_time)
        epochs.record("monitor.changed_groups", float(report.changed_groups))
        epochs.record("monitor.frequent_items", float(len(result.frequent)))
        epochs.record("monitor.filtering_savings", report.filtering_savings)
        epochs.record("monitor.faded_total", report.faded_total)
