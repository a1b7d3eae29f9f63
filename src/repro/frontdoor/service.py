"""The overload-safe multi-tenant query front door.

:class:`FrontDoor` is the standing service ROADMAP item 2 asks for: any
peer submits IFI queries for any tenant at any rate, and every request
terminates — promptly — in exactly one of three honest verdicts:

* ``COMMITTED``: answered from a fresh shared aggregation session (or a
  same-round cache entry carved at the request's own threshold);
* ``DEGRADED``: answered from a still-fresh cached result, stamped with
  an honest ``staleness`` bound within the tenant's tolerance;
* ``REJECTED``: turned away explicitly with a reason (``rate_limit``,
  ``budget``, ``queue_full``, ``breaker_open``, a session failure, or a
  client-side ``timeout``) and a ``retry_after`` hint.

The scheduling loop is round-based: requests flow in over the wire
between rounds; each round the admission queue is coalesced into one
shared session at the minimum requested threshold
(:mod:`repro.frontdoor.batching`), the cache fast path absorbs whatever
fits a tenant's staleness tolerance, and a circuit breaker stops burning
sessions against a root that keeps failing — degrading to cache-or-
reject until the breaker's reset probe succeeds.  A client-side deadline
sweep guarantees termination even when the root is dead and cannot send
answers at all.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.aggregation.hierarchical import AggregationEngine
from repro.core.config import NetFilterConfig
from repro.errors import ProtocolError
from repro.frontdoor.admission import AdmissionController
from repro.frontdoor.batching import BatchOutcome, BatchSessionRunner, PendingRequest
from repro.frontdoor.cache import AnswerCache, CacheHit
from repro.frontdoor.config import NO_RETRY, FrontDoorConfig, TenantPolicy
from repro.frontdoor.payloads import (
    COMMITTED,
    DEGRADED,
    REJECTED,
    QueryAnswerPayload,
    QueryRequestPayload,
)
from repro.items.itemset import LocalItemSet
from repro.net.message import Message
from repro.net.network import Network
from repro.service.answer import EpochOutcome
from repro.service.monitor import MonitorService

#: Networks that already carry a front door's handler registrations.
_ATTACHED_NETWORKS: "weakref.WeakSet[Network]" = weakref.WeakSet()

#: Breaker states (the ``frontdoor.breaker`` trace's ``state`` field).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


@dataclass
class RequestRecord:
    """Client-side lifecycle of one submitted request."""

    request_id: int
    tenant: str
    requester: int
    threshold_ratio: float
    max_staleness: int
    submitted_at: float
    deadline: float
    status: str = ""
    reason: str = ""
    retry_after: float = 0.0
    staleness: int = 0
    threshold: int = 0
    items: LocalItemSet | None = None
    grand_total: float = 0.0
    finished_at: float = 0.0

    @property
    def terminal(self) -> bool:
        return bool(self.status)

    @property
    def latency(self) -> float:
        """Sim time from submission to the terminal verdict."""
        return self.finished_at - self.submitted_at

    def as_row(self) -> dict[str, Any]:
        """Digest/report row: everything that defines the outcome."""
        return {
            "request_id": self.request_id,
            "tenant": self.tenant,
            "requester": self.requester,
            "ratio": self.threshold_ratio,
            "status": self.status,
            "reason": self.reason,
            "staleness": self.staleness,
            "threshold": self.threshold,
            "n_items": -1 if self.items is None else len(self.items),
            "latency": round(self.latency, 6),
        }


class FrontDoor:
    """The multi-tenant query service over one aggregation engine.

    Parameters
    ----------
    engine:
        The (ideally hardened) aggregation engine to run shared sessions
        over.
    filter_config:
        Base filter settings (``g``, ``f``, hash seed) for the shared
        sessions; threshold fields are ignored — each batch runs at its
        own minimum requested ratio.
    config:
        The service-wide :class:`FrontDoorConfig`.
    policies:
        Per-tenant :class:`TenantPolicy` overrides (tenants not listed
        get ``config.default_policy``).
    monitor:
        An optional standing :class:`~repro.service.MonitorService`;
        when given, its committed epochs feed the cache fast path, so
        still-fresh monitoring answers serve queries without any new
        session at all.
    """

    def __init__(
        self,
        engine: AggregationEngine,
        filter_config: NetFilterConfig,
        config: FrontDoorConfig | None = None,
        policies: Mapping[str, TenantPolicy] | None = None,
        monitor: MonitorService | None = None,
    ) -> None:
        network = engine.network
        if network in _ATTACHED_NETWORKS:
            raise ProtocolError(
                "a FrontDoor already owns the query/answer handlers of this "
                "network; reuse the existing front door instead of "
                "constructing a second one"
            )
        self.engine = engine
        self.network = network
        self.sim = engine.sim
        self.config = config or FrontDoorConfig()
        self.admission = AdmissionController(self.config, policies)
        self.cache = AnswerCache()
        self.runner = BatchSessionRunner(engine, filter_config, self.config)
        self.monitor = monitor
        self.records: dict[int, RequestRecord] = {}
        self.round_rows: list[dict[str, Any]] = []
        self._queue: list[PendingRequest] = []
        self._outstanding: set[int] = set()
        self._next_request_id = 0
        self._round_no = -1
        self._breaker_state = BREAKER_CLOSED
        self._breaker_open_until = 0.0
        self._consecutive_failures = 0
        for peer in network.live_peers():
            self._install(peer)
        network.on_join(self._install)
        _ATTACHED_NETWORKS.add(network)
        if monitor is not None:
            monitor.subscribe(self._on_monitor_epoch)

    # ------------------------------------------------------------------
    # Client side: submission and answers
    # ------------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        requester: int,
        threshold_ratio: float,
        max_staleness: int | None = None,
    ) -> int:
        """Fire one query from ``requester``; returns its request id.

        The request terminates by ``config.client_timeout`` at the
        latest — as ``REJECTED(timeout)`` if no answer ever lands.
        Bad input (a ratio outside ``(0, 1]``, an unknown requester)
        raises before the request is recorded.
        """
        if not 0 < threshold_ratio <= 1:
            raise ProtocolError(
                f"threshold_ratio must be in (0, 1], got {threshold_ratio}"
            )
        node = self.network.node(requester)
        policy = self.admission.account(tenant).policy
        tolerance = policy.max_staleness if max_staleness is None else max_staleness
        request_id = self._next_request_id
        self._next_request_id += 1
        now = self.sim.now
        record = RequestRecord(
            request_id=request_id,
            tenant=tenant,
            requester=requester,
            threshold_ratio=threshold_ratio,
            max_staleness=tolerance,
            submitted_at=now,
            deadline=now + self.config.client_timeout,
        )
        self.records[request_id] = record
        self._outstanding.add(request_id)
        self.sim.telemetry.emit(
            "frontdoor.submit",
            request=request_id,
            tenant=tenant,
            requester=requester,
            ratio=threshold_ratio,
        )
        root = self.engine.hierarchy.root
        payload = QueryRequestPayload(
            request_id=request_id,
            tenant=tenant,
            requester=requester,
            threshold_ratio=threshold_ratio,
            max_staleness=tolerance,
        )
        if requester == root:
            # The root queries itself: no wire hop, straight to admission.
            self._on_request_payload(payload)
        else:
            node.send(root, payload)
        return request_id

    def outcome(self, request_id: int) -> RequestRecord:
        """The (possibly not yet terminal) record of one request."""
        return self.records[request_id]

    @property
    def outstanding(self) -> int:
        """Requests submitted but not yet terminal."""
        return len(self._outstanding)

    # ------------------------------------------------------------------
    # Wire handlers
    # ------------------------------------------------------------------
    def _install(self, peer: int) -> None:
        node = self.network.node(peer)
        node.register_handler(QueryRequestPayload, self._on_request)
        node.register_handler(QueryAnswerPayload, self._on_answer)

    def _on_request(self, message: Message) -> None:
        payload = message.payload
        assert isinstance(payload, QueryRequestPayload)
        if message.recipient != self.engine.hierarchy.root:
            # Aimed at a deposed root's successor window: drop; the
            # client-side deadline terminates the request.
            return
        self._on_request_payload(payload)

    def _on_request_payload(self, payload: QueryRequestPayload) -> None:
        now = self.sim.now
        verdict = self.admission.decide(payload.tenant, now, len(self._queue))
        if not verdict.admitted:
            self.sim.telemetry.emit(
                "frontdoor.reject",
                request=payload.request_id,
                tenant=payload.tenant,
                reason=verdict.reason,
                retry_after=verdict.retry_after,
            )
            self._send_answer(
                payload.requester,
                payload.request_id,
                status=REJECTED,
                reason=verdict.reason,
                retry_after=verdict.retry_after,
            )
            return
        hit = self.cache.lookup(
            payload.threshold_ratio, payload.max_staleness, self._current_round()
        )
        if hit is not None:
            self._serve_hit(payload.requester, payload.request_id, hit)
            return
        self.sim.telemetry.emit(
            "frontdoor.admit",
            request=payload.request_id,
            tenant=payload.tenant,
            queue_depth=len(self._queue) + 1,
        )
        self._queue.append(
            PendingRequest(
                request_id=payload.request_id,
                tenant=payload.tenant,
                requester=payload.requester,
                threshold_ratio=payload.threshold_ratio,
                max_staleness=payload.max_staleness,
                submitted_at=now,
                deadline=now + self.config.client_timeout,
            )
        )

    def _on_answer(self, message: Message) -> None:
        payload = message.payload
        assert isinstance(payload, QueryAnswerPayload)
        if message.recipient != payload.requester:
            return
        self._finalize(
            payload.request_id,
            status=payload.status,
            reason=payload.reason,
            retry_after=payload.retry_after,
            staleness=payload.staleness,
            threshold=payload.threshold,
            items=payload.items,
            grand_total=payload.grand_total,
        )

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def _send_answer(
        self,
        requester: int,
        request_id: int,
        status: str,
        reason: str = "",
        retry_after: float = 0.0,
        staleness: int = 0,
        threshold: int = 0,
        items: LocalItemSet | None = None,
        grand_total: float = 0.0,
    ) -> None:
        """Send the terminal answer from the root (or finalize directly
        when the requester *is* the root — no wire hop to charge)."""
        self.sim.telemetry.emit(
            "frontdoor.answer",
            request=request_id,
            status=status,
            reason=reason,
            staleness=staleness,
        )
        root = self.engine.hierarchy.root
        payload_items = LocalItemSet.empty() if items is None else items
        if requester == root:
            self._finalize(
                request_id,
                status=status,
                reason=reason,
                retry_after=retry_after,
                staleness=staleness,
                threshold=threshold,
                items=payload_items,
                grand_total=grand_total,
            )
            return
        self.network.node(root).send(
            requester,
            QueryAnswerPayload(
                request_id=request_id,
                requester=requester,
                status=status,
                reason=reason,
                retry_after=retry_after,
                staleness=staleness,
                threshold=threshold,
                grand_total=grand_total,
                items=payload_items,
            ),
        )

    def _serve_hit(self, requester: int, request_id: int, hit: CacheHit) -> None:
        """A cache answer: COMMITTED when it is this round's own result,
        DEGRADED (with the honest bound) when it aged."""
        self.sim.telemetry.emit(
            "frontdoor.cache_hit",
            request=request_id,
            staleness=hit.staleness,
            source=hit.source,
        )
        self._send_answer(
            requester,
            request_id,
            status=COMMITTED if hit.staleness == 0 else DEGRADED,
            staleness=hit.staleness,
            threshold=hit.threshold,
            items=hit.items,
            grand_total=hit.grand_total,
        )

    def _finalize(
        self,
        request_id: int,
        status: str,
        reason: str = "",
        retry_after: float = 0.0,
        staleness: int = 0,
        threshold: int = 0,
        items: LocalItemSet | None = None,
        grand_total: float = 0.0,
    ) -> None:
        record = self.records.get(request_id)
        if record is None or record.terminal:
            return
        record.status = status
        record.reason = reason
        record.retry_after = retry_after
        record.staleness = staleness
        record.threshold = threshold
        record.items = items
        record.grand_total = grand_total
        record.finished_at = self.sim.now
        self._outstanding.discard(request_id)

    # ------------------------------------------------------------------
    # The monitor fast path
    # ------------------------------------------------------------------
    def _on_monitor_epoch(self, outcome: EpochOutcome) -> None:
        """Deposit each monitoring answer into the cache.

        The answer's staleness is in epochs and converts to the cache's
        rounds rounded up.  A degraded epoch re-serves the data the held
        entry already carries, so the entry keeps its deposit round: its
        served staleness stays at least its rounds since the deposit and
        at least the monitor's own bound."""
        answer = outcome.answer
        monitor = self.monitor
        assert monitor is not None, "only subscribed when a monitor is given"
        base_ratio = monitor.monitor.config.threshold_ratio
        if base_ratio is None or answer.committed_epoch < 0:
            return
        round_no = self._current_round()
        staleness = math.ceil(
            answer.staleness_epochs
            * monitor.config.epoch_interval
            / self.config.round_interval
        )
        held = self.cache.entry("monitor")
        if held is not None and not outcome.committed:
            staleness = max(staleness - (round_no - held.round_no), held.base_staleness)
            round_no = held.round_no
        self.cache.put_monitor(
            frequent=answer.frequent,
            base_ratio=base_ratio,
            grand_total=answer.grand_total,
            staleness=staleness,
            round_no=round_no,
        )

    # ------------------------------------------------------------------
    # The scheduling loop
    # ------------------------------------------------------------------
    def _current_round(self) -> int:
        return max(self._round_no, 0)

    def run(self, until: float) -> None:
        """Drive the service (and the simulation) to sim time ``until``,
        scheduling a front-door round every ``round_interval``."""
        sim = self.sim
        while sim.now < until:
            target = min(sim.now + self.config.round_interval, until)
            sim.run(until=target)
            self._round()

    def drain(self, grace: float | None = None) -> None:
        """Keep running rounds until every submitted request is terminal.

        Bounded: the client-side deadline sweep guarantees progress, so
        this finishes within ``client_timeout`` plus one round of the
        last submission even if the root never comes back.
        """
        margin = self.config.client_timeout if grace is None else grace
        hard_end = self.sim.now + margin + 2 * self.config.round_interval
        while self._outstanding and self.sim.now < hard_end:
            self.run(self.sim.now + self.config.round_interval)
        # Anything still outstanding is past every deadline by now.
        self._sweep_timeouts(force=True)

    def _round(self) -> None:
        self._round_no += 1
        telemetry = self.sim.telemetry
        with telemetry.span(
            "frontdoor.round", round=self._round_no, queue_depth=len(self._queue)
        ) as span:
            self._pump_breaker()
            served = self._serve_cached_queue()
            batch = self._take_batch() if self._breaker_allows() else []
            outcome: BatchOutcome | None = None
            if batch:
                outcome = self.runner.run(batch)
                self._settle_batch(batch, outcome)
            shed = 0
            if self._breaker_state == BREAKER_OPEN:
                shed = self._shed_queue()
            expired = self._sweep_timeouts()
            span["batched"] = len(batch)
            span["committed"] = bool(outcome.committed) if outcome else False
            span["shed"] = shed
            span["expired"] = expired
        self._record_round_row(batch, outcome, served, shed, expired)

    def _breaker_allows(self) -> bool:
        return self._breaker_state in (BREAKER_CLOSED, BREAKER_HALF_OPEN)

    def _pump_breaker(self) -> None:
        """Advance the breaker on the clock: an open breaker whose reset
        window elapsed goes half-open (the next batch is the probe)."""
        if (
            self._breaker_state == BREAKER_OPEN
            and self.sim.now >= self._breaker_open_until
        ):
            self._set_breaker(BREAKER_HALF_OPEN)

    def _serve_cached_queue(self) -> int:
        """Serve queued requests whose answer has since landed in the
        cache within their staleness tolerance — under a flood, the
        first shared session's result drains most of the backlog without
        another convergecast."""
        if not self._queue:
            return 0
        remaining: list[PendingRequest] = []
        served = 0
        for request in self._queue:
            hit = self.cache.lookup(
                request.threshold_ratio, request.max_staleness, self._current_round()
            )
            if hit is None:
                remaining.append(request)
            else:
                self._serve_hit(request.requester, request.request_id, hit)
                served += 1
        self._queue = remaining
        return served

    def _set_breaker(self, state: str) -> None:
        if state == self._breaker_state:
            return
        self._breaker_state = state
        self.sim.telemetry.emit(
            "frontdoor.breaker",
            state=state,
            failures=self._consecutive_failures,
        )

    def _take_batch(self) -> list[PendingRequest]:
        """Oldest still-live queued requests, up to ``max_batch``.
        Requests whose client deadline already passed are dropped here —
        their clients have given up; the sweep terminates them."""
        now = self.sim.now
        live: list[PendingRequest] = []
        queue: list[PendingRequest] = []
        for request in self._queue:
            if request.deadline <= now:
                continue
            if len(live) < self.config.max_batch:
                live.append(request)
            else:
                queue.append(request)
        self._queue = queue
        return live

    def _settle_batch(self, batch: list[PendingRequest], outcome: BatchOutcome) -> None:
        """Answer every batch member and charge its tenant an equal
        share of the session's measured byte cost."""
        share = outcome.bytes_spent / len(batch)
        for request in batch:
            self.admission.charge(request.tenant, share)
        if outcome.committed:
            assert outcome.result is not None
            self._consecutive_failures = 0
            self._set_breaker(BREAKER_CLOSED)
            self.cache.put_session(
                outcome.result, outcome.min_ratio, self._round_no
            )
            for request in batch:
                items, threshold = outcome.carve(request.threshold_ratio)
                self._send_answer(
                    request.requester,
                    request.request_id,
                    status=COMMITTED,
                    threshold=threshold,
                    items=items,
                    grand_total=float(outcome.result.grand_total),
                )
            return
        self._consecutive_failures += 1
        if self._consecutive_failures >= self.config.breaker_threshold:
            self._breaker_open_until = self.sim.now + self.config.breaker_reset
            self._set_breaker(BREAKER_OPEN)
        elif self._breaker_state == BREAKER_HALF_OPEN:
            # The probe failed: straight back to open.
            self._breaker_open_until = self.sim.now + self.config.breaker_reset
            self._set_breaker(BREAKER_OPEN)
        for request in batch:
            self._cache_or_reject(request, outcome.reason)

    def _cache_or_reject(self, request: PendingRequest, reason: str) -> None:
        """The degrade policy: a still-fresh cached answer if the tenant
        tolerates its staleness, an explicit rejection otherwise."""
        hit = self.cache.lookup(
            request.threshold_ratio, request.max_staleness, self._current_round()
        )
        if hit is not None:
            self._serve_hit(request.requester, request.request_id, hit)
            return
        self.sim.telemetry.emit(
            "frontdoor.reject",
            request=request.request_id,
            tenant=request.tenant,
            reason=reason,
            retry_after=self.config.breaker_reset,
        )
        self._send_answer(
            request.requester,
            request.request_id,
            status=REJECTED,
            reason=reason,
            retry_after=self.config.breaker_reset,
        )

    def _shed_queue(self) -> int:
        """Breaker open: drain the whole queue through cache-or-reject —
        the service never sits on work it knows it cannot run."""
        shed = len(self._queue)
        queue, self._queue = self._queue, []
        for request in queue:
            self._cache_or_reject(request, "breaker_open")
        return shed

    def _sweep_timeouts(self, force: bool = False) -> int:
        """Terminate every outstanding request past its client deadline
        (all of them when ``force``)."""
        now = self.sim.now
        expired = [
            request_id
            for request_id in sorted(self._outstanding)
            if force or self.records[request_id].deadline <= now
        ]
        for request_id in expired:
            record = self.records[request_id]
            self.sim.telemetry.emit(
                "frontdoor.timeout",
                request=request_id,
                tenant=record.tenant,
                waited=now - record.submitted_at,
            )
            self._finalize(
                request_id,
                status=REJECTED,
                reason="timeout",
                retry_after=self.config.round_interval,
            )
        return len(expired)

    def _record_round_row(
        self,
        batch: list[PendingRequest],
        outcome: BatchOutcome | None,
        served: int,
        shed: int,
        expired: int,
    ) -> None:
        registry = self.sim.telemetry.registry
        row = {
            "round": self._round_no,
            "cache_served": served,
            "queue_depth": len(self._queue),
            "outstanding": len(self._outstanding),
            "batched": len(batch),
            "committed": bool(outcome.committed) if outcome else False,
            "session_attempts": outcome.attempts if outcome else 0,
            "session_bytes": outcome.bytes_spent if outcome else 0.0,
            "breaker": self._breaker_state,
            "shed": shed,
            "expired": expired,
            "cache_hits": self.cache.hits,
        }
        self.round_rows.append(row)
        registry.counter("frontdoor.rounds").inc()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def status_counts(self) -> dict[str, int]:
        """Terminal requests per status (committed/degraded/rejected)."""
        counts = {COMMITTED: 0, DEGRADED: 0, REJECTED: 0}
        for request_id in sorted(self.records):
            record = self.records[request_id]
            if record.terminal:
                counts[record.status] += 1
        return counts
