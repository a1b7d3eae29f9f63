"""The standing monitoring service: schedule, retry, commit or degrade.

:class:`MonitorService` supervises a :class:`ContinuousNetFilter` as a
long-lived query.  Each scheduled epoch it opens an
:class:`~repro.core.continuous.EpochAttempt` and runs it
(:func:`repro.core.session.run_attempt` under
:func:`~repro.core.session.supervise`) with a per-epoch deadline; an
attempt that loses its root, misses the deadline, leaves a live peer
uncovered, or sees the live set change mid-flight is **abandoned**
(nothing committed, no peer ledger advanced) and retried after a settle
backoff.  An epoch whose deadline expires with no committed attempt ends
**degraded**: the root keeps serving the newest committed result, flagged
with an honest ``staleness_epochs`` bound — the service never blocks and
never fabricates a fresh answer it did not compute.

After ``rebaseline_after`` consecutive degraded epochs the next attempt
escalates to a dense re-baseline, re-anchoring the root's group vector to
the live population instead of chasing deltas through a membership the
committed ledgers no longer describe; peers revived later resync off the
new baseline (see :mod:`repro.core.continuous`).

Any peer can query the service over the wire
(:meth:`MonitorService.query_from`): a ``MonitorQueryPayload`` to the
root is answered with the current :class:`MonitorAnswer`, degraded or
not.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.core.continuous import ContinuousNetFilter, EpochReport
from repro.core.session import ROOT_DEAD, run_attempt, supervise
from repro.items.itemset import LocalItemSet
from repro.net.message import Message
from repro.service.answer import EpochOutcome, MonitorAnswer
from repro.service.config import ServiceConfig
from repro.service.payloads import MonitorAnswerPayload, MonitorQueryPayload
from repro.sim.timers import backoff


class MonitorService:
    """Run a continuous monitor as a deadline-driven standing service.

    Examples
    --------
    The essential shape (see ``repro.experiments.soak`` for the full
    fault-composed harness)::

        monitor = ContinuousNetFilter(config, engine, decay=DecayConfig())
        service = MonitorService(monitor, ServiceConfig(epoch_interval=240))
        outcomes = service.run(epochs=50, before_epoch=apply_stream)
        service.answer()           # newest answer, honest staleness bound
        service.query_from(peer=7) # the same answer over the wire
    """

    def __init__(
        self, monitor: ContinuousNetFilter, config: ServiceConfig | None = None
    ) -> None:
        self.monitor = monitor
        self.config = config or ServiceConfig()
        self.engine = monitor.engine
        self.network = self.engine.network
        self.sim = self.engine.sim
        #: One entry per scheduled epoch, committed or degraded.
        self.outcomes: list[EpochOutcome] = []
        #: Wall epoch currently (or most recently) being served.
        self.current_epoch = -1
        self._last_report: EpochReport | None = None
        self._consecutive_degraded = 0
        self._client_answers: dict[int, MonitorAnswer] = {}
        self._listeners: list[Callable[[EpochOutcome], None]] = []
        for peer in self.network.live_peers():
            self._install(peer)
        # fail() wipes a peer's handler table; re-install on every revive.
        self.network.on_join(self._install)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def answer(self, epoch: int | None = None) -> MonitorAnswer:
        """The answer served right now, for wall epoch ``epoch`` (default:
        the current one).  Always returns — degraded with a staleness
        bound when that epoch has no committed result of its own."""
        if epoch is None:
            epoch = self.current_epoch
        report = self._last_report
        now = self.sim.now
        if report is None:
            return MonitorAnswer(
                epoch=epoch,
                committed_epoch=-1,
                degraded=True,
                staleness_epochs=epoch + 1,
                threshold=0.0,
                frequent=LocalItemSet.empty(),
                grand_total=0.0,
                served_at=now,
            )
        staleness = max(epoch - report.epoch, 0)
        return MonitorAnswer(
            epoch=epoch,
            committed_epoch=report.epoch,
            degraded=staleness > 0,
            staleness_epochs=staleness,
            threshold=report.result.threshold,
            frequent=report.result.frequent,
            grand_total=report.faded_total,
            served_at=now,
        )

    def subscribe(self, listener: Callable[[EpochOutcome], None]) -> None:
        """Call ``listener`` with every epoch outcome as it concludes
        (committed or degraded).  Consumers like the query front door use
        this to keep a warm cache of the newest honest answer."""
        self._listeners.append(listener)

    def query_from(self, peer: int, timeout: float = 120.0) -> MonitorAnswer | None:
        """Ask the root for the current answer over the wire, from
        ``peer``; drives the simulation until the reply lands or
        ``timeout`` sim time passes.  Returns ``None`` on timeout (root
        unreachable)."""
        root = self.engine.hierarchy.root
        self._client_answers.pop(peer, None)
        self.network.node(peer).send(root, MonitorQueryPayload(requester=peer))
        deadline = self.sim.now + timeout
        while peer not in self._client_answers:
            if self.sim.now >= deadline or not self.sim.step():
                break
        return self._client_answers.get(peer)

    # ------------------------------------------------------------------
    # The epoch scheduler
    # ------------------------------------------------------------------
    def run(
        self,
        epochs: int,
        before_epoch: Callable[[int], None] | None = None,
    ) -> list[EpochOutcome]:
        """Run ``epochs`` scheduled monitoring epochs from the current sim
        time.  ``before_epoch(epoch)`` runs at each epoch's scheduled
        start — the hook workload streams apply new arrivals through.

        Returns the outcomes of exactly these epochs (all outcomes ever
        are on :attr:`outcomes`)."""
        start = self.sim.now
        first = self.current_epoch + 1
        produced: list[EpochOutcome] = []
        for k in range(epochs):
            target = start + k * self.config.epoch_interval
            if self.sim.now < target:
                self.sim.run(until=target)
            epoch = first + k
            self.current_epoch = epoch
            if before_epoch is not None:
                before_epoch(epoch)
            outcome = self.run_one(epoch)
            self.outcomes.append(outcome)
            produced.append(outcome)
        return produced

    def run_one(self, epoch: int) -> EpochOutcome:
        """Attempt wall epoch ``epoch`` until commit, attempt budget, or
        deadline; always returns an outcome with a served answer."""
        cfg = self.config
        telemetry = self.sim.telemetry
        deadline_at = self.sim.now + cfg.deadline
        self.current_epoch = max(self.current_epoch, epoch)

        def abandoned(attempts: int, reason: str) -> None:
            telemetry.registry.counter("service.abandons").inc()
            telemetry.emit("service.abandon", epoch=epoch, attempt=attempts, reason=reason)

        with telemetry.span("service.epoch", epoch=epoch) as span:
            report, reason, attempts = supervise(
                self.sim,
                lambda: self._commit_or_abandon(epoch, deadline_at),
                max_attempts=cfg.max_attempts,
                deadline=deadline_at,
                delay=partial(backoff, cfg.retry_backoff),
                on_failure=abandoned,
            )
            span["committed"] = report is not None
            span["attempts"] = attempts
        return self._conclude(epoch, report, attempts, reason)

    def _conclude(
        self, epoch: int, report: EpochReport | None, attempts: int, reason: str
    ) -> EpochOutcome:
        telemetry = self.sim.telemetry
        cfg = self.config
        if report is not None:
            self._last_report = report
            self._consecutive_degraded = 0
            telemetry.registry.counter("service.commits").inc()
            telemetry.emit(
                "service.commit",
                epoch=epoch,
                mode=report.mode,
                frequent=len(report.result.frequent),
                changed_groups=report.changed_groups,
                resyncs=report.resyncs,
            )
        else:
            self._consecutive_degraded += 1
            telemetry.registry.counter("service.degraded_epochs").inc()
        answer = self.answer(epoch)
        if answer.degraded:
            telemetry.emit(
                "service.degraded",
                epoch=epoch,
                committed_epoch=answer.committed_epoch,
                staleness_epochs=answer.staleness_epochs,
                reason=reason,
            )
        if answer.staleness_epochs > cfg.max_staleness:
            telemetry.registry.counter("service.staleness_violations").inc()
        epochs_ts = telemetry.epochs
        if epochs_ts is not None:
            epochs_ts.record("service.committed", 0.0 if answer.degraded else 1.0)
            epochs_ts.record(
                "service.staleness_epochs", float(answer.staleness_epochs)
            )
        outcome = EpochOutcome(
            epoch=epoch,
            committed=report is not None,
            attempts=attempts,
            answer=answer,
            report=report,
            reason=reason,
        )
        for listener in self._listeners:
            listener(outcome)
        return outcome

    # ------------------------------------------------------------------
    # One attempt
    # ------------------------------------------------------------------
    def _commit_or_abandon(
        self, epoch: int, deadline_at: float
    ) -> tuple[EpochReport | None, str]:
        """One two-phase-committed attempt: everything staged for it is
        committed only if :func:`~repro.core.session.run_attempt` says the
        result counts, and abandoned (nothing moved) otherwise."""
        network = self.network
        if not network.node(self.engine.hierarchy.root).alive:
            return None, ROOT_DEAD
        live_at_start = tuple(network.live_peers())
        force_dense = self._consecutive_degraded >= self.config.rebaseline_after
        attempt = self.monitor.begin_attempt(epoch=epoch, force_dense=force_dense)
        with self.sim.telemetry.span(
            "service.attempt", epoch=epoch, mode=attempt.mode
        ) as span:
            result, reason = run_attempt(
                self.engine,
                attempt.plan(),
                deadline=deadline_at,
                exact=True,
                stable_over=live_at_start,
            )
            if reason:
                attempt.abandon()
                return None, reason
            span["coverage"] = result.coverage
            report = attempt.commit(result, live_at_start)
            span["frequent"] = len(result.frequent)
        return report, ""

    # ------------------------------------------------------------------
    # Wire serving
    # ------------------------------------------------------------------
    def _install(self, peer: int) -> None:
        node = self.network.node(peer)
        node.register_handler(MonitorQueryPayload, self._on_query)
        node.register_handler(MonitorAnswerPayload, self._on_answer)

    def _on_query(self, message: Message) -> None:
        assert isinstance(message.payload, MonitorQueryPayload)
        node = self.network.node(message.recipient)
        if message.recipient != self.engine.hierarchy.root:
            # A stale client aimed at a deposed/dead root's successor
            # window: drop, the client retries against the current root.
            return
        answer = self.answer()
        self.sim.telemetry.emit(
            "service.answer",
            requester=message.payload.requester,
            epoch=answer.epoch,
            committed_epoch=answer.committed_epoch,
            degraded=answer.degraded,
            staleness_epochs=answer.staleness_epochs,
        )
        node.send(message.payload.requester, MonitorAnswerPayload(answer=answer))

    def _on_answer(self, message: Message) -> None:
        assert isinstance(message.payload, MonitorAnswerPayload)
        self._client_answers[message.recipient] = message.payload.answer
