"""The trace-kind registry: every event kind a protocol may emit.

The JSONL traces (PR 1) are only analysable — and only comparable across
runs, which the same-seed replay gate in ``tests/test_determinism.py``
depends on — if event kinds form a closed vocabulary.  A typo'd kind
(``"herarchy.attached"``) silently splits one event stream into two and
every report built on the real kind under-counts.  This module is the
single source of truth; the ``PROTO002`` rule of :mod:`repro.lint`
statically checks that every ``emit(...)``/``span(...)`` call site in
protocol code uses a declared kind.

Adding a kind is one line in :data:`TRACE_KINDS` (or, for downstream
extensions, one :func:`declare_kind` call at import time).
"""

from __future__ import annotations

#: Every declared trace-event kind, mapped to a one-line description.
#: Span kinds appear here under their bare name; the begin/end bracketing
#: (``ev="begin"`` / ``ev="end"``) is carried in the record fields.
TRACE_KINDS: dict[str, str] = {
    # -- transport ------------------------------------------------------
    "msg.sent": "a payload was priced, charged, and put on the wire",
    "msg.delivered": "a payload reached a live recipient",
    "msg.lost": "the transport's loss process dropped a message",
    "msg.dropped_dead_recipient": "delivery attempted to a failed/unknown peer",
    "msg.unhandled": "a delivered payload type had no registered handler",
    "transport.retransmit": "an unacked reliable message was re-sent",
    "transport.retransmit_exhausted": "a reliable message ran out of retries",
    # -- fault injection ------------------------------------------------
    "fault.injected": "a scripted fault scenario action fired",
    "msg.dropped_fault": "the fault injector dropped a matching message",
    "msg.delayed_fault": "the fault injector delayed a matching message",
    # -- node / churn lifecycle ----------------------------------------
    "node.failed": "a peer crashed (stops sending, receiving, timing)",
    "node.revived": "a failed peer rejoined with the same identity",
    "churn.failure": "the churn process selected and failed a victim",
    "churn.revival": "the churn process revived a failed peer",
    # -- heartbeats / failure detection --------------------------------
    "heartbeat.neighbor_down": "a neighbour's watchdog expired",
    # -- hierarchy construction and repair -----------------------------
    "hierarchy.build": "span: BFS flood from the designated root",
    "hierarchy.attached": "a peer adopted an upstream neighbour",
    "hierarchy.invalidated": "a peer detached (depth <- infinity)",
    "hierarchy.reattached": "a detached peer re-entered via a heartbeat",
    "hierarchy.child_dropped": "a failed child was removed from downstream",
    "hierarchy.repair": "span: repair episode (used by maintenance tests)",
    "hierarchy.cross_gen_drop": "the generation fence discarded stale traffic",
    "hierarchy.cycle_break": "the last-resort depth bound fired (alarm)",
    "hierarchy.root_promoted": "a failover successor promoted itself to root",
    "hierarchy.root_abdicated": "a superseded root rejoined the newer epoch",
    "hierarchy.child_readopted": "a parent re-adopted a wrongly dropped child",
    "hierarchy.stale_child_dropped": "a parent dropped a child attached elsewhere",
    # -- aggregation sessions ------------------------------------------
    "aggregation.start": "the root opened an aggregation session",
    "aggregation.complete": "the root obtained the global aggregate",
    "aggregation.child_timeout": "a node gave up waiting for children",
    "aggregation.reprobe": "a hardened node re-probed children missing at timeout",
    "aggregation.incomplete": "a session completed short of full coverage",
    "aggregation.root_lost": "a session's root died or was replaced mid-flight",
    # -- recovery (requester-side re-issue) -----------------------------
    "request.reissued": "a requester re-ran a phase/query on low coverage",
    # -- netFilter (hierarchical) --------------------------------------
    "netfilter.run": "span: one full two-phase netFilter execution",
    "totals.phase": "span: the combined (v, N) aggregation",
    "filter.phase": "span: phase-1 candidate filtering",
    "filter.heavy_groups": "phase-1 outcome: heavy groups per filter",
    "verify.phase": "span: phase-2 candidate verification",
    "verify.materialized": "a peer materialized its partial candidate set",
    # -- continuous monitoring / service layer -------------------------
    "monitor.resync": "a peer re-shipped its full state after a re-baseline",
    "service.epoch": "span: one scheduled monitoring epoch, commit or degrade",
    "service.attempt": "span: one epoch attempt (three convergecasts)",
    "service.commit": "an epoch attempt committed a fresh result",
    "service.abandon": "an epoch attempt was abandoned (deadline/coverage/root)",
    "service.degraded": "an epoch ended degraded: serving the last committed result",
    # -- multi-tenant front door (repro.frontdoor) ----------------------
    "frontdoor.submit": "a client peer fired a query request at the root",
    "frontdoor.admit": "admission control accepted a request into the batch queue",
    "frontdoor.reject": "the front door rejected a request (reason, retry_after)",
    "frontdoor.cache_hit": "a still-fresh cached answer served the request",
    "frontdoor.round": "span: one front-door scheduling round (admit, batch, serve)",
    "frontdoor.session": "span: one shared aggregation session over a batch",
    "frontdoor.session_retry": "a failed shared session was retried after backoff",
    "frontdoor.answer": "the root sent a terminal answer back to a requester",
    "frontdoor.timeout": "a client-side request deadline expired unanswered",
    "frontdoor.breaker": "the overload circuit breaker changed state",
    # -- causal spans (repro.telemetry.spans) ---------------------------
    "span.open": "a causal span opened (fields: span, parent, span_kind, peer)",
    "span.close": "a causal span closed (fields: span, status, cause)",
    # The span_kind vocabulary for tracker spans (values of the
    # ``span_kind`` field above); phase spans reuse the kinds of the
    # begin/end events they shadow (netfilter.run, filter.phase, ...).
    "wire.msg": "causal span: one message on the wire, send to delivery",
    "agg.session": "causal span: one aggregation session, root-side",
    "agg.node": "causal span: one node's convergecast participation",
    # -- sink framing (written by JsonlTraceSink, never emitted) -------
    "trace.meta": "first JSONL line: format version and sampling setup",
    "trace.summary": "last JSONL line: exact per-kind emit counters",
}


def declare_kind(kind: str, description: str) -> str:
    """Declare an additional trace kind (for protocol extensions).

    Returns ``kind`` so modules can bind it to a constant at import time::

        REBALANCE_KIND = declare_kind("hierarchy.rebalanced", "...")

    Re-declaring an existing kind with a different description raises —
    two modules silently fighting over one kind is exactly the confusion
    the registry exists to prevent.
    """
    existing = TRACE_KINDS.get(kind)
    if existing is not None and existing != description:
        raise ValueError(
            f"trace kind {kind!r} already declared with a different description"
        )
    TRACE_KINDS[kind] = description
    return kind


def is_declared(kind: str) -> bool:
    """Whether ``kind`` is in the registry."""
    return kind in TRACE_KINDS
