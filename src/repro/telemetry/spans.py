"""Causal span tracking for protocol sessions.

A *span* brackets one causally meaningful unit of work in simulated time:
an IFI query session, one aggregation phase, one node's convergecast
participation, one message on the wire.  Spans form a tree — every span
records the span that was *current* when it was opened — and the tree is
what turns "the query took 14 rounds" into "because the subtree under
peer 42 was the last to reply at every level".

Span context propagates through the places causality actually flows:

* :meth:`Telemetry.span <repro.telemetry.core.Telemetry.span>` opens a
  span for the ``with`` block and makes it current, so nested protocol
  phases nest in the tree;
* the transport opens a span per wire message under the sender's current
  span, carries the span id in the :class:`~repro.net.message.Message`
  envelope, and makes it current while the recipient's handler runs — so
  work triggered by a delivery hangs off that message;
* the aggregation engine opens a session span per
  :class:`~repro.aggregation.hierarchical.SessionHandle` and a per-node
  convergecast span (stamped with the node's hierarchy depth) per
  participant, and records on close which input span *completed* each of
  them (``cause``) — the backbone the critical-path walk follows.

Spans are emitted as plain trace events (``span.open`` / ``span.close``)
so the existing JSONL sink, sampling summary, and same-seed replay gate
all apply unchanged; the tree is rebuilt offline by
:mod:`repro.telemetry.critical_path`.

Cost discipline (docs/PERFORMANCE.md): span tracking is opt-in
(:meth:`~repro.telemetry.core.Telemetry.enable_spans`) *and* gated on the
tracer's compiled :attr:`~repro.sim.trace.Tracer.active` predicate.  With
either gate closed, :meth:`SpanTracker.open` returns the null span id
``0`` without allocating, and every other entry point is a no-op on id
``0`` — hot call sites hoist ``spans.enabled and trace.active`` into one
local, exactly like the existing emit guards.

Determinism: span ids come from a per-simulation counter advanced only
when a span is actually opened, timestamps are simulated time, and
closes happen at deterministic protocol points (including the crash
sweep, which runs inside the deterministic failure path) — so span
records replay bit-for-bit with the rest of the trace.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.engine import Simulation
    from repro.sim.trace import Tracer

#: The null span id: "no span".  Opens return it when tracking is off;
#: every SpanTracker entry point treats it as a no-op.
NO_SPAN = 0

#: Close statuses with defined meaning.  ``ok`` is a normal close;
#: ``error`` closes carry a ``reason`` field (``peer_crashed``,
#: ``dead_recipient``, ``root_lost``, ...); ``lost`` / ``dropped`` mark
#: wire spans ended by the loss process / fault injector; ``inflight``
#: marks wire spans of messages still traveling when the trace shut
#: down (the run ended before their delivery events fired); ``unclosed``
#: marks non-wire spans swept by :meth:`SpanTracker.finish` at trace
#: shutdown — a span that *leaked* (the OBS001 lint rule exists to
#: prevent these).
STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_LOST = "lost"
STATUS_DROPPED = "dropped"
STATUS_INFLIGHT = "inflight"
STATUS_UNCLOSED = "unclosed"

#: The wire-message span kind (opened by the transport, closed on every
#: delivery/drop/loss path).  One of these still open at shutdown means
#: the message was in flight when the run ended, not that code leaked it.
WIRE_SPAN_KIND = "wire.msg"

#: Span kinds subject to :attr:`SpanTracker.sample_every` — the
#: per-message kinds whose volume scales with traffic, mirroring the
#: JSONL sink's ``msg.*`` sampling.  Control spans (sessions, phases,
#: per-node convergecast) are never sampled: there are O(N) of them per
#: session, not O(messages), and the tree hangs off them.
SAMPLED_SPAN_KINDS = frozenset({WIRE_SPAN_KIND})


class SpanTracker:
    """Per-simulation open-span table and current-span context.

    One tracker hangs off every :class:`~repro.telemetry.core.Telemetry`
    (``sim.telemetry.spans``).  It does not retain closed spans — the
    JSONL trace is the record of truth; the tracker only tracks what is
    *open* (so crashes and shutdown can sweep leaks) and what is
    *current* (so new spans and outgoing messages know their parent).

    Examples
    --------
    >>> from repro.sim.engine import Simulation
    >>> sim = Simulation(seed=0)
    >>> sim.trace.start_recording()
    >>> spans = sim.telemetry.enable_spans()
    >>> sid = sim.telemetry.spans.open("netfilter.run")
    >>> sim.telemetry.spans.close(sid)
    >>> [r.kind for r in sim.trace.stop_recording()]
    ['span.open', 'span.close']
    """

    __slots__ = (
        "_sim",
        "_tracer",
        "enabled",
        "current",
        "sample_every",
        "_sample_seen",
        "_next_id",
        "_open",
    )

    def __init__(self, sim: "Simulation", tracer: "Tracer") -> None:
        self._sim = sim
        self._tracer = tracer
        #: The opt-in gate.  Hot paths must check ``enabled`` *and* the
        #: tracer's ``active`` predicate before doing span work.
        self.enabled = False
        #: The currently active span id (NO_SPAN outside any span).
        self.current = NO_SPAN
        #: Keep 1 in this many :data:`SAMPLED_SPAN_KINDS` opens (wire
        #: spans).  Sampling happens *at open time*: a sampled-out
        #: message costs one counter increment and never allocates — the
        #: knob that keeps span recording within budget at benchmark
        #: message rates.  Control spans are always kept, so the session
        #: tree (and the critical path through it) survives sampling;
        #: only per-message latency attribution thins out.
        self.sample_every = 1
        self._sample_seen = 0
        self._next_id = 1
        # Open spans: id -> (kind, peer).  Insertion-ordered, so the
        # crash sweep and the shutdown sweep close leaks in the
        # deterministic order they were opened.
        self._open: dict[int, tuple[str, int | None]] = {}

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def open_count(self) -> int:
        """Number of spans currently open (0 when everything closed)."""
        return len(self._open)

    def open_ids(self) -> tuple[int, ...]:
        """Ids of currently open spans, in open order (diagnostics)."""
        return tuple(self._open)

    # ------------------------------------------------------------------
    # Opening and closing
    # ------------------------------------------------------------------
    def open(
        self,
        kind: str,
        parent: int | None = None,
        peer: int | None = None,
        **fields: Any,
    ) -> int:
        """Open a span and emit its ``span.open`` record.

        ``parent`` defaults to the current span; ``peer`` names the
        owning peer so a crash closes the span (see :meth:`close_peer`).
        Returns :data:`NO_SPAN` — and does nothing — unless span tracking
        is enabled and the tracer has a consumer.
        """
        tracer = self._tracer
        if not (self.enabled and tracer.active):
            return NO_SPAN
        if self.sample_every > 1 and kind in SAMPLED_SPAN_KINDS:
            self._sample_seen += 1
            if self._sample_seen % self.sample_every:
                return NO_SPAN
        sid = self._next_id
        self._next_id = sid + 1
        if parent is None:
            parent = self.current
        self._open[sid] = (kind, peer)
        tracer.emit(
            self._sim.now,
            "span.open",
            {"span": sid, "parent": parent, "span_kind": kind, "peer": peer, **fields},
        )
        return sid

    def close(
        self,
        sid: int,
        status: str = STATUS_OK,
        cause: int = NO_SPAN,
        **fields: Any,
    ) -> None:
        """Close an open span and emit its ``span.close`` record.

        ``cause`` names the input span whose completion ended this one
        (the last reply's wire span for a convergecast merge) — the edge
        the critical-path walk follows.  Closing :data:`NO_SPAN` or an
        already-closed span is a no-op, so crash sweeps and normal closes
        compose without double-close bookkeeping at the call sites.
        """
        if sid == NO_SPAN:
            return
        entry = self._open.pop(sid, None)
        if entry is None:
            return
        self._tracer.emit(
            self._sim.now,
            "span.close",
            {"span": sid, "span_kind": entry[0], "status": status, "cause": cause, **fields},
        )

    # ------------------------------------------------------------------
    # Context propagation
    # ------------------------------------------------------------------
    def activate(self, sid: int) -> int:
        """Make ``sid`` the current span; returns the previous current
        span for :meth:`restore`.  Callers must restore in LIFO order."""
        previous = self.current
        self.current = sid
        return previous

    def restore(self, previous: int) -> None:
        """Restore the current span saved by :meth:`activate`."""
        self.current = previous

    # ------------------------------------------------------------------
    # Sweeps
    # ------------------------------------------------------------------
    def close_peer(self, peer: int, reason: str = "peer_crashed") -> int:
        """Close every open span owned by ``peer`` with an error status.

        Called from the node failure path so a crashed peer's in-flight
        convergecast spans end as *closed trees with an error tag*
        instead of leaking to the shutdown sweep.  Returns how many spans
        were closed.
        """
        if not self._open:
            return 0
        victims = [sid for sid, (_, owner) in self._open.items() if owner == peer]
        for sid in victims:
            self.close(sid, status=STATUS_ERROR, reason=reason)
        return len(victims)

    def finish(self) -> int:
        """Close every span still open; returns the number of true leaks.

        Run by :meth:`Telemetry.close <repro.telemetry.core.Telemetry.close>`
        before the JSONL sinks detach, so a finished trace never contains
        an open without a matching close.  Wire-message spans close with
        status ``inflight`` — the transport closes them on every delivery
        path, so one still open means its message was traveling when the
        run ended.  Everything else closes ``unclosed`` and counts toward
        the returned leak total — tests assert it stays 0.
        """
        leaked = 0
        for sid, (kind, _) in list(self._open.items()):
            if kind == WIRE_SPAN_KIND:
                self.close(sid, status=STATUS_INFLIGHT)
            else:
                leaked += 1
                self.close(sid, status=STATUS_UNCLOSED)
        return leaked
