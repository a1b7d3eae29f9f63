"""Hierarchical aggregate computation (Section III-A.2).

One *session* computes one aggregate: the request travels from the root
down the hierarchy; leaves answer with their local contribution; each
internal node merges its children's replies with its own contribution and
forwards the merged value upstream; the root ends with the global
aggregate.

Fault tolerance: a node that forwarded the request to its children arms a
timeout; if some child never answers (it failed, or its subtree is mid
repair), the node proceeds with the contributions it has.  Under churn the
aggregate is then computed over the reachable subtree — the behaviour the
paper accepts for hierarchical aggregation and mitigates by recruiting
stable peers.

That silent degradation is what the *coverage accounting* here turns into
a detected condition: every reply carries the number of peers folded into
it, so each merge — and ultimately the root — knows exactly how many of
the live peers it covered.  The root-side :class:`SessionHandle` exposes
``covered`` / ``expected`` / ``coverage`` / ``complete``, and a session
that ends short of full coverage emits an ``aggregation.incomplete``
trace.  A *hardened* engine additionally re-probes missing children once
before giving up on them (recovering from a lost request, a lost reply,
or a child that revived in the meantime: a node that already replied
answers a duplicate request by re-sending its stored reply).

The engine installs one :class:`AggregationService` per participant and
multiplexes any number of concurrent sessions over them (needed both for
netFilter's two phases and for Section III-A.1's concurrent-request
sharing).  A session's per-node state lives only as long as something can
still touch it: once the session is *quiescent* — none of its messages on
the wire, none of its reliable sends unacknowledged, none of its child
timeouts armed — every node's state for it is dropped (see
:class:`_Session`, and docs/ROBUSTNESS.md, "Bounded state").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, cast

from repro.aggregation.spec import AggregateSpec
from repro.errors import AggregationError
from repro.hierarchy.builder import Hierarchy
from repro.hierarchy.generation import fence_stale
from repro.net.codec import register_payload
from repro.net.message import Message, Payload
from repro.net.node import Node
from repro.net.wire import CostCategory, SizeModel
from repro.sim.timers import Timeout


@register_payload
@dataclass(frozen=True, eq=False)
class AggRequestPayload(Payload):
    """Down-sweep: "compute this aggregate; here is the request data".

    ``generation`` is the sender's hierarchy fencing epoch (see
    :mod:`repro.hierarchy.generation`): a request issued against a
    superseded tree is dropped-and-counted by receivers that already
    joined a newer one.  Like ``covered`` on the reply, the counter is
    not priced in the base payload (the paper's cost model covers the
    request data only); :class:`CoverageAggReplyPayload` prices the
    hardened engine's metadata honestly on the reply path.

    The root builds one request per session and every node forwards the
    object it received, so its size is priced once per session.
    ``ledger`` is the engine's record of the session (:class:`_Session`),
    which the transport holds while a copy is on the wire.
    """

    session_id: int
    spec: AggregateSpec
    request_data: Any
    generation: int = 0
    ledger: _Session | None = field(default=None, repr=False)

    @property
    def category(self) -> CostCategory:  # type: ignore[override]
        return self.spec.down_category

    def body_bytes(self, model: SizeModel) -> int:
        return self.spec.request_bytes(self.request_data, model)


@register_payload
@dataclass(frozen=True, eq=False)
class AggReplyPayload(Payload):
    """Up-sweep: the merged aggregate of the sender's subtree.

    ``covered`` counts the peers whose contributions are folded into
    ``value`` (the sender plus its merged descendants).  The base payload
    does not price the counter — the paper's cost model covers the
    aggregate value only; :class:`CoverageAggReplyPayload` (used by
    hardened engines) charges it honestly.  ``ledger`` is as on the
    request.
    """

    session_id: int
    spec: AggregateSpec
    value: Any
    covered: int = 1
    generation: int = 0
    ledger: _Session | None = field(default=None, repr=False)

    @property
    def category(self) -> CostCategory:  # type: ignore[override]
        return self.spec.up_category

    def body_bytes(self, model: SizeModel) -> int:
        return self.spec.combiner.size_bytes(self.value, model)


@register_payload
@dataclass(frozen=True, eq=False)
class CoverageAggReplyPayload(AggReplyPayload):
    """Hardened up-sweep reply: prices the metadata it carries.

    Same fields as :class:`AggReplyPayload`; two extra aggregate-sized
    integers on the wire (the coverage counter and the generation stamp),
    charged to the spec's up-category so robustness runs measure the true
    cost of coverage accounting and generation fencing.
    """

    def body_bytes(self, model: SizeModel) -> int:
        return super().body_bytes(model) + 2 * model.aggregate_bytes


class SessionHandle:
    """Root-side view of one aggregation session."""

    def __init__(self, session_id: int, spec: AggregateSpec) -> None:
        self.session_id = session_id
        self.spec = spec
        self.done = False
        self.value: Any = None
        self.started_at: float = 0.0
        #: Peers whose contributions reached the root.
        self.covered: int = 0
        #: Live peers at session start — what a complete session covers.
        self.expected: int = 0
        #: The session lost its root (it died, or failover replaced it)
        #: before the aggregate arrived — the value is unusable and the
        #: caller must re-issue against the new root.
        self.failed: bool = False
        #: Causal span id of this session (0 when span tracking is off).
        self.span: int = 0

    @property
    def coverage(self) -> float:
        """Fraction of the live population this session covered."""
        if self.expected <= 0:
            return 1.0
        return self.covered / self.expected

    @property
    def complete(self) -> bool:
        """Whether every live peer's contribution reached the root."""
        return self.done and not self.failed and self.covered >= self.expected

    def _complete(self, value: Any, covered: int) -> None:
        self.done = True
        self.value = value
        self.covered = covered


class _Session:
    """The engine's record of one session, kept while anything can reach it.

    ``outstanding`` counts what can: every copy of the session's payloads
    on the wire and every reliable send of one not yet acknowledged or
    given up (the transport holds and settles these through the payload's
    ``ledger``), every armed child timeout, and one unit while
    :meth:`AggregationEngine.start` runs.  At zero the session is
    *quiescent*: no delivery and no timer can reach it again, so every
    node's state for it is dropped.  Waiting for quiescence, not for the
    root's answer, is what keeps late work exact: a node whose parent
    already gave up on it still times out and replies (its contribution
    may have side effects, e.g. a continuous epoch's staged delta), and a
    re-probe still in flight is still answered from the stored reply.
    ``closed`` turns any copy that outlived the session into a no-op.
    """

    __slots__ = ("engine", "handle", "members", "outstanding", "closed")

    def __init__(self, engine: AggregationEngine, handle: SessionHandle) -> None:
        self.engine = engine
        self.handle = handle
        #: Services holding a state for the session; a peer that crashed
        #: and revived mid-session can appear twice (old and new service).
        self.members: list[AggregationService] = []
        self.outstanding = 0
        self.closed = False

    def hold(self) -> None:
        self.outstanding += 1

    def settle(self) -> None:
        self.outstanding -= 1
        if self.outstanding or self.closed:
            return
        self.closed = True
        session_id = self.handle.session_id
        for service in self.members:
            del service._sessions[session_id]
        self.members.clear()
        del self.engine._open[session_id]


@dataclass
class _NodeSessionState:
    """Per-node bookkeeping for one session, dropped once it is quiescent."""

    #: The request as this node received it (the root builds it): spec,
    #: request data, generation and session, forwarded unchanged.
    request: AggRequestPayload
    parent: int | None
    waiting_on: set[int] = field(default_factory=set)
    received: list[Any] = field(default_factory=list)
    received_covered: list[int] = field(default_factory=list)
    timeout: Timeout | None = None
    replied: bool = False
    reprobed: bool = False
    # The merged reply, kept after replying so a duplicate request (a
    # parent re-probing after its timeout) can be answered by re-sending
    # rather than silently ignored.
    reply_value: Any = None
    reply_covered: int = 0
    # Causal span of this node's convergecast participation (0 when span
    # tracking is off); owned by the node's peer id, so a crash closes it.
    span: int = 0


class AggregationService:
    """The per-node participant logic, shared by all sessions."""

    def __init__(self, engine: "AggregationEngine", node: Node) -> None:
        self._engine = engine
        self._node = node
        #: This node's state in every session that is not yet quiescent.
        self._sessions: dict[int, _NodeSessionState] = {}
        node.register_handler(engine.request_cls, self._handle_request)
        node.register_handler(engine.reply_cls, self._handle_reply)

    # ------------------------------------------------------------------
    # Request handling (down-sweep)
    # ------------------------------------------------------------------
    def _handle_request(self, message: Message) -> None:
        payload = message.payload
        assert isinstance(payload, AggRequestPayload)
        if fence_stale(
            self._node.network.sim,
            context="agg_request",
            peer=self._node.peer_id,
            sender=message.sender,
            msg_generation=payload.generation,
            local_generation=self._engine.hierarchy.generation_of(self._node.peer_id),
        ):
            return
        self.begin_session(payload, parent=message.sender)

    def begin_session(self, request: AggRequestPayload, parent: int | None) -> None:
        """Join a session: forward the request to children, then reply once
        every child answered (or timed out).  Called with ``parent=None``
        on the root by the engine."""
        session_id = request.session_id
        state = self._sessions.get(session_id)
        if state is not None:
            # Duplicate request: either a transient artefact of repair, or
            # a parent re-probing because our reply never arrived.  If we
            # already replied, answer it by re-sending the stored reply;
            # if we are still collecting, the eventual reply answers it.
            if state.replied and parent is not None and parent == state.parent:
                self._send_reply(state)
            return
        session = request.ledger
        assert session is not None, "requests are built by AggregationEngine.start"
        if session.closed:
            return  # joining would re-run contribute for a finished session
        hierarchy = self._engine.hierarchy
        network = self._node.network
        peer = self._node.peer_id
        children = {
            child for child in hierarchy.children_of(peer) if network.node(child).alive
        }
        state = _NodeSessionState(request=request, parent=parent, waiting_on=children)
        self._sessions[session_id] = state
        session.members.append(self)
        # The convergecast span parents to the causal context that started
        # it: the session span on the root, the delivering request's wire
        # span elsewhere.  It closes in _reply (or via the crash sweep /
        # shutdown sweep if this node never gets to reply).
        sim = network.sim
        spans = sim.telemetry.spans
        previous = 0
        if spans.enabled and sim.trace.active:
            state.span = spans.open(
                "agg.node", peer=peer, session=session_id, depth=hierarchy.depth_of(peer)
            )
            previous = spans.activate(state.span)
        if children:
            for child in sorted(children):
                self._node.send(child, request)
            # Stagger deadlines by depth: a node's patience must exceed its
            # children's, or parents give up while their subtrees are still
            # (legitimately) collecting and the partial results are lost.
            own_depth = min(max(hierarchy.depth_of(peer), 0), network.n_peers)
            duration = self._engine.child_timeout / (own_depth + 1)
            state.timeout = Timeout(
                sim,
                duration,
                lambda sid=session_id: self._give_up_waiting(sid),
            )
            state.timeout.reset()
            session.hold()  # the armed timeout; _reply settles it
        else:
            self._reply(state)
        if state.span:
            spans.restore(previous)

    # ------------------------------------------------------------------
    # Reply handling (up-sweep)
    # ------------------------------------------------------------------
    def _handle_reply(self, message: Message) -> None:
        payload = message.payload
        assert isinstance(payload, AggReplyPayload)
        if fence_stale(
            self._node.network.sim,
            context="agg_reply",
            peer=self._node.peer_id,
            sender=message.sender,
            msg_generation=payload.generation,
            local_generation=self._engine.hierarchy.generation_of(self._node.peer_id),
        ):
            return
        state = self._sessions.get(payload.session_id)
        if state is None or state.replied:
            return  # late reply after timeout — already merged without it
        if message.sender not in state.waiting_on:
            return  # duplicate
        state.waiting_on.discard(message.sender)
        state.received.append(payload.value)
        state.received_covered.append(payload.covered)
        if not state.waiting_on:
            if state.timeout is not None:
                state.timeout.cancel()
            self._reply(state)

    def _give_up_waiting(self, session_id: int) -> None:
        state = self._sessions.get(session_id)
        if state is None or state.replied:
            return
        sim = self._node.network.sim
        if self._engine.hardened and not state.reprobed and state.waiting_on:
            # One bounded re-probe before proceeding without the missing
            # children: recovers a lost request, a lost reply (the child
            # re-sends its stored reply), or a child that crashed and
            # revived within the window — and buys a slow subtree one more
            # timeout period.
            state.reprobed = True
            sim.trace.emit(
                sim.now,
                "aggregation.reprobe",
                peer=self._node.peer_id,
                session=session_id,
                missing=len(state.waiting_on),
            )
            sim.telemetry.registry.counter("aggregation.reprobes").inc()
            # Re-probe copies are caused by this node's convergecast span
            # (the timer fired outside any delivery context).
            spans = sim.telemetry.spans
            previous = spans.activate(state.span) if state.span else 0
            for child in sorted(state.waiting_on):
                self._node.send(child, state.request)
            if state.span:
                spans.restore(previous)
            assert state.timeout is not None
            state.timeout.reset()
            return
        sim.trace.emit(
            sim.now,
            "aggregation.child_timeout",
            peer=self._node.peer_id,
            session=session_id,
            missing=len(state.waiting_on),
        )
        self._reply(state)

    def _reply(self, state: _NodeSessionState) -> None:
        state.replied = True
        request = state.request
        spec = request.spec
        own = spec.contribute(self._node, request.request_data)
        value = spec.combiner.combine_many([own, *state.received])
        covered = 1 + sum(state.received_covered)
        state.reply_value = value
        state.reply_covered = covered
        # The input that completed this merge (the last child reply's wire
        # span, or 0 when a timeout forced the merge) becomes the span's
        # ``cause``; the outgoing reply is sent with this node's span as
        # context so its wire span parents here.
        spans = self._node.network.sim.telemetry.spans
        cause = spans.current
        if cause == state.span:
            # A leaf replies synchronously inside begin_session, where its
            # own span is already current: no separate input caused it.
            cause = 0
        previous = spans.activate(state.span) if state.span else 0
        session = request.ledger
        assert session is not None
        if state.parent is None:
            self._engine._complete(session.handle, value, covered)
        else:
            self._send_reply(state)
        if state.span:
            spans.restore(previous)
            spans.close(
                state.span, cause=cause, covered=covered, missing=len(state.waiting_on)
            )
        # Free the merged child contributions; keep the entry (and the
        # combined reply) so duplicate requests stay idempotent and
        # re-probes can be answered until the session is quiescent.
        state.received.clear()
        state.received_covered.clear()
        if state.timeout is not None:
            session.settle()  # the timeout is disarmed: cancelled, or it fired

    def _send_reply(self, state: _NodeSessionState) -> None:
        assert state.parent is not None
        request = state.request
        self._node.send(
            state.parent,
            self._engine.reply_cls(
                session_id=request.session_id,
                spec=request.spec,
                value=state.reply_value,
                covered=state.reply_covered,
                generation=request.generation,
                ledger=request.ledger,
            ),
        )


class AggregationEngine:
    """Runs aggregation sessions over a built hierarchy.

    Parameters
    ----------
    hierarchy:
        The hierarchy to aggregate over.  One engine per hierarchy — the
        engine registers the aggregation payload handlers on every
        participant (and on peers that join later).
    child_timeout:
        How long a node waits for its children before proceeding without
        the missing ones.  Only matters under churn.
    hardened:
        Enable the recovery behaviours: one bounded re-probe of children
        missing at timeout, and coverage counters priced on the wire
        (:class:`CoverageAggReplyPayload`).  Coverage *accounting* is
        always on — an unhardened engine still detects and reports
        incomplete sessions; it just does not try to recover.

    Examples
    --------
    See :func:`repro.aggregation.hierarchical.scalar_total_spec` and the
    tests in ``tests/aggregation/test_hierarchical.py``.
    """

    def __init__(
        self,
        hierarchy: Hierarchy,
        child_timeout: float = 300.0,
        hardened: bool = False,
    ) -> None:
        from repro.net.tagging import tagged

        self.hierarchy = hierarchy
        self.network = hierarchy.network
        self.sim = hierarchy.network.sim
        self.child_timeout = child_timeout
        self.hardened = hardened
        # Engines over differently-tagged hierarchies (Section III-A.1's
        # redundant hierarchies) use distinct payload types so their
        # sessions never collide in the node dispatch tables.
        self.request_cls = cast(
            "type[AggRequestPayload]", tagged(AggRequestPayload, hierarchy.tag)
        )
        reply_base: type[AggReplyPayload] = (
            CoverageAggReplyPayload if hardened else AggReplyPayload
        )
        self.reply_cls = cast("type[AggReplyPayload]", tagged(reply_base, hierarchy.tag))
        self._session_ids = itertools.count(1)
        #: Sessions not yet quiescent; each leaves when it is (_Session).
        self._open: dict[int, _Session] = {}
        self._services: dict[int, AggregationService] = {
            peer: AggregationService(self, self.network.node(peer))
            for peer in hierarchy.participants()
        }
        self.network.on_join(self._integrate_new_peer)

    def _integrate_new_peer(self, peer: int) -> None:
        self._services[peer] = AggregationService(self, self.network.node(peer))

    # ------------------------------------------------------------------
    # Session API
    # ------------------------------------------------------------------
    def start(self, spec: AggregateSpec, request_data: Any = None) -> SessionHandle:
        """Begin a session at the root; returns immediately with a handle
        that completes when the root has the global aggregate."""
        if not self.network.node(self.hierarchy.root).alive:
            raise AggregationError("cannot start a session: the root is down")
        session_id = next(self._session_ids)
        handle = SessionHandle(session_id, spec)
        handle.started_at = self.sim.now
        handle.expected = self.network.n_live_peers
        self.sim.trace.emit(
            self.sim.now, "aggregation.start", session=session_id, spec=spec.name
        )
        root_service = self._services.get(self.hierarchy.root)
        if root_service is None:
            raise AggregationError("root has no aggregation service (is it alive?)")
        session = _Session(self, handle)
        self._open[session_id] = session
        # The session span parents to whatever phase span is current (the
        # netFilter phase that issued it); it is owned by the root peer so
        # a root crash error-closes it even if the caller never notices.
        spans = self.sim.telemetry.spans
        handle.span = spans.open(
            "agg.session",
            peer=self.hierarchy.root,
            session=session_id,
            spec=spec.name,
        )
        previous = spans.activate(handle.span) if handle.span else 0
        # Held while the root joins: a root without live children answers
        # synchronously, and the session must not close under it.
        session.hold()
        root_service.begin_session(
            self.request_cls(
                session_id=session_id,
                spec=spec,
                request_data=request_data,
                generation=self.hierarchy.generation_of(self.hierarchy.root),
                ledger=session,
            ),
            parent=None,
        )
        session.settle()
        if handle.span:
            spans.restore(previous)
        return handle

    def run(
        self,
        spec: AggregateSpec,
        request_data: Any = None,
        max_events: int = 50_000_000,
    ) -> Any:
        """Start a session and drive the simulation until it completes;
        returns the aggregate value.  Use :meth:`run_session` when the
        caller also needs the coverage annotations."""
        return self.run_session(spec, request_data, max_events).value

    def run_session(
        self,
        spec: AggregateSpec,
        request_data: Any = None,
        max_events: int = 50_000_000,
    ) -> SessionHandle:
        """Start a session and drive the simulation until it completes.

        Returns
        -------
        SessionHandle
            The completed handle, carrying the value *and* the coverage
            accounting (``covered`` / ``expected`` / ``complete``).

        Raises
        ------
        AggregationError
            If the simulation runs out of events (or hits ``max_events``)
            before the session completes — a protocol bug, not a runtime
            condition.  Losing the root mid-session is a runtime
            condition, not a bug: the handle comes back with
            ``failed=True`` (and so ``complete=False``) instead of an
            exception, and recovery-aware callers re-issue against the
            promoted root.
        """
        handle = self.start(spec, request_data)
        return self.drive_session(handle, max_events=max_events)

    def drive_session(
        self,
        handle: SessionHandle,
        deadline: float | None = None,
        max_events: int = 50_000_000,
    ) -> SessionHandle:
        """Drive the simulation until ``handle`` completes, fails, or the
        sim clock reaches ``deadline``.

        A deadline return leaves the session in flight: the handle is not
        ``done``, and a later ``sim.run`` may still complete it in the
        background.  Deadline-aware callers (the monitoring service)
        treat a not-``done`` handle as a missed deadline and abandon the
        attempt; everything already staged for it stays uncommitted.
        """
        spec = handle.spec
        root_at_start = self.hierarchy.root
        steps = 0
        while not handle.done:
            if (
                not self.network.node(root_at_start).alive
                or self.hierarchy.root != root_at_start
            ):
                self._fail_root_lost(handle, root_at_start, reason="died_mid_session")
                break
            if deadline is not None and self.sim.now >= deadline:
                break
            if not self.sim.step():
                raise AggregationError(
                    f"event queue drained before session {handle.session_id} "
                    f"({spec.name}) completed"
                )
            steps += 1
            if steps > max_events:
                raise AggregationError(
                    f"session {handle.session_id} ({spec.name}) did not complete "
                    f"within {max_events} events"
                )
        return handle

    def dead_root_session(self, spec: AggregateSpec) -> SessionHandle:
        """A synthetic failed handle for when the root is already dead at
        session start — lets recovery loops treat "root dead before the
        request" and "root died mid-session" uniformly instead of
        special-casing the :meth:`start` exception."""
        handle = SessionHandle(next(self._session_ids), spec)
        handle.started_at = self.sim.now
        handle.expected = self.network.n_live_peers
        self._fail_root_lost(handle, self.hierarchy.root, reason="dead_at_start")
        return handle

    def _fail_root_lost(
        self, handle: SessionHandle, root: int, reason: str
    ) -> None:
        handle.failed = True
        handle.done = True
        self.sim.telemetry.registry.counter("aggregation.root_lost_sessions").inc()
        self.sim.trace.emit(
            self.sim.now,
            "aggregation.root_lost",
            session=handle.session_id,
            spec=handle.spec.name,
            root=root,
            reason=reason,
        )
        # No-op if the root's crash sweep already error-closed the span.
        self.sim.telemetry.spans.close(handle.span, status="error", reason=reason)

    def _complete(self, handle: SessionHandle, value: Any, covered: int) -> None:
        if handle.done:
            return  # the root was already declared lost
        session_id = handle.session_id
        handle._complete(value, covered)
        self.sim.trace.emit(
            self.sim.now,
            "aggregation.complete",
            session=session_id,
            spec=handle.spec.name,
            sim_elapsed=self.sim.now - handle.started_at,
            covered=covered,
            expected=handle.expected,
        )
        if covered < handle.expected:
            self.sim.telemetry.registry.counter("aggregation.incomplete_sessions").inc()
            self.sim.trace.emit(
                self.sim.now,
                "aggregation.incomplete",
                session=session_id,
                spec=handle.spec.name,
                covered=covered,
                expected=handle.expected,
            )
        # The session's cause is the current causal context: the root's
        # convergecast span, whose final merge delivered the aggregate.
        spans = self.sim.telemetry.spans
        spans.close(
            handle.span, cause=spans.current, covered=covered, expected=handle.expected
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def bounded_state(self) -> dict[str, int]:
        """``len()`` of every container this engine and its transport keep
        per node, session or message.  Each is bounded by the sessions and
        traffic in flight, not by how many sessions have run."""
        services = set(self._services.values())
        for session in self._open.values():
            # A peer that crashed mid-session left its old service behind.
            services.update(session.members)
        return {
            "AggregationEngine._open": len(self._open),
            "AggregationService._sessions": sum(len(s._sessions) for s in services),
            **self.network.transport.bounded_state(),
        }
