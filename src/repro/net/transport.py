"""Simulated point-to-point transport.

The transport models per-message latency (fixed plus optional uniform
jitter) and optional message loss, delivers payloads to live nodes, and is
the single place where bytes are priced and charged to the sender's cost
account.  Losing the destination (it failed or left) silently drops the
message — exactly what a UDP-style P2P overlay would observe — and the
protocols above are designed to survive that via timeouts and repair.

Two robustness hooks layer on top of that base model:

* **Fault injection** — :meth:`Transport.set_fault_hook` installs a single
  deterministic interception point consulted for every wire attempt (see
  :mod:`repro.faults`).  The hook can drop a message (link partitions,
  scripted drop bursts) or stretch its delivery latency, and the transport
  records what was done so fault runs can assert on what was lost.
* **Reliability** — an optional per-message ACK + bounded-retransmit
  scheme (:class:`ReliabilityConfig`) for control/aggregation traffic.
  Every reliable wire copy is charged like any other message (a
  retransmission costs real bytes), acknowledgements travel the same
  lossy links as data, duplicates created by lost ACKs are suppressed at
  the receiver, and the retransmit backoff is a deterministic exponential
  so runs replay bit-for-bit.

Every silently dropped message — dead/absent destination, random loss, or
fault injection — is additionally counted in the metrics registry under
``net.msgs_dropped.<reason>.<category>``, keyed by the payload's cost
category, so robustness experiments can assert on exactly what traffic
was lost.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import NetworkError
from repro.metrics.accounting import CostAccounting, MessageCell
from repro.metrics.registry import CounterMetric
from repro.net.codec import register_payload
from repro.net.message import Message, Payload
from repro.net.wire import CostCategory, SizeModel
from repro.sim.engine import Simulation
from repro.sim.timers import backoff

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.net.node import Node

#: Fault-hook verdicts: deliver the message unchanged, drop it on the
#: floor, or deliver it after the returned extra delay.
DELIVER = "deliver"
DROP = "drop"
DELAY = "delay"

#: A fault hook inspects ``(sender, recipient, payload)`` for one wire
#: attempt and returns ``(verdict, extra_delay)`` where the verdict is one
#: of :data:`DELIVER` / :data:`DROP` / :data:`DELAY`.  Hooks must be
#: deterministic functions of simulation state and named RNG streams.
FaultHook = Callable[[int, int, Payload], "tuple[str, float]"]


@dataclass(frozen=True)
class TransportConfig:
    """Delivery characteristics of the simulated links.

    Attributes
    ----------
    latency:
        Base one-hop delay in simulated time units.
    latency_jitter:
        Uniform jitter added per message, in ``[0, latency_jitter]``.
    loss_probability:
        Independent per-message drop probability (0 disables loss).
    """

    latency: float = 1.0
    latency_jitter: float = 0.0
    loss_probability: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise NetworkError("latency must be non-negative")
        if self.latency_jitter < 0:
            raise NetworkError("latency_jitter must be non-negative")
        if not 0.0 <= self.loss_probability < 1.0:
            raise NetworkError("loss_probability must be in [0, 1)")


#: Payload class names sent fire-and-forget even within a reliable
#: category: a late heartbeat is worthless (the next one supersedes it)
#: and acking every heartbeat would double the steady-state control
#: traffic.
UNRELIABLE_KINDS: frozenset[str] = frozenset({"HeartbeatPayload"})


@dataclass(frozen=True)
class ReliabilityConfig:
    """Per-message ACK + bounded retransmit for selected traffic.

    Attributes
    ----------
    categories:
        Cost categories whose payloads are sent reliably.  Defaults to the
        convergecast/control categories; gossip traffic is redundant by
        design and stays fire-and-forget.
    ack_timeout:
        Initial retransmit timeout, doubled per further copy
        (:func:`~repro.sim.timers.backoff`).  Must exceed one round trip
        (``2 * (latency + latency_jitter)``) to avoid spurious copies.
    max_retransmits:
        Wire copies after the first send before the sender gives up.
    """

    categories: frozenset[CostCategory] = frozenset(
        {
            CostCategory.CONTROL,
            CostCategory.FILTERING,
            CostCategory.DISSEMINATION,
            CostCategory.AGGREGATION,
            CostCategory.NAIVE,
            CostCategory.SAMPLING,
        }
    )
    ack_timeout: float = 6.0
    max_retransmits: int = 4

    def __post_init__(self) -> None:
        if self.ack_timeout <= 0:
            raise NetworkError("ack_timeout must be positive")
        if self.max_retransmits < 0:
            raise NetworkError("max_retransmits must be non-negative")


@register_payload
@dataclass(frozen=True)
class TransportAckPayload(Payload):
    """Transport-level acknowledgement of one reliable wire message.

    Consumed by the receiving :class:`Transport` itself, never dispatched
    to node handlers.  ACKs travel the same lossy, partitionable links as
    data and are themselves fire-and-forget (a lost ACK costs one
    retransmission, suppressed as a duplicate at the receiver).
    """

    msg_id: int
    category = CostCategory.CONTROL

    def body_bytes(self, model: SizeModel) -> int:
        return model.aggregate_bytes


@dataclass
class _ReliableSend:
    """Sender- and receiver-side bookkeeping for one reliable message.

    Kept only while a copy of the message can still arrive: the transport
    forgets it once it is settled (acknowledged, or given up by its
    sender) and no copy is left on the wire — after that no duplicate
    exists for ``delivered`` to suppress.
    """

    msg_id: int
    sender: int
    recipient: int
    payload: Payload
    attempts: int = 0
    #: Copies scheduled for delivery and not yet drained.
    copies: int = 0
    #: Acknowledged, or abandoned by its sender: no further copies.
    settled: bool = False
    #: A copy was dispatched; later copies are duplicates.
    delivered: bool = False


class _Batch:
    """Deliveries coalesced onto one (sender, recipient) link for one
    arrival instant.

    The transport schedules a single event per batch; messages whose
    computed arrival time matches an open batch on the same link are
    appended instead of scheduling their own event.  Draining preserves
    send order, and each entry keeps its own ``(payload, sent_at,
    reliable send, span)`` so per-message semantics (latency, ACKs, fault
    accounting, causal spans) are untouched — see docs/PERFORMANCE.md
    for the exact transparency boundary.
    """

    __slots__ = ("time", "entries")

    def __init__(
        self,
        time: float,
        entries: "deque[tuple[Payload, float, _ReliableSend | None, int]]",
    ) -> None:
        self.time = time
        self.entries = entries


class Transport:
    """Delivers payloads between nodes with latency, jitter and loss.

    Parameters
    ----------
    sim:
        The simulation providing the clock and RNG streams.
    resolve:
        Callback mapping a peer id to its :class:`~repro.net.node.Node`
        (or ``None`` if the peer is unknown/departed).  Supplied by the
        :class:`~repro.net.network.Network` to avoid a circular reference.
    config:
        Link characteristics.
    size_model:
        Wire pricing for payloads.
    accounting:
        Where sent bytes are charged.
    reliability:
        Optional ACK/retransmit configuration.  ``None`` (the default)
        keeps the paper's fire-and-forget semantics.

    Notes
    -----
    ``send`` is an instance attribute bound at construction — straight to
    :meth:`_transmit` for fire-and-forget links, through the reliable
    entry point when an ACK scheme is active — and the class is
    ``__slots__``-only so the per-message attribute reads skip the
    instance-dict hash lookups.
    """

    __slots__ = (
        "_sim",
        "_resolve",
        "_config",
        "_latency",
        "_jitter",
        "_loss_p",
        "size_model",
        "accounting",
        "reliability",
        "send",
        "_fault_hook",
        "_msg_ids",
        "_reliable",
        "_bytes_sent",
        "_msgs_in_flight",
        "_latency_hist",
        "_retransmits",
        "_retransmit_failures",
        "_duplicates",
        "_n_sent",
        "_n_delivered",
        "_spans",
        "_cost_handles",
        "_drop_counters",
        "_batches",
    )

    send: Callable[[int, int, Payload], None]

    def __init__(
        self,
        sim: Simulation,
        resolve: Callable[[int], "Node | None"],
        config: TransportConfig,
        size_model: SizeModel,
        accounting: CostAccounting,
        reliability: ReliabilityConfig | None = None,
    ) -> None:
        self._sim = sim
        self._resolve = resolve
        self.config = config  # property: also hoists the link scalars
        self.size_model = size_model
        self.accounting = accounting
        self.reliability = reliability
        # Fire-and-forget configuration routes sends straight into
        # _transmit, skipping one Python frame per message; the reliable
        # entry point takes over whenever an ACK scheme is active.
        self.send = self._transmit if reliability is None else self._send_reliable
        self._fault_hook: FaultHook | None = None
        # Reliable-delivery state: monotonically increasing message ids,
        # and one record per reliable message a copy of which can still
        # arrive.  A record is dropped once its send is settled and its
        # last copy drained, so the table is bounded by the traffic in
        # flight, not by the length of the run (docs/ROBUSTNESS.md,
        # "Bounded state").
        self._msg_ids = itertools.count(1)
        self._reliable: dict[int, _ReliableSend] = {}
        # Metric handles are resolved once: the send/deliver path updates
        # them with plain attribute math, no registry lookups.
        registry = sim.telemetry.registry
        self._bytes_sent = registry.counter("net.bytes_sent")
        self._msgs_in_flight = registry.gauge("net.msgs_in_flight")
        self._latency_hist = registry.histogram("net.msg_latency")
        self._retransmits = registry.counter("transport.retransmits")
        self._retransmit_failures = registry.counter("transport.retransmit_exhausted")
        self._duplicates = registry.counter("transport.duplicates_suppressed")
        # Quiet-path trace counts: with the tracer inactive, msg.sent /
        # msg.delivered are plain integer adds here, flushed into the
        # tracer's Counter whenever someone reads `tracer.counters`.
        self._n_sent = 0
        self._n_delivered = 0
        sim.trace.register_flush(self._flush_counts)
        # Causal span tracker handle (opt-in; `.enabled` is False by
        # default, so the per-message checks below are one attribute read).
        self._spans = sim.telemetry.spans
        # Interned accounting handles, one per cost category seen: the
        # per-message charge becomes two attribute/dict updates instead of
        # two defaultdict walks through CostAccounting.record.
        self._cost_handles: dict[
            CostCategory, tuple[dict[int, int], MessageCell]
        ] = {}
        self._drop_counters: dict[tuple[str, CostCategory], CounterMetric] = {}
        # Open delivery batches keyed by link; see _Batch.
        self._batches: dict[tuple[int, int], _Batch] = {}

    @property
    def config(self) -> TransportConfig:
        """Link characteristics.  Reassignable: experiments swap in a new
        :class:`TransportConfig` to change loss/latency mid-setup."""
        return self._config

    @config.setter
    def config(self, config: TransportConfig) -> None:
        self._config = config
        # Hot-path scalars hoisted onto the instance: read per message
        # without a dataclass attribute walk.  Kept in sync here, which is
        # why ``config`` is a property rather than a plain attribute.
        self._latency = config.latency
        self._jitter = config.latency_jitter
        self._loss_p = config.loss_probability

    def _flush_counts(self) -> None:
        """Move quiet-path send/deliver tallies into the tracer."""
        if self._n_sent:
            self._sim.trace.count("msg.sent", self._n_sent)
            self._n_sent = 0
        if self._n_delivered:
            self._sim.trace.count("msg.delivered", self._n_delivered)
            self._n_delivered = 0

    def bounded_state(self) -> dict[str, int]:
        """``len()`` of every container the transport keeps per message
        or link; each is bounded by the traffic in flight."""
        return {
            "Transport._reliable": len(self._reliable),
            "Transport._batches": len(self._batches),
        }

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def set_fault_hook(self, hook: FaultHook | None) -> None:
        """Install (or, with ``None``, remove) the fault-injection hook.

        At most one hook is active; a scenario that needs several fault
        processes composes them inside one hook (see
        :class:`repro.faults.FaultInjector`).
        """
        if hook is not None and self._fault_hook is not None:
            raise NetworkError(
                "a fault hook is already installed; clear it first "
                "(set_fault_hook(None)) or compose scenarios in one injector"
            )
        self._fault_hook = hook

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _send_reliable(self, sender: int, recipient: int, payload: Payload) -> None:
        """Charge the sender and schedule delivery (``send`` with an ACK
        scheme active).

        Bytes are charged at send time whether or not the message survives:
        a sender pays for what it puts on the wire.  With reliability
        enabled and the payload in a reliable category, the sender also
        arms a retransmit timer that re-sends the message until it is
        acknowledged or the retry budget is exhausted.
        """
        if self.reliability is not None and self._is_reliable(payload):
            msg_id = next(self._msg_ids)
            pending = _ReliableSend(msg_id, sender, recipient, payload)
            self._reliable[msg_id] = pending
            ledger = payload.ledger
            if ledger is not None:
                ledger.hold()  # until the send settles, see _settle
            self._attempt(pending)
            return
        self._transmit(sender, recipient, payload)

    def _is_reliable(self, payload: Payload) -> bool:
        assert self.reliability is not None
        if isinstance(payload, TransportAckPayload):
            return False  # never ack an ack
        if type(payload).__name__ in UNRELIABLE_KINDS:
            return False
        return payload.category in self.reliability.categories

    def _attempt(self, pending: _ReliableSend) -> None:
        """One wire copy of a pending reliable message plus its timer."""
        assert self.reliability is not None
        pending.attempts += 1
        timeout = backoff(self.reliability.ack_timeout, pending.attempts)
        self._sim.post(timeout, self._on_ack_timeout, pending)
        self._transmit(pending.sender, pending.recipient, pending.payload, pending)

    def _settle(self, pending: _ReliableSend) -> None:
        """The send is over: acknowledged, or given up by its sender."""
        pending.settled = True
        if not pending.copies:
            del self._reliable[pending.msg_id]
        ledger = pending.payload.ledger
        if ledger is not None:
            ledger.settle()

    def _on_ack_timeout(self, pending: _ReliableSend) -> None:
        if pending.settled:
            return  # acknowledged in time
        assert self.reliability is not None
        sender_node = self._resolve(pending.sender)
        if sender_node is None or not sender_node.alive:
            self._settle(pending)  # a crashed sender retransmits nothing
            return
        if pending.attempts > self.reliability.max_retransmits:
            self._settle(pending)
            self._retransmit_failures.inc()
            self._sim.trace.emit(
                self._sim.now,
                "transport.retransmit_exhausted",
                sender=pending.sender,
                recipient=pending.recipient,
                payload_kind=type(pending.payload).__name__,
                attempts=pending.attempts,
            )
            return
        self._retransmits.inc()
        self._sim.trace.emit(
            self._sim.now,
            "transport.retransmit",
            sender=pending.sender,
            recipient=pending.recipient,
            payload_kind=type(pending.payload).__name__,
            attempt=pending.attempts,
        )
        self._attempt(pending)

    def _transmit(
        self,
        sender: int,
        recipient: int,
        payload: Payload,
        reliable: _ReliableSend | None = None,
    ) -> None:
        """One wire attempt: charge, trace, inject faults, lose, delay."""
        sim = self._sim
        # Inlined payload-size cache hit (see Payload.size_bytes): payloads
        # are repriced thousands of times against the same model.
        model = self.size_model
        cache = payload.__dict__.get("_size_cache")
        if cache is not None and cache[0] is model:
            size = cache[1]
        else:
            size = payload.size_bytes(model)
        category = payload.category
        handles = self._cost_handles.get(category)
        if handles is None:
            handles = (
                self.accounting.bucket(category),
                self.accounting.message_cell(category),
            )
            self._cost_handles[category] = handles
        bucket, cell = handles
        bucket[sender] += size
        cell.n += 1
        self._bytes_sent.value += size
        trace = sim.trace
        span_sid = 0
        if trace.active:
            payload_kind = type(payload).__name__
            category_value = category.value
            trace.emit(
                sim.now,
                "msg.sent",
                sender=sender,
                recipient=recipient,
                payload_kind=payload_kind,
                category=category_value,
                size=size,
            )
            spans_ = self._spans
            if spans_.enabled:
                # The wire span parents to the sender's current causal
                # context and travels with the message through the batch
                # queue; every exit below (fault drop, loss, dead
                # recipient, delivery) closes it.  Owner stays None: a
                # sender crash does not recall bytes already on the wire.
                span_sid = spans_.open(
                    "wire.msg",
                    sender=sender,
                    recipient=recipient,
                    payload_kind=payload_kind,
                    category=category_value,
                    size=size,
                )
        else:
            self._n_sent += 1
        extra_delay = 0.0
        if self._fault_hook is not None:
            verdict, extra = self._fault_hook(sender, recipient, payload)
            if verdict == DROP:
                self._count_drop("fault", category)
                trace.emit(
                    sim.now,
                    "msg.dropped_fault",
                    sender=sender,
                    recipient=recipient,
                    payload_kind=type(payload).__name__,
                    category=category.value,
                )
                if span_sid:
                    self._spans.close(span_sid, status="dropped", reason="fault")
                return
            if verdict == DELAY:
                extra_delay = extra
                trace.emit(
                    sim.now,
                    "msg.delayed_fault",
                    sender=sender,
                    recipient=recipient,
                    extra=extra,
                )
        if self._loss_p > 0.0:
            rng = sim.rng.stream("transport.loss")
            if rng.random() < self._loss_p:
                self._count_drop("loss", category)
                trace.emit(sim.now, "msg.lost", sender=sender)
                if span_sid:
                    self._spans.close(span_sid, status="lost")
                return
        delay = self._latency + extra_delay
        if self._jitter > 0.0:
            rng = sim.rng.stream("transport.latency")
            delay += float(rng.uniform(0.0, self._jitter))
        sent_at = sim._now
        # Inlined gauge update: this runs once per message.
        inflight = self._msgs_in_flight
        value = inflight.value + 1.0
        inflight.value = value
        if value > inflight.max_value:
            inflight.max_value = value
        # The copy is on the wire now; _deliver_batch settles it.
        if reliable is not None:
            reliable.copies += 1
        ledger = payload.ledger
        if ledger is not None:
            ledger.hold()
        # Coalesce same-arrival-instant deliveries on the same link into
        # one scheduled event; entries drain in send order, so each
        # message keeps its exact unbatched delivery time and ordering
        # relative to its link.
        deliver_at = sent_at + delay
        key = (sender, recipient)
        batch = self._batches.get(key)
        if batch is not None and batch.time == deliver_at:
            batch.entries.append((payload, sent_at, reliable, span_sid))
            return
        batch = _Batch(deliver_at, deque(((payload, sent_at, reliable, span_sid),)))
        self._batches[key] = batch
        # sim.post inlined (delay is never negative here): one scheduling
        # frame per batch is the remaining per-message engine cost.
        heapq.heappush(
            sim._heap,
            (deliver_at, next(sim._seq), self._deliver_batch, (sender, recipient, batch)),
        )

    def _count_drop(self, reason: str, category: CostCategory) -> None:
        """Count one silently dropped message, keyed by cost category."""
        key = (reason, category)
        counter = self._drop_counters.get(key)
        if counter is None:
            counter = self._sim.telemetry.registry.counter(
                f"net.msgs_dropped.{reason}.{category.value}"
            )
            self._drop_counters[key] = counter
        counter.inc()

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def _deliver_batch(self, sender: int, recipient: int, batch: _Batch) -> None:
        """Drain one link batch, delivering each entry in send order.

        The per-message delivery logic is inlined into the drain loop (one
        Python frame per *batch*, not per message) and every loop-invariant
        handle — clock, tracer, resolver result, histogram — is hoisted
        once.
        """
        key = (sender, recipient)
        # A newer batch may have replaced us in the index (later arrival
        # instant on the same link); only the current batch un-indexes.
        if self._batches.get(key) is batch:
            del self._batches[key]
        sim = self._sim
        now = sim._now
        trace = sim.trace
        inflight = self._msgs_in_flight
        node = self._resolve(recipient)
        # Bound handler lookup: Node.deliver's dispatch is inlined below
        # (one frame per message saved).  The handler dict's identity is
        # stable — fail() clears it in place — so the bound .get always
        # sees current registrations.
        handler_for = node._handlers.get if node is not None else None
        observe = self._latency_hist.observe
        spans_ = self._spans
        entries = batch.entries
        while entries:
            payload, sent_at, reliable, span = entries.popleft()
            inflight.value -= 1.0
            try:
                # alive is re-read per entry: an earlier delivery in this
                # very batch may have crashed the recipient.
                if node is None or not node.alive:
                    self._count_drop("dead", payload.category)
                    trace.emit(now, "msg.dropped_dead_recipient", recipient=recipient)
                    if span:
                        spans_.close(span, status="error", reason="dead_recipient")
                    continue
                if type(payload) is TransportAckPayload:
                    # Transport-internal: settle the pending send, never
                    # dispatch.  Exact type check: isinstance on an ABC
                    # descendant goes through ABCMeta.__instancecheck__,
                    # measurably slow at one call per delivered message.
                    acked = self._reliable.get(payload.msg_id)
                    if acked is not None and not acked.settled:
                        self._settle(acked)
                    if span:
                        spans_.close(span)
                    continue
                if reliable is not None:
                    # Reliable data: acknowledge every copy (the first ACK
                    # may have been lost), dispatch only the first.  The
                    # ACK's own wire span parents to this delivery's span.
                    ack = TransportAckPayload(reliable.msg_id)
                    if span:
                        previous = spans_.activate(span)
                        self._transmit(recipient, sender, ack)
                        spans_.restore(previous)
                    else:
                        self._transmit(recipient, sender, ack)
                    if reliable.delivered:
                        self._duplicates.inc()
                        if span:
                            spans_.close(span, duplicate=True)
                        continue
                    reliable.delivered = True
                latency = now - sent_at
                observe(latency)
                if trace.active:
                    trace.emit(
                        now,
                        "msg.delivered",
                        sender=sender,
                        recipient=recipient,
                        latency=latency,
                    )
                else:
                    self._n_delivered += 1
                # Inlined Node.deliver (alive was already checked above):
                # dispatch to the registered handler or trace the orphan.
                handler = handler_for(type(payload))  # type: ignore[misc]
                if handler is None:
                    trace.emit(
                        now,
                        "msg.unhandled",
                        peer=recipient,
                        payload_kind=type(payload).__name__,
                    )
                    if span:
                        spans_.close(span, status="error", reason="unhandled")
                elif span:
                    # The delivery's span is the causal context while the
                    # handler runs, so protocol work (and replies) it
                    # triggers parents to this message; it closes when the
                    # handler — and everything synchronous it caused —
                    # returns.
                    previous = spans_.activate(span)
                    handler(Message(sender, recipient, payload, sent_at, now, span))
                    spans_.restore(previous)
                    spans_.close(span, latency=latency)
                else:
                    handler(Message(sender, recipient, payload, sent_at, now))
            finally:
                # Whatever became of it, this copy has left the wire — and
                # only now, after the handler and any sends it made, so a
                # ledger never reads zero while its group is still active.
                if reliable is not None:
                    reliable.copies -= 1
                    if reliable.settled and not reliable.copies:
                        del self._reliable[reliable.msg_id]
                ledger = payload.ledger
                if ledger is not None:
                    ledger.settle()
