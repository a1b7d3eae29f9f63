"""Structured tracing and counters.

Protocols emit trace records (``tracer.emit("hierarchy.repair", peer=12)``)
instead of printing; tests subscribe to assert on protocol behaviour and
experiments read the counters.  Recording full records is opt-in because a
million-message run should not accumulate a million dictionaries by default.

The tracer is on the simulation hot path, so its quiet configuration is
engineered to cost almost nothing:

* :attr:`Tracer.active` is a compile-once predicate — recomputed only when
  recording starts/stops or a subscriber is added/removed, never per emit.
  Hot call sites check it before building per-event field dicts.
* Per-kind handler chains are compiled into a dispatch cache on first
  emit of each kind, so a steady-state emit does one dict lookup instead
  of three.
* One :class:`LineWriter` (the JSONL sink) may take the tracer's writer
  slot.  For a kind whose only consumer is that writer, with nothing
  recording, the compiled route *is* the writer: ``emit`` hands it
  ``(time, kind, fields)`` and no :class:`TraceRecord` is built.  Any
  other consumer of the kind (or recording) compiles the ordinary record
  dispatch, where the writer sits at its wildcard position — so the order
  in which it sees events never depends on which route ran.
* Components that count at very high frequency (the transport) keep plain
  integer accumulators and register a *flush hook*; reading
  :attr:`Tracer.counters` flushes those accumulators in, so readers always
  see exact totals while the hot path never touches the ``Counter``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Protocol


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One emitted trace event."""

    time: float
    kind: str
    fields: dict[str, Any] = field(default_factory=dict)


#: A compiled per-kind route: receives ``(time, kind, fields)``.
Route = Callable[[float, str, dict[str, Any]], None]


class LineWriter(Protocol):
    """A consumer that can take events without a :class:`TraceRecord`.

    ``write`` and ``on_record`` must produce the same output for the same
    event; the tracer calls ``write`` when the writer is a kind's only
    consumer and ``on_record`` (as a wildcard subscriber) otherwise.
    """

    def write(self, time: float, kind: str, fields: dict[str, Any]) -> None: ...

    def on_record(self, record: TraceRecord) -> None: ...


def _drop(time: float, kind: str, fields: dict[str, Any]) -> None:
    """The route of a kind nobody consumes."""


class Tracer:
    """Sink for structured trace events.

    Examples
    --------
    >>> tracer = Tracer()
    >>> tracer.emit(0.0, "msg.sent", size=4)
    >>> tracer.counters["msg.sent"]
    1
    """

    def __init__(self) -> None:
        self._counters: Counter[str] = Counter()
        self._subscribers: dict[str, list[Callable[[TraceRecord], None]]] = {}
        self._records: list[TraceRecord] | None = None
        #: The line-writer slot (see :meth:`attach_writer`).
        self._writer: LineWriter | None = None
        #: Per-kind compiled routes (the writer itself, or a record
        #: dispatch over kind-specific plus wildcard handlers), built
        #: lazily and invalidated whenever the consumer table changes.
        self._dispatch: dict[str, Route] = {}
        self._flush_hooks: list[Callable[[], None]] = []
        #: True while anything (recording or a subscriber) consumes full
        #: records.  Hot paths must check this before building expensive
        #: per-event detail; when False, an emit is one counter increment.
        self.active: bool = False

    def _update_active(self) -> None:
        self.active = self._records is not None or bool(self._subscribers)
        self._dispatch.clear()

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    @property
    def counters(self) -> Counter[str]:
        """Exact per-kind emit counts.

        Reading this flushes every registered accumulator hook first, so
        the totals include counts taken on the quiet fast path.  The
        returned object is the live ``Counter`` (not a copy): callers on
        hot paths may increment it directly via :meth:`count`.
        """
        for hook in self._flush_hooks:
            hook()
        return self._counters

    def count(self, kind: str, n: int = 1) -> None:
        """Add ``n`` to a counter without building a trace record.

        The quiet-path companion to :meth:`emit`: call it when
        :attr:`active` is ``False`` and the event carries no fields worth
        recording.
        """
        self._counters[kind] += n

    def register_flush(self, hook: Callable[[], None]) -> None:
        """Register an accumulator flush hook.

        The hook must move privately accumulated counts into this tracer
        (via :meth:`count`) and zero its accumulators; it runs every time
        :attr:`counters` is read.
        """
        self._flush_hooks.append(hook)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def start_recording(self) -> None:
        """Keep every subsequent record in memory (for tests)."""
        self._records = []
        self._update_active()

    def stop_recording(self) -> list[TraceRecord]:
        """Stop keeping records and return those captured so far."""
        records = self._records or []
        self._records = None
        self._update_active()
        return records

    @property
    def records(self) -> list[TraceRecord]:
        """Records captured since :meth:`start_recording` (empty if not
        recording)."""
        return list(self._records or [])

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def subscribe(self, kind: str, handler: Callable[[TraceRecord], None]) -> None:
        """Invoke ``handler`` for every record of the given ``kind``.

        Subscribing to the empty string receives every record.
        """
        self._subscribers.setdefault(kind, []).append(handler)
        self._update_active()

    def unsubscribe(self, kind: str, handler: Callable[[TraceRecord], None]) -> None:
        """Remove a handler previously registered with :meth:`subscribe`.

        Unknown ``(kind, handler)`` pairs are ignored so teardown code can
        call this unconditionally.
        """
        handlers = self._subscribers.get(kind)
        if handlers is None:
            return
        try:
            handlers.remove(handler)
        except ValueError:
            return
        if not handlers:
            del self._subscribers[kind]
        self._update_active()

    def attach_writer(self, writer: LineWriter) -> None:
        """Subscribe ``writer`` to every record and, if the slot is free,
        give it the tracer's line-writer slot.

        A writer in the slot receives ``write(time, kind, fields)``
        directly for every kind it alone consumes; a second writer is an
        ordinary wildcard subscriber.
        """
        if self._writer is None:
            self._writer = writer
        self.subscribe("", writer.on_record)

    def detach_writer(self, writer: LineWriter) -> None:
        """Undo :meth:`attach_writer` (unknown writers are ignored)."""
        if self._writer is writer:
            self._writer = None
        self.unsubscribe("", writer.on_record)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(
        self, time: float, kind: str, fields: dict[str, Any] | None = None, /, **kwargs: Any
    ) -> None:
        """Record one trace event.

        Fields come as keywords, or as one prebuilt dict (positional, so a
        field may itself be called ``fields``) whose ownership passes to
        the tracer — the caller must not mutate it afterwards.
        """
        self._counters[kind] += 1
        if not self.active:
            return
        if fields is None:
            fields = kwargs
        elif kwargs:
            fields = {**fields, **kwargs}
        route = self._dispatch.get(kind)
        if route is None:
            route = self._dispatch[kind] = self._compile(kind)
        route(time, kind, fields)

    def _compile(self, kind: str) -> Route:
        """The route for ``kind`` under the current consumer table."""
        handlers = tuple(self._subscribers.get(kind, ())) + tuple(
            self._subscribers.get("", ())
        )
        records = self._records
        if records is None:
            if not handlers:
                return _drop
            writer = self._writer
            if writer is not None and handlers == (writer.on_record,):
                return writer.write

        def dispatch(time: float, kind: str, fields: dict[str, Any]) -> None:
            record = TraceRecord(time, kind, fields)
            if records is not None:
                records.append(record)
            for handler in handlers:
                handler(record)

        return dispatch
