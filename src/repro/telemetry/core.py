"""The per-simulation :class:`Telemetry` facade.

One ``Telemetry`` hangs off every :class:`~repro.sim.engine.Simulation` and
unifies the three observability primitives behind a single handle:

* the event-level :class:`~repro.sim.trace.Tracer` (what happened, when),
* a :class:`~repro.metrics.registry.MetricsRegistry` of counters, gauges,
  timers and histograms (how much, how often, how long),
* the network's :class:`~repro.metrics.accounting.CostAccounting` (bytes
  per peer per category — the paper's metric), attached by the network
  when it is constructed.

Protocols instrument themselves through :meth:`emit` and :meth:`span`;
with no JSONL sink attached and nobody recording, an emit is one counter
increment and a span adds two of them — cheap enough for hot paths.
Attach a :class:`~repro.telemetry.sink.JsonlTraceSink` via
:meth:`attach_jsonl` to stream every event to disk for the
``python -m repro.telemetry`` run-report CLI.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator
from contextlib import contextmanager
from time import perf_counter

from repro.metrics.registry import DEFAULT_TIME_BUCKETS, MetricsRegistry, TimerMetric
from repro.sim.trace import Tracer
from repro.telemetry.spans import SpanTracker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.metrics.accounting import CostAccounting
    from repro.metrics.timeseries import EpochTimeseries
    from repro.sim.engine import Simulation
    from repro.telemetry.sink import JsonlTraceSink


class Telemetry:
    """Unified observability for one simulation.

    Examples
    --------
    >>> from repro.sim.engine import Simulation
    >>> sim = Simulation(seed=0)
    >>> with sim.telemetry.span("filter.phase"):
    ...     pass
    >>> sim.telemetry.tracer.counters["filter.phase"]
    2
    """

    def __init__(self, sim: "Simulation") -> None:
        self._sim = sim
        self.tracer = Tracer()
        self.registry = MetricsRegistry()
        self.accounting: "CostAccounting | None" = None
        self.spans = SpanTracker(sim, self.tracer)
        self.epochs: "EpochTimeseries | None" = None
        self._sinks: list["JsonlTraceSink"] = []
        #: ``span.<kind>`` timers, bound on a kind's first close.
        self._span_timers: dict[str, TimerMetric] = {}

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_accounting(self, accounting: "CostAccounting") -> None:
        """Register the network's byte accounting (kept by reference, so
        reports always see current totals)."""
        self.accounting = accounting

    def attach_jsonl(
        self,
        path: str,
        sample_every: int = 1,
        sampled_prefixes: tuple[str, ...] = ("msg.", "heartbeat."),
    ) -> "JsonlTraceSink":
        """Stream every trace event to a JSONL file.

        ``sample_every=k`` keeps one in ``k`` events of the high-frequency
        kinds (those matching ``sampled_prefixes``); structural events are
        always kept.  The returned sink must be closed (or use
        :meth:`close`) to flush the trailing summary record.
        """
        from repro.telemetry.sink import JsonlTraceSink

        sink = JsonlTraceSink(
            path,
            self.tracer,
            sample_every=sample_every,
            sampled_prefixes=sampled_prefixes,
        )
        self._sinks.append(sink)
        return sink

    def enable_spans(self, sample_every: int = 1) -> SpanTracker:
        """Turn on causal span tracking (see :mod:`repro.telemetry.spans`).

        Spans only emit while the tracer is also :attr:`~repro.sim.trace.
        Tracer.active` (a sink attached or recording on), so enabling them
        for a run with no consumer still costs nothing on the hot path.

        ``sample_every`` keeps 1 in that many per-message *wire* spans
        (control spans are never sampled) — pass the JSONL sink's
        sampling factor so span volume scales with the rest of the trace.
        """
        self.spans.enabled = True
        self.spans.sample_every = max(int(sample_every), 1)
        return self.spans

    def enable_epochs(
        self, epoch_length: float, capacity: int | None = None
    ) -> "EpochTimeseries":
        """Create (or return) the windowed epoch timeseries layer.

        Repeated calls with the same ``epoch_length`` return the existing
        instance so independent probes share one epoch grid; asking for a
        different length once epochs exist raises.
        """
        from repro.metrics.timeseries import DEFAULT_CAPACITY, EpochTimeseries

        existing = self.epochs
        if existing is not None:
            if existing.epoch_length != epoch_length:
                raise ValueError(
                    f"epoch timeseries already enabled with length "
                    f"{existing.epoch_length}, not {epoch_length}"
                )
            return existing
        self.epochs = EpochTimeseries(
            self.registry,
            self.tracer,
            lambda: self._sim.now,
            epoch_length=epoch_length,
            capacity=DEFAULT_CAPACITY if capacity is None else capacity,
        )
        return self.epochs

    @property
    def sinks(self) -> tuple["JsonlTraceSink", ...]:
        """Currently attached trace sinks."""
        return tuple(self._sinks)

    def close(self) -> list[str]:
        """Close every attached sink; returns the paths written.

        Before detaching, any epochs the clock has passed are flushed and
        leaked spans are swept closed (status ``unclosed``), so a finished
        trace is always a set of *closed* span trees.
        """
        if self.epochs is not None:
            self.epochs.roll()
        self.spans.finish()
        paths = []
        for sink in self._sinks:
            sink.close()
            paths.append(sink.path)
        self._sinks.clear()
        return paths

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, kind: str, **fields: Any) -> None:
        """Emit one trace event stamped with the current simulated time."""
        self.tracer.emit(self._sim.now, kind, fields)

    @contextmanager
    def span(self, kind: str, **fields: Any) -> Iterator[dict[str, Any]]:
        """Bracket a protocol phase with begin/end events.

        Emits ``kind`` with ``ev="begin"`` on entry and ``ev="end"`` on
        exit, the end event carrying the simulated (``sim_elapsed``) and
        wall-clock (``wall_elapsed``, seconds) durations plus anything the
        body stores into the yielded dict.  The simulated duration also
        feeds the ``span.<kind>`` timer in the registry.

        When causal span tracking is on (:meth:`enable_spans`), the block
        additionally opens a tracker span of the same kind and makes it
        the current causal context, so phases nest correctly in the span
        tree and sessions started inside the block parent to it.
        """
        spans = self.spans
        sid = spans.open(kind)
        previous = spans.activate(sid) if sid else spans.current
        self.tracer.emit(self._sim.now, kind, {"ev": "begin", **fields})
        extra: dict[str, Any] = {}
        sim_started = self._sim.now
        wall_started = perf_counter()
        try:
            yield extra
        finally:
            sim_elapsed = self._sim.now - sim_started
            self.tracer.emit(
                self._sim.now,
                kind,
                {
                    "ev": "end",
                    "sim_elapsed": sim_elapsed,
                    "wall_elapsed": perf_counter() - wall_started,
                    **fields,
                    **extra,
                },
            )
            timer = self._span_timers.get(kind)
            if timer is None:
                timer = self.registry.timer(f"span.{kind}", DEFAULT_TIME_BUCKETS)
                self._span_timers[kind] = timer
            timer.observe(sim_elapsed)
            if sid:
                spans.restore(previous)
                spans.close(sid)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Zero the tracer, registry, spans, epochs, and (if attached) the
        accounting — for experiment sweeps that reuse one simulation
        factory."""
        self.tracer.reset()
        self.registry.reset()
        self.spans.reset()
        if self.epochs is not None:
            self.epochs.reset()
        if self.accounting is not None:
            self.accounting.reset()
