"""Protocol-wide telemetry: tracing, metrics, JSONL export, run reports.

This package unifies the repo's three observability primitives — the
structured :class:`~repro.sim.trace.Tracer`, the
:class:`~repro.metrics.registry.MetricsRegistry` of named counters, and the
byte-level :class:`~repro.metrics.accounting.CostAccounting` — behind one
:class:`~repro.telemetry.core.Telemetry` object hung off every
:class:`~repro.sim.engine.Simulation` (``sim.telemetry``).

Typical use::

    sim = Simulation(seed=0)
    sink = sim.telemetry.attach_jsonl("run.jsonl")   # stream events to disk
    ...  # build network, run netFilter — everything is instrumented
    sim.telemetry.close()                            # flush the trace

    $ python -m repro.telemetry report run.jsonl     # per-phase time,
                                                     # bytes by category,
                                                     # latency histogram,
                                                     # heaviest peers

With no sink attached the instrumentation costs one counter increment per
event, so it stays on in benchmarks and large sweeps.
"""

from repro.telemetry.core import Telemetry
from repro.telemetry.sink import JsonlTraceSink, iter_trace, read_trace
from repro.telemetry.spans import NO_SPAN, SpanTracker

__all__ = [
    "JsonlTraceSink",
    "NO_SPAN",
    "SpanTracker",
    "Telemetry",
    "iter_trace",
    "read_trace",
]
