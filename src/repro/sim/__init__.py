"""Discrete-event simulation engine.

This package is the bottom layer of the reproduction: a small, deterministic
discrete-event engine on which the P2P substrate (:mod:`repro.net`), the
aggregation hierarchy (:mod:`repro.hierarchy`) and the netFilter protocols
(:mod:`repro.core`) are built.

The engine is intentionally minimal — an event heap with a clock — because
the paper's evaluation metric is *bytes propagated per peer*, not wall-clock
latency.  Simulated time is still fully supported (transports add latency,
heartbeats are periodic, failure detection uses timeouts) so that the
hierarchy-maintenance protocol of Section III-A.3 can be exercised
faithfully.

Public API
----------

:class:`~repro.sim.engine.Simulation`
    The event loop: ``schedule``/``schedule_at``, ``run``, ``now``.
    Scheduled work cannot be cancelled: :mod:`repro.sim.timers` guards
    its own ticks and timeouts instead.
:class:`~repro.sim.timers.PeriodicTimer`
    Repeating timer with optional jitter (used for heartbeats).
:class:`~repro.sim.rng.RngRegistry`
    Named, reproducible random streams derived from one master seed.
:class:`~repro.sim.trace.Tracer`
    Structured trace/counter sink for tests and experiments.
"""

from repro.sim.engine import Simulation
from repro.sim.rng import RngRegistry
from repro.sim.timers import PeriodicTimer
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "PeriodicTimer",
    "RngRegistry",
    "Simulation",
    "TraceRecord",
    "Tracer",
]
