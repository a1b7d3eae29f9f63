"""The discrete-event loop.

A :class:`Simulation` owns the clock, the event heap, the master random
seed (see :mod:`repro.sim.rng`) and a per-run
:class:`~repro.telemetry.core.Telemetry` object (tracer + metrics registry
+ cost accounting + optional JSONL sink).  Every other component of the
library receives the simulation object and schedules its work through it;
nothing in the library keeps its own notion of time.

The hot path is engineered for throughput (see docs/PERFORMANCE.md):

* every heap entry is a bare ``(time, seq, callback, args)`` tuple — no
  event object at all.  Heap ordering is decided entirely by the unique
  ``(time, seq)`` prefix, so callbacks and arguments are never compared;
* :meth:`run` without ``until``/``max_events`` takes a fast inner loop
  with hoisted lookups and no bound checks.

Heap entries cannot be cancelled.  Work that may be called off (timer
ticks, timeout wake-ups) checks its own guard when it fires and drains
as a no-op (see :mod:`repro.sim.timers`).

Event order is strictly ``(time, scheduling order)`` and same-seed runs
replay bit-for-bit.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, Any, Callable

from repro.errors import SimulationError
from repro.sim.rng import RngRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.sim.trace import Tracer
    from repro.telemetry.core import Telemetry


class Simulation:
    """A deterministic discrete-event simulation.

    Parameters
    ----------
    seed:
        Master seed for every random stream used during the run.  Two
        simulations built with the same seed and the same scenario replay
        the exact same sequence of events.

    Examples
    --------
    >>> sim = Simulation(seed=7)
    >>> fired = []
    >>> sim.schedule(2.0, fired.append, "b")
    >>> sim.schedule(1.0, fired.append, "a")
    >>> sim.run()
    2
    >>> fired
    ['a', 'b']
    >>> sim.now
    2.0
    """

    __slots__ = ("_now", "_heap", "_seq", "_running", "_stopped", "rng", "telemetry", "trace")

    def __init__(self, seed: int | None = 0) -> None:
        # Deferred import: telemetry pulls in the metrics package, whose
        # accounting module reaches back into repro.net while this module
        # is still mid-import — at construction time the cycle is gone.
        from repro.telemetry.core import Telemetry

        self._now: float = 0.0
        self._heap: list[tuple[float, int, Callable[..., None], tuple[Any, ...]]] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self.rng = RngRegistry(seed)
        self.telemetry: Telemetry = Telemetry(self)
        #: The telemetry tracer, aliased here because every protocol emits
        #: through ``sim.trace``.
        self.trace: Tracer = self.telemetry.tracer

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def heap_compactions(self) -> int:
        """Always ``0``: heap entries are never cancelled, so the heap is
        never compacted (kept for the ``sim.engine.compactions`` row)."""
        return 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now.

        A zero delay runs the callback at the current time, after every
        event already due then.

        Raises
        ------
        SimulationError
            If ``delay`` is negative.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        heapq.heappush(self._heap, (self._now + delay, next(self._seq), callback, args))

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time} which is before now={self._now}"
            )
        heapq.heappush(self._heap, (time, next(self._seq), callback, args))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the next event.

        Returns
        -------
        bool
            ``True`` if an event fired, ``False`` if the heap is empty.
        """
        if not self._heap:
            return False
        entry = heapq.heappop(self._heap)
        self._now = entry[0]
        entry[2](*entry[3])
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time.  Events scheduled at
            exactly ``until`` still fire.  ``None`` runs to exhaustion.
            The clock always ends at ``max(now, until)`` even when the
            heap drains early, so repeated ``run(until=...)`` calls
            observe a monotone clock.
        max_events:
            Safety valve for runaway protocols: stop after this many events.

        Returns
        -------
        int
            Number of events fired.
        """
        if self._running:
            raise SimulationError("simulation is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        try:
            if until is None and max_events is None:
                return self._run_fast()
            return self._run_bounded(until, max_events)
        finally:
            self._running = False

    def _run_fast(self) -> int:
        """The unbounded inner loop: no ``until``/``max_events`` checks,
        all lookups hoisted.  Semantically identical to the bounded loop
        with both bounds unset."""
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        while heap and not self._stopped:
            entry = pop(heap)
            self._now = entry[0]
            entry[2](*entry[3])
            fired += 1
        return fired

    def _run_bounded(self, until: float | None, max_events: int | None) -> int:
        heap = self._heap
        fired = 0
        while heap and not self._stopped:
            if max_events is not None and fired >= max_events:
                return fired
            if until is not None and heap[0][0] > until:
                break
            self.step()
            fired += 1
        # The heap drained or the next event lies past `until`: unless
        # stop() was called, advance to `until` (never backwards) so that
        # repeated run(until=...) calls observe a monotone clock.
        if until is not None and until > self._now and not self._stopped:
            self._now = until
        return fired

    def stop(self) -> None:
        """Request the current :meth:`run` to return after the in-flight
        event completes."""
        self._stopped = True
