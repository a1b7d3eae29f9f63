"""Timers built on top of the event loop.

The heartbeat protocol of Section III-A.3 needs periodic timers with a
little jitter (so that a thousand peers do not all send heartbeats on the
same tick), and the failure detector needs a re-armable one-shot timeout.
Both are provided here so protocol code never touches the event heap
directly.  :func:`backoff` is the one retry schedule every retrier
shares: the transport's retransmit timer and the requester, monitor and
front-door settle delays.

Both timers are engineered for the failure-detector workload, where
:meth:`Timeout.reset` runs once per received heartbeat: a reset does not
cancel-and-reschedule a heap event — it just moves a deadline field, and
the already-scheduled wake-up re-arms itself lazily when it fires and
finds the deadline moved (see docs/PERFORMANCE.md).  Observable firing
times are exactly those of the eager implementation; only internal no-op
wake-ups differ.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.errors import ConfigurationError, SimulationError
from repro.sim.engine import Simulation


def backoff(base: float, attempt: int) -> float:
    """Delay before retry number ``attempt`` (1-based):
    ``base · 2^(attempt-1)``.  A budget or a deadline bounds how far a
    retrier walks the schedule; the schedule itself has no cap."""
    if attempt < 1:
        raise ConfigurationError(f"attempt must be >= 1, got {attempt}")
    return base * 2 ** (attempt - 1)


class PeriodicTimer:
    """Fires ``callback()`` every ``interval`` time units until stopped.

    Parameters
    ----------
    sim:
        The owning simulation.
    interval:
        Base period; must be positive.
    callback:
        Invoked with no arguments on every tick.
    jitter:
        If non-zero, each tick is displaced by a uniform offset in
        ``[-jitter, +jitter]`` drawn from the simulation's ``"timers"``
        random stream.  Jitter never reorders ticks (it is clamped so the
        next tick stays in the future).
    start_immediately:
        If ``True`` the first tick happens after one (jittered) interval as
        soon as the timer is constructed; otherwise call :meth:`start`.
    """

    __slots__ = ("_sim", "_interval", "_jitter", "_callback", "_running", "_epoch")

    def __init__(
        self,
        sim: Simulation,
        interval: float,
        callback: Callable[[], None],
        *,
        jitter: float = 0.0,
        start_immediately: bool = True,
    ) -> None:
        if interval <= 0:
            raise SimulationError(f"timer interval must be positive, got {interval}")
        if jitter < 0 or jitter >= interval:
            raise SimulationError(
                f"jitter must satisfy 0 <= jitter < interval, got {jitter}"
            )
        self._sim = sim
        self._interval = float(interval)
        self._jitter = float(jitter)
        self._callback = callback
        self._running = False
        # Bumped on every stop; a tick event carries the epoch it was
        # armed in and no-ops if the timer was stopped (or stop/started)
        # since.  This replaces per-tick EventHandle allocation + cancel.
        self._epoch = 0
        if start_immediately:
            self.start()

    @property
    def running(self) -> bool:
        """Whether the timer is currently armed."""
        return self._running

    def start(self) -> None:
        """Arm the timer.  Idempotent."""
        if self._running:
            return
        self._running = True
        self._arm()

    def stop(self) -> None:
        """Disarm the timer.  Idempotent.

        The in-flight tick event is left to drain as a no-op rather than
        cancelled (it holds no resources beyond its heap slot)."""
        if self._running:
            self._running = False
            self._epoch += 1

    def _arm(self) -> None:
        delay = self._interval
        if self._jitter > 0.0:
            rng = self._sim.rng.stream("timers")
            delay += float(rng.uniform(-self._jitter, self._jitter))
            delay = max(delay, 1e-9)
        self._sim.post(delay, self._tick, self._epoch)

    def _tick(self, epoch: int) -> None:
        if epoch != self._epoch or not self._running:
            return
        self._callback()
        if self._running and epoch == self._epoch:  # callback may have stopped us
            if self._jitter == 0.0:
                # Jitter-free re-arm with sim.post inlined: one frame per
                # tick matters with thousands of heartbeat timers running.
                sim = self._sim
                heapq.heappush(
                    sim._heap,
                    (sim._now + self._interval, next(sim._seq), self._tick, (epoch,)),
                )
            else:
                self._arm()


class Timeout:
    """A re-armable one-shot timeout (the failure-detector primitive).

    ``reset()`` pushes the deadline out by the full duration; ``cancel()``
    disarms it.  The callback fires at most once per arm.

    Resets are O(1) and touch no heap state in the common case: the
    deadline is a plain float, and the pending wake-up event re-arms
    itself at the new deadline when it fires early.  A wake-up is only
    scheduled when none is pending, or when a reset pulls the deadline
    *before* every pending wake-up (possible with an explicit shorter
    ``duration``).
    """

    __slots__ = ("_sim", "_duration", "_callback", "_deadline", "_wakeups")

    def __init__(
        self, sim: Simulation, duration: float, callback: Callable[[], None]
    ) -> None:
        if duration <= 0:
            raise SimulationError(f"timeout duration must be positive, got {duration}")
        self._sim = sim
        self._duration = float(duration)
        self._callback = callback
        #: Absolute deadline, or None while disarmed.
        self._deadline: float | None = None
        #: Times of in-flight wake-up events, ascending.  Wake-ups fire in
        #: time order, so the firing one is always ``_wakeups[0]``.
        self._wakeups: list[float] = []

    @property
    def armed(self) -> bool:
        """Whether a deadline is currently pending."""
        return self._deadline is not None

    def reset(self, duration: float | None = None) -> None:
        """(Re-)arm the timeout ``duration`` from now.

        ``duration`` overrides the configured default for this arm only —
        the adaptive failure detector stretches a watchdog to its current
        suspicion deadline without rebuilding the :class:`Timeout`.
        """
        if duration is None:
            duration = self._duration
        elif duration <= 0:
            raise SimulationError(
                f"timeout duration must be positive, got {duration}"
            )
        else:
            duration = float(duration)
        deadline = self._sim._now + duration
        self._deadline = deadline
        wakeups = self._wakeups
        if not wakeups:
            wakeups.append(deadline)
            self._sim.post(duration, self._wake)
        elif deadline < wakeups[0]:
            # Deadline pulled before every pending wake-up: need an
            # earlier one.  (Extensions — the common case — fall through:
            # the pending wake-up re-arms lazily.)
            wakeups.insert(0, deadline)
            self._sim.post(duration, self._wake)

    def cancel(self) -> None:
        """Disarm without firing.  Idempotent.

        In-flight wake-ups are left to drain as no-ops."""
        self._deadline = None

    def _wake(self) -> None:
        self._wakeups.pop(0)
        deadline = self._deadline
        if deadline is None:
            return  # cancelled (or already fired) since this was scheduled
        now = self._sim._now
        if now >= deadline:
            self._deadline = None
            self._callback()
        elif not self._wakeups:
            # Deadline moved out past this wake-up and no later wake-up is
            # pending: chase it.
            self._wakeups.append(deadline)
            self._sim.post(deadline - now, self._wake)
        # else: a later pending wake-up (<= deadline) takes over.
