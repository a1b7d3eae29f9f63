"""Heartbeats with DEPTH and GENERATION counters, and failure detection.

Section III-A.3 of the paper: peers periodically exchange heartbeat
messages with their overlay neighbours; the messages are extended with a
``DEPTH`` counter (the sender's depth in the aggregation hierarchy) so that
the hierarchy can be repaired after churn — a peer whose depth is
"infinite" reattaches under the first neighbour it hears from with a finite
depth.  On top of the paper's design, heartbeats also carry the sender's
hierarchy *generation* (the epoch fencing counter of
:mod:`repro.hierarchy.generation`), so repair decisions can tell current
state from stale state left over by an earlier build or root failover.

Failure detection comes in two flavours:

* **fixed-timeout** (the legacy mode, ``adaptive=False``): a neighbour is
  suspected after ``timeout`` units of silence, full stop.  Simple, but
  any injected delay burst longer than the timeout falsely suspects every
  live neighbour at once and triggers a spurious invalidation cascade.
* **adaptive** (the default): a phi-accrual-style detector.  Each receiver
  keeps the recent inter-arrival gaps per neighbour and suspects only
  after ``mean + suspicion_threshold × spread`` of silence, where the
  spread is the observed gap deviation (floored by the configured jitter
  so a perfectly quiet history cannot collapse the margin).  The deadline
  never drops below the fixed ``timeout``, so on a quiet network the two
  modes behave identically — the adaptive detector only ever *stretches*
  its patience after observing jittery links.  All state is per-neighbour
  and advanced purely by message arrivals, so detection is deterministic.

The service is deliberately decoupled from the hierarchy: it takes
``depth_provider`` / ``generation_provider`` callbacks and emits
``on_heartbeat`` / ``on_neighbor_down`` events.  The hierarchy-maintenance
service subscribes to those.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.net.codec import register_payload
from repro.net.message import Message, Payload
from repro.net.node import Node
from repro.net.wire import CostCategory, SizeModel
from repro.sim.timers import PeriodicTimer, Timeout
from repro.types import INFINITE_DEPTH


@register_payload
@dataclass(frozen=True)
class HeartbeatPayload(Payload):
    """A heartbeat carrying the sender's hierarchy depth (Section III-A.3),
    hierarchy generation (the fencing epoch; 0 = no claim) and claimed
    upstream peer (``None`` for a root or detached sender).

    The upstream claim lets a parent notice a live child it wrongly
    dropped after a false suspicion and silently re-adopt it — without
    it, the child (which never learns it was dropped) would stay missing
    from the parent's downstream set forever.
    """

    depth: int
    generation: int = 0
    upstream: int | None = None
    category = CostCategory.CONTROL

    def body_bytes(self, model: SizeModel) -> int:
        # The DEPTH, GENERATION and UPSTREAM counters ride in the
        # (pre-existing) heartbeat; we charge one aggregate-sized integer
        # for each.
        return 3 * model.aggregate_bytes


@dataclass(frozen=True)
class HeartbeatConfig:
    """Timing of the heartbeat protocol and its failure detector.

    Attributes
    ----------
    interval:
        Period between heartbeats from one peer.
    timeout:
        Silence after which a neighbour is declared failed.  Must exceed
        the interval (typically 3-4x) or live neighbours get falsely
        suspected whenever jitter stretches a gap.  In adaptive mode this
        is the *floor* of the suspicion deadline, never the ceiling.
    jitter:
        Per-tick jitter so peers do not phase-lock.
    adaptive:
        Use the accrual detector (default).  ``False`` restores the
        legacy fixed-timeout behaviour.
    suspicion_threshold:
        How many spreads of silence beyond the mean gap before suspicion
        (the accrual detector's sensitivity knob; higher = more patient).
    history_window:
        How many recent inter-arrival gaps to keep per neighbour.
    min_history:
        Gaps required before the adaptive deadline applies; until then
        the fixed ``timeout`` is used.
    """

    interval: float = 10.0
    timeout: float = 35.0
    jitter: float = 1.0
    adaptive: bool = True
    suspicion_threshold: float = 4.0
    history_window: int = 16
    min_history: int = 3

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        if self.timeout <= self.interval:
            raise ValueError("heartbeat timeout must exceed the interval")
        if self.suspicion_threshold <= 0:
            raise ValueError("suspicion_threshold must be positive")
        if self.min_history < 1:
            raise ValueError("min_history must be at least 1")
        if self.history_window < self.min_history:
            raise ValueError("history_window must be >= min_history")


class HeartbeatService:
    """Per-node heartbeat emitter and neighbour failure detector.

    Parameters
    ----------
    node:
        The node this service runs on.
    config:
        Heartbeat timing and detector mode.
    depth_provider:
        Returns the node's current hierarchy depth, embedded in every
        heartbeat (``INFINITE_DEPTH`` while detached).
    generation_provider:
        Returns the node's current hierarchy generation, embedded in
        every heartbeat (0 when the node makes no generation claim).
    upstream_provider:
        Returns the node's current upstream peer (``None`` when the node
        is a root, detached, or makes no hierarchy claim), embedded in
        every heartbeat.
    on_heartbeat:
        Called ``(neighbor, depth, generation, upstream)`` for every
        received heartbeat.
    on_neighbor_down:
        Called ``(neighbor,)`` when a neighbour is suspected.
    """

    def __init__(
        self,
        node: Node,
        config: HeartbeatConfig,
        depth_provider: Callable[[], int] | None = None,
        generation_provider: Callable[[], int] | None = None,
        upstream_provider: Callable[[], int | None] | None = None,
        on_heartbeat: Callable[[int, int, int, int | None], None] | None = None,
        on_neighbor_down: Callable[[int], None] | None = None,
    ) -> None:
        self._node = node
        self._config = config
        self._depth_provider = depth_provider or (lambda: INFINITE_DEPTH)
        self._generation_provider = generation_provider or (lambda: 0)
        self._upstream_provider = upstream_provider or (lambda: None)
        self._on_heartbeat = on_heartbeat
        self._on_neighbor_down = on_neighbor_down
        self._watchdogs: dict[int, Timeout] = {}
        self.last_known_depth: dict[int, int] = {}
        self.last_known_generation: dict[int, int] = {}
        # Accrual-detector state: last arrival time and recent gaps, per
        # neighbour.  Advanced only by message arrivals — deterministic.
        self._last_arrival: dict[int, float] = {}
        self._gaps: dict[int, deque[float]] = {}

        sim = node.network.sim
        node.register_handler(HeartbeatPayload, self._handle_heartbeat)
        self._timer = PeriodicTimer(
            sim,
            config.interval,
            self._beat,
            jitter=config.jitter,
            start_immediately=True,
        )
        node.on_failure(self.stop)
        # Arm a watchdog per current neighbour so a neighbour that dies
        # before ever beating is still detected.
        for neighbor in node.network.topology.adjacency[node.peer_id]:
            self._arm_watchdog(neighbor)

    @property
    def active(self) -> bool:
        """Whether the service is still emitting heartbeats."""
        return self._timer.running

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _beat(self) -> None:
        payload = HeartbeatPayload(
            depth=self._depth_provider(),
            generation=self._generation_provider(),
            upstream=self._upstream_provider(),
        )
        for neighbor in self._node.network.topology.adjacency[self._node.peer_id]:
            self._node.send(neighbor, payload)

    def beat_now(self) -> None:
        """Send one immediate out-of-schedule heartbeat (used by the
        hierarchy layer to announce a root promotion without waiting an
        interval)."""
        self._beat()

    # ------------------------------------------------------------------
    # Receiving / detection
    # ------------------------------------------------------------------
    def _handle_heartbeat(self, message: Message) -> None:
        payload = message.payload
        assert isinstance(payload, HeartbeatPayload)
        neighbor = message.sender
        now = self._node.network.sim.now
        last = self._last_arrival.get(neighbor)
        if last is not None:
            gaps = self._gaps.get(neighbor)
            if gaps is None:
                gaps = deque(maxlen=self._config.history_window)
                self._gaps[neighbor] = gaps
            # Delayed messages can arrive out of order; a negative gap is
            # clamped — the reordering still shows up as spread.
            gaps.append(max(now - last, 0.0))
        self._last_arrival[neighbor] = now
        self.last_known_depth[neighbor] = payload.depth
        self.last_known_generation[neighbor] = payload.generation
        self._arm_watchdog(neighbor)
        if self._on_heartbeat is not None:
            self._on_heartbeat(
                neighbor, payload.depth, payload.generation, payload.upstream
            )

    def suspicion_deadline(self, neighbor: int) -> float:
        """How much silence this service tolerates from ``neighbor`` right
        now before suspecting it."""
        config = self._config
        if not config.adaptive:
            return config.timeout
        gaps = self._gaps.get(neighbor)
        if gaps is None or len(gaps) < config.min_history:
            return config.timeout
        mean = sum(gaps) / len(gaps)
        variance = sum((gap - mean) ** 2 for gap in gaps) / len(gaps)
        # Floor the spread so a perfectly regular history cannot collapse
        # the margin below what the configured jitter already implies.
        spread = max(math.sqrt(variance), config.jitter, 0.1 * mean)
        return max(config.timeout, mean + config.suspicion_threshold * spread)

    def _arm_watchdog(self, neighbor: int) -> None:
        watchdog = self._watchdogs.get(neighbor)
        if watchdog is None:
            watchdog = Timeout(
                self._node.network.sim,
                self._config.timeout,
                lambda n=neighbor: self._neighbor_down(n),
            )
            self._watchdogs[neighbor] = watchdog
        watchdog.reset(self.suspicion_deadline(neighbor))

    def _neighbor_down(self, neighbor: int) -> None:
        if not self._node.alive:
            return
        self.last_known_depth.pop(neighbor, None)
        self.last_known_generation.pop(neighbor, None)
        # Reset the arrival baseline but KEEP the learned gap history: a
        # suspicion may be false (delivery jitter, not a crash), and
        # discarding the history would snap the adaptive deadline back to
        # its bootstrap floor — the detector would false-suspect the same
        # jittery link forever instead of learning it once.
        self._last_arrival.pop(neighbor, None)
        network = self._node.network
        sim = network.sim
        # Detection latency: how long after the actual crash the watchdog
        # fired.  Only known when the failure went through the network's
        # bookkeeping (a false suspicion has no crash time).
        failed_at = network.failed_at.get(neighbor)
        detect_latency = None if failed_at is None else sim.now - failed_at
        if detect_latency is None:
            sim.telemetry.registry.counter("heartbeat.false_suspicions").inc()
        sim.trace.emit(
            sim.now,
            "heartbeat.neighbor_down",
            peer=self._node.peer_id,
            neighbor=neighbor,
            detect_latency=detect_latency,
        )
        if self._on_neighbor_down is not None:
            self._on_neighbor_down(neighbor)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Silence the service (node failed or protocol torn down)."""
        self._timer.stop()
        for watchdog in self._watchdogs.values():
            watchdog.cancel()
