"""The fault injector: interprets a scenario against a live network.

:meth:`FaultInjector.install` does two things:

* schedules the purely *timed* actions (``CrashPeer(at=...)``,
  ``RevivePeer``, partition-window markers) as ordinary simulation events,
  and
* installs a single transport fault hook (see
  :meth:`~repro.net.transport.Transport.set_fault_hook`) that evaluates
  the message-level actions — match-triggered crashes, partitions,
  targeted drops/delays, burst loss — against every wire attempt.

All state the hook mutates (match counters, remaining-drop budgets) is
advanced only by simulation events, and the only randomness is the named
``"faults.burst_loss"`` stream, so a scenario replays bit-for-bit under
the same seed: the determinism replay gate holds with injection active.

Every action that takes effect emits a ``fault.injected`` trace event and
bumps the ``faults.injected`` counter; drops and delays additionally show
up in the transport's own ``msg.dropped_fault`` / ``msg.delayed_fault``
events and ``net.msgs_dropped.fault.<category>`` counters.
"""

from __future__ import annotations

from repro.net.message import Payload
from repro.net.network import Network
from repro.net.transport import DELAY, DELIVER, DROP
from repro.faults.scenario import (
    BurstLoss,
    CrashPeer,
    DelayMessages,
    DropMessages,
    FaultScenario,
    PartitionLinks,
    RevivePeer,
    SuspendPeer,
)


class FaultInjector:
    """Runs one :class:`~repro.faults.scenario.FaultScenario` on a network.

    Examples
    --------
    ::

        scenario = FaultScenario(
            name="crash-mid-phase-1",
            actions=(
                CrashPeer(peer=2, on_match=MessageMatch(
                    sender=3, category=CostCategory.FILTERING)),
                RevivePeer(peer=2, at=600.0),
            ),
        )
        FaultInjector(network, scenario).install()
    """

    def __init__(self, network: Network, scenario: FaultScenario) -> None:
        self.network = network
        self.scenario = scenario
        self._sim = network.sim
        self._installed = False
        # Per-action runtime state, keyed by position in the scenario (the
        # actions themselves are frozen).
        self._match_counts: dict[int, int] = {}
        self._remaining: dict[int, int] = {}
        self._crashed_via_match: set[int] = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def install(self) -> "FaultInjector":
        """Arm the scenario: schedule timed actions, hook the transport."""
        if self._installed:
            return self
        self._installed = True
        for index, action in enumerate(self.scenario.actions):
            if isinstance(action, CrashPeer) and action.at is not None:
                self._sim.schedule_at(action.at, self._crash, action.peer, "timed")
            elif isinstance(action, RevivePeer):
                self._sim.schedule_at(action.at, self._revive, action.peer)
            elif isinstance(action, PartitionLinks):
                self._sim.schedule_at(
                    action.start, self._announce_partition, index, action
                )
            elif isinstance(action, SuspendPeer):
                self._sim.schedule_at(
                    action.start, self._announce_suspend, index, action
                )
            elif isinstance(action, (DropMessages, DelayMessages)):
                self._remaining[index] = action.count
            if isinstance(action, CrashPeer) and action.on_match is not None:
                self._match_counts[index] = 0
        self.network.transport.set_fault_hook(self._hook)
        return self

    def uninstall(self) -> None:
        """Remove the transport hook (timed events already scheduled still
        fire; use protected/peer-less scenarios if that matters)."""
        if not self._installed:
            return
        self._installed = False
        self.network.transport.set_fault_hook(None)

    # ------------------------------------------------------------------
    # Timed actions
    # ------------------------------------------------------------------
    def _crash(self, peer: int, trigger: str) -> None:
        if not self.network.node(peer).alive:
            return
        self._record("crash", peer=peer, trigger=trigger)
        self.network.fail_peer(peer)

    def _revive(self, peer: int) -> None:
        if self.network.node(peer).alive:
            return
        self._record("revive", peer=peer)
        self.network.revive_peer(peer)

    def _announce_partition(self, index: int, action: PartitionLinks) -> None:
        self._record(
            "partition",
            links=[list(link) for link in action.links],
            until=action.start + action.duration,
            action=index,
        )

    def _announce_suspend(self, index: int, action: SuspendPeer) -> None:
        self._record(
            "suspend",
            peer=action.peer,
            until=action.start + action.duration,
            action=index,
        )

    # ------------------------------------------------------------------
    # The transport hook
    # ------------------------------------------------------------------
    def _hook(self, sender: int, recipient: int, payload: Payload) -> tuple[str, float]:
        now = self._sim.now
        extra_delay = 0.0
        for index, action in enumerate(self.scenario.actions):
            if isinstance(action, CrashPeer) and action.on_match is not None:
                if index not in self._crashed_via_match and action.on_match.matches(
                    sender, recipient, payload
                ):
                    self._match_counts[index] += 1
                    if self._match_counts[index] >= action.after:
                        self._crashed_via_match.add(index)
                        # Crash at the current instant: the matching message
                        # is already on the wire; the peer dies before it
                        # can be delivered.
                        self._sim.schedule(0.0, self._crash, action.peer, "on_match")
            elif isinstance(action, PartitionLinks):
                if (
                    action.start <= now < action.start + action.duration
                    and action.cuts(sender, recipient)
                ):
                    return DROP, 0.0
            elif isinstance(action, DropMessages):
                if (
                    now >= action.start
                    and self._remaining[index] > 0
                    and action.match.matches(sender, recipient, payload)
                ):
                    self._remaining[index] -= 1
                    self._record(
                        "drop", sender=sender, recipient=recipient, action=index
                    )
                    return DROP, 0.0
            elif isinstance(action, DelayMessages):
                if (
                    now >= action.start
                    and self._remaining[index] > 0
                    and action.match.matches(sender, recipient, payload)
                ):
                    self._remaining[index] -= 1
                    self._record(
                        "delay",
                        sender=sender,
                        recipient=recipient,
                        extra=action.extra_delay,
                        action=index,
                    )
                    extra_delay += action.extra_delay
            elif isinstance(action, SuspendPeer):
                # Gray failure: the suspended peer's outbound traffic dies
                # on the wire (the transport itself counts the drop).
                if (
                    sender == action.peer
                    and action.start <= now < action.start + action.duration
                ):
                    return DROP, 0.0
            elif isinstance(action, BurstLoss):
                if action.start <= now < action.start + action.duration:
                    rng = self._sim.rng.stream("faults.burst_loss")
                    if rng.random() < action.probability:
                        self._record(
                            "burst_loss", sender=sender, recipient=recipient
                        )
                        return DROP, 0.0
        if extra_delay > 0.0:
            return DELAY, extra_delay
        return DELIVER, 0.0

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------
    def _record(self, effect: str, **fields: object) -> None:
        self._sim.telemetry.registry.counter("faults.injected").inc()
        self._sim.trace.emit(
            self._sim.now,
            "fault.injected",
            scenario=self.scenario.name,
            effect=effect,
            **fields,
        )
