"""The peer runtime.

A :class:`Node` is one peer: it holds the peer's local item set, its overlay
neighbour list, and a payload-type dispatch table that protocol *services*
(hierarchy builder, aggregation engine, heartbeat service, ...) register
handlers into.  Services are composable: each owns its payload types, so
two protocols never contend for the same handler slot.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.errors import NetworkError
from repro.items.itemset import LocalItemSet
from repro.net.message import Message, Payload

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.net.network import Network


class Node:
    """One peer in the simulated overlay.

    Attributes
    ----------
    peer_id:
        The peer's identifier (its index in the topology).
    items:
        The peer's local item set ``A_i`` with local values.
    alive:
        Whether the peer is currently up.  Failed peers receive nothing and
        their pending timers are cancelled through the registered failure
        hooks.
    """

    __slots__ = (
        "network",
        "peer_id",
        "items",
        "alive",
        "up_since",
        "_handlers",
        "_failure_hooks",
        "_transport_send",
    )

    def __init__(self, network: "Network", peer_id: int) -> None:
        self.network = network
        self.peer_id = peer_id
        self.items: LocalItemSet = LocalItemSet.empty()
        self.alive = True
        #: Simulation time of the most recent (re)start — root-failover
        #: successor election prefers the most stable (longest-up) peer.
        self.up_since: float = 0.0
        self._handlers: dict[type[Payload], Callable[[Message], None]] = {}
        # Bound once: node.send is called for every outgoing message and
        # the transport's send entry point never changes after wiring.
        self._transport_send = network.transport.send
        self._failure_hooks: list[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    @property
    def neighbors(self) -> list[int]:
        """The peer's current overlay neighbours (live peers only)."""
        return self.network.live_neighbors(self.peer_id)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, recipient: int, payload: Payload) -> None:
        """Send a payload to another peer.  No-op if this node is down
        (a dead peer cannot transmit)."""
        if not self.alive:
            return
        self._transport_send(self.peer_id, recipient, payload)

    def register_handler(
        self, payload_type: type[Payload], handler: Callable[[Message], None]
    ) -> None:
        """Install the handler for one payload type.

        Raises
        ------
        NetworkError
            If another service already claimed this payload type — silent
            handler replacement is how protocol bugs hide.
        """
        if payload_type in self._handlers:
            raise NetworkError(
                f"handler for {payload_type.__name__} already registered on "
                f"peer {self.peer_id}"
            )
        self._handlers[payload_type] = handler

    def deliver(self, message: Message) -> None:
        """Dispatch an incoming message to the registered handler.

        Unhandled payload types are dropped with a trace record rather than
        raising: in a churning network a message can legitimately arrive
        after the protocol session that expected it has been torn down.
        """
        if not self.alive:
            return
        handler = self._handlers.get(type(message.payload))
        if handler is None:
            self.network.sim.trace.emit(
                self.network.sim.now,
                "msg.unhandled",
                peer=self.peer_id,
                payload_kind=message.kind,
            )
            return
        handler(message)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def on_failure(self, hook: Callable[[], None]) -> None:
        """Register a cleanup hook run when this node fails or leaves."""
        self._failure_hooks.append(hook)

    def fail(self) -> None:
        """Crash the node: it stops sending, receiving and timing."""
        if not self.alive:
            return
        self.alive = False
        for hook in self._failure_hooks:
            hook()
        # A crash wipes volatile protocol state: on revival, services are
        # re-installed from scratch by the network's join listeners.
        self._handlers.clear()
        self._failure_hooks.clear()
        sim = self.network.sim
        # Error-close any causal spans this peer still owns (in-flight
        # convergecast participations, root-side sessions): a crashed
        # peer's spans must end as error-tagged trees, not leak.
        sim.telemetry.spans.close_peer(self.peer_id)
        sim.trace.emit(sim.now, "node.failed", peer=self.peer_id)

    def revive(self) -> None:
        """Bring a failed node back up (a rejoin with the same identity).

        Protocol state is *not* restored — services observe the revival via
        the network's join notifications and re-integrate the peer.
        """
        if self.alive:
            return
        self.alive = True
        self.up_since = self.network.sim.now
        self.network.sim.trace.emit(
            self.network.sim.now, "node.revived", peer=self.peer_id
        )
