"""The :class:`Network`: peers + topology + transport + accounting.

This is the object every protocol receives.  It owns the node table, knows
which peers are alive, exposes the transport, and carries the single
:class:`~repro.metrics.accounting.CostAccounting` instance that the
experiments read their results from.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.errors import NetworkError
from repro.items.itemset import LocalItemSet
from repro.metrics.accounting import CostAccounting
from repro.net.node import Node
from repro.net.overlay import Topology
from repro.net.transport import ReliabilityConfig, Transport, TransportConfig
from repro.net.wire import SizeModel
from repro.sim.engine import Simulation


class Network:
    """A population of peers connected by an overlay.

    Parameters
    ----------
    sim:
        The discrete-event simulation driving this network.
    topology:
        The overlay graph; one :class:`~repro.net.node.Node` is created per
        topology vertex.
    transport_config:
        Link latency/jitter/loss.  Defaults to 1-unit fixed latency.
    size_model:
        Wire pricing (defaults to the paper's 4-byte integers).
    reliability:
        Optional transport-level ACK/retransmit configuration for
        control/aggregation traffic (see
        :class:`~repro.net.transport.ReliabilityConfig`).  ``None`` keeps
        the paper's fire-and-forget links.

    Examples
    --------
    >>> from repro.sim import Simulation
    >>> from repro.net.overlay import Topology
    >>> sim = Simulation(seed=1)
    >>> net = Network(sim, Topology.star(4))
    >>> sorted(net.node(0).neighbors)
    [1, 2, 3]
    """

    def __init__(
        self,
        sim: Simulation,
        topology: Topology,
        transport_config: TransportConfig | None = None,
        size_model: SizeModel | None = None,
        reliability: ReliabilityConfig | None = None,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.accounting = CostAccounting()
        sim.telemetry.attach_accounting(self.accounting)
        #: When each currently-failed peer went down — lets the failure
        #: detector report its detection latency.
        self.failed_at: dict[int, float] = {}
        self.size_model = size_model or SizeModel()
        self.nodes: dict[int, Node] = {}
        self.transport = Transport(
            sim,
            # Bound dict.get: resolving a recipient on the delivery hot
            # path is a C-level lookup, not a Python frame.  The dict is
            # filled (and mutated as peers join) in place, so the binding
            # never stales.
            self.nodes.get,
            transport_config or TransportConfig(),
            self.size_model,
            self.accounting,
            reliability=reliability,
        )
        for peer_id in range(topology.n_peers):
            self.nodes[peer_id] = Node(self, peer_id)
        self._join_listeners: list[Callable[[int], None]] = []
        self._crash_listeners: list[Callable[[int], None]] = []
        #: Highest hierarchy generation issued per tree tag — the fencing
        #: epoch of :mod:`repro.hierarchy.generation`.  Builds and root
        #: failovers bump it via :meth:`next_hierarchy_generation`.
        self._hierarchy_generations: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Node access
    # ------------------------------------------------------------------
    @property
    def n_peers(self) -> int:
        """Total peer population (live and failed)."""
        return len(self.nodes)

    def node(self, peer_id: int) -> Node:
        """The node for ``peer_id``.

        Raises
        ------
        NetworkError
            If the peer does not exist.
        """
        node = self.nodes.get(peer_id)
        if node is None:
            raise NetworkError(f"unknown peer {peer_id}")
        return node

    def _resolve(self, peer_id: int) -> Node | None:
        return self.nodes.get(peer_id)

    def live_peers(self) -> list[int]:
        """Identifiers of currently-live peers, ascending."""
        return [peer_id for peer_id, node in self.nodes.items() if node.alive]

    @property
    def n_live_peers(self) -> int:
        """Count of currently-live peers."""
        return sum(1 for node in self.nodes.values() if node.alive)

    def live_neighbors(self, peer_id: int) -> list[int]:
        """Live overlay neighbours of a peer."""
        return [
            other
            for other in self.topology.adjacency[peer_id]
            if self.nodes[other].alive
        ]

    # ------------------------------------------------------------------
    # Data
    # ------------------------------------------------------------------
    def assign_items(self, item_sets: dict[int, LocalItemSet] | Iterable[LocalItemSet]) -> None:
        """Install local item sets on the peers.

        Accepts either a ``{peer_id: LocalItemSet}`` mapping or an iterable
        assigned to peers ``0, 1, 2, ...`` in order.
        """
        if isinstance(item_sets, dict):
            pairs = item_sets.items()
        else:
            pairs = enumerate(item_sets)
        for peer_id, item_set in pairs:
            self.node(peer_id).items = item_set

    def grand_total_value(self) -> int:
        """``v`` — the sum of all local values of all items at live peers
        (Section IV introduces ``t = ρ · v``)."""
        return sum(node.items.total_value for node in self.nodes.values() if node.alive)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def on_join(self, listener: Callable[[int], None]) -> None:
        """Register a callback invoked with the peer id on every revive."""
        self._join_listeners.append(listener)

    def on_crash(self, listener: Callable[[int], None]) -> None:
        """Register a callback invoked with the peer id on every crash.

        Symmetric to :meth:`on_join`: services that install per-peer state
        (heartbeat timers, watchdogs) tear it down here rather than leaving
        a crashed peer's timers ticking.
        """
        self._crash_listeners.append(listener)

    def fail_peer(self, peer_id: int) -> None:
        """Crash a peer (it stops sending, receiving, and timing)."""
        node = self.node(peer_id)
        was_alive = node.alive
        if was_alive:
            self.failed_at[peer_id] = self.sim.now
            self.sim.telemetry.registry.counter("net.peer_failures").inc()
        node.fail()
        if was_alive:
            for listener in self._crash_listeners:
                listener(peer_id)

    def revive_peer(self, peer_id: int) -> None:
        """Bring a failed peer back and notify join listeners."""
        node = self.node(peer_id)
        if node.alive:
            return
        self.failed_at.pop(peer_id, None)
        node.revive()
        self.sim.telemetry.registry.counter("net.peer_revivals").inc()
        for listener in self._join_listeners:
            listener(peer_id)

    # ------------------------------------------------------------------
    # Hierarchy generations
    # ------------------------------------------------------------------
    def next_hierarchy_generation(self, tag: str) -> int:
        """Issue the next generation for the tree named ``tag`` (first = 1).

        The network is the authority so that rebuilds of the same tree keep
        the counter monotone even when every :class:`HierarchyService` was
        torn down in between.
        """
        generation = self._hierarchy_generations.get(tag, 0) + 1
        self._hierarchy_generations[tag] = generation
        return generation

    def record_hierarchy_generation(self, tag: str, generation: int) -> None:
        """Advance the per-tree high-water mark to ``generation`` (a root
        failover bumps the generation locally and reports it here)."""
        if generation > self._hierarchy_generations.get(tag, 0):
            self._hierarchy_generations[tag] = generation
