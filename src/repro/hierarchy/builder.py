"""Distributed BFS hierarchy construction (Section III-A.1).

The designated root sets its depth to 0 and floods a ``BUILD`` message to
its overlay neighbours.  A peer adopts the first (shallowest) offer it
hears: on receiving ``BUILD(d)`` from ``s`` it attaches under ``s`` at
depth ``d + 1`` if that improves its current depth, registers as a child of
``s``, and re-floods with its own depth.  With uniform link latency this
distributed relaxation converges to exact BFS depths; with jittered
latency it converges to a shortest-path tree of the same shape the paper
describes.

The :class:`Hierarchy` facade builds the per-node services, runs the flood
to quiescence, and gives protocol code a checked, convenient view of the
resulting tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import HierarchyError
from repro.net.codec import register_payload
from repro.net.message import Message, Payload
from repro.net.network import Network
from repro.net.node import Node
from repro.net.wire import CostCategory, SizeModel
from repro.hierarchy.generation import fence_stale
from repro.hierarchy.roles import HierarchyState, NodeRole


@register_payload
@dataclass(frozen=True)
class BuildPayload(Payload):
    """BFS construction offer: "attach under me, I am at ``depth``".

    Carries the build's generation (fencing epoch) so offers from a
    superseded build are dropped instead of re-wiring a newer tree.
    """

    depth: int
    generation: int = 0
    category = CostCategory.CONTROL

    def body_bytes(self, model: SizeModel) -> int:
        return 2 * model.aggregate_bytes


@register_payload
@dataclass(frozen=True)
class ChildRegisterPayload(Payload):
    """Sent to the chosen upstream neighbour: "I am now your child"."""

    category = CostCategory.CONTROL

    def body_bytes(self, model: SizeModel) -> int:
        return model.aggregate_bytes


@register_payload
@dataclass(frozen=True)
class ChildUnregisterPayload(Payload):
    """Sent to a former upstream neighbour after reattaching elsewhere."""

    category = CostCategory.CONTROL

    def body_bytes(self, model: SizeModel) -> int:
        return model.aggregate_bytes


class HierarchyService:
    """The per-node side of hierarchy construction.

    Handles ``BUILD`` / register / unregister messages and keeps the
    node's :class:`~repro.hierarchy.roles.HierarchyState` current.  The
    repair logic lives in
    :class:`~repro.hierarchy.maintenance.MaintenanceService`, which drives
    this service through :meth:`attach_under` and :meth:`drop_child`.

    ``tag`` distinguishes coexisting hierarchies (Section III-A.1 builds
    several for redundancy): each instance's messages are dispatched to
    its own service.
    """

    def __init__(self, node: Node, tag: str = "") -> None:
        from repro.net.tagging import tagged

        self.node = node
        self.tag = tag
        self.state = HierarchyState()
        # Child registrations that arrived from our *current upstream* (a
        # reattachment race built a momentary 2-cycle).  Held here instead
        # of accepted or dropped: when the cycle resolves by our side
        # moving to another parent, the claimant becomes a real child; if
        # it resolves by the claimant moving on, its unregister clears it.
        self._deferred_children: set[int] = set()
        self._build_cls = tagged(BuildPayload, tag)
        self._register_cls = tagged(ChildRegisterPayload, tag)
        self._unregister_cls = tagged(ChildUnregisterPayload, tag)
        node.register_handler(self._build_cls, self._handle_build)
        node.register_handler(self._register_cls, self._handle_register)
        node.register_handler(self._unregister_cls, self._handle_unregister)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def become_root(self, generation: int = 1) -> None:
        """Designate this peer as the hierarchy root and start the flood."""
        self.state.depth = 0
        self.state.upstream = None
        self.state.generation = generation
        self._flood()

    def _flood(self) -> None:
        payload = self._build_cls(
            depth=self.state.depth, generation=self.state.generation
        )
        for neighbor in self.node.neighbors:
            if neighbor != self.state.upstream:
                self.node.send(neighbor, payload)

    def _handle_build(self, message: Message) -> None:
        payload = message.payload
        assert isinstance(payload, BuildPayload)
        if fence_stale(
            self.node.network.sim,
            context="build",
            peer=self.node.peer_id,
            sender=message.sender,
            msg_generation=payload.generation,
            local_generation=self.state.generation,
        ):
            return
        offered_depth = payload.depth + 1
        if offered_depth < self.state.depth:
            self.attach_under(message.sender, offered_depth, generation=payload.generation)
            self._flood()

    def attach_under(self, parent: int, depth: int, generation: int | None = None) -> None:
        """Adopt ``parent`` as upstream neighbour at the given depth,
        joining ``generation`` when the caller knows it (a build offer or
        heartbeat-driven reattach carries the parent's epoch)."""
        sim = self.node.network.sim
        trace = sim.trace
        if trace.active:
            trace.emit(
                sim.now,
                "hierarchy.attached",
                peer=self.node.peer_id,
                parent=parent,
                depth=depth,
            )
        else:
            trace.count("hierarchy.attached")
        old_upstream = self.state.upstream
        if old_upstream is not None and old_upstream != parent:
            self.node.send(old_upstream, self._unregister_cls())
        # A reattachment after detach: tell the pre-detach parent (which
        # may itself have reattached and still list us) to drop us.
        former = self.state.former_upstream
        if former is not None and former not in (parent, old_upstream):
            self.node.send(former, self._unregister_cls())
        self.state.former_upstream = None
        self.state.upstream = parent
        self.state.depth = depth
        if generation is not None:
            self.state.generation = generation
        # A former child that is now our parent must not stay in our
        # downstream set, or the tree would contain a 2-cycle.
        self.state.downstream.discard(parent)
        # Conversely, a deferred claimant that is no longer our upstream
        # is a real child after all (its own register already arrived).
        for claimant in sorted(self._deferred_children - {parent}):
            self.state.downstream.add(claimant)
        self._deferred_children &= {parent}
        self.node.send(parent, self._register_cls())

    def _handle_register(self, message: Message) -> None:
        # A peer cannot be both our parent and our child: such a register
        # is a symptom of a reattachment race and accepting it would create
        # a two-cycle (see MaintenanceService's depth reconciliation).
        # Defer rather than drop — if the race resolves by *us* reattaching
        # elsewhere, the claimant really is our child and forgetting it
        # would leave the tree permanently asymmetric.
        if message.sender == self.state.upstream:
            self._deferred_children.add(message.sender)
            return
        self.state.downstream.add(message.sender)

    def _handle_unregister(self, message: Message) -> None:
        self.state.downstream.discard(message.sender)
        self._deferred_children.discard(message.sender)

    # ------------------------------------------------------------------
    # Repair hooks (driven by MaintenanceService)
    # ------------------------------------------------------------------
    def drop_child(self, child: int) -> None:
        """Remove a child detected as failed."""
        self.state.downstream.discard(child)


class Hierarchy:
    """A built hierarchy over a network: the facade protocols use.

    Use :meth:`build` to construct one.  The object exposes per-peer
    state lookups plus whole-tree queries (children, parents, roles) that
    the aggregation engine and the experiments rely on.
    """

    def __init__(
        self,
        network: Network,
        root: int,
        services: dict[int, HierarchyService],
        tag: str = "",
    ) -> None:
        self.network = network
        self.root = root
        self.services = services
        self.tag = tag

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        network: Network,
        root: int = 0,
        settle_time: float = 500.0,
        strict: bool = True,
        tag: str = "",
    ) -> "Hierarchy":
        """Install hierarchy services on every live peer and run the BFS
        flood to quiescence.

        Parameters
        ----------
        network:
            The overlay to build over.  Must be connected among live peers
            if ``strict``.
        root:
            The designated root peer (the paper picks one at random; the
            experiments pass a seeded choice in).
        settle_time:
            Simulated time allotted for the flood to converge.  The flood
            needs ~diameter × latency; the default is generous.
        strict:
            Verify that every live peer attached, and raise
            :class:`~repro.errors.HierarchyError` otherwise.
        """
        if not network.node(root).alive:
            raise HierarchyError(f"designated root {root} is not alive")
        with network.sim.telemetry.span(
            "hierarchy.build", root=root, tag=tag
        ) as span:
            services = {
                peer: HierarchyService(network.node(peer), tag=tag)
                for peer in network.live_peers()
            }
            services[root].become_root(network.next_hierarchy_generation(tag))
            network.sim.run(until=network.sim.now + settle_time)
            hierarchy = cls(network, root, services, tag=tag)
            if strict:
                detached = [
                    peer
                    for peer, service in services.items()
                    if network.node(peer).alive and not service.state.attached
                ]
                if detached:
                    raise HierarchyError(
                        f"{len(detached)} live peers failed to attach "
                        f"(first few: {detached[:5]}); is the overlay connected?"
                    )
            span["height"] = hierarchy.height()
            span["participants"] = len(hierarchy.participants())
        return hierarchy

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def state_of(self, peer: int) -> HierarchyState:
        """The hierarchy state of one peer."""
        service = self.services.get(peer)
        if service is None:
            raise HierarchyError(f"peer {peer} is not participating in the hierarchy")
        return service.state

    def depth_of(self, peer: int) -> int:
        """Depth of one peer (``INFINITE_DEPTH`` if detached)."""
        return self.state_of(peer).depth

    def children_of(self, peer: int) -> set[int]:
        """Current downstream neighbours of a peer."""
        return set(self.state_of(peer).downstream)

    def parent_of(self, peer: int) -> int | None:
        """Current upstream neighbour of a peer (None for the root)."""
        return self.state_of(peer).upstream

    def role_of(self, peer: int) -> NodeRole:
        """Role of one peer."""
        return self.state_of(peer).role

    @property
    def generation(self) -> int:
        """The tree's current generation — the root's fencing epoch."""
        return self.state_of(self.root).generation

    def generation_of(self, peer: int) -> int:
        """Fencing epoch of one peer (0 when the peer holds no state)."""
        service = self.services.get(peer)
        return 0 if service is None else service.state.generation

    def participants(self) -> list[int]:
        """Live, attached peers — the peers any aggregation will involve."""
        return [
            peer
            for peer, service in self.services.items()
            if self.network.node(peer).alive and service.state.attached
        ]

    def leaves(self) -> list[int]:
        """Live peers with no children."""
        return [p for p in self.participants() if self.role_of(p) == NodeRole.LEAF]

    def reachable_participants(self) -> list[int]:
        """Peers whose tree path to the root passes only live peers — the
        peers whose contributions an aggregation started *now* can reach.

        Differs from :meth:`participants` when an internal node has died
        and repair has not (yet) re-attached its subtree: those
        descendants are live and attached by their own bookkeeping but
        cut off from the root.
        """
        if not self.network.node(self.root).alive:
            return []
        reached = []
        stack = [self.root]
        seen = {self.root}
        while stack:
            peer = stack.pop()
            reached.append(peer)
            for child in sorted(self.children_of(peer)):
                if child not in seen and self.network.node(child).alive:
                    seen.add(child)
                    stack.append(child)
        return sorted(reached)

    def height(self) -> int:
        """Maximum depth over attached live peers."""
        depths = [self.depth_of(p) for p in self.participants()]
        return max(depths, default=0)
