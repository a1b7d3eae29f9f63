"""Concurrent IFI requests sharing one netFilter run (Section III-A.1).

Multiple peers may simultaneously ask for frequent items with different
thresholds.  Rather than one hierarchy and one netFilter per request, the
paper routes every request to the root, runs netFilter once with the
*minimum* requested threshold, and carves each requester's answer out of
the resulting superset (items frequent at ``t_min`` include items frequent
at any larger ``t``).

The implementation is message-real: requests hop upstream along the tree
(recording their route), results are source-routed back down, and every
hop is charged to the ``CONTROL`` category (the paper does not price this
traffic in any reported component).
"""

from __future__ import annotations

import dataclasses
import weakref
from dataclasses import dataclass
from typing import Callable

from repro.aggregation.hierarchical import AggregationEngine
from repro.core.config import NetFilterConfig, carve_at_ratio
from repro.core.netfilter import NetFilter, NetFilterResult
from repro.errors import ProtocolError, RequestTimeoutError
from repro.items.itemset import LocalItemSet
from repro.net.codec import register_payload
from repro.net.message import Message, Payload
from repro.net.network import Network
from repro.net.wire import CostCategory, SizeModel

#: Networks that already carry a coordinator's handler registrations.
#: ``Node.register_handler`` refuses silent replacement, so a second
#: coordinator on the same network would die halfway through its handler
#: loop with a confusing per-node error; this guard turns it into one
#: clear :class:`ProtocolError` before anything is touched.
_ATTACHED_NETWORKS: "weakref.WeakSet[Network]" = weakref.WeakSet()


@dataclass(frozen=True)
class IfiRequest:
    """One peer's request for the frequent items at its threshold ratio."""

    requester: int
    threshold_ratio: float

    def __post_init__(self) -> None:
        if not 0 < self.threshold_ratio <= 1:
            raise ProtocolError(
                f"threshold_ratio must be in (0, 1], got {self.threshold_ratio}"
            )


@register_payload
@dataclass(frozen=True, eq=False)
class RequestPayload(Payload):
    """A request hopping toward the root, recording its route."""

    threshold_ratio: float
    route: tuple[int, ...]
    category = CostCategory.CONTROL

    def body_bytes(self, model: SizeModel) -> int:
        return model.aggregate_bytes


@register_payload
@dataclass(frozen=True, eq=False)
class ResultPayload(Payload):
    """A requester's answer, source-routed back along the recorded route."""

    items: LocalItemSet
    remaining_route: tuple[int, ...]
    category = CostCategory.CONTROL

    def body_bytes(self, model: SizeModel) -> int:
        return model.pair_bytes * len(self.items)


class MultiRequestCoordinator:
    """Routes concurrent requests to the root and shares one netFilter run.

    Parameters
    ----------
    engine:
        The aggregation engine (and hierarchy) to run over.
    config:
        Filter settings for the shared run.  The threshold fields of the
        config are ignored — the minimum requested ratio is used.
    """

    def __init__(self, engine: AggregationEngine, config: NetFilterConfig) -> None:
        network = engine.network
        if network in _ATTACHED_NETWORKS:
            raise ProtocolError(
                "a MultiRequestCoordinator already owns the request/result "
                "handlers of this network; reuse the existing coordinator "
                "instead of constructing a second one"
            )
        self.engine = engine
        self.config = config
        self._pending_at_root: list[RequestPayload] = []
        self._delivered: dict[int, LocalItemSet] = {}
        for peer in engine.hierarchy.participants():
            node = network.node(peer)
            node.register_handler(RequestPayload, self._make_request_handler(peer))
            node.register_handler(ResultPayload, self._make_result_handler(peer))
        _ATTACHED_NETWORKS.add(network)

    # ------------------------------------------------------------------
    # Relaying
    # ------------------------------------------------------------------
    def _make_request_handler(self, peer: int) -> Callable[[Message], None]:
        def handle(message: Message) -> None:
            payload = message.payload
            assert isinstance(payload, RequestPayload)
            self._relay_request(peer, payload)

        return handle

    def _relay_request(self, peer: int, payload: RequestPayload) -> None:
        hierarchy = self.engine.hierarchy
        if peer == hierarchy.root:
            self._pending_at_root.append(payload)
            return
        parent = hierarchy.parent_of(peer)
        if parent is None:
            raise ProtocolError(f"peer {peer} has no route to the root")
        self.engine.network.node(peer).send(
            parent,
            RequestPayload(
                threshold_ratio=payload.threshold_ratio,
                route=payload.route + (peer,),
            ),
        )

    def _make_result_handler(self, peer: int) -> Callable[[Message], None]:
        def handle(message: Message) -> None:
            payload = message.payload
            assert isinstance(payload, ResultPayload)
            if not payload.remaining_route:
                self._delivered[peer] = payload.items
                return
            next_hop = payload.remaining_route[-1]
            self.engine.network.node(peer).send(
                next_hop,
                ResultPayload(
                    items=payload.items,
                    remaining_route=payload.remaining_route[:-1],
                ),
            )

        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _arrived_requesters(self) -> set[int]:
        """Requesters whose request payloads have reached the root.  The
        first route hop is the requester itself; an empty route means the
        root asked for itself."""
        root = self.engine.hierarchy.root
        return {
            payload.route[0] if payload.route else root
            for payload in self._pending_at_root
        }

    def _await(
        self,
        done: Callable[[], bool],
        deadline: float,
        stage: str,
        missing: Callable[[], list[int]],
    ) -> None:
        """Drive the simulation until ``done()``; raise a typed timeout —
        naming the peers still owed traffic — when the deadline passes or
        the event queue drains first (a drained queue means the missing
        messages are gone, not merely late)."""
        sim = self.engine.sim
        while not done():
            if sim.now >= deadline:
                raise RequestTimeoutError(
                    f"{stage} timed out at t={sim.now:g}: still missing "
                    f"peers {missing()}"
                )
            if not sim.step():
                raise RequestTimeoutError(
                    f"{stage}: event queue drained at t={sim.now:g} with "
                    f"peers {missing()} still missing (traffic lost)"
                )

    def run(
        self, requests: list[IfiRequest], timeout: float = 600.0
    ) -> tuple[dict[int, LocalItemSet], NetFilterResult]:
        """Serve all requests with one shared netFilter run.

        Parameters
        ----------
        requests:
            The concurrent requests to serve.
        timeout:
            Simulated-time budget for *each* wire stage (request routing
            to the root, result delivery back).  A stage that misses it
            raises :class:`~repro.errors.RequestTimeoutError` naming the
            peers whose traffic never arrived, instead of spinning the
            event loop.

        Returns
        -------
        tuple
            ``(answers, shared_result)`` where ``answers[requester]`` is
            that requester's frequent-item set at *its* threshold, and
            ``shared_result`` is the underlying netFilter run at the
            minimum threshold.
        """
        if not requests:
            raise ProtocolError("no requests to serve")
        if timeout <= 0:
            raise ProtocolError(f"timeout must be positive, got {timeout}")
        engine = self.engine
        sim = engine.sim
        hierarchy = engine.hierarchy
        network = engine.network
        requesters = {request.requester for request in requests}

        # 1. Every requester fires its request toward the root.
        self._pending_at_root.clear()
        self._delivered.clear()
        for request in requests:
            payload = RequestPayload(
                threshold_ratio=request.threshold_ratio, route=()
            )
            self._relay_request(request.requester, payload)
        expected = len(requests)
        self._await(
            done=lambda: len(self._pending_at_root) >= expected,
            deadline=sim.now + timeout,
            stage="request routing",
            missing=lambda: sorted(requesters - self._arrived_requesters()),
        )

        # 2. One netFilter run at the minimum threshold ratio.
        min_ratio = min(p.threshold_ratio for p in self._pending_at_root)
        shared_config = dataclasses.replace(
            self.config, threshold_ratio=min_ratio, threshold=None
        )
        shared_result = NetFilter(shared_config).run(engine)

        # 3. Carve out and deliver each requester's subset.
        for payload in self._pending_at_root:
            subset, _ = carve_at_ratio(
                shared_result.frequent, payload.threshold_ratio, shared_result.grand_total
            )
            if not payload.route:
                # The root asked for itself.
                self._delivered[hierarchy.root] = subset
                continue
            next_hop = payload.route[-1]
            network.node(hierarchy.root).send(
                next_hop,
                ResultPayload(items=subset, remaining_route=payload.route[:-1]),
            )
        self._await(
            done=lambda: len(self._delivered) >= len(requesters),
            deadline=sim.now + timeout,
            stage="result delivery",
            missing=lambda: sorted(requesters - set(self._delivered)),
        )
        return dict(self._delivered), shared_result
