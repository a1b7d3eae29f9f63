"""netFilter over gossip aggregation — the paper's stated future work.

Section VI: "In the future, we plan to investigate a fault-tolerant gossip
aggregation that can obtain the precise aggregates from the network and
extend the solutions proposed in this study on gossip aggregation."  This
module is that extension, built from the same two-phase structure with no
hierarchy anywhere:

1. **Candidate filtering** — one push-sum gossip carries the grand total
   ``v`` and the ``f·g`` item-group values in a single vector (initiator-
   weighted, so the requester's ``x/w`` estimates the sums directly).
   Because gossip estimates carry residual error, groups are kept heavy
   if their estimate reaches ``t·(1 - margin)`` — the safety margin turns
   gossip's approximation into a *one-sided* error, preserving netFilter's
   no-false-negative property as long as the margin covers the estimation
   error (tests size it from the convergence theory: error shrinks
   exponentially in rounds).
2. **Dissemination** — the heavy-group lists are flooded over the overlay
   (every peer forwards once), costing ``s_g`` per identifier per edge.
3. **Candidate verification** — peers materialize partial candidate sets
   exactly as in Algorithm 2 and a *keyed* push-sum aggregates them; the
   requester reports candidates whose estimated global value reaches
   ``t·(1 - margin)``, with the estimates as values.

Compared to the hierarchical original: no tree to build or repair and no
root to lose — at the price of `O(rounds)` latency, much higher byte cost,
and approximate reported values.  The ``gossip netFilter vs hierarchical``
ablation quantifies all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.aggregation.gossip import GossipAggregation, GossipConfig
from repro.aggregation.gossip_keyed import KeyedGossipAggregation
from repro.core.filters import FilterBank
from repro.core.verification import HeavyGroups, materialize_candidates
from repro.errors import ConfigurationError
from repro.items.itemset import LocalItemSet
from repro.metrics.breakdown import CostBreakdown
from repro.net.codec import register_payload
from repro.net.message import Message, Payload
from repro.net.network import Network
from repro.net.wire import CostCategory, SizeModel


@dataclass(frozen=True)
class GossipNetFilterConfig:
    """Configuration of the gossip-based variant.

    Attributes
    ----------
    filter_size, num_filters, threshold_ratio, hash_seed:
        As in :class:`~repro.core.config.NetFilterConfig`.
    rounds:
        Push-sum rounds per phase (error shrinks exponentially with this).
    safety_margin:
        Relative slack on every threshold comparison; must exceed the
        gossip estimation error for the no-false-negative property.
    """

    filter_size: int
    num_filters: int = 1
    threshold_ratio: float = 0.01
    rounds: int = 80
    safety_margin: float = 0.1
    hash_seed: int = 0

    def __post_init__(self) -> None:
        if self.filter_size <= 0 or self.num_filters <= 0:
            raise ConfigurationError("filter_size and num_filters must be positive")
        if not 0 < self.threshold_ratio <= 1:
            raise ConfigurationError("threshold_ratio must be in (0, 1]")
        if self.rounds <= 0:
            raise ConfigurationError("rounds must be positive")
        if not 0 <= self.safety_margin < 1:
            raise ConfigurationError("safety_margin must be in [0, 1)")


@dataclass(frozen=True)
class GossipNetFilterResult:
    """Outcome of one gossip netFilter run.

    ``reported`` values are push-sum *estimates* (the margin guarantees a
    superset of the exact answer when it covers the estimation error);
    compare :class:`~repro.core.netfilter.NetFilterResult`'s exactness.
    """

    reported: LocalItemSet
    threshold: int
    grand_total_estimate: float
    heavy_groups: HeavyGroups
    breakdown: CostBreakdown
    rounds: int
    #: Fraction of the total population live when the run started.  Gossip
    #: has no convergecast to count per-peer contributions, so this is a
    #: population-level annotation: peers that were down contributed
    #: nothing to any push-sum round.
    coverage: float = 1.0
    #: Whether every peer in the population was live for the run.
    complete: bool = True

    @property
    def total_cost(self) -> float:
        """Average per-peer bytes: gossip plus flooding."""
        return self.breakdown.gossip + self.breakdown.dissemination


@register_payload
@dataclass(frozen=True, eq=False)
class HeavyGroupFloodPayload(Payload):
    """Heavy-group lists being flooded over the overlay."""

    heavy: HeavyGroups
    category = CostCategory.DISSEMINATION

    def body_bytes(self, model: SizeModel) -> int:
        return self.heavy.wire_bytes(model)


class _Flood:
    """One-shot overlay flood: every peer forwards the payload once."""

    def __init__(self, network: Network) -> None:
        self.network = network
        self.received: dict[int, HeavyGroups] = {}
        for peer in network.live_peers():
            network.node(peer).register_handler(
                HeavyGroupFloodPayload, self._make_handler(peer)
            )

    def _make_handler(self, peer: int) -> Callable[[Message], None]:
        def handle(message: Message) -> None:
            payload = message.payload
            assert isinstance(payload, HeavyGroupFloodPayload)
            if peer in self.received:
                return  # duplicate — already forwarded
            self.received[peer] = payload.heavy
            node = self.network.node(peer)
            for neighbor in node.neighbors:
                if neighbor != message.sender:
                    node.send(neighbor, payload)

        return handle

    def start(self, origin: int, heavy: HeavyGroups, settle_time: float) -> None:
        self.received[origin] = heavy
        node = self.network.node(origin)
        payload = HeavyGroupFloodPayload(heavy=heavy)
        for neighbor in node.neighbors:
            node.send(neighbor, payload)
        self.network.sim.run(until=self.network.sim.now + settle_time)

    def teardown(self) -> None:
        for peer in self.network.live_peers():
            self.network.node(peer).unregister_handler(HeavyGroupFloodPayload)


class GossipNetFilter:
    """The hierarchy-free netFilter variant."""

    def __init__(self, config: GossipNetFilterConfig) -> None:
        self.config = config

    def run(self, network: Network, requester: int = 0) -> GossipNetFilterResult:
        """Run both phases by gossip, reporting at ``requester``."""
        accounting = network.accounting
        telemetry = network.sim.telemetry
        before = accounting.bytes_by_category()
        live_at_start = network.n_live_peers
        config = self.config
        bank = FilterBank(config.num_filters, config.filter_size, config.hash_seed)
        gossip_config = GossipConfig(rounds=config.rounds)

        # Phase 1: grand total + group aggregates in one vector.
        with telemetry.span(
            "gossip.filter.phase", rounds=config.rounds
        ) as span:
            length = 1 + bank.total_groups
            contributions = {
                peer: np.concatenate(
                    (
                        [float(network.node(peer).items.total_value)],
                        bank.local_group_aggregates(network.node(peer).items),
                    )
                )
                for peer in network.live_peers()
            }
            phase1 = GossipAggregation(
                network, contributions, length, gossip_config, initiator=requester
            )
            phase1.run()
            estimates = phase1.estimate_at(requester)
            grand_total = float(estimates[0])
            threshold = max(int(math.ceil(config.threshold_ratio * grand_total)), 1)
            relaxed = threshold * (1.0 - config.safety_margin)
            group_estimates = estimates[1:]
            heavy = HeavyGroups(
                per_filter=tuple(
                    np.flatnonzero(vector >= relaxed)
                    for vector in [
                        group_estimates[i * config.filter_size : (i + 1) * config.filter_size]
                        for i in range(config.num_filters)
                    ]
                )
            )
            span["heavy_groups"] = heavy.total_count

        # Dissemination: flood the heavy groups.
        with telemetry.span("gossip.flood.phase"):
            flood = _Flood(network)
            flood.start(
                requester, heavy, settle_time=4.0 * network.n_peers**0.5 + 50.0
            )
            flood.teardown()

        # Phase 2: keyed gossip over partial candidate sets (Algorithm 2's
        # materialization, unchanged).
        with telemetry.span("gossip.verify.phase") as span:
            keyed_contributions: dict[int, dict[int, float]] = {}
            for peer in network.live_peers():
                partial = materialize_candidates(network.node(peer).items, bank, heavy)
                keyed_contributions[peer] = {
                    int(item_id): float(value) for item_id, value in partial
                }
            phase2 = KeyedGossipAggregation(
                network, keyed_contributions, initiator=requester, config=gossip_config
            )
            phase2.run()
            candidate_estimates = phase2.estimate_at(requester)
            reported_pairs = {
                item_id: int(round(value))
                for item_id, value in candidate_estimates.items()
                if value >= relaxed
            }
            reported = LocalItemSet.from_pairs(reported_pairs)
            span["reported"] = len(reported_pairs)

        population = network.n_peers
        breakdown = CostBreakdown.from_delta(
            before, accounting.bytes_by_category(), population
        )
        return GossipNetFilterResult(
            reported=reported,
            threshold=threshold,
            grand_total_estimate=grand_total,
            heavy_groups=heavy,
            breakdown=breakdown,
            rounds=config.rounds,
            coverage=live_at_start / population if population else 1.0,
            complete=live_at_start == population,
        )
