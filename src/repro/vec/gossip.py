"""Push-sum gossip and the hierarchy-free netFilter, as array programs.

Section III-A of the paper weighs gossip against hierarchical
aggregation; Section VI names netFilter over gossip as future work.
:func:`push_sum` is the round of Kempe, Dobra & Gehrke (FOCS 2003):
``Σ mass`` is conserved, and ``mass / weight`` converges to the global
sum when one initiator holds weight 1, or to the average when every peer
starts at 1.  Timing is modeled: with link latency below
:data:`ROUND_PERIOD` and no loss, every push lands before the next round
and a peer's arrivals sum in sender order, as in an event-driven run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.filters import FilterBank
from repro.core.verification import HeavyGroups, materialize_candidates
from repro.errors import AggregationError, ConfigurationError
from repro.items.itemset import LocalItemSet
from repro.metrics.breakdown import CostBreakdown
from repro.net.network import Network
from repro.net.wire import SizeModel
from repro.vec.build import bfs_tree
from repro.vec.state import sort_unique

#: Simulated time between push-sum rounds.
ROUND_PERIOD = 2.0


@dataclass(frozen=True)
class Overlay:
    """The live overlay as a CSR, in ``live_peers``/``live_neighbors``
    order: row ``r`` is peer ``peers[r]``, and its live neighbours' rows
    are ``neighbors[offsets[r]:offsets[r + 1]]``."""

    peers: np.ndarray
    offsets: np.ndarray
    neighbors: np.ndarray

    @classmethod
    def from_network(cls, network: Network) -> "Overlay":
        peers = network.live_peers()
        row = {peer: index for index, peer in enumerate(peers)}
        lists = [[row[other] for other in network.live_neighbors(peer)] for peer in peers]
        offsets = np.cumsum([0] + [len(neighbors) for neighbors in lists], dtype=np.int64)
        neighbors = np.array([index for rows in lists for index in rows], dtype=np.int64)
        return cls(np.array(peers, dtype=np.int64), offsets, neighbors)

    @property
    def degree(self) -> np.ndarray:
        return np.diff(self.offsets)

    def row(self, peer: int) -> int:
        """Dense row of a live peer."""
        index = int(np.searchsorted(self.peers, peer))
        if index == self.peers.size or self.peers[index] != peer:
            raise AggregationError(f"peer {peer} is not a live peer")
        return index


def push_sum(
    overlay: Overlay,
    mass: np.ndarray,
    weight: np.ndarray,
    rounds: int,
    rng: np.random.Generator,
) -> tuple[int, int]:
    """Run ``rounds`` rounds in place on ``mass`` (peers × values) and
    ``weight`` (per peer), rows in overlay order.  Each round, every peer
    with a live neighbour and a non-zero mass entry or weight keeps half of
    both and pushes half to a neighbour drawn from ``rng``.  Returns the
    messages sent and the non-zero mass entries they carried."""
    if rounds <= 0:
        raise AggregationError("rounds must be positive")
    n = overlay.peers.size
    if mass.ndim != 2 or mass.shape[0] != n or weight.shape != (n,):
        raise AggregationError(f"mass {mass.shape}, weight {weight.shape}: not {n} peers")
    degree = overlay.degree
    messages = entries = 0
    for _ in range(rounds):
        pushers = np.flatnonzero((degree > 0) & ((weight != 0.0) | mass.any(axis=1)))
        targets = overlay.neighbors[overlay.offsets[pushers] + rng.integers(0, degree[pushers])]
        halves = mass[pushers] / 2.0
        half_weights = weight[pushers] / 2.0
        mass[pushers] = halves
        weight[pushers] = half_weights
        # Arrivals sum in sender order before they meet the kept half.
        inbox = np.zeros_like(mass)
        inbox_weight = np.zeros_like(weight)
        np.add.at(inbox, targets, halves)
        np.add.at(inbox_weight, targets, half_weights)
        mass += inbox
        weight += inbox_weight
        messages += pushers.size
        entries += int(np.count_nonzero(halves))
    return messages, entries


def push_bytes(model: SizeModel, messages: int, values: int, value_bytes: int) -> int:
    """Wire bytes of ``messages`` pushes that carry ``values`` mass values
    of ``value_bytes`` each, plus a header and the weight (``s_a``) apiece."""
    return messages * (model.header_bytes + model.aggregate_bytes) + values * value_bytes


def estimate_at(overlay: Overlay, mass: np.ndarray, weight: np.ndarray, peer: int) -> np.ndarray:
    """``mass / weight`` at a peer."""
    row = overlay.row(peer)
    if weight[row] <= 0:
        raise AggregationError(f"peer {peer} has zero push-sum weight")
    return mass[row] / weight[row]


def flood_messages(overlay: Overlay, origin: int) -> int:
    """Messages of a flood in which every peer forwards once, to each live
    neighbour but the one it first heard from: ``deg(origin) + Σ(deg − 1)``
    over the rest of the origin's live component."""
    depth, _ = bfs_tree(overlay.offsets, overlay.neighbors, overlay.row(origin))
    component = depth >= 0
    return int(overlay.degree[component].sum()) - int(component.sum()) + 1


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
    """Outcome of one gossip netFilter run.  ``reported`` values are
    push-sum *estimates*; the margin makes the set a superset of the exact
    answer when it covers the estimation error."""

    reported: LocalItemSet
    threshold: int
    grand_total_estimate: float
    heavy_groups: HeavyGroups
    breakdown: CostBreakdown
    rounds: int
    #: Simulated time: two push-sum runs of ``rounds + 1`` periods (the last
    #: lets pushes land) around the flood's ``4·√N + 50`` settle time.
    elapsed_time: float
    #: Fraction of the population live at the start (peers that were down
    #: contributed nothing), and whether that is all of it.
    coverage: float = 1.0
    complete: bool = True

    @property
    def total_cost(self) -> float:
        """Average per-peer bytes: gossip plus flooding."""
        return self.breakdown.gossip + self.breakdown.dissemination


def gossip_netfilter(
    network: Network, config: GossipNetFilterConfig, requester: int = 0
) -> GossipNetFilterResult:
    """netFilter with no hierarchy, answered at ``requester``: a push-sum
    of ``v`` and the group aggregates, a flood of the heavy groups, and a
    keyed push-sum of Algorithm 2's partial candidate sets.  Groups and
    candidates pass when their estimate reaches ``t·(1 - margin)``.
    """
    overlay = Overlay.from_network(network)
    origin = overlay.row(requester)
    model = network.size_model
    bank = FilterBank(config.num_filters, config.filter_size, config.hash_seed)
    items = [network.node(int(peer)).items for peer in overlay.peers]
    initiator = np.zeros(len(items))
    initiator[origin] = 1.0

    mass = np.empty((len(items), 1 + bank.total_groups))
    mass[:, 0] = [item_set.total_value for item_set in items]
    mass[:, 1:] = [bank.local_group_aggregates(item_set) for item_set in items]
    weight = initiator.copy()
    messages, _ = push_sum(overlay, mass, weight, config.rounds, network.sim.rng.stream("gossip"))
    gossip_bytes = push_bytes(model, messages, messages * mass.shape[1], model.aggregate_bytes)
    estimates = estimate_at(overlay, mass, weight, requester)
    grand_total = float(estimates[0])
    threshold = max(int(math.ceil(config.threshold_ratio * grand_total)), 1)
    relaxed = threshold * (1.0 - config.safety_margin)
    heavy = HeavyGroups(
        per_filter=tuple(
            np.flatnonzero(groups >= relaxed)
            for groups in estimates[1:].reshape(config.num_filters, config.filter_size)
        )
    )
    flood_bytes = flood_messages(overlay, requester)
    flood_bytes *= model.header_bytes + heavy.wire_bytes(model)

    partials = [materialize_candidates(item_set, bank, heavy) for item_set in items]
    keys = sort_unique(np.concatenate([partial.ids for partial in partials]))
    keyed = np.zeros((len(items), keys.size))
    for row, partial in enumerate(partials):
        keyed[row, np.searchsorted(keys, partial.ids)] = partial.values
    weight = initiator.copy()
    # A keyed push carries one (id, value) pair per non-zero key.
    messages, pairs = push_sum(
        overlay, keyed, weight, config.rounds, network.sim.rng.stream("gossip.keyed")
    )
    gossip_bytes += push_bytes(model, messages, pairs, model.pair_bytes)
    values = estimate_at(overlay, keyed, weight, requester)
    kept = values >= relaxed
    reported = LocalItemSet.from_pairs(
        {key: int(round(value)) for key, value in zip(keys[kept].tolist(), values[kept].tolist())}
    )

    # Advance the clock step by step, as a simulation clock run round by
    # round does: float addition is not associative, so a closed form can
    # differ in the last bit.
    n_peers = network.n_peers
    clock = started = network.sim.now
    settles = [ROUND_PERIOD] * (config.rounds + 1)
    for settle in settles + [4.0 * n_peers**0.5 + 50.0] + settles:
        clock += settle
    return GossipNetFilterResult(
        reported=reported,
        threshold=threshold,
        grand_total_estimate=grand_total,
        heavy_groups=heavy,
        breakdown=CostBreakdown(gossip=gossip_bytes / n_peers, dissemination=flood_bytes / n_peers),
        rounds=config.rounds,
        elapsed_time=clock - started,
        coverage=len(items) / n_peers,
        complete=len(items) == n_peers,
    )
