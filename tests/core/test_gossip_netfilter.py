"""Tests for the gossip-based netFilter (the paper's future work,
:mod:`repro.vec.gossip`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.oracle import oracle_frequent_items, oracle_global_values
from repro.errors import AggregationError, ConfigurationError
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.sim.engine import Simulation
from repro.vec.gossip import (
    GossipNetFilterConfig,
    GossipNetFilterResult,
    Overlay,
    flood_messages,
    gossip_netfilter,
)
from repro.workload.workload import Workload


def build_network(seed: int = 0, n_peers: int = 50, n_items: int = 2000) -> Network:
    sim = Simulation(seed=seed)
    topology = Topology.random_connected(n_peers, 5.0, sim.rng.stream("topology"))
    network = Network(sim, topology)
    workload = Workload.zipf(n_items, n_peers, 1.0, sim.rng.stream("workload"))
    network.assign_items(workload.item_sets)
    return network


CONFIG = GossipNetFilterConfig(
    filter_size=60, num_filters=2, threshold_ratio=0.01, rounds=80, safety_margin=0.1
)


@pytest.fixture(scope="module")
def run():
    network = build_network(seed=1)
    return network, gossip_netfilter(network, CONFIG, requester=0)


def test_no_false_negatives_with_margin(run):
    network, result = run
    truth = oracle_frequent_items(network, result.threshold)
    assert np.isin(truth.ids, result.reported.ids).all()


def test_reported_values_near_truth(run):
    network, result = run
    truth = oracle_global_values(network)
    for item_id, estimate in result.reported:
        exact = truth.value_of(item_id)
        assert abs(estimate - exact) <= max(0.1 * exact, 5)


def test_grand_total_estimate_close(run):
    network, result = run
    exact = sum(network.node(p).items.total_value for p in network.live_peers())
    assert result.grand_total_estimate == pytest.approx(exact, rel=0.05)


def test_cost_charged_to_gossip_and_dissemination(run):
    _, result = run
    assert result.breakdown.gossip > 0
    assert result.breakdown.dissemination > 0
    assert result.total_cost == result.breakdown.gossip + result.breakdown.dissemination


def test_no_hierarchy_needed(run):
    network, result = run
    # No tree is built and nothing is sent on the event engine's wire.
    assert result.breakdown.control == 0
    assert network.accounting.bytes_by_category() == {}


def test_elapsed_time_is_two_gossip_runs_around_the_flood(run):
    _, result = run
    expected = 2 * 2.0 * (CONFIG.rounds + 1) + 4.0 * 50**0.5 + 50.0
    assert result.elapsed_time == pytest.approx(expected, rel=1e-12)


def test_same_seed_replays_exactly():
    first = gossip_netfilter(build_network(seed=6), CONFIG)
    second = gossip_netfilter(build_network(seed=6), CONFIG)
    assert first.reported == second.reported
    assert first.grand_total_estimate == second.grand_total_estimate
    assert first.breakdown == second.breakdown
    for a, b in zip(first.heavy_groups.per_filter, second.heavy_groups.per_filter):
        assert np.array_equal(a, b)


def test_costlier_but_root_free_vs_hierarchical():
    """The trade the paper anticipates: gossip survives any single peer
    (no root), but pays a large byte premium."""
    from repro.aggregation.hierarchical import AggregationEngine
    from repro.core.config import NetFilterConfig
    from repro.core.netfilter import NetFilter
    from repro.hierarchy.builder import Hierarchy

    network = build_network(seed=2)
    hierarchy = Hierarchy.build(network, root=0)
    engine = AggregationEngine(hierarchy)
    hier_result = NetFilter(
        NetFilterConfig(filter_size=60, num_filters=2, threshold_ratio=0.01)
    ).run(engine)

    gossip_network = build_network(seed=2)
    gossip_result = gossip_netfilter(
        gossip_network,
        GossipNetFilterConfig(filter_size=60, num_filters=2, threshold_ratio=0.01, rounds=60),
        requester=0,
    )

    assert gossip_result.total_cost > 3 * hier_result.breakdown.total
    truth = oracle_frequent_items(gossip_network, gossip_result.threshold)
    assert np.isin(truth.ids, gossip_result.reported.ids).all()


def test_flood_reaches_every_peer():
    """Every peer of a connected overlay forwards once: the origin to all
    its neighbours, every other peer to all but the one it heard from."""
    network = build_network(seed=3, n_peers=40)
    overlay = Overlay.from_network(network)
    assert flood_messages(overlay, 0) == int(overlay.degree.sum()) - (40 - 1)


def test_flood_counts_by_hand():
    star = Network(Simulation(seed=0), Topology.star(5))
    assert flood_messages(Overlay.from_network(star), 0) == 4
    # From a leaf: one message to the centre, three on to the other leaves.
    assert flood_messages(Overlay.from_network(star), 3) == 4
    line = Network(Simulation(seed=0), Topology.line(4))
    assert flood_messages(Overlay.from_network(line), 0) == 3
    assert flood_messages(Overlay.from_network(line), 1) == 3
    # A dead peer cuts the line: 0 reaches only 1, which has no one left.
    line.fail_peer(2)
    assert flood_messages(Overlay.from_network(line), 0) == 1


def test_dead_requester_rejected():
    network = build_network(seed=1, n_peers=20)
    network.fail_peer(4)
    with pytest.raises(AggregationError):
        gossip_netfilter(network, CONFIG, requester=4)


def test_margin_zero_may_lose_items_but_still_runs():
    network = build_network(seed=4)
    config = GossipNetFilterConfig(
        filter_size=60, num_filters=2, threshold_ratio=0.01,
        rounds=40, safety_margin=0.0,
    )
    result = gossip_netfilter(network, config, requester=0)
    assert isinstance(result, GossipNetFilterResult)


def test_invalid_config():
    with pytest.raises(ConfigurationError):
        GossipNetFilterConfig(filter_size=0)
    with pytest.raises(ConfigurationError):
        GossipNetFilterConfig(filter_size=10, rounds=0)
    with pytest.raises(ConfigurationError):
        GossipNetFilterConfig(filter_size=10, safety_margin=1.0)
    with pytest.raises(ConfigurationError):
        GossipNetFilterConfig(filter_size=10, threshold_ratio=2.0)
