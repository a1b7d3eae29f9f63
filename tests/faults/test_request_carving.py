"""Minimum-threshold carving under faults (Section III-A.1 hardened).

N requesters with distinct threshold ratios submit to the front door in
one round, so one shared netFilter session serves them all while burst
loss chews on the wire (ACK/retransmit reliability recovers the dropped
hops).  Every answer must be the oracle's exact frequent set at that
requester's own threshold, every stricter answer a subset of every
looser one, and the whole exchange must replay identically under the
same seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregation.hierarchical import AggregationEngine
from repro.core.config import NetFilterConfig, ceil_threshold
from repro.core.oracle import oracle_frequent_items
from repro.faults import BurstLoss, FaultInjector, FaultScenario
from repro.frontdoor import COMMITTED, FrontDoor, FrontDoorConfig
from repro.hierarchy.builder import Hierarchy
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.net.transport import ReliabilityConfig, TransportConfig
from repro.sim.engine import Simulation
from repro.workload.workload import Workload

RATIOS = (0.01, 0.02, 0.03, 0.05, 0.08)


def run_carving(seed: int):
    """One faulted multi-request exchange; returns everything a replay
    gate needs to compare."""
    sim = Simulation(seed=seed)
    topology = Topology.random_connected(24, 4.0, sim.rng.stream("topology"))
    network = Network(
        sim,
        topology,
        transport_config=TransportConfig(latency=1.0, latency_jitter=0.3),
        reliability=ReliabilityConfig(max_retransmits=8),
    )
    workload = Workload.zipf(
        n_items=400, n_peers=24, skew=1.0, rng=sim.rng.stream("workload")
    )
    network.assign_items(workload.item_sets)
    hierarchy = Hierarchy.build(network, root=0)
    engine = AggregationEngine(hierarchy, child_timeout=120.0, hardened=True)
    # Retransmits under 25% loss stretch one session far past the default
    # deadline, so both budgets are widened to let it commit.
    door = FrontDoor(
        engine,
        NetFilterConfig(filter_size=60, num_filters=3, threshold_ratio=0.01),
        FrontDoorConfig(session_deadline=2000.0, client_timeout=4000.0),
    )
    # Loss opens immediately and outlives the whole exchange, so the
    # request hops, the session and the answer hops all retransmit
    # through it.
    FaultInjector(
        network,
        FaultScenario(
            name="carve-loss",
            actions=(BurstLoss(start=0.0, duration=5000.0, probability=0.25),),
        ),
    ).install()
    leaves = sorted(hierarchy.leaves())[: len(RATIOS)]
    ids = [door.submit("carve", leaf, ratio) for leaf, ratio in zip(leaves, RATIOS)]
    door.drain()
    return network, door, [door.outcome(request_id) for request_id in ids]


@pytest.mark.parametrize("seed", [21, 22])
def test_carving_exact_under_burst_loss(seed):
    network, door, records = run_carving(seed)
    # One shared session at the minimum ratio served the whole batch.
    assert [row["batched"] for row in door.round_rows if row["batched"]] == [len(RATIOS)]
    assert door.cache.entry("session").base_ratio == min(RATIOS)
    for record in records:
        assert record.status == COMMITTED
        assert record.threshold == ceil_threshold(
            record.threshold_ratio, record.grand_total
        )
        assert record.items == oracle_frequent_items(network, record.threshold)
    # Strictly increasing ratios answer with nested subsets.
    ordered = [record.items for record in records]
    for loose, strict in zip(ordered, ordered[1:]):
        assert np.isin(strict.ids, loose.ids).all()
        assert len(strict) <= len(loose)


def test_carving_replays_identically():
    _, first_door, first = run_carving(seed=33)
    _, second_door, second = run_carving(seed=33)
    assert all(record.status == COMMITTED for record in first)
    assert [record.as_row() for record in first] == [
        record.as_row() for record in second
    ]
    for one, other in zip(first, second):
        assert one.items == other.items
        assert np.array_equal(one.items.values, other.items.values)
        assert one.grand_total == other.grand_total
    assert first_door.round_rows == second_door.round_rows
