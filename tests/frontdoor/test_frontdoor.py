"""End-to-end tests of the FrontDoor service over a simulated system."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregation.hierarchical import AggregationEngine
from repro.core.config import NetFilterConfig, ceil_threshold
from repro.core.continuous import ContinuousNetFilter
from repro.core.oracle import oracle_frequent_items
from repro.errors import NetworkError, ProtocolError
from repro.faults import DropMessages, FaultInjector, FaultScenario, MessageMatch
from repro.frontdoor import (
    COMMITTED,
    DEGRADED,
    REJECTED,
    FrontDoor,
    FrontDoorConfig,
    TenantPolicy,
)
from repro.frontdoor.cache import AnswerCache
from repro.hierarchy.builder import Hierarchy
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.net.transport import TransportConfig
from repro.service import MonitorService, ServiceConfig
from repro.sim.engine import Simulation
from repro.workload.workload import Workload

from tests.conftest import build_small_system

FILTER = NetFilterConfig(filter_size=200, num_filters=2, threshold_ratio=0.01)


def build_door(seed=1, n_peers=16, config=None, policies=None):
    sim = Simulation(seed=seed)
    topology = Topology.random_connected(n_peers, 4.0, sim.rng.stream("topology"))
    network = Network(
        sim,
        topology,
        transport_config=TransportConfig(latency=1.0, latency_jitter=0.3),
    )
    workload = Workload.zipf(
        n_items=500, n_peers=n_peers, skew=1.0, rng=sim.rng.stream("workload")
    )
    network.assign_items(workload.item_sets)
    hierarchy = Hierarchy.build(network, root=0)
    engine = AggregationEngine(hierarchy, child_timeout=30.0, hardened=True)
    door = FrontDoor(
        engine, FILTER, config or FrontDoorConfig(), policies=policies
    )
    return sim, network, door


def test_batch_shares_one_session_and_carves_exactly():
    sim, network, door = build_door()
    ids = [
        door.submit("acme", 3, 0.01, 0),
        door.submit("acme", 5, 0.02, 0),
        door.submit("beta", 7, 0.05, 0),
    ]
    door.run(sim.now + 100.0)
    door.drain()
    # One shared session served all three.
    assert sum(1 for row in door.round_rows if row["batched"]) == 1
    records = [door.outcome(request_id) for request_id in ids]
    assert all(record.status == COMMITTED for record in records)
    for record in records:
        truth = oracle_frequent_items(network, record.threshold)
        assert record.items == truth
        assert record.threshold == ceil_threshold(
            record.threshold_ratio, record.grand_total
        )
    # Larger ratios answer with subsets of smaller ones.
    strict, loose = records[2].items, records[0].items
    assert np.isin(strict.ids, loose.ids).all()


def test_cache_serves_degraded_with_honest_staleness():
    sim, _, door = build_door()
    first = door.submit("acme", 3, 0.01, 0)
    door.run(sim.now + door.config.round_interval)
    door.drain()
    assert door.outcome(first).status == COMMITTED
    # A round later: same ratio, staleness tolerance 4 — served from
    # the cache, degraded, without a new session.
    door.run(sim.now + door.config.round_interval)
    sessions_before = sum(1 for row in door.round_rows if row["batched"])
    second = door.submit("acme", 5, 0.01, 4)
    door.run(sim.now + door.config.round_interval)
    door.drain()
    record = door.outcome(second)
    assert record.status == DEGRADED
    assert 0 < record.staleness <= 4
    assert record.items is not None
    assert sum(1 for row in door.round_rows if row["batched"]) == sessions_before


def test_fresh_only_request_gets_fresh_session():
    sim, _, door = build_door()
    first = door.submit("acme", 3, 0.01, 0)
    door.run(sim.now + door.config.round_interval)
    door.drain()
    # Staleness tolerance 0: the cached entry is too old, a new shared
    # session must run.
    second = door.submit("acme", 5, 0.01, 0)
    door.run(sim.now + door.config.round_interval)
    door.drain()
    assert door.outcome(first).status == COMMITTED
    record = door.outcome(second)
    assert record.status == COMMITTED
    assert record.staleness == 0
    assert sum(1 for row in door.round_rows if row["batched"]) == 2


def test_rate_limit_rejects_with_retry_hint():
    sim, _, door = build_door(
        policies={"tight": TenantPolicy(rate=0.01, burst=2.0)}
    )
    ids = [door.submit("tight", 3, 0.01, 0) for _ in range(5)]
    door.run(sim.now + door.config.round_interval)
    door.drain()
    records = [door.outcome(request_id) for request_id in ids]
    rejected = [r for r in records if r.status == REJECTED]
    assert len(rejected) == 3
    assert all(r.reason == "rate_limit" for r in rejected)
    assert all(r.retry_after > 0 for r in rejected)
    assert sum(1 for r in records if r.status == COMMITTED) == 2


def test_queue_full_sheds_instead_of_buffering():
    sim, _, door = build_door(
        config=FrontDoorConfig(max_queue_depth=4, max_batch=4),
        policies={"acme": TenantPolicy(rate=10.0, burst=100.0)},
    )
    ids = [door.submit("acme", 3 + (k % 10), 0.01, 0) for k in range(12)]
    door.run(sim.now + door.config.round_interval)
    door.drain()
    records = [door.outcome(request_id) for request_id in ids]
    shed = [r for r in records if r.reason == "queue_full"]
    assert len(shed) == 8
    assert all(r.status == REJECTED for r in shed)
    # The queued four were all served by the first batch.
    assert sum(1 for r in records if r.status == COMMITTED) == 4


def test_budget_exhaustion_rejects_terminally():
    from repro.frontdoor.config import NO_RETRY

    sim, _, door = build_door(
        policies={"metered": TenantPolicy(rate=10.0, burst=10.0, byte_budget=1.0)}
    )
    first = door.submit("metered", 3, 0.01, 0)
    door.run(sim.now + door.config.round_interval)
    door.drain()
    assert door.outcome(first).status == COMMITTED  # spent the budget
    second = door.submit("metered", 3, 0.01, 0)
    door.run(sim.now + door.config.round_interval)
    door.drain()
    record = door.outcome(second)
    assert record.status == REJECTED
    assert record.reason == "budget"
    assert record.retry_after == NO_RETRY


def test_second_front_door_rejected():
    _, _, door = build_door()
    with pytest.raises(ProtocolError, match="already owns"):
        FrontDoor(door.engine, FILTER)


def test_failing_sessions_open_breaker_then_recover():
    config = FrontDoorConfig(
        round_interval=30.0,
        session_deadline=25.0,
        client_timeout=150.0,
        max_session_retries=0,
        breaker_threshold=2,
        breaker_reset=60.0,
    )
    sim, network, door = build_door(config=config)
    # Gray-fail an interior peer: the root stays reachable for request
    # and answer traffic, but every session stalls past its deadline
    # waiting on the silent subtree.
    from repro.faults import FaultInjector, FaultScenario, SuspendPeer

    interior = sorted(door.engine.hierarchy.children_of(0))[0]
    requester = [p for p in door.engine.hierarchy.leaves() if p != interior][0]
    FaultInjector(
        network,
        FaultScenario(
            name="gray",
            actions=(
                SuspendPeer(peer=interior, start=sim.now + 1.0, duration=100.0),
            ),
        ),
    ).install()
    failing = []
    for _ in range(2):  # two consecutive failed batches trip the breaker
        failing.append(door.submit("acme", requester, 0.01, 0))
        door.run(sim.now + config.round_interval)
    assert any(row["breaker"] == "open" for row in door.round_rows)
    assert sim.trace.counters.get("frontdoor.breaker", 0) > 0
    # While the breaker is open the queue is shed, never buffered.
    shed = door.submit("acme", requester, 0.01, 0)
    door.run(sim.now + config.round_interval)
    door.drain()
    for request_id in [*failing, shed]:
        record = door.outcome(request_id)
        assert record.status == REJECTED
        assert record.reason  # named: deadline/breaker_open/timeout

    # The suspension has lifted; after the reset window the half-open
    # probe commits and the breaker closes again.
    door.run(sim.now + config.breaker_reset + config.round_interval)
    request_id = door.submit("acme", requester, 0.01, 0)
    door.run(sim.now + 2 * config.round_interval)
    door.drain()
    assert door.outcome(request_id).status == COMMITTED
    assert door.round_rows[-1]["breaker"] == "closed"


def test_dead_root_requests_time_out():
    config = FrontDoorConfig(
        round_interval=30.0, session_deadline=25.0, client_timeout=90.0
    )
    sim, network, door = build_door(config=config)
    network.fail_peer(0)
    # The root is dead before submission: the request payload is lost on
    # the wire and only the client-side deadline can terminate it.
    request_id = door.submit("acme", 3, 0.01, 0)
    door.run(sim.now + 5 * config.round_interval)
    record = door.outcome(request_id)
    assert record.status == REJECTED
    assert record.reason == "timeout"
    assert record.latency <= config.client_timeout + config.round_interval
    assert door.outstanding == 0


def small_door(seed):
    """A front door over the plain (unhardened) small system."""
    system = build_small_system(seed=seed)
    door = FrontDoor(
        system.engine,
        NetFilterConfig(filter_size=60, num_filters=3, threshold_ratio=0.01),
    )
    return system, door


def drop(network, payload_kind, count):
    FaultInjector(
        network,
        FaultScenario(
            name=f"eat-{payload_kind}",
            actions=(
                DropMessages(match=MessageMatch(payload_kind=payload_kind), count=count),
            ),
        ),
    ).install()


def test_root_requester_commits_without_a_wire_hop():
    system, door = small_door(seed=6)
    # Every query payload on the wire would be eaten; the root's own
    # request must never be one.
    drop(system.network, "QueryRequestPayload", count=1000)
    request_id = door.submit("acme", system.hierarchy.root, 0.01)
    door.drain()
    record = door.outcome(request_id)
    assert record.status == COMMITTED
    assert record.items == oracle_frequent_items(system.network, record.threshold)
    assert system.sim.telemetry.registry.counter("faults.injected").value == 0


@pytest.mark.parametrize(
    ("payload_kind", "count"),
    [("QueryRequestPayload", 1), ("QueryAnswerPayload", 50)],
)
def test_lost_query_traffic_times_out_promptly(payload_kind, count):
    """A lost request (it never reaches the root) and a lost answer (the
    shared session ran, but nothing came back) both end as
    ``REJECTED(timeout)`` by the client deadline."""
    system, door = small_door(seed=6)
    drop(system.network, payload_kind, count)
    leaves = system.hierarchy.leaves()
    ids = [door.submit("acme", leaves[0], 0.01), door.submit("acme", leaves[1], 0.02)]
    door.drain()
    records = [door.outcome(request_id) for request_id in ids]
    config = door.config
    assert records[0].status == REJECTED
    assert records[0].reason == "timeout"
    assert records[0].latency <= config.client_timeout + config.round_interval
    if payload_kind == "QueryAnswerPayload":
        assert records[1].status == REJECTED and records[1].reason == "timeout"
    else:
        # Only the first request was eaten; the second one committed.
        assert records[1].status == COMMITTED
    assert system.sim.telemetry.registry.counter("faults.injected").value > 0


@pytest.mark.parametrize("ratio", [0.0, -0.01, 1.5])
def test_submit_rejects_ratio_outside_unit_interval(ratio):
    _, _, door = build_door()
    with pytest.raises(ProtocolError, match="threshold_ratio"):
        door.submit("acme", 3, ratio)
    assert door.records == {}


def test_submit_of_unknown_requester_changes_nothing():
    sim, _, door = build_door(n_peers=20)
    with pytest.raises(NetworkError, match="unknown peer 999"):
        door.submit("acme", 999, 0.01)
    assert door.records == {}
    assert door.outstanding == 0
    assert "frontdoor.submit" not in sim.telemetry.tracer.counters
    assert door.submit("acme", 3, 0.01) == 0
    door.drain()
    assert door.status_counts() == {COMMITTED: 1, DEGRADED: 0, REJECTED: 0}


def build_monitored_door(seed=3):
    """A 12-peer system whose front door is fed by a standing monitor at
    the default epoch (240 s) and round (30 s) intervals."""
    sim = Simulation(seed=seed)
    topology = Topology.random_connected(12, 4.0, sim.rng.stream("topology"))
    network = Network(
        sim, topology, transport_config=TransportConfig(latency=1.0, latency_jitter=0.3)
    )
    workload = Workload.zipf(
        n_items=300, n_peers=12, skew=1.0, rng=sim.rng.stream("workload")
    )
    network.assign_items(workload.item_sets)
    hierarchy = Hierarchy.build(network, root=0)
    engine = AggregationEngine(hierarchy, child_timeout=30.0, hardened=True)
    service = MonitorService(ContinuousNetFilter(FILTER, engine), ServiceConfig())
    door = FrontDoor(engine, FILTER, FrontDoorConfig(), monitor=service)
    return sim, network, service, door


def test_monitor_feed_fills_the_cache():
    sim, _, service, door = build_monitored_door()
    service.run(1)
    # The committed epoch reached the cache through the subscription;
    # a staleness-tolerant request is now served without any session.
    assert door.cache.entry("monitor") is not None
    request_id = door.submit("acme", 3, 0.02, 4)
    door.run(sim.now + door.config.round_interval)
    record = door.outcome(request_id)
    assert record.status in (COMMITTED, DEGRADED)
    assert sum(1 for row in door.round_rows if row["batched"]) == 0


def test_degraded_monitor_epoch_never_makes_the_cached_answer_younger():
    sim, network, service, door = build_monitored_door()
    service.run(1)
    deposit_round = door.cache.entry("monitor").round_no
    door.run(sim.now + 7 * door.config.round_interval)
    network.fail_peer(0)
    (outcome,) = service.run(1)
    assert not outcome.committed and outcome.answer.staleness_epochs == 1
    current = door.round_rows[-1]["round"]
    hit = door.cache.lookup(0.05, max_staleness=100, current_round=current)
    assert hit is not None
    assert hit.staleness >= current - deposit_round == 6
    # Nor below the monitor's own bound: one 240 s epoch is 8 rounds.
    assert hit.staleness >= 8
    # A tenant tolerating 4 rounds must not get data this old.
    assert door.cache.lookup(0.05, max_staleness=4, current_round=current) is None


def test_first_monitor_deposit_converts_epochs_to_rounds():
    # The door first hears of the monitor on a degraded epoch: the epoch
    # bound converts to rounds, rounded up (240 s epochs, 30 s rounds).
    _, network, service, door = build_monitored_door()
    service.run(1)
    door.cache = AnswerCache()
    network.fail_peer(0)
    service.run(1)
    entry = door.cache.entry("monitor")
    assert entry is not None and entry.base_staleness == 8


def test_every_request_terminates_under_mixed_load():
    sim, network, door = build_door(
        config=FrontDoorConfig(
            round_interval=30.0,
            session_deadline=25.0,
            client_timeout=120.0,
            max_queue_depth=16,
            max_batch=8,
        ),
        policies={"tight": TenantPolicy(rate=0.05, burst=2.0)},
    )
    arrivals = sim.rng.stream("test.arrivals")
    ids = []
    for k in range(8):
        tenant = ("tight", "roomy")[k % 2]
        for _ in range(6):
            requester = 1 + int(arrivals.integers(door.network.n_peers - 1))
            ratio = (0.01, 0.02, 0.05)[int(arrivals.integers(3))]
            ids.append(door.submit(tenant, requester, ratio, int(arrivals.integers(3))))
        if k == 4:
            network.fail_peer(0)
        if k == 6:
            network.revive_peer(0)
        door.run(sim.now + door.config.round_interval)
    door.drain()
    statuses = {door.outcome(request_id).status for request_id in ids}
    assert all(door.outcome(i).terminal for i in ids)
    assert statuses <= {COMMITTED, DEGRADED, REJECTED}
    counts = door.status_counts()
    assert counts[COMMITTED] + counts[DEGRADED] + counts[REJECTED] == len(ids)
    assert counts[COMMITTED] > 0
    assert counts[REJECTED] > 0
