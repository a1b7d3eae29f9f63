"""The standing monitoring service: commit, degrade, escalate, serve.

These tests drive :class:`MonitorService` on a small maintained+hardened
system.  The degraded-path tests suspend a leaf for a whole epoch
deadline (gray failure: alive, receiving, silent) with a heartbeat
timeout too long to suspect it — the coverage gate, not the failure
detector, is what must refuse the commit.
"""

from __future__ import annotations

import pytest

from repro.aggregation.hierarchical import AggregationEngine
from repro.core.config import NetFilterConfig, carve_at_ratio
from repro.core.continuous import DENSE, SPARSE, ContinuousNetFilter
from repro.errors import ConfigurationError
from repro.faults import FaultInjector, FaultScenario, SuspendPeer
from repro.frontdoor import COMMITTED, DEGRADED, FrontDoor, FrontDoorConfig
from repro.hierarchy.builder import Hierarchy
from repro.hierarchy.maintenance import enable_maintenance
from repro.net.heartbeat import HeartbeatConfig
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.net.transport import ReliabilityConfig
from repro.service import MonitorService, ServiceConfig
from repro.sim.engine import Simulation
from repro.workload.streams import ZipfStream
from repro.workload.workload import Workload


def make_service(
    seed: int = 3,
    n_peers: int = 12,
    service_config: ServiceConfig | None = None,
):
    sim = Simulation(seed=seed)
    topology = Topology.random_connected(n_peers, 4.0, sim.rng.stream("topology"))
    network = Network(sim, topology, reliability=ReliabilityConfig())
    workload = Workload.zipf(
        n_items=300, n_peers=n_peers, skew=1.0, rng=sim.rng.stream("workload")
    )
    network.assign_items(workload.item_sets)
    hierarchy = Hierarchy.build(network, root=0)
    # Deliberately patient heartbeats: a suspended peer must stay in the
    # live set so only the coverage gate can refuse the epoch.
    enable_maintenance(
        hierarchy, HeartbeatConfig(interval=20.0, timeout=250.0, jitter=0.5)
    )
    engine = AggregationEngine(hierarchy, child_timeout=30.0, hardened=True)
    monitor = ContinuousNetFilter(
        NetFilterConfig(filter_size=120, num_filters=2, threshold_ratio=0.01),
        engine,
        fading=0.8,
    )
    service = MonitorService(
        monitor,
        service_config
        or ServiceConfig(
            epoch_interval=120.0, deadline=100.0, max_attempts=3, retry_backoff=10.0
        ),
    )
    stream = ZipfStream(300, n_peers, 1.0, 300, sim.rng.stream("stream"))

    def before_epoch(epoch: int) -> None:
        del epoch
        for peer, increment in sorted(stream.next_epoch().items()):
            node = network.nodes[peer]
            if node.alive:
                node.items = node.items.merge(increment)

    return sim, network, hierarchy, service, before_epoch


def a_leaf(hierarchy) -> int:
    return max(
        peer for peer in sorted(hierarchy.services)
        if peer != 0 and not hierarchy.children_of(peer)
    )


def test_healthy_epochs_commit_fresh_answers():
    sim, network, hierarchy, service, before_epoch = make_service()
    outcomes = service.run(epochs=4, before_epoch=before_epoch)
    assert [outcome.epoch for outcome in outcomes] == [0, 1, 2, 3]
    for outcome in outcomes:
        assert outcome.committed
        assert outcome.attempts == 1
        assert outcome.reason == ""
        assert outcome.report is not None
        answer = outcome.answer
        assert not answer.degraded
        assert answer.staleness_epochs == 0
        assert answer.committed_epoch == outcome.epoch
        assert len(answer.frequent) > 0
    # The standing answer is the newest commit.
    assert service.answer().committed_epoch == 3
    assert service.outcomes == outcomes


def test_answer_before_first_commit_is_honestly_empty():
    _, _, _, service, _ = make_service()
    answer = service.answer()
    assert answer.degraded
    assert answer.committed_epoch == -1
    assert len(answer.frequent) == 0
    assert answer.grand_total == 0.0


def _suspend_epoch(sim, hierarchy, network, epoch: int, config: ServiceConfig):
    """Silence a leaf across the whole of ``epoch``'s deadline window."""
    victim = a_leaf(hierarchy)
    start = sim.now + epoch * config.epoch_interval - 1.0
    scenario = FaultScenario(
        name=f"suspend-leaf-epoch-{epoch}",
        actions=(
            SuspendPeer(peer=victim, start=start, duration=config.deadline + 2.0),
        ),
    )
    FaultInjector(network, scenario).install()
    return victim


def test_degraded_epoch_serves_stale_answer_then_recovers():
    sim, network, hierarchy, service, before_epoch = make_service()
    _suspend_epoch(sim, hierarchy, network, epoch=3, config=service.config)
    outcomes = service.run(epochs=5, before_epoch=before_epoch)
    assert [outcome.committed for outcome in outcomes] == [
        True, True, True, False, True,
    ]
    degraded = outcomes[3]
    assert degraded.attempts >= 1
    assert degraded.reason in ("coverage", "deadline")
    # The service never blocks: the degraded epoch serves the previous
    # commit, honestly flagged.
    assert degraded.answer.degraded
    assert degraded.answer.committed_epoch == 2
    assert degraded.answer.staleness_epochs == 1
    assert len(degraded.answer.frequent) > 0
    # One degraded epoch stays under rebaseline_after=3: the recovery
    # commit rides the normal crossover (quiet stream -> sparse).
    recovered = outcomes[4]
    assert not recovered.answer.degraded
    assert recovered.answer.staleness_epochs == 0
    assert recovered.report is not None and recovered.report.mode == SPARSE


def test_consecutive_degradation_escalates_to_dense_rebaseline():
    config = ServiceConfig(
        epoch_interval=120.0,
        deadline=100.0,
        max_attempts=3,
        retry_backoff=10.0,
        rebaseline_after=1,
    )
    sim, network, hierarchy, service, before_epoch = make_service(
        service_config=config
    )
    _suspend_epoch(sim, hierarchy, network, epoch=3, config=config)
    outcomes = service.run(epochs=5, before_epoch=before_epoch)
    # Quiet epochs ship sparse before the incident ...
    assert outcomes[2].report is not None and outcomes[2].report.mode == SPARSE
    assert not outcomes[3].committed
    # ... so the dense recovery epoch is attributable to the escalation,
    # not to the cost crossover.
    recovered = outcomes[4]
    assert recovered.committed
    assert recovered.report is not None and recovered.report.mode == DENSE
    assert recovered.answer.staleness_epochs == 0


def test_remote_requester_gets_the_standing_answer_through_the_front_door():
    sim, network, hierarchy, service, before_epoch = make_service()
    config = service.config
    door = FrontDoor(
        service.engine, service.monitor.config, FrontDoorConfig(), monitor=service
    )
    start = sim.now
    victim = _suspend_epoch(sim, hierarchy, network, epoch=2, config=config)
    requester = next(
        peer for peer in reversed(hierarchy.leaves()) if peer != victim
    )

    def ask(ratio: float, max_staleness: int):
        request_id = door.submit("acme", requester, ratio, max_staleness)
        door.run(sim.now + door.config.round_interval)
        return door.outcome(request_id)

    def carved(ratio: float):
        answer = service.answer()
        return carve_at_ratio(answer.frequent, ratio, answer.grand_total)

    service.run(epochs=2, before_epoch=before_epoch)
    fresh = ask(0.02, max_staleness=0)
    assert fresh.status == COMMITTED and fresh.staleness == 0
    assert (fresh.items, fresh.threshold) == carved(0.02)
    assert fresh.grand_total == service.answer().grand_total
    deposit_round = door.cache.entry("monitor").round_no

    # Run the door up to epoch 2's slot; the suspended leaf degrades it.
    door.run(start + 2 * config.epoch_interval)
    (outcome,) = service.run(epochs=1, before_epoch=before_epoch)
    assert not outcome.committed and outcome.answer.committed_epoch == 1
    rounds_since_deposit = door.round_rows[-1]["round"] - deposit_round
    stale = ask(0.05, max_staleness=100)
    assert stale.status == DEGRADED
    assert stale.staleness >= rounds_since_deposit > 0
    assert (stale.items, stale.threshold) == carved(0.05)
    # Every answer came from the monitor's cache entry: no session ran.
    assert not any(row["batched"] for row in door.round_rows)


def test_service_config_validation():
    with pytest.raises(ConfigurationError):
        ServiceConfig(epoch_interval=0.0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(epoch_interval=100.0, deadline=150.0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(max_attempts=0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(retry_backoff=-1.0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(max_staleness=0)
    with pytest.raises(ConfigurationError):
        ServiceConfig(rebaseline_after=0)
