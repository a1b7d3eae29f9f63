"""Fault-DSL interactions with the standing monitor (ISSUE-8 satellite).

Two mid-epoch incidents against the full maintained+hardened service
stack, each checked for *exactness of every committed epoch* against an
independent faded-ledger mirror folded on the monitor's own commit
hook — a wrong delta, a double-counted resync, or a commit over a stale
membership all surface as a value mismatch:

* a gray failure (``SuspendPeer``) silencing an interior peer while its
  subtree's deltas are in flight, healing within the epoch window;
* a crash (``CrashPeer``) of a delta-carrying interior peer mid
  convergecast, with a later ``RevivePeer`` — the epoch must commit
  exactly over the survivors, and the revived peer must fold back in
  exactly once re-adopted.
"""

from __future__ import annotations

import numpy as np

from repro.aggregation.hierarchical import AggregationEngine
from repro.core.config import NetFilterConfig
from repro.core.continuous import ContinuousNetFilter
from repro.faults import (
    CrashPeer,
    FaultInjector,
    FaultScenario,
    RevivePeer,
    SuspendPeer,
)
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

from tests.core.test_continuous_decay import FadedMirror

N_PEERS = 14
FACTOR = 0.8


def make_stack(seed: int):
    sim = Simulation(seed=seed)
    topology = Topology.random_connected(N_PEERS, 4.0, sim.rng.stream("topology"))
    network = Network(sim, topology, reliability=ReliabilityConfig())
    workload = Workload.zipf(
        n_items=300, n_peers=N_PEERS, skew=1.0, rng=sim.rng.stream("workload")
    )
    network.assign_items(workload.item_sets)
    hierarchy = Hierarchy.build(network, root=0)
    enable_maintenance(
        hierarchy, HeartbeatConfig(interval=5.0, timeout=16.0, jitter=0.5)
    )
    engine = AggregationEngine(hierarchy, child_timeout=30.0, hardened=True)
    monitor = ContinuousNetFilter(
        NetFilterConfig(filter_size=60, num_filters=2, threshold_ratio=0.01),
        engine,
        fading=FACTOR,
    )
    service = MonitorService(
        monitor,
        ServiceConfig(
            epoch_interval=120.0, deadline=100.0, max_attempts=3, retry_backoff=10.0
        ),
    )
    mirror = FadedMirror(network, FACTOR)
    commits: list[tuple[int, tuple[int, ...]]] = []

    def checked(report, participants) -> None:
        commits.append((report.epoch, tuple(sorted(participants))))
        mirror.assert_matches(report, participants)

    monitor.on_commit(checked)
    stream = ZipfStream(300, N_PEERS, 1.0, 400, sim.rng.stream("stream"))

    def before_epoch(epoch: int) -> None:
        del epoch
        for peer, increment in sorted(stream.next_epoch().items()):
            node = network.nodes[peer]
            if not node.alive:
                continue  # arrivals at a down peer are lost, as in the soak
            node.items = node.items.merge(increment)
            mirror.arrive(peer, increment)

    return sim, network, hierarchy, service, before_epoch, commits


def an_interior(hierarchy) -> int:
    """A non-root peer that forwards its subtree's deltas upward."""
    interiors = [
        peer for peer in sorted(hierarchy.services)
        if peer != 0 and hierarchy.children_of(peer)
    ]
    assert interiors, "topology has no interior non-root peer"
    return interiors[0]


def test_suspend_and_heal_mid_epoch_keeps_commits_exact():
    sim, network, hierarchy, service, before_epoch, commits = make_stack(seed=7)
    victim = an_interior(hierarchy)
    # Silence the interior peer 2s into epoch 2's attempt, while its
    # subtree's phase-1 deltas are being forwarded through it; the window
    # (25s) ends well inside the 100s deadline, so a retry can commit.
    start = sim.now + 2 * 120.0 + 2.0
    FaultInjector(
        network,
        FaultScenario(
            name="suspend-interior-mid-epoch",
            actions=(SuspendPeer(peer=victim, start=start, duration=25.0),),
        ),
    ).install()
    outcomes = service.run(epochs=4, before_epoch=before_epoch)
    # Every commit was checked exact by the mirror hook; the incident
    # epoch itself must have healed within its own window (the suspended
    # peer never left the live set, so nothing may commit without it).
    assert all(outcome.committed for outcome in outcomes)
    # The incident bit: the epoch rode retransmissions (or a retry)
    # through the silence, so it took materially longer than its calm
    # predecessor — but still committed inside its own window.
    incident = outcomes[2].report.result.elapsed_time
    calm = outcomes[1].report.result.elapsed_time
    assert incident > calm + 20.0
    for epoch, participants in commits:
        assert victim in participants, (epoch, participants)


def test_crash_of_delta_carrying_interior_then_revival_stays_exact():
    sim, network, hierarchy, service, before_epoch, commits = make_stack(seed=9)
    victim = an_interior(hierarchy)
    base = sim.now
    # Crash 2s into epoch 2's attempt — the convergecast through the
    # victim is in flight — and revive early in epoch 3's window so
    # maintenance re-adopts it before epoch 4.
    FaultInjector(
        network,
        FaultScenario(
            name="crash-interior-mid-delta",
            actions=(
                CrashPeer(peer=victim, at=base + 2 * 120.0 + 2.0),
                RevivePeer(peer=victim, at=base + 3 * 120.0 + 5.0),
            ),
        ),
    ).install()
    outcomes = service.run(epochs=5, before_epoch=before_epoch)
    by_epoch = {epoch: participants for epoch, participants in commits}
    # Epoch 2 must not block on the corpse: committed (exactly, over the
    # survivors) or honestly degraded — and the next committed epoch
    # after the crash excludes the victim.
    after_crash = min(epoch for epoch in by_epoch if epoch >= 2)
    assert victim not in by_epoch[after_crash]
    assert len(by_epoch[after_crash]) == N_PEERS - 1
    # Once revived and re-adopted, the victim folds back in exactly
    # (ledger intact across the crash, fresh deltas relative to it).
    assert outcomes[4].committed
    assert victim in by_epoch[4]
    # The mirror hook verified values; spot-check the commit log shape.
    assert sorted(by_epoch) == [epoch for epoch, _ in sorted(commits)]
    assert np.all(np.diff([epoch for epoch, _ in commits]) > 0)
