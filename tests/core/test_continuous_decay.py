"""Time-decay semantics of continuous monitoring: exponential fading,
sliding windows, the dense-fallback cost crossover, and delta resync."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregation.hierarchical import AggregationEngine
from repro.core.config import NetFilterConfig
from repro.core.continuous import (
    DENSE,
    SPARSE,
    ContinuousNetFilter,
    sparse_cheaper_than_dense,
)
from repro.core.decay import DecayConfig
from repro.hierarchy.builder import Hierarchy
from repro.hierarchy.maintenance import enable_maintenance
from repro.items.itemset import FadedItemSet, LocalItemSet
from repro.net.heartbeat import HeartbeatConfig
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.net.transport import ReliabilityConfig
from repro.sim.engine import Simulation
from repro.workload.streams import ZipfStream
from repro.workload.workload import Workload

from tests.conftest import build_small_system


def make_decayed(
    seed: int = 0,
    factor: float = 0.8,
    mode: str = "exponential",
    window: int = 0,
    n_peers: int = 20,
    n_items: int = 600,
):
    system = build_small_system(seed=seed, n_peers=n_peers, n_items=n_items)
    config = NetFilterConfig(filter_size=50, num_filters=2, threshold_ratio=0.01)
    decay = DecayConfig(mode=mode, factor=factor, window=window)
    monitor = ContinuousNetFilter(config, system.engine, decay=decay)
    stream = ZipfStream(
        n_items, n_peers, 1.0, 800, system.sim.rng.stream("stream")
    )
    return system, monitor, stream


class FadedMirror:
    """Independent replay of the root's faded fold: per-peer ledgers
    updated only at commits, restricted to each commit's participants."""

    def __init__(self, network, factor: float):
        self.factor = factor
        self.pending = {
            peer: network.node(peer).items for peer in sorted(network.nodes)
        }
        self.state: dict[int, tuple[int, FadedItemSet]] = {}

    def arrive(self, peer: int, increment: LocalItemSet) -> None:
        self.pending[peer] = self.pending[peer].merge(increment)

    def commit(self, epoch: int, participants) -> FadedItemSet:
        for peer in sorted(participants):
            fresh = self.pending.pop(peer, LocalItemSet.empty())
            entry = self.state.get(peer)
            if entry is None:
                value = FadedItemSet.from_integer(fresh)
            else:
                base, faded = entry
                value = faded.scaled(self.factor ** (epoch - base)).merge(fresh)
            self.state[peer] = (epoch, value)
            self.pending[peer] = LocalItemSet.empty()
        return FadedItemSet.merge_faded(
            self.state[peer][1] for peer in sorted(participants)
        )

    def assert_matches(self, report, participants) -> None:
        expected = self.commit(report.epoch, participants)
        got = report.result.frequent
        want = expected.restrict_to(np.asarray(got.ids))
        assert np.array_equal(want.ids, got.ids)
        assert np.allclose(want.values, got.values, rtol=1e-9, atol=0.0)


def test_exponential_epochs_match_faded_oracle():
    system, monitor, stream = make_decayed(factor=0.8)
    mirror = FadedMirror(system.network, 0.8)
    participants = tuple(system.network.live_peers())
    for _ in range(4):
        for peer, increment in sorted(stream.next_epoch().items()):
            system.network.node(peer).items = (
                system.network.node(peer).items.merge(increment)
            )
            mirror.arrive(peer, increment)
        report = monitor.run_epoch()
        mirror.assert_matches(report, participants)
        # The threshold is resolved against the *faded* grand total.
        assert report.result.threshold == pytest.approx(
            max(0.01 * report.faded_total, 1.0)
        )


def test_exponential_fading_forgets_a_flash_crowd():
    system, monitor, stream = make_decayed(factor=0.5, n_items=400)
    flash_item = 399  # a tail item nothing else hits hard
    node = system.network.node(3)
    node.items = node.items.merge(LocalItemSet.from_pairs({flash_item: 5000}))
    report = monitor.run_epoch()
    assert flash_item in report.result.frequent.ids
    # Quiet epochs: the flash mass halves per epoch while the rest of the
    # distribution keeps arriving, so the item must fade back out — even
    # though its cumulative (undecayed) count stays dominant forever.
    for _ in range(10):
        for peer, increment in sorted(stream.next_epoch().items()):
            system.network.node(peer).items = (
                system.network.node(peer).items.merge(increment)
            )
        report = monitor.run_epoch()
    assert flash_item not in report.result.frequent.ids


def test_window_mode_expires_old_epochs_exactly():
    system, monitor, stream = make_decayed(mode="window", factor=0.8, window=2)
    flash_item = 599
    node = system.network.node(5)
    node.items = node.items.merge(LocalItemSet.from_pairs({flash_item: 4000}))
    reports = []
    for _ in range(5):
        reports.append(monitor.run_epoch())
        for peer, increment in sorted(stream.next_epoch().items()):
            system.network.node(peer).items = (
                system.network.node(peer).items.merge(increment)
            )
    # In-window at epochs 0-2 (window=2 keeps epochs > e-2), expired after.
    assert flash_item in reports[0].result.frequent.ids
    assert flash_item not in reports[-1].result.frequent.ids
    # Window counts are integer-exact (no float fading enters the sum).
    for report in reports:
        values = report.result.frequent.values
        assert np.array_equal(values, values.astype(np.int64))


def test_cost_crossover_predicate_pins_the_break_even():
    system = build_small_system(seed=0, n_peers=10, n_items=200)
    model = system.network.size_model
    groups, participants = 100, 10
    dense_entries = groups * (participants - 1)
    break_even = model.aggregate_bytes * dense_entries
    per_pair = model.aggregate_bytes + model.group_id_bytes
    below = break_even // per_pair
    assert sparse_cheaper_than_dense(below - 1, participants, groups, model)
    assert not sparse_cheaper_than_dense(below + 1, participants, groups, model)
    # Degenerate single-peer population: dense costs nothing, sparse never wins.
    assert not sparse_cheaper_than_dense(0, 1, groups, model)


def test_heavy_change_epoch_falls_back_to_dense():
    # Quiet epochs ride sparse deltas; an epoch that touches nearly every
    # group flips the crossover so the *next* epoch re-ships dense.
    system, monitor, stream = make_decayed(factor=0.9, n_items=600)
    first = monitor.run_epoch()
    assert first.mode == DENSE  # epoch 0 is always a dense baseline
    stream.instances_per_epoch = 40  # quiet: few changed groups
    for peer, increment in sorted(stream.next_epoch().items()):
        system.network.node(peer).items = (
            system.network.node(peer).items.merge(increment)
        )
    # The mode is predicted from the *previous committed* epoch's change
    # volume, so the epoch right after the heavy baseline still ships
    # dense; the first quiet commit flips the prediction.
    monitor.run_epoch()
    for peer, increment in sorted(stream.next_epoch().items()):
        system.network.node(peer).items = (
            system.network.node(peer).items.merge(increment)
        )
    quiet = monitor.run_epoch()
    assert quiet.mode == SPARSE
    assert quiet.filtering_savings > 0
    # Heavy churn: every peer touches most groups.
    stream.instances_per_epoch = 30_000
    for peer, increment in sorted(stream.next_epoch().items()):
        system.network.node(peer).items = (
            system.network.node(peer).items.merge(increment)
        )
    heavy = monitor.run_epoch()
    assert heavy.mode == SPARSE  # decided before the damage was known
    assert heavy.filtering_savings < 0  # the documented 2x penalty
    follow_up = monitor.run_epoch()
    assert follow_up.mode == DENSE  # the crossover reacted


def test_filtering_savings_baseline_is_current_dense_cost():
    # The savings denominator must be what a dense phase 1 would cost
    # over *this epoch's participants* — not the full seed population.
    sim = Simulation(seed=2)
    topology = Topology.random_connected(16, 4.0, sim.rng.stream("topology"))
    network = Network(sim, topology, reliability=ReliabilityConfig())
    workload = Workload.zipf(
        n_items=400, n_peers=16, skew=1.0, rng=sim.rng.stream("workload")
    )
    network.assign_items(workload.item_sets)
    hierarchy = Hierarchy.build(network, root=0)
    enable_maintenance(
        hierarchy, HeartbeatConfig(interval=5.0, timeout=16.0, jitter=0.5)
    )
    engine = AggregationEngine(hierarchy, child_timeout=30.0, hardened=True)
    monitor = ContinuousNetFilter(
        NetFilterConfig(filter_size=40, num_filters=2, threshold_ratio=0.01),
        engine,
        decay=DecayConfig(mode="exponential", factor=0.9),
    )
    model = network.size_model
    full = monitor.run_epoch()
    assert full.result.n_participants == 16
    assert full.dense_equivalent_bytes == pytest.approx(
        model.aggregate_bytes * monitor.bank.total_groups * 15 / 16
    )
    # A leaf leaves; the honest dense baseline shrinks with it.
    leaf = max(
        peer for peer in sorted(hierarchy.services)
        if peer != 0 and not hierarchy.children_of(peer)
    )
    network.fail_peer(leaf)
    sim.run(until=sim.now + 60.0)
    shrunk = monitor.run_epoch()
    survivors = shrunk.result.n_participants
    assert survivors < 16
    assert shrunk.dense_equivalent_bytes == pytest.approx(
        model.aggregate_bytes * monitor.bank.total_groups * (survivors - 1) / 16
    )
    assert shrunk.filtering_savings == pytest.approx(
        1.0 - shrunk.result.breakdown.filtering / shrunk.dense_equivalent_bytes
    )


def test_resync_after_dense_rebaseline_while_down():
    """A peer that misses a dense re-baseline must re-ship its whole
    faded contribution — once, at its historical fading, not re-dated
    (the double-count regression)."""
    sim = Simulation(seed=4)
    topology = Topology.random_connected(14, 4.0, sim.rng.stream("topology"))
    network = Network(sim, topology, reliability=ReliabilityConfig())
    workload = Workload.zipf(
        n_items=300, n_peers=14, skew=1.0, rng=sim.rng.stream("workload")
    )
    network.assign_items(workload.item_sets)
    hierarchy = Hierarchy.build(network, root=0)
    enable_maintenance(
        hierarchy, HeartbeatConfig(interval=5.0, timeout=16.0, jitter=0.5)
    )
    engine = AggregationEngine(hierarchy, child_timeout=30.0, hardened=True)
    monitor = ContinuousNetFilter(
        NetFilterConfig(filter_size=30, num_filters=2, threshold_ratio=0.01),
        engine,
        decay=DecayConfig(mode="exponential", factor=0.7),
    )
    mirror = FadedMirror(network, 0.7)
    stream = ZipfStream(300, 14, 1.0, 500, sim.rng.stream("stream"))

    def advance():
        for peer, increment in sorted(stream.next_epoch().items()):
            node = network.nodes.get(peer)
            if node is None or not node.alive:
                continue
            node.items = node.items.merge(increment)
            mirror.arrive(peer, increment)

    def run_checked(expect_resyncs: int | None = None):
        report = monitor.run_epoch()
        participants = tuple(network.live_peers())
        mirror.assert_matches(report, participants)
        if expect_resyncs is not None:
            assert report.resyncs == expect_resyncs
        return report

    advance()
    run_checked(expect_resyncs=0)  # epoch 0: dense baseline
    advance()
    run_checked(expect_resyncs=0)  # epoch 1: sparse
    victim = max(
        peer for peer in sorted(hierarchy.services)
        if peer != 0 and not hierarchy.children_of(peer)
    )
    network.fail_peer(victim)
    sim.run(until=sim.now + 60.0)  # let maintenance drop the victim
    advance()
    monitor._dense_next = True  # force the re-baseline the victim misses
    rebaseline = run_checked(expect_resyncs=0)
    assert rebaseline.mode == DENSE
    network.revive_peer(victim)
    sim.run(until=sim.now + 60.0)  # let maintenance re-adopt it
    advance()
    revived = run_checked(expect_resyncs=1)
    assert victim in {peer for peer in network.live_peers()}
    assert revived.mode in (SPARSE, DENSE)
