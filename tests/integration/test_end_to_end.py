"""End-to-end integration tests across all layers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregation.hierarchical import AggregationEngine
from repro.core.config import NetFilterConfig
from repro.core.naive import NaiveProtocol
from repro.core.netfilter import NetFilter
from repro.core.oracle import oracle_frequent_items
from repro.core.optimizer import derive_optimal_settings
from repro.core.sampling import ParameterEstimator, SamplingConfig
from repro.hierarchy.builder import Hierarchy
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.net.transport import TransportConfig
from repro.sim.engine import Simulation
from repro.workload.workload import Workload

from tests.conftest import build_small_system


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_exactness_across_seeds(seed):
    system = build_small_system(seed=seed)
    config = NetFilterConfig(filter_size=80, num_filters=3, threshold_ratio=0.01)
    result = NetFilter(config).run(system.engine)
    assert result.frequent == oracle_frequent_items(system.network, result.threshold)


@pytest.mark.parametrize("skew", [0.0, 0.5, 1.0, 2.0])
def test_exactness_across_skews(skew):
    system = build_small_system(seed=7, skew=skew)
    config = NetFilterConfig(filter_size=80, num_filters=3, threshold_ratio=0.01)
    result = NetFilter(config).run(system.engine)
    assert result.frequent == oracle_frequent_items(system.network, result.threshold)


def test_full_self_tuning_pipeline():
    """The paper's deployment story: estimate parameters in-network, derive
    (g, f) from the formulas, run netFilter — and still be exact."""
    system = build_small_system(seed=8, n_peers=80, n_items=4000)
    estimator = ParameterEstimator(system.engine, SamplingConfig(n_branches=5))
    estimates = estimator.run(threshold_ratio=0.01)
    settings = derive_optimal_settings(estimates, 0.01, system.network.size_model)
    config = NetFilterConfig(
        filter_size=settings.filter_size,
        num_filters=settings.num_filters,
        threshold_ratio=0.01,
    )
    result = NetFilter(config).run(system.engine)
    assert result.frequent == oracle_frequent_items(system.network, result.threshold)


def test_netfilter_cheaper_than_naive_at_default_workload():
    system = build_small_system(seed=9, n_peers=100, n_items=8000)
    config = NetFilterConfig(filter_size=100, num_filters=3, threshold_ratio=0.01)
    net_result = NetFilter(config).run(system.engine)
    naive_result = NaiveProtocol(config).run(system.engine)
    assert net_result.breakdown.total < 0.5 * naive_result.breakdown.naive


def test_no_bottleneck_at_root():
    """Section IV-A's claim: the root is not a hotspot — per-peer netFilter
    bytes at the root do not dominate the average."""
    system = build_small_system(seed=10, n_peers=100, n_items=8000)
    accounting = system.network.accounting
    from repro.net.wire import NETFILTER_CATEGORIES

    # Hierarchy construction charges CONTROL only, so the netFilter
    # categories read below count this run alone.
    assert accounting.total_bytes(*NETFILTER_CATEGORIES) == 0
    config = NetFilterConfig(filter_size=100, num_filters=3, threshold_ratio=0.01)
    NetFilter(config).run(system.engine)
    per_peer = accounting.per_peer_bytes(*NETFILTER_CATEGORIES)
    root_bytes = per_peer.get(system.hierarchy.root, 0)
    mean_bytes = sum(per_peer.values()) / system.network.n_peers
    # The root *sends* nothing in phase 1 (it is the sink), so its load is
    # dissemination only; it must be at most a few times the mean.
    assert root_bytes <= 3 * mean_bytes


def test_works_with_lossy_jittery_transport():
    sim = Simulation(seed=11)
    topology = Topology.random_connected(40, 4.0, sim.rng.stream("topology"))
    network = Network(
        sim,
        topology,
        transport_config=TransportConfig(latency=1.0, latency_jitter=0.5),
    )
    workload = Workload.zipf(1000, 40, 1.0, sim.rng.stream("workload"))
    network.assign_items(workload.item_sets)
    hierarchy = Hierarchy.build(network, root=0)
    engine = AggregationEngine(hierarchy)
    config = NetFilterConfig(filter_size=40, num_filters=2, threshold_ratio=0.01)
    result = NetFilter(config).run(engine)
    assert result.frequent == oracle_frequent_items(network, result.threshold)


def test_repeated_runs_share_one_hierarchy():
    """Section III-A.1: concurrent/repeated requests reuse the hierarchy;
    repeated runs must not degrade or accumulate state."""
    system = build_small_system(seed=12)
    results = [
        NetFilter(
            NetFilterConfig(filter_size=50, num_filters=2, threshold_ratio=ratio)
        ).run(system.engine)
        for ratio in (0.05, 0.01, 0.02, 0.01)
    ]
    assert results[1].frequent == results[3].frequent
    # Smaller ratio => superset of frequent items.
    assert np.isin(results[0].frequent.ids, results[1].frequent.ids).all()
