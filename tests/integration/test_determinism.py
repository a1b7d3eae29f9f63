"""End-to-end determinism: identical seeds replay identical universes.

Reproducibility is the reason every random draw in the library flows
through named, seed-derived streams.  These tests re-run whole scenarios
twice and require byte-identical outcomes — results, costs, trace
counters, even the churn schedule.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import NetFilterConfig
from repro.core.netfilter import NetFilter
from repro.net.churn import ChurnConfig, ChurnProcess

from tests.conftest import build_small_system


def run_scenario(seed: int):
    system = build_small_system(seed=seed)
    config = NetFilterConfig(filter_size=70, num_filters=3, threshold_ratio=0.01)
    result = NetFilter(config).run(system.engine)
    return system, result


def test_identical_seeds_identical_results():
    _, first = run_scenario(seed=123)
    _, second = run_scenario(seed=123)
    assert first.frequent == second.frequent
    assert first.candidates == second.candidates
    assert first.threshold == second.threshold
    assert first.breakdown.total == second.breakdown.total
    assert first.elapsed_time == second.elapsed_time


def test_identical_seeds_identical_byte_accounting():
    system_a, _ = run_scenario(seed=5)
    system_b, _ = run_scenario(seed=5)
    assert (
        system_a.network.accounting.bytes_by_category()
        == system_b.network.accounting.bytes_by_category()
    )
    assert (
        system_a.network.accounting.per_peer_bytes()
        == system_b.network.accounting.per_peer_bytes()
    )


def test_different_seeds_differ_somewhere():
    _, first = run_scenario(seed=1)
    _, second = run_scenario(seed=2)
    # Different workloads: the frequent values cannot coincide exactly.
    assert (
        first.frequent != second.frequent
        or first.breakdown.total != second.breakdown.total
    )


def test_churn_schedule_replays_exactly():
    def churn_run(seed: int) -> tuple[int, list[int]]:
        system = build_small_system(seed=seed)
        process = ChurnProcess(
            system.sim,
            system.network,
            ChurnConfig(failure_rate=0.05, mean_downtime=20.0),
        )
        process.start()
        system.sim.run(until=system.sim.now + 500.0)
        process.stop()
        return process.failures, sorted(system.network.live_peers())

    assert churn_run(9) == churn_run(9)


def test_trace_counters_replay_exactly():
    system_a, _ = run_scenario(seed=77)
    system_b, _ = run_scenario(seed=77)
    assert system_a.sim.trace.counters == system_b.sim.trace.counters


def test_gossip_replays_exactly():
    from repro.vec.gossip import Overlay, estimate_at, push_sum

    def gossip_run(seed: int) -> tuple[np.ndarray, tuple[int, int]]:
        system = build_small_system(seed=seed, n_peers=30, n_items=500)
        overlay = Overlay.from_network(system.network)
        mass = np.array([[float(peer), 1.0] for peer in range(30)])
        weight = np.ones(30)
        sent = push_sum(overlay, mass, weight, 20, system.sim.rng.stream("gossip"))
        return estimate_at(overlay, mass, weight, 0), sent

    (first, first_sent), (second, second_sent) = gossip_run(3), gossip_run(3)
    assert np.array_equal(first, second)
    assert first_sent == second_sent
