"""Micro-benchmarks of the hot paths.

These use pytest-benchmark properly (many rounds) to track the costs that
dominate large-scale runs: keyed merges, filter-bank hashing, hierarchy
construction and one full protocol round-trip.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import NetFilterConfig
from repro.core.filters import FilterBank
from repro.core.netfilter import NetFilter
from repro.experiments.harness import ExperimentScale, build_trial
from repro.items.itemset import LocalItemSet
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.hierarchy.builder import Hierarchy
from repro.sim.engine import Simulation


def make_item_sets(count: int, size: int, universe: int) -> list[LocalItemSet]:
    rng = np.random.default_rng(0)
    sets = []
    for _ in range(count):
        ids = rng.choice(universe, size=size, replace=False)
        values = rng.integers(1, 100, size=size)
        sets.append(LocalItemSet(np.sort(ids), values[np.argsort(ids)]))
    return sets


def test_itemset_merge_many(benchmark):
    sets = make_item_sets(count=50, size=1000, universe=100_000)
    merged = benchmark(LocalItemSet.merge_many, sets)
    assert merged.total_value == sum(s.total_value for s in sets)


# Per-peer sizes first: k = 25 and k = 1,000 are what one peer holds on the
# ``scalar_wide`` / ``scalar_paper`` workloads, where the event engine calls
# the bank once per peer per phase; the larger cells are batch-sized.
@pytest.mark.parametrize("size", [25, 1_000, 10_000])
def test_filter_bank_group_aggregates(benchmark, size):
    bank = FilterBank(num_filters=3, filter_size=100, hash_seed=0)
    items = make_item_sets(count=1, size=size, universe=1_000_000)[0]
    vector = benchmark(bank.local_group_aggregates, items)
    assert vector.shape == (300,)
    assert int(vector.sum()) == 3 * items.total_value


@pytest.mark.parametrize("size", [25, 1_000, 100_000])
def test_candidate_mask(benchmark, size):
    bank = FilterBank(num_filters=3, filter_size=100, hash_seed=0)
    ids = np.arange(size, dtype=np.int64)
    heavy = bank.heavy_lookup([np.arange(10) for _ in range(3)])
    mask = benchmark(bank.candidate_mask, ids, heavy)
    assert mask.shape == ids.shape


def test_hierarchy_build(benchmark):
    def build() -> int:
        sim = Simulation(seed=1)
        topology = Topology.random_connected(300, 4.0, sim.rng.stream("t"))
        network = Network(sim, topology)
        hierarchy = Hierarchy.build(network, root=0)
        return len(hierarchy.participants())

    assert benchmark(build) == 300


def test_full_netfilter_round(benchmark):
    trial = build_trial(ExperimentScale.small(), seed=0)
    config = NetFilterConfig(filter_size=100, num_filters=3, threshold_ratio=0.01)

    def run():
        return NetFilter(config).run(trial.engine)

    result = benchmark(run)
    assert len(result.frequent) > 0
