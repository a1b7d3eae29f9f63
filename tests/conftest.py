"""Shared fixtures: small, seeded simulated systems.

Most integration-level tests need the same scaffolding — a simulation, a
connected overlay, a workload, a built hierarchy and an aggregation
engine — so it is built once here, parameterized by seed where tests need
replication.
"""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.aggregation.hierarchical import AggregationEngine
from repro.hierarchy.builder import Hierarchy
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.net.wire import SizeModel
from repro.sim.engine import Simulation
from repro.workload.workload import Workload


@dataclass
class SmallSystem:
    """A ready-to-use simulated system for integration tests."""

    sim: Simulation
    network: Network
    hierarchy: Hierarchy
    engine: AggregationEngine
    workload: Workload


def build_small_system(
    seed: int = 0,
    n_peers: int = 60,
    n_items: int = 2000,
    skew: float = 1.0,
    mean_degree: float = 4.0,
    size_model: SizeModel | None = None,
) -> SmallSystem:
    """Assemble a small seeded system (used directly by parameterized
    tests that need several seeds)."""
    sim = Simulation(seed=seed)
    topology = Topology.random_connected(n_peers, mean_degree, sim.rng.stream("topology"))
    network = Network(sim, topology, size_model=size_model)
    workload = Workload.zipf(
        n_items=n_items, n_peers=n_peers, skew=skew, rng=sim.rng.stream("workload")
    )
    network.assign_items(workload.item_sets)
    hierarchy = Hierarchy.build(network, root=0)
    engine = AggregationEngine(hierarchy)
    return SmallSystem(
        sim=sim, network=network, hierarchy=hierarchy, engine=engine, workload=workload
    )


@pytest.fixture
def small_system() -> SmallSystem:
    """One deterministic small system (seed 0)."""
    return build_small_system(seed=0)


@pytest.fixture
def sim() -> Simulation:
    """A bare simulation."""
    return Simulation(seed=0)
