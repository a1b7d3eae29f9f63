"""The differential-equivalence gate: scalar engine vs vectorized tier.

Same seed, same population, two execution models — every result field
must agree *exactly*: frequent-item sets, candidate values, byte totals
per cost category, coverage/completeness, and the protocol clock.  This
is the contract that lets ``bench_scaling`` trust the vectorized numbers
at population sizes the event engine cannot reach.

Two directions are pinned:

* scalar-built population (the repo's own ``Topology.random_connected``
  + event-driven ``Hierarchy.build`` path at N=2,000) lowered into a
  :class:`PeerTable` via ``from_network``;
* vec-built population (:func:`build_table`) lifted into a full
  event-driven stack via ``materialize_population``.

A third class draws the cell instead of fixing it: random trees, random
static fault masks, header sizes and filter shapes at small N.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.hierarchical import AggregationEngine
from repro.core.config import NetFilterConfig
from repro.core.netfilter import NetFilter
from repro.hierarchy.builder import Hierarchy
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.net.wire import SizeModel
from repro.sim.engine import Simulation
from repro.vec import (
    PeerTable,
    VecNetFilter,
    build_table,
    compare_results,
    materialize_population,
    verify_sampled_subpopulation,
)

from repro.workload.workload import Workload

from tests.conftest import build_small_system

GATE_PEERS = 2_000

CONFIG = NetFilterConfig(filter_size=64, num_filters=2, threshold_ratio=0.01)


@pytest.fixture(scope="module")
def gate_system():
    return build_small_system(seed=1, n_peers=GATE_PEERS, n_items=2_000)


class TestScalarBuiltGate:
    """N=2,000 on the scalar construction path — the CI gate proper."""

    def test_identical_results_and_byte_totals(self, gate_system):
        scalar = NetFilter(CONFIG).run(gate_system.engine)
        table = PeerTable.from_network(gate_system.network, gate_system.hierarchy)
        vec = VecNetFilter(CONFIG).run(table)
        assert compare_results(scalar, vec) == ()
        assert scalar.frequent.to_dict() == vec.frequent.to_dict()

    def test_identical_protocol_clock(self, gate_system):
        scalar = NetFilter(CONFIG).run(gate_system.engine)
        table = PeerTable.from_network(gate_system.network, gate_system.hierarchy)
        vec = VecNetFilter(CONFIG).run(table)
        assert scalar.elapsed_time == vec.elapsed_time

    def test_static_faults(self):
        self.check_static_faults(header_bytes=0)

    def test_static_faults_with_message_headers(self):
        # A non-zero header (``ablations.py`` runs them) pins which
        # category every request and reply header is charged to.
        self.check_static_faults(header_bytes=16)

    @staticmethod
    def check_static_faults(header_bytes):
        system = build_small_system(
            seed=4, n_peers=400, n_items=1_000, size_model=SizeModel(header_bytes=header_bytes)
        )
        rng = np.random.default_rng(9)
        for peer in rng.choice(np.arange(1, 400), size=40, replace=False):
            system.network.fail_peer(int(peer))
        scalar = NetFilter(CONFIG).run(system.engine)
        table = PeerTable.from_network(system.network, system.hierarchy)
        vec = VecNetFilter(CONFIG).run(table)
        assert compare_results(scalar, vec) == ()
        assert vec.coverage == scalar.coverage
        assert vec.complete == scalar.complete
        assert scalar.elapsed_time == vec.elapsed_time


class TestVecBuiltGate:
    """vec-built population lifted through the escape hatch."""

    def test_materialized_population_agrees(self):
        table = build_table(n_peers=300, n_items=2_000, seed=6).table
        materialized = materialize_population(table)
        scalar = NetFilter(CONFIG).run(materialized.engine)
        vec = VecNetFilter(CONFIG).run(table)
        assert compare_results(scalar, vec) == ()

    def test_sampled_subpopulation_audit(self):
        table = build_table(n_peers=600, n_items=3_000, seed=13).table
        audit = verify_sampled_subpopulation(table, CONFIG, max_peers=250)
        audit.raise_on_mismatch()
        assert audit.match
        assert 2 <= audit.peers_sampled <= 250

    def test_sampled_audit_under_faults(self):
        table = build_table(n_peers=600, n_items=3_000, seed=14).table
        rng = np.random.default_rng(2)
        dead = rng.choice(np.arange(1, 600), size=50, replace=False)
        table.alive[dead] = False
        audit = verify_sampled_subpopulation(table, CONFIG, max_peers=250)
        audit.raise_on_mismatch()


@st.composite
def faulted_trees(draw):
    """``(parent of each non-root peer, dead peers)`` over 2..60 peers,
    rooted at peer 0, which stays up."""
    n_peers = draw(st.integers(2, 60))
    parents = [draw(st.integers(0, child - 1)) for child in range(1, n_peers)]
    dead = draw(st.sets(st.integers(1, n_peers - 1), max_size=n_peers // 2))
    return parents, sorted(dead)


def run_both(parents, dead, header_bytes, config, workload_seed):
    """The same faulted tree through the event engine and, lowered with
    ``from_network``, through the array executor."""
    n_peers = len(parents) + 1
    sim = Simulation(seed=0)
    edges = [(parent, child) for child, parent in enumerate(parents, start=1)]
    network = Network(
        sim, Topology.from_edges(n_peers, edges), size_model=SizeModel(header_bytes=header_bytes)
    )
    workload = Workload.zipf(
        n_items=200, n_peers=n_peers, skew=1.0, rng=np.random.default_rng(workload_seed)
    )
    network.assign_items(workload.item_sets)
    hierarchy = Hierarchy.build(network, root=0)
    for peer in dead:
        network.fail_peer(peer)
    scalar = NetFilter(config).run(AggregationEngine(hierarchy))
    vec = VecNetFilter(config).run(PeerTable.from_network(network, hierarchy))
    return scalar, vec


class TestGeneratedTrees:
    """vec ≡ scalar on drawn trees and static fault masks."""

    @settings(max_examples=50, deadline=None)
    @given(
        tree=faulted_trees(),
        header_bytes=st.sampled_from([0, 16]),
        num_filters=st.integers(1, 3),
        filter_size=st.integers(2, 48),
        workload_seed=st.integers(0, 2**16),
    )
    def test_identical_results_bytes_and_clock(
        self, tree, header_bytes, num_filters, filter_size, workload_seed
    ):
        config = NetFilterConfig(
            filter_size=filter_size, num_filters=num_filters, threshold_ratio=0.02
        )
        scalar, vec = run_both(*tree, header_bytes, config, workload_seed)
        assert compare_results(scalar, vec) == ()
        assert scalar.elapsed_time == vec.elapsed_time

    def test_dead_root_aborts_in_both(self):
        scalar, vec = run_both([0, 0, 1], [0], 16, CONFIG, 3)
        assert compare_results(scalar, vec) == ()
        assert scalar.elapsed_time == vec.elapsed_time == 0.0
        assert not vec.complete and vec.coverage == 0.0 and len(vec.frequent) == 0
        assert vec.breakdown.total == 0.0
