"""Tests for push-sum over keyed mass: a dense peers × keys matrix with
one initiator holding the weight (:mod:`repro.vec.gossip`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AggregationError
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.net.wire import SizeModel
from repro.sim.engine import Simulation
from repro.vec.gossip import Overlay, estimate_at, push_bytes, push_sum

N_KEYS = 20


def make(
    seed: int = 0, n_peers: int = 30
) -> tuple[Network, Overlay, np.ndarray, np.ndarray, np.ndarray]:
    """Each peer holds 5 of 20 keys; initiator is peer 0.  Returns the
    network, overlay, keyed mass, weight and the true per-key sums."""
    sim = Simulation(seed=seed)
    rng = np.random.default_rng(seed)
    network = Network(sim, Topology.random_connected(n_peers, 5.0, rng))
    mass = np.zeros((n_peers, N_KEYS))
    for peer in range(n_peers):
        keys = rng.choice(N_KEYS, size=5, replace=False)
        mass[peer, keys] = rng.integers(1, 50, size=5)
    weight = np.zeros(n_peers)
    weight[0] = 1.0
    return network, Overlay.from_network(network), mass, weight, mass.sum(axis=0)


def run(
    network: Network, overlay: Overlay, mass: np.ndarray, weight: np.ndarray, rounds: int
) -> int:
    """Keyed push-sum; returns its bytes, one ``(id, value)`` pair per key."""
    messages, pairs = push_sum(
        overlay, mass, weight, rounds, network.sim.rng.stream("gossip.keyed")
    )
    return push_bytes(SizeModel(), messages, pairs, SizeModel().pair_bytes)


def test_initiator_estimates_converge():
    network, overlay, mass, weight, truth = make()
    run(network, overlay, mass, weight, 80)
    estimates = estimate_at(overlay, mass, weight, 0)
    assert np.array_equal(estimates != 0, truth != 0)
    for key in np.flatnonzero(truth):
        assert estimates[key] == pytest.approx(truth[key], rel=0.05)


def test_mass_conservation():
    network, overlay, mass, weight, truth = make()
    run(network, overlay, mass, weight, 25)
    assert np.allclose(mass.sum(axis=0), truth, rtol=1e-9)
    assert weight.sum() == pytest.approx(1.0, rel=1e-12)


def test_zero_weight_peer_estimate_rejected_before_weight_spreads():
    _, overlay, mass, weight, _ = make()
    # Before any round, only the initiator holds weight.
    with pytest.raises(AggregationError):
        estimate_at(overlay, mass, weight, 5)


def test_bytes_charged_to_gossip():
    """One round: every peer holds 5 keys, so each of the 30 pushes is the
    weight plus 5 ``(id, value)`` pairs."""
    network, overlay, mass, weight, _ = make()
    assert run(network, overlay, mass, weight, 1) == 30 * (4 + 5 * 8)


def test_unknown_initiator_rejected():
    network = Network(Simulation(seed=0), Topology.star(4))
    network.fail_peer(2)
    overlay = Overlay.from_network(network)
    with pytest.raises(AggregationError):
        overlay.row(2)
    with pytest.raises(AggregationError):
        overlay.row(9)


def test_empty_contributions_still_converge_weight():
    network = Network(Simulation(seed=1), Topology.star(6))
    overlay = Overlay.from_network(network)
    mass = np.zeros((6, 1))
    mass[3, 0] = 42.0
    weight = np.zeros(6)
    weight[0] = 1.0
    run(network, overlay, mass, weight, 60)
    assert estimate_at(overlay, mass, weight, 0)[0] == pytest.approx(42.0, rel=0.05)


def test_peers_with_nothing_push_nothing():
    """Only peers holding mass or weight push: on a star with the weight
    at the centre and the only key at a leaf, round one is two messages."""
    network = Network(Simulation(seed=1), Topology.star(6))
    overlay = Overlay.from_network(network)
    mass = np.zeros((6, 1))
    mass[3, 0] = 42.0
    weight = np.zeros(6)
    weight[0] = 1.0
    # The centre's push is the bare weight; the leaf's carries one pair.
    assert run(network, overlay, mass, weight, 1) == 4 + (4 + 8)
