"""Tests for push-sum gossip over dense mass rows (:mod:`repro.vec.gossip`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import AggregationError
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.net.wire import SizeModel
from repro.sim.engine import Simulation
from repro.vec.gossip import Overlay, estimate_at, push_bytes, push_sum


def run_gossip(
    n_peers: int = 40,
    length: int = 4,
    rounds: int = 60,
    seed: int = 0,
) -> tuple[Overlay, np.ndarray, np.ndarray, np.ndarray, int]:
    """Uniform-weight push-sum over a random overlay: returns the overlay,
    the final mass and weight, the true sums and the messages sent."""
    sim = Simulation(seed=seed)
    rng = np.random.default_rng(seed)
    network = Network(sim, Topology.random_connected(n_peers, 5.0, rng))
    overlay = Overlay.from_network(network)
    contributions = rng.integers(0, 100, size=(n_peers, length)).astype(np.float64)
    mass = contributions.copy()
    weight = np.ones(n_peers)
    messages, _ = push_sum(overlay, mass, weight, rounds, sim.rng.stream("gossip"))
    return overlay, mass, weight, contributions.sum(axis=0), messages


def sum_estimates(overlay: Overlay, mass: np.ndarray, weight: np.ndarray) -> list[np.ndarray]:
    # Uniform weights: x/w is the average; scale by the peer count.
    return [
        estimate_at(overlay, mass, weight, int(peer)) * overlay.peers.size
        for peer in overlay.peers
    ]


def test_estimates_converge_to_true_sums():
    overlay, mass, weight, truth, _ = run_gossip(rounds=80)
    for estimate in sum_estimates(overlay, mass, weight):
        assert np.allclose(estimate, truth, rtol=0.02)


def test_mass_conservation_invariant():
    _, mass, weight, truth, _ = run_gossip(rounds=30)
    assert np.allclose(mass.sum(axis=0), truth, rtol=1e-9)
    assert weight.sum() == pytest.approx(40.0, rel=1e-12)


def test_more_rounds_reduce_error():
    def max_error(rounds: int) -> float:
        overlay, mass, weight, truth, _ = run_gossip(rounds=rounds, seed=5)
        return max(
            float(np.max(np.abs(estimate - truth) / np.maximum(truth, 1.0)))
            for estimate in sum_estimates(overlay, mass, weight)
        )

    assert max_error(60) < max_error(8)


def test_gossip_bytes_charged_to_gossip_category():
    """What callers report as ``CostBreakdown.gossip``: every live peer
    pushes once per round, ``(length + 1)·s_a`` each."""
    _, _, _, _, messages = run_gossip(rounds=10)
    assert messages == 10 * 40
    assert push_bytes(SizeModel(), messages, messages * 4, 4) == 10 * 40 * (4 + 1) * 4


def test_missing_contributions_default_to_zero():
    network = Network(Simulation(seed=0), Topology.star(5))
    overlay = Overlay.from_network(network)
    mass = np.zeros((5, 1))
    mass[0] = 10.0
    weight = np.ones(5)
    push_sum(overlay, mass, weight, 40, network.sim.rng.stream("gossip"))
    for estimate in sum_estimates(overlay, mass, weight):
        assert np.allclose(estimate, [10.0], rtol=0.05)


def test_two_peers_hold_the_average_after_one_round():
    """Each is the other's only neighbour: both keep half and receive
    half, so one round leaves the exact average at weight 1 apiece."""
    network = Network(Simulation(seed=0), Topology.line(2))
    overlay = Overlay.from_network(network)
    mass = np.array([[6.0, 2.0], [0.0, 4.0]])
    weight = np.ones(2)
    messages, values = push_sum(overlay, mass, weight, 1, network.sim.rng.stream("gossip"))
    assert mass.tolist() == [[3.0, 3.0], [3.0, 3.0]]
    assert weight.tolist() == [1.0, 1.0]
    assert (messages, values) == (2, 3)
    # Two messages of header 40 + (2 values + weight)·4.
    assert push_bytes(SizeModel(header_bytes=40), messages, 2 * 2, 4) == 2 * (40 + 3 * 4)


def test_wrong_contribution_shape_rejected():
    network = Network(Simulation(seed=0), Topology.star(3))
    overlay = Overlay.from_network(network)
    rng = network.sim.rng.stream("gossip")
    with pytest.raises(AggregationError):
        push_sum(overlay, np.zeros((2, 2)), np.ones(3), 1, rng)
    with pytest.raises(AggregationError):
        push_sum(overlay, np.zeros(3), np.ones(3), 1, rng)
    with pytest.raises(AggregationError):
        push_sum(overlay, np.zeros((3, 2)), np.ones(2), 1, rng)


def test_invalid_config_rejected():
    network = Network(Simulation(seed=0), Topology.star(3))
    with pytest.raises(AggregationError):
        push_sum(
            Overlay.from_network(network), np.zeros((3, 1)), np.ones(3), 0,
            network.sim.rng.stream("gossip"),
        )
