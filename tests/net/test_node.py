"""Unit tests for the node runtime: handlers, lifecycle, neighbours."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import NetworkError
from repro.items.itemset import LocalItemSet
from repro.net.message import Payload
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.net.wire import CostCategory, SizeModel
from repro.sim.engine import Simulation


@dataclass(frozen=True)
class Ping(Payload):  # repro-lint: disable=PROTO001
    # Test-local payload; intentionally outside the wire codec.
    category = CostCategory.CONTROL

    def body_bytes(self, model: SizeModel) -> int:
        return 1


@pytest.fixture
def network() -> Network:
    return Network(Simulation(seed=0), Topology.star(4))


def test_duplicate_handler_rejected(network):
    node = network.node(1)
    node.register_handler(Ping, lambda m: None)
    with pytest.raises(NetworkError):
        node.register_handler(Ping, lambda m: None)


def test_neighbors_exclude_dead_peers(network):
    assert sorted(network.node(0).neighbors) == [1, 2, 3]
    network.fail_peer(2)
    assert sorted(network.node(0).neighbors) == [1, 3]


def test_fail_runs_hooks_once(network):
    node = network.node(1)
    calls = []
    node.on_failure(lambda: calls.append(1))
    node.fail()
    node.fail()
    assert calls == [1]


def test_fail_clears_handlers_for_fresh_revival(network):
    node = network.node(1)
    node.register_handler(Ping, lambda m: None)
    node.fail()
    node.revive()
    node.register_handler(Ping, lambda m: None)  # no duplicate error


def test_dead_node_does_not_dispatch(network):
    received = []
    node = network.node(1)
    node.register_handler(Ping, received.append)
    network.node(0).send(1, Ping())
    network.fail_peer(1)
    network.sim.run()
    assert received == []


def test_default_item_set_is_empty(network):
    assert network.node(2).items == LocalItemSet.empty()


def test_revive_notifies_join_listeners(network):
    joined = []
    network.on_join(joined.append)
    network.fail_peer(3)
    network.revive_peer(3)
    assert joined == [3]
    network.revive_peer(3)  # already alive: no duplicate notification
    assert joined == [3]


def test_unknown_peer_rejected(network):
    with pytest.raises(NetworkError):
        network.node(99)


def test_grand_total_counts_live_peers_only(network):
    network.node(0).items = LocalItemSet.from_pairs({1: 5})
    network.node(1).items = LocalItemSet.from_pairs({1: 7})
    assert network.grand_total_value() == 12
    network.fail_peer(1)
    assert network.grand_total_value() == 5


def test_assign_items_accepts_iterable_and_mapping(network):
    network.assign_items([LocalItemSet.from_pairs({1: 1})])
    assert network.node(0).items.value_of(1) == 1
    network.assign_items({2: LocalItemSet.from_pairs({9: 4})})
    assert network.node(2).items.value_of(9) == 4
