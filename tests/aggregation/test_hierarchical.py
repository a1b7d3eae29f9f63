"""Tests for hierarchical aggregation sessions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.aggregation.combiners import (
    KeyedSumCombiner,
    ScalarSumCombiner,
    TupleCombiner,
    VectorSumCombiner,
)
from repro.aggregation.hierarchical import AggregationEngine
from repro.aggregation.spec import AggregateSpec
from repro.errors import AggregationError
from repro.hierarchy.builder import Hierarchy
from repro.items.itemset import LocalItemSet
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.net.transport import DELIVER
from repro.net.wire import CostCategory
from repro.sim.engine import Simulation


def make_engine(topology: Topology, seed: int = 0) -> AggregationEngine:
    sim = Simulation(seed=seed)
    network = Network(sim, topology)
    hierarchy = Hierarchy.build(network, root=0)
    return AggregationEngine(hierarchy)


def scalar_spec(name: str = "sum") -> AggregateSpec:
    return AggregateSpec(
        name=name,
        combiner=ScalarSumCombiner(),
        contribute=lambda node, _: node.peer_id,
        up_category=CostCategory.CONTROL,
    )


def test_scalar_sum_over_star():
    engine = make_engine(Topology.star(5))
    assert engine.run(scalar_spec()) == 0 + 1 + 2 + 3 + 4


def test_scalar_sum_over_line():
    engine = make_engine(Topology.line(7))
    assert engine.run(scalar_spec()) == sum(range(7))


def test_scalar_sum_over_random_graph():
    rng = np.random.default_rng(1)
    engine = make_engine(Topology.random_connected(90, 4.0, rng))
    assert engine.run(scalar_spec()) == sum(range(90))


def test_vector_sum():
    engine = make_engine(Topology.line(4))
    spec = AggregateSpec(
        name="vec",
        combiner=VectorSumCombiner(3),
        contribute=lambda node, _: np.array([1, node.peer_id, 0]),
        up_category=CostCategory.FILTERING,
    )
    assert engine.run(spec).tolist() == [4, 6, 0]


def test_keyed_sum_merges_item_sets():
    engine = make_engine(Topology.star(3))
    network = engine.network
    network.node(0).items = LocalItemSet.from_pairs({1: 1})
    network.node(1).items = LocalItemSet.from_pairs({1: 2, 5: 3})
    network.node(2).items = LocalItemSet.from_pairs({5: 4})
    spec = AggregateSpec(
        name="keyed",
        combiner=KeyedSumCombiner(),
        contribute=lambda node, _: node.items,
        up_category=CostCategory.NAIVE,
    )
    assert engine.run(spec).to_dict() == {1: 3, 5: 7}


def test_tuple_aggregation_combines_v_and_n():
    engine = make_engine(Topology.line(5))
    for peer in range(5):
        engine.network.node(peer).items = LocalItemSet.from_pairs({peer: 10})
    spec = AggregateSpec(
        name="totals",
        combiner=TupleCombiner(ScalarSumCombiner(), ScalarSumCombiner()),
        contribute=lambda node, _: (node.items.total_value, 1),
        up_category=CostCategory.CONTROL,
    )
    assert engine.run(spec) == (50, 5)


def test_request_data_reaches_every_contribution():
    engine = make_engine(Topology.line(4))
    spec = AggregateSpec(
        name="scaled",
        combiner=ScalarSumCombiner(),
        contribute=lambda node, factor: node.peer_id * factor,
        up_category=CostCategory.CONTROL,
    )
    assert engine.run(spec, request_data=10) == 60


def test_up_sweep_bytes_charged_to_spec_category():
    engine = make_engine(Topology.line(4))
    before = engine.network.accounting.total_bytes(CostCategory.FILTERING)
    spec = AggregateSpec(
        name="vec",
        combiner=VectorSumCombiner(10),
        contribute=lambda node, _: np.zeros(10, dtype=np.int64),
        up_category=CostCategory.FILTERING,
    )
    engine.run(spec)
    gained = engine.network.accounting.total_bytes(CostCategory.FILTERING) - before
    # 3 non-root peers each send a 10-element vector: 3 * 10 * 4 bytes.
    assert gained == 120


def test_request_bytes_charged_to_down_category():
    engine = make_engine(Topology.line(4))
    spec = AggregateSpec(
        name="heavy",
        combiner=ScalarSumCombiner(),
        contribute=lambda node, data: 0,
        up_category=CostCategory.AGGREGATION,
        down_category=CostCategory.DISSEMINATION,
        request_bytes=lambda data, model: 100,
    )
    engine.run(spec, request_data="payload")
    # 3 peers receive the request (root does not send to itself).
    assert engine.network.accounting.total_bytes(CostCategory.DISSEMINATION) == 300


def test_concurrent_sessions_do_not_interfere():
    engine = make_engine(Topology.line(6))
    handle_a = engine.start(scalar_spec("a"))
    handle_b = engine.start(
        AggregateSpec(
            name="b",
            combiner=ScalarSumCombiner(),
            contribute=lambda node, _: 1,
            up_category=CostCategory.CONTROL,
        )
    )
    engine.sim.run()
    assert handle_a.done and handle_b.done
    assert handle_a.value == sum(range(6))
    assert handle_b.value == 6


def test_quiescent_session_leaves_no_state():
    engine = make_engine(Topology.line(6))
    handle = engine.start(scalar_spec())
    assert engine.bounded_state()["AggregationEngine._open"] == 1
    engine.sim.run()
    assert handle.value == sum(range(6))
    assert set(engine.bounded_state().values()) == {0}


def test_copies_and_timers_of_a_closed_session_change_nothing():
    """Nothing of a session can still arrive once it is closed; replaying
    its request and replies and firing its child timeouts anyway touches
    no state and re-runs no contribution."""
    contributed = []
    spec = AggregateSpec(
        name="counted",
        combiner=ScalarSumCombiner(),
        contribute=lambda node, _: contributed.append(node.peer_id) or node.peer_id,
        up_category=CostCategory.CONTROL,
    )
    engine = make_engine(Topology.line(3))
    transport = engine.network.transport
    copies = []
    transport.set_fault_hook(lambda *copy: (copies.append(copy), (DELIVER, 0.0))[1])
    handle = engine.start(spec)
    engine.sim.run()
    transport.set_fault_hook(None)
    assert handle.value == 0 + 1 + 2
    assert len(copies) == 4  # two requests down, two replies up
    counters = engine.sim.trace.counters
    before = {kind: n for kind, n in counters.items() if kind.startswith("aggregation.")}
    for sender, recipient, payload in copies:
        engine.network.node(sender).send(recipient, payload)
    for service in engine._services.values():
        service._give_up_waiting(handle.session_id)
    engine.sim.run()
    assert sorted(contributed) == [0, 1, 2]
    assert handle.value == 0 + 1 + 2
    after = {kind: n for kind, n in counters.items() if kind.startswith("aggregation.")}
    assert after == before
    assert set(engine.bounded_state().values()) == {0}


def test_child_timeout_yields_partial_aggregate():
    engine = make_engine(Topology.line(5))
    engine.child_timeout = 50.0
    handle = engine.start(scalar_spec())
    # Fail peer 2 after it has received and forwarded the request but
    # before its subtree's replies return: peer 1 must time out and
    # forward what it has.
    engine.sim.schedule(3.5, engine.network.fail_peer, 2)
    engine.sim.run()
    assert handle.done
    assert handle.value == 0 + 1
    assert engine.sim.trace.counters["aggregation.child_timeout"] >= 1


def test_dead_children_at_session_start_are_skipped_without_timeout():
    engine = make_engine(Topology.line(5))
    engine.network.fail_peer(2)
    value = engine.run(scalar_spec())
    assert value == 0 + 1
    assert engine.sim.trace.counters["aggregation.child_timeout"] == 0


def test_start_with_dead_root_raises():
    engine = make_engine(Topology.line(3))
    engine.network.fail_peer(0)
    with pytest.raises(AggregationError):
        engine.start(scalar_spec())


def test_late_reply_after_timeout_is_ignored_without_double_merge():
    """Regression for the late-reply path: a child reply arriving after
    the parent's timeout fired must be dropped — no error, no second
    merge, no change to the already-forwarded value."""
    from repro.faults import DelayMessages, FaultInjector, FaultScenario, MessageMatch

    engine = make_engine(Topology.line(5))
    engine.child_timeout = 50.0
    # Delay peer 2's up-sweep reply to peer 1 far past every timeout.
    FaultInjector(
        engine.network,
        FaultScenario(
            name="late-reply",
            actions=(
                DelayMessages(
                    match=MessageMatch(
                        sender=2, recipient=1, payload_kind="AggReplyPayload"
                    ),
                    count=1,
                    extra_delay=500.0,
                ),
            ),
        ),
    ).install()
    handle = engine.start(scalar_spec())
    engine.sim.run()
    assert handle.done
    assert handle.value == 0 + 1  # partial merge at timeout...
    assert engine.sim.trace.counters["aggregation.child_timeout"] >= 1
    # ...and the late reply (delivered at ~t+500) changed nothing.
    assert handle.value == 0 + 1
    assert handle.covered == 2
    assert handle.expected == 5
    assert not handle.complete
    assert engine.sim.trace.counters["aggregation.incomplete"] == 1


def test_healthy_session_reports_full_coverage():
    engine = make_engine(Topology.line(6))
    handle = engine.run_session(scalar_spec())
    assert handle.covered == 6
    assert handle.expected == 6
    assert handle.coverage == 1.0
    assert handle.complete
    assert engine.sim.trace.counters.get("aggregation.incomplete", 0) == 0


def test_hardened_reprobe_recovers_a_lost_request():
    """A dropped down-sweep request is recovered by the one bounded
    re-probe: the session still completes with full coverage."""
    from repro.faults import DropMessages, FaultInjector, FaultScenario, MessageMatch

    def run(hardened: bool):
        sim = Simulation(seed=0)
        network = Network(sim, Topology.line(3))
        hierarchy = Hierarchy.build(network, root=0)
        engine = AggregationEngine(hierarchy, child_timeout=40.0, hardened=hardened)
        FaultInjector(
            network,
            FaultScenario(
                name="lost-request",
                actions=(
                    DropMessages(
                        match=MessageMatch(
                            sender=1, recipient=2, payload_kind="AggRequestPayload"
                        ),
                        count=1,
                    ),
                ),
            ),
        ).install()
        return engine, engine.run_session(scalar_spec())

    engine, handle = run(hardened=True)
    assert handle.value == 0 + 1 + 2
    assert handle.complete
    assert engine.sim.trace.counters["aggregation.reprobe"] == 1

    engine, handle = run(hardened=False)
    assert handle.value == 0 + 1  # the baseline loses the subtree
    assert not handle.complete


def test_hardened_reprobe_recovers_a_lost_reply():
    """When the reply (not the request) was lost, the re-probed child has
    already replied — it answers the duplicate request by re-sending its
    stored reply rather than ignoring it."""
    from repro.faults import DropMessages, FaultInjector, FaultScenario, MessageMatch

    sim = Simulation(seed=0)
    network = Network(sim, Topology.line(3))
    hierarchy = Hierarchy.build(network, root=0)
    engine = AggregationEngine(hierarchy, child_timeout=40.0, hardened=True)
    FaultInjector(
        network,
        FaultScenario(
            name="lost-reply",
            actions=(
                DropMessages(
                    match=MessageMatch(
                        sender=2, recipient=1, payload_kind="CoverageAggReplyPayload"
                    ),
                    count=1,
                ),
            ),
        ),
    ).install()
    handle = engine.run_session(scalar_spec())
    assert handle.value == 0 + 1 + 2
    assert handle.complete
    assert engine.sim.trace.counters["aggregation.reprobe"] == 1


def test_revived_peer_gets_service_and_participates():
    engine = make_engine(Topology.star(4))
    network = engine.network
    network.fail_peer(2)
    network.revive_peer(2)
    # Manually reattach (no maintenance service in this test).
    from repro.hierarchy.builder import HierarchyService

    service = HierarchyService(network.node(2))
    engine.hierarchy.services[2] = service
    service.attach_under(0, 1)
    engine.sim.run(until=engine.sim.now + 10)
    assert engine.run(scalar_spec()) == 0 + 1 + 2 + 3
