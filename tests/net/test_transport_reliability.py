"""Unit tests for the transport's ACK/retransmit reliability layer."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import NetworkError
from repro.net.message import Payload
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.net.transport import ReliabilityConfig, TransportConfig
from repro.net.wire import CostCategory, SizeModel
from repro.sim.engine import Simulation
from repro.sim.timers import backoff


@dataclass(frozen=True)
class Ping(Payload):  # repro-lint: disable=PROTO001
    """Test payload; intentionally unregistered."""

    seq: int = 0
    category = CostCategory.CONTROL

    def body_bytes(self, model: SizeModel) -> int:
        return 10


def make_network(
    seed: int = 0,
    loss: float = 0.0,
    reliability: ReliabilityConfig | None = None,
) -> Network:
    sim = Simulation(seed=seed)
    return Network(
        sim,
        Topology.line(3),
        transport_config=TransportConfig(latency=1.0, loss_probability=loss),
        reliability=reliability,
    )


def test_invalid_reliability_config_rejected():
    with pytest.raises(NetworkError):
        ReliabilityConfig(ack_timeout=0.0)
    with pytest.raises(NetworkError):
        ReliabilityConfig(max_retransmits=-1)


def test_lossy_link_delivers_every_message_exactly_once():
    """30% loss, reliable control traffic: each of 50 messages arrives
    exactly once — retransmits fill the gaps, dedup kills the copies."""
    network = make_network(seed=4, loss=0.3, reliability=ReliabilityConfig())
    received: list[int] = []
    network.node(1).register_handler(Ping, lambda m: received.append(m.payload.seq))
    for seq in range(50):
        network.node(0).send(1, Ping(seq=seq))
    network.sim.run()
    assert sorted(received) == list(range(50))
    registry = network.sim.telemetry.registry
    assert registry.counter("transport.retransmits").value > 0


def test_lost_ack_duplicate_suppressed():
    """Drop the first ACK specifically: the data is retransmitted, the
    receiver sees two copies, dispatches one."""
    from repro.faults import DropMessages, FaultInjector, FaultScenario, MessageMatch

    network = make_network(reliability=ReliabilityConfig(ack_timeout=6.0))
    FaultInjector(
        network,
        FaultScenario(
            name="ack-killer",
            actions=(
                DropMessages(
                    match=MessageMatch(payload_kind="TransportAckPayload"), count=1
                ),
            ),
        ),
    ).install()
    received = []
    network.node(1).register_handler(Ping, received.append)
    network.node(0).send(1, Ping())
    network.sim.run()
    assert len(received) == 1
    registry = network.sim.telemetry.registry
    assert registry.counter("transport.retransmits").value == 1
    assert registry.counter("transport.duplicates_suppressed").value == 1


def test_retransmits_give_up_after_budget():
    network = make_network(
        reliability=ReliabilityConfig(ack_timeout=2.0, max_retransmits=3)
    )
    network.fail_peer(1)
    network.node(0).send(1, Ping())
    network.sim.run()
    registry = network.sim.telemetry.registry
    assert registry.counter("transport.retransmits").value == 3
    assert registry.counter("transport.retransmit_exhausted").value == 1
    # 1 original + 3 retransmits, all charged.
    assert network.accounting.peer_bytes(0, CostCategory.CONTROL) == 4 * 10


def test_crashed_sender_stops_retransmitting():
    network = make_network(reliability=ReliabilityConfig(ack_timeout=2.0))
    network.fail_peer(1)  # recipient never acks
    network.node(0).send(1, Ping())
    network.sim.run(until=1.0)
    network.fail_peer(0)
    network.sim.run()
    assert network.sim.telemetry.registry.counter("transport.retransmits").value == 0


def test_excluded_kinds_and_categories_stay_fire_and_forget():
    reliability = ReliabilityConfig(
        categories=frozenset({CostCategory.FILTERING}), ack_timeout=2.0
    )
    network = make_network(reliability=reliability)
    received = []
    network.node(1).register_handler(Ping, received.append)
    network.node(0).send(1, Ping())  # CONTROL: not in the reliable set
    network.sim.run()
    assert len(received) == 1
    # No ACK came back: only the one Ping was ever charged.
    assert network.accounting.peer_bytes(1, CostCategory.CONTROL) == 0


def test_deterministic_backoff_schedule():
    """The one retry schedule doubles from its base, and the retransmit
    timer walks it exactly: copy k waits ``backoff(ack_timeout, k)``."""
    assert [backoff(50.0, k) for k in range(1, 6)] == [50.0, 100.0, 200.0, 400.0, 800.0]
    network = make_network(
        reliability=ReliabilityConfig(ack_timeout=4.0, max_retransmits=2)
    )
    network.fail_peer(1)
    network.node(0).send(1, Ping())
    times = []
    original_emit = network.sim.trace.emit

    def spy(now, kind, **fields):
        if kind == "transport.retransmit":
            times.append(now)
        original_emit(now, kind, **fields)

    network.sim.trace.emit = spy
    network.sim.run()
    # First copy at t=0 (timeout 4), retransmit at 4 (timeout 8), at 12.
    assert times == [4.0, 12.0]
