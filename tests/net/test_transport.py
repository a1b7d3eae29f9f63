"""Unit tests for the transport: delivery, latency, loss, accounting."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.errors import NetworkError
from repro.net.message import Message, Payload
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.net.transport import TransportConfig
from repro.net.wire import CostCategory, SizeModel
from repro.sim.engine import Simulation


@dataclass(frozen=True)
class Ping(Payload):  # repro-lint: disable=PROTO001
    """Test payload with an explicit size; intentionally unregistered."""

    size: int = 10
    category = CostCategory.CONTROL

    def body_bytes(self, model: SizeModel) -> int:
        return self.size


def make_network(seed: int = 0, config: TransportConfig | None = None) -> Network:
    sim = Simulation(seed=seed)
    return Network(sim, Topology.line(3), transport_config=config)


def test_message_delivered_with_latency():
    network = make_network(config=TransportConfig(latency=2.5))
    received = []
    network.node(1).register_handler(Ping, received.append)
    network.node(0).send(1, Ping())
    network.sim.run()
    assert len(received) == 1
    message = received[0]
    assert isinstance(message, Message)
    assert message.sender == 0
    assert message.recipient == 1
    assert message.sent_at == 0.0
    assert message.delivered_at == 2.5


def test_sender_charged_at_send_time():
    network = make_network()
    network.node(0).send(1, Ping(size=7))
    # Charged immediately, even before delivery.
    assert network.accounting.peer_bytes(0, CostCategory.CONTROL) == 7
    assert network.accounting.peer_bytes(1) == 0


def test_header_bytes_added_to_charge():
    sim = Simulation()
    network = Network(sim, Topology.line(2), size_model=SizeModel(header_bytes=20))
    network.node(0).send(1, Ping(size=5))
    assert network.accounting.peer_bytes(0) == 25


def test_dead_recipient_drops_message():
    network = make_network()
    received = []
    network.node(1).register_handler(Ping, received.append)
    network.fail_peer(1)
    network.node(0).send(1, Ping())
    network.sim.run()
    assert received == []
    assert network.sim.trace.counters["msg.dropped_dead_recipient"] == 1


def test_dead_sender_cannot_send():
    network = make_network()
    network.fail_peer(0)
    network.node(0).send(1, Ping())
    assert network.accounting.total_bytes() == 0


def test_loss_probability_drops_some_messages():
    network = make_network(seed=1, config=TransportConfig(loss_probability=0.5))
    received = []
    network.node(1).register_handler(Ping, received.append)
    for _ in range(200):
        network.node(0).send(1, Ping())
    network.sim.run()
    assert 50 < len(received) < 150  # ~100 expected
    # Lost messages are still charged to the sender.
    assert network.accounting.peer_bytes(0) == 200 * 10


def test_latency_jitter_varies_delivery_times():
    network = make_network(seed=2, config=TransportConfig(latency=1.0, latency_jitter=0.5))
    times = []
    network.node(1).register_handler(Ping, lambda m: times.append(m.delivered_at))
    for _ in range(20):
        network.node(0).send(1, Ping())
    network.sim.run()
    assert all(1.0 <= t <= 1.5 for t in times)
    assert len(set(times)) > 1


def test_invalid_transport_config_rejected():
    with pytest.raises(NetworkError):
        TransportConfig(latency=-1.0)
    with pytest.raises(NetworkError):
        TransportConfig(loss_probability=1.0)
    with pytest.raises(NetworkError):
        TransportConfig(latency_jitter=-0.1)


def test_unhandled_payload_traced_not_raised():
    network = make_network()
    network.node(0).send(1, Ping())
    network.sim.run()
    assert network.sim.trace.counters["msg.unhandled"] == 1


# ----------------------------------------------------------------------
# Same-tick delivery batching (hot path) must be semantically invisible
# ----------------------------------------------------------------------
def test_batched_deliveries_keep_per_message_semantics():
    """k same-tick sends to one recipient coalesce into one heap event,
    but every message is still delivered individually, in send order,
    with its own sent_at/delivered_at."""
    network = make_network(config=TransportConfig(latency=2.0))
    received = []
    network.node(1).register_handler(Ping, received.append)
    for size in (3, 5, 7):
        network.node(0).send(1, Ping(size=size))
    network.sim.run()
    assert [message.payload.size for message in received] == [3, 5, 7]
    assert all(message.sent_at == 0.0 for message in received)
    assert all(message.delivered_at == 2.0 for message in received)


def test_batching_is_byte_and_counter_transparent():
    """Batched (same tick) and unbatched (distinct ticks) runs of the
    same k messages account identical bytes and identical counters."""

    def run(spread: bool) -> tuple[int, dict[str, int]]:
        network = make_network(config=TransportConfig(latency=1.0))
        network.node(1).register_handler(Ping, lambda message: None)
        sizes = (3, 5, 7, 11)
        for i, size in enumerate(sizes):
            delay = float(i) if spread else 0.0
            network.sim.schedule(delay, network.node(0).send, 1, Ping(size=size))
        network.sim.run()
        counters = network.sim.telemetry.tracer.counters
        return (
            network.accounting.peer_bytes(0, CostCategory.CONTROL),
            {kind: counters[kind] for kind in ("msg.sent", "msg.delivered")},
        )

    batched_bytes, batched_counts = run(spread=False)
    spread_bytes, spread_counts = run(spread=True)
    assert batched_bytes == spread_bytes == 3 + 5 + 7 + 11
    assert batched_counts == spread_counts == {"msg.sent": 4, "msg.delivered": 4}


def test_batch_respects_mid_batch_crash():
    """A delivery callback that crashes the recipient stops the rest of
    the same batch from being delivered (per-entry liveness check)."""
    network = make_network(config=TransportConfig(latency=1.0))
    received = []

    def crash_after_first(message: Message) -> None:
        received.append(message)
        network.fail_peer(1)

    network.node(1).register_handler(Ping, crash_after_first)
    for size in (1, 2, 3):
        network.node(0).send(1, Ping(size=size))
    network.sim.run()
    assert [message.payload.size for message in received] == [1]
    counters = network.sim.telemetry.tracer.counters
    assert counters["msg.delivered"] == 1
    assert counters["msg.dropped_dead_recipient"] == 2
