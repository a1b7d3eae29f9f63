"""Every retrier walks the one backoff schedule (``repro.sim.timers.backoff``).

Each scenario kills the peer the retrier keeps asking (the hierarchy root,
or the recipient of a reliable message), so every attempt fails the
instant it starts and the gap between two consecutive retry events is
exactly the settle delay the retrier chose.  Each helper returns that
delay, paired with the 1-based attempt number it followed.
"""

from __future__ import annotations

import pytest

from repro.core.config import NetFilterConfig
from repro.core.continuous import ContinuousNetFilter
from repro.core.netfilter import NetFilter
from repro.core.recovery import RecoveryPolicy
from repro.frontdoor import FrontDoorConfig
from repro.frontdoor.batching import BatchSessionRunner, PendingRequest
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.net.transport import ReliabilityConfig
from repro.service import MonitorService, ServiceConfig
from repro.service.payloads import MonitorQueryPayload
from repro.sim.engine import Simulation
from repro.sim.timers import backoff

from tests.conftest import build_small_system

CONFIG = NetFilterConfig(filter_size=20, num_filters=2, threshold_ratio=0.01)


def _retry_events(sim: Simulation, kind: str) -> list[tuple[float, int]]:
    """``(time, attempt)`` of every ``kind`` event from now on."""
    events: list[tuple[float, int]] = []
    sim.trace.subscribe(
        kind, lambda record: events.append((record.time, record.fields["attempt"]))
    )
    return events


def _gaps(events: list[tuple[float, int]]) -> list[tuple[int, float]]:
    """The delay after each failed attempt, up to the next retry event."""
    return [(attempt, later - time) for (time, attempt), (later, _) in zip(events, events[1:])]


def _dead_root_system():
    system = build_small_system(seed=0, n_peers=12, n_items=300)
    system.network.fail_peer(system.hierarchy.root)
    return system


def _transport_delay(base: float) -> list[tuple[int, float]]:
    sim = Simulation(seed=0)
    network = Network(
        sim,
        Topology.line(2),
        reliability=ReliabilityConfig(ack_timeout=base, max_retransmits=3),
    )
    network.fail_peer(1)
    events = _retry_events(sim, "transport.retransmit")
    network.node(0).send(1, MonitorQueryPayload(requester=0))
    sim.run()
    # Event k re-sends after copy k; copy 1 left at t=0.
    return _gaps([(0.0, 1)] + [(time, attempt + 1) for time, attempt in events])


def _recovery_delay(base: float) -> list[tuple[int, float]]:
    system = _dead_root_system()
    events = _retry_events(system.sim, "request.reissued")
    NetFilter(CONFIG, recovery=RecoveryPolicy(reissue_delay=base)).run(system.engine)
    # Phase re-issues 1, 2, then query re-issue 1, then phase 1, 2 again;
    # the run ends when the last re-issue's settle delay has passed.
    return _gaps(events + [(system.sim.now, 0)])


def _service_delay(base: float) -> list[tuple[int, float]]:
    system = _dead_root_system()
    service = MonitorService(
        ContinuousNetFilter(CONFIG, system.engine),
        ServiceConfig(retry_backoff=base, max_attempts=4),
    )
    events = _retry_events(system.sim, "service.abandon")
    assert not service.run_one(0).committed
    return _gaps(events)


def _frontdoor_delay(base: float) -> list[tuple[int, float]]:
    system = _dead_root_system()
    runner = BatchSessionRunner(
        system.engine, CONFIG, FrontDoorConfig(retry_backoff=base, max_session_retries=3)
    )
    events = _retry_events(system.sim, "frontdoor.session_retry")
    request = PendingRequest(
        request_id=0,
        tenant="acme",
        requester=1,
        threshold_ratio=0.01,
        max_staleness=0,
        submitted_at=0.0,
        deadline=400.0,
    )
    assert not runner.run([request]).committed
    return _gaps(events)


@pytest.mark.parametrize(
    "delay_of", [_transport_delay, _recovery_delay, _service_delay, _frontdoor_delay]
)
def test_service_and_frontdoor_schedules(delay_of):
    delays = delay_of(10.0)
    assert {attempt for attempt, _ in delays} >= {1, 2}
    assert delays == [(attempt, backoff(10.0, attempt)) for attempt, _ in delays]


def test_attempts_are_one_based():
    # Each scope counts its own re-issues from 1: the whole-query retry
    # after two phase re-issues waits the base delay again, not 4x it.
    assert _recovery_delay(10.0)[:3] == [(1, 10.0), (2, 20.0), (1, 10.0)]


@pytest.mark.parametrize("delay_of", [_service_delay, _frontdoor_delay])
def test_service_and_frontdoor_attempts_are_one_based(delay_of):
    # The first retry waits the configured base, never less.
    assert delay_of(10.0)[0] == (1, 10.0)
