"""The session kernel: one backoff schedule, one coverage predicate, one
supervision loop (``repro.core.session``)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.aggregation.combiners import ScalarSumCombiner
from repro.aggregation.hierarchical import SessionHandle
from repro.aggregation.spec import AggregateSpec
from repro.core.config import NetFilterConfig
from repro.core.netfilter import one_shot_plan
from repro.core.session import (
    DEADLINE,
    MEMBERSHIP_CHANGED,
    backoff,
    below_floor,
    run_attempt,
    run_phase,
    supervise,
)
from repro.errors import ConfigurationError
from repro.net.wire import CostCategory
from repro.sim.engine import Simulation


# ----------------------------------------------------------------------
# backoff
# ----------------------------------------------------------------------
def test_backoff_doubles_then_caps():
    assert [backoff(50.0, 2.0, k, 400.0) for k in range(1, 6)] == [
        50.0, 100.0, 200.0, 400.0, 400.0,
    ]
    assert backoff(10.0, 3.0, 4) == 270.0  # uncapped by default


@pytest.mark.parametrize("attempt", [0, -1])
def test_backoff_rejects_attempts_below_one(attempt):
    with pytest.raises(ConfigurationError):
        backoff(10.0, 2.0, attempt)


# ----------------------------------------------------------------------
# The coverage predicate against both spellings it replaced
# ----------------------------------------------------------------------
def _handle(covered: int, expected: int) -> SessionHandle:
    spec = AggregateSpec(
        name="test.sum",
        combiner=ScalarSumCombiner(),
        contribute=lambda node, _: 1,
        up_category=CostCategory.CONTROL,
    )
    handle = SessionHandle(1, spec)
    handle.done = True
    handle.covered = covered
    handle.expected = expected
    return handle


@settings(max_examples=500, deadline=None)
@given(
    covered=st.integers(0, 10**6),
    expected=st.integers(0, 10**6),
    floor=st.one_of(
        st.just(1.0),
        st.floats(0.0, 1.0, exclude_min=True, allow_nan=False),
        # Floors sitting exactly on an achievable coverage fraction.
        st.builds(
            lambda a, b: min(a, b) / max(a, b),
            st.integers(1, 10**6),
            st.integers(1, 10**6),
        ),
    ),
)
def test_one_predicate_agrees_with_both_old_spellings(covered, expected, floor):
    handle = _handle(covered, expected)
    netfilter_spelling = handle.coverage < floor
    service_spelling = (
        not handle.complete if floor >= 1.0 else handle.coverage < floor
    )
    assert below_floor(handle.coverage, floor) == netfilter_spelling == service_spelling


# ----------------------------------------------------------------------
# supervise, with a fake attempt on a bare simulation
# ----------------------------------------------------------------------
class FakeAttempt:
    """Fails with the scripted reasons (each taking ``duration`` of sim
    time), then succeeds with ``"ok"``."""

    def __init__(self, sim: Simulation, reasons: list[str], duration: float = 0.0):
        self.sim = sim
        self.reasons = list(reasons)
        self.duration = duration
        self.started_at: list[float] = []
        self.failures: list[tuple[int, str, float]] = []

    def __call__(self) -> tuple[str | None, str]:
        self.started_at.append(self.sim.now)
        if self.duration:
            self.sim.run(until=self.sim.now + self.duration)
        if self.reasons:
            return None, self.reasons.pop(0)
        return "ok", ""

    def on_failure(self, attempt: int, reason: str) -> None:
        assert attempt == len(self.started_at)
        self.failures.append((attempt, reason, self.sim.now))


def _supervise(sim, fake, *, max_attempts, deadline, delay=lambda k: 10.0 * k):
    return supervise(
        sim,
        fake,
        max_attempts=max_attempts,
        deadline=deadline,
        delay=delay,
        on_failure=fake.on_failure,
    )


def test_first_success_ends_the_loop_with_an_empty_reason():
    sim = Simulation(seed=0)
    fake = FakeAttempt(sim, ["coverage", "root_lost"])
    outcome = _supervise(sim, fake, max_attempts=5, deadline=math.inf)
    assert outcome == ("ok", "", 3)
    # Settle delays of delay(1)=10 and delay(2)=20 between the attempts.
    assert fake.started_at == [0.0, 10.0, 30.0]
    assert [(k, reason) for k, reason, _ in fake.failures] == [
        (1, "coverage"), (2, "root_lost"),
    ]


def test_attempts_never_exceed_the_budget_and_the_last_reason_is_reported():
    sim = Simulation(seed=0)
    fake = FakeAttempt(sim, ["coverage", "root_lost", "membership_changed", "coverage"])
    outcome = _supervise(sim, fake, max_attempts=3, deadline=math.inf)
    assert outcome == (None, "membership_changed", 3)
    assert len(fake.started_at) == 3
    # The hook hears about every failure, and no settle delay is slept
    # after the one that spent the budget.
    assert [k for k, _, _ in fake.failures] == [1, 2, 3]
    assert sim.now == fake.failures[-1][2]


def test_no_attempt_starts_at_or_after_the_deadline():
    sim = Simulation(seed=0)
    fake = FakeAttempt(sim, ["deadline"] * 10, duration=40.0)
    outcome = _supervise(sim, fake, max_attempts=10, deadline=100.0)
    assert outcome == (None, DEADLINE, 2)
    assert all(start < 100.0 for start in fake.started_at)
    # 0 → fails at 40, settles 10 → 50 → fails at 90, settle clipped to
    # the 10 left → the clock sits on the deadline, nothing else starts.
    assert fake.started_at == [0.0, 50.0]
    assert sim.now == 100.0


def test_settle_delay_is_clipped_to_the_time_left():
    sim = Simulation(seed=0)
    fake = FakeAttempt(sim, ["coverage"], duration=5.0)
    outcome = _supervise(
        sim, fake, max_attempts=4, deadline=30.0, delay=lambda k: 1000.0
    )
    # The first (always allowed) attempt fails at t=5; the 1000-long
    # settle is cut to 25, which lands on the deadline: no second try.
    assert outcome == (None, "coverage", 1)
    assert sim.now == 30.0


def test_the_first_attempt_runs_even_past_the_deadline():
    sim = Simulation(seed=0)
    sim.run(until=50.0)
    fake = FakeAttempt(sim, [])
    outcome = _supervise(sim, fake, max_attempts=2, deadline=10.0)
    assert outcome == ("ok", "", 1)


# ----------------------------------------------------------------------
# The membership gate
# ----------------------------------------------------------------------
def test_a_peer_that_missed_a_phase_fails_the_membership_gate(small_system):
    """A peer that crashes after phase 1 and revives while phase 2 runs
    leaves the live set as it was, and every phase covered every peer
    live at its start — but phase 2's candidate values lack that peer, so
    the attempt must not count."""
    engine, network, sim = small_system.engine, small_system.network, small_system.sim
    plan = one_shot_plan(NetFilterConfig(filter_size=50, num_filters=2, threshold_ratio=0.01))
    leaf = min(small_system.hierarchy.leaves())
    live = tuple(network.live_peers())

    def phase(spec, request):
        handle = run_phase(engine, spec, request)
        if spec is plan.phase1:
            network.fail_peer(leaf)
            sim.schedule(1.0, network.revive_peer, leaf)
        return handle

    result, reason = run_attempt(engine, plan, stable_over=live, phase=phase)
    assert tuple(network.live_peers()) == live
    assert reason == MEMBERSHIP_CHANGED
    assert not result.complete
