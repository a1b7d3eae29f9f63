"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulation


def test_events_fire_in_time_order():
    sim = Simulation()
    fired = []
    sim.schedule(3.0, fired.append, "c")
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_ties_fire_in_scheduling_order():
    sim = Simulation()
    fired = []
    for label in "abcde":
        sim.schedule(1.0, fired.append, label)
    sim.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    sim = Simulation()
    seen = []
    sim.schedule(5.0, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [5.0]
    assert sim.now == 5.0


def test_run_until_stops_before_later_events():
    sim = Simulation()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(10.0, fired.append, "late")
    sim.run(until=5.0)
    assert fired == ["early"]
    assert sim.now == 5.0
    sim.run()
    assert fired == ["early", "late"]


def test_event_at_exactly_until_fires():
    sim = Simulation()
    fired = []
    sim.schedule(5.0, fired.append, "edge")
    sim.run(until=5.0)
    assert fired == ["edge"]


def test_negative_delay_rejected():
    sim = Simulation()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_past_rejected():
    sim = Simulation()
    sim.schedule(2.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda: None)


def test_events_scheduled_during_run_fire():
    sim = Simulation()
    fired = []

    def chain(depth: int) -> None:
        fired.append(depth)
        if depth < 3:
            sim.schedule(1.0, chain, depth + 1)

    sim.schedule(1.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3]
    assert sim.now == 4.0


def test_zero_delay_runs_now_after_events_already_due():
    sim = Simulation()
    fired = []

    def at_two() -> None:
        fired.append(("first", sim.now))
        sim.schedule(0.0, lambda: fired.append(("zero-delay", sim.now)))

    sim.schedule(2.0, at_two)
    sim.schedule(2.0, lambda: fired.append(("already due", sim.now)))
    sim.schedule(3.0, lambda: fired.append(("later", sim.now)))
    sim.run()
    assert fired == [
        ("first", 2.0),
        ("already due", 2.0),
        ("zero-delay", 2.0),
        ("later", 3.0),
    ]


def test_max_events_bounds_run():
    sim = Simulation()

    def forever() -> None:
        sim.schedule(1.0, forever)

    sim.schedule(1.0, forever)
    fired = sim.run(max_events=10)
    assert fired == 10


def test_stop_halts_run():
    sim = Simulation()
    fired = []
    sim.schedule(1.0, fired.append, "a")
    sim.schedule(2.0, lambda: sim.stop())
    sim.schedule(3.0, fired.append, "b")
    sim.run()
    assert fired == ["a"]
    sim.run()
    assert fired == ["a", "b"]


def test_step_returns_false_when_empty():
    sim = Simulation()
    assert sim.step() is False


def test_run_returns_fired_count():
    sim = Simulation()
    for _ in range(5):
        sim.schedule(1.0, lambda: None)
    assert sim.run() == 5


def test_run_until_advances_clock_even_without_events():
    sim = Simulation()
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_reentrant_run_rejected():
    sim = Simulation()

    def inner() -> None:
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, inner)
    sim.run()


# ----------------------------------------------------------------------
# run(until=...) clock
# ----------------------------------------------------------------------
def test_run_until_clock_is_monotone():
    """The clock never moves backwards across repeated bounded runs,
    including runs whose window contains no events at all or ends
    before the current time."""
    sim = Simulation()
    seen: list[float] = []
    for delay in (1.0, 4.0, 9.0):
        sim.schedule(delay, lambda: seen.append(sim.now))
    observed: list[float] = []
    for until in (0.5, 1.0, 2.0, 2.0, 6.5, 20.0):
        sim.run(until=until)
        observed.append(sim.now)
        assert sim.now == until
    assert observed == sorted(observed)
    assert seen == [1.0, 4.0, 9.0]
    # A window that ends before `now` leaves the clock alone, whether or
    # not an event is still pending.
    sim.schedule(10.0, lambda: seen.append(sim.now))
    sim.run(until=5.0)
    assert sim.now == 20.0
    sim.run(until=30.0)
    sim.run(until=25.0)
    assert sim.now == 30.0
    assert seen == [1.0, 4.0, 9.0, 30.0]
