"""Bounded state: the standing services' substrate does not grow with time.

``MonitorService`` and ``FrontDoor`` run indefinitely, so everything the
aggregation engine and the transport keep per node, per session or per
message must be bounded by the work in flight, not by how much work has
run.  :meth:`AggregationEngine.bounded_state` lists those containers with
their ``len()``; the contract is that their sum stays flat after warm-up,
checked on a churn soak (reliable transport, Poisson churn, burst loss,
suspended peers) and a front-door overload run (flash crowds, burst loss,
a root crash).  The state is sampled each time a session starts.

The default profile is tier-1 sized: ``monitor_soak``'s 25 epochs and
``frontdoor_overload``'s 40 rounds, at one seed.  ``REPRO_BOUNDED_STATE_LONG=1``
runs ten times as many epochs and rounds at seeds 1-3 (the CI fault-matrix
soak and frontdoor cells do).
"""

from __future__ import annotations

import os
from statistics import mean
from typing import Any

import pytest

from repro.aggregation.hierarchical import AggregationEngine, _Session
from repro.experiments.overload import OverloadConfig, run_overload
from repro.experiments.soak import SoakConfig, run_soak
from repro.net.transport import Transport
from repro.sim.timers import Timeout

LONG = os.environ.get("REPRO_BOUNDED_STATE_LONG") == "1"
SCALE = 10 if LONG else 1
SEEDS = (1, 2, 3) if LONG else (1,)
#: Samples (session starts) dropped before flatness is judged.
WARMUP = 15


def _record_starts(
    monkeypatch: pytest.MonkeyPatch,
) -> dict[AggregationEngine, list[dict[str, int]]]:
    """Wrap :meth:`AggregationEngine.start` so every session start first
    samples its engine's :meth:`~AggregationEngine.bounded_state`.
    Returns the samples per engine, in start order."""
    samples: dict[AggregationEngine, list[dict[str, int]]] = {}
    start = AggregationEngine.start

    def sampled_start(engine: AggregationEngine, *args: Any, **kwargs: Any) -> Any:
        samples.setdefault(engine, []).append(engine.bounded_state())
        return start(engine, *args, **kwargs)

    monkeypatch.setattr(AggregationEngine, "start", sampled_start)
    return samples


def _main_series(
    samples: dict[AggregationEngine, list[dict[str, int]]],
) -> tuple[AggregationEngine, list[dict[str, int]]]:
    """The engine that started the most sessions, and its samples (the
    overload harness also prices a baseline on an engine of its own)."""
    return max(samples.items(), key=lambda item: len(item[1]))


def _grows(series: list[int]) -> bool:
    """Whether a series trends up: the late half's mean tops the early
    half's peak.  Traffic in flight makes a bounded series jitter, but it
    cannot lift a whole half above the other's maximum; a leak, growing
    with every session, always does."""
    half = len(series) // 2
    return mean(series[half:]) > max(series[:half])


def _assert_flat(samples: list[dict[str, int]]) -> None:
    samples = samples[WARMUP:]
    grown = [name for name in samples[0] if _grows([s[name] for s in samples])]
    totals = [sum(s.values()) for s in samples]
    assert not _grows(totals), (
        f"state grows after warm-up: sum {totals[0]} -> {totals[-1]}; "
        f"growing containers: {grown}"
    )


@pytest.mark.parametrize("seed", SEEDS, ids=lambda seed: f"seed{seed}")
def test_soak_state_stays_flat(seed: int, monkeypatch: pytest.MonkeyPatch) -> None:
    samples = _record_starts(monkeypatch)
    run_soak(SoakConfig(seed=seed, epochs=25 * SCALE))
    _, series = _main_series(samples)
    assert set(series[0]) == {
        "AggregationEngine._open",
        "AggregationService._sessions",
        "Transport._reliable",
        "Transport._batches",
    }
    _assert_flat(series)


@pytest.mark.parametrize("seed", SEEDS, ids=lambda seed: f"seed{seed}")
def test_frontdoor_state_stays_flat(
    seed: int, monkeypatch: pytest.MonkeyPatch
) -> None:
    samples = _record_starts(monkeypatch)
    run_overload(OverloadConfig(seed=seed, rounds=40 * SCALE))
    _, series = _main_series(samples)
    _assert_flat(series)


def test_the_flatness_check_catches_a_leak() -> None:
    jitter = [3, 9, 1, 7, 4, 8, 2, 6, 5, 9, 0, 7]
    assert not _grows(jitter)
    assert _grows([value + 2 * k for k, value in enumerate(jitter)])


# ----------------------------------------------------------------------
# Nothing can reach a session once it is closed.
# ----------------------------------------------------------------------
def _scheduled_call(entry: tuple) -> tuple[Any, tuple]:
    """The ``(callback, args)`` a heap entry will run.  Knows the one
    layout the engine pushes, ``(time, seq, callback, args)``, and fails
    on any other, so a change of layout breaks this check instead of
    emptying it."""
    if len(entry) == 4:
        return entry[2], entry[3]
    raise AssertionError(f"unknown event-heap entry layout: {entry!r}")


def test_the_reach_check_reads_the_heap_layout() -> None:
    def callback() -> None:
        pass

    assert _scheduled_call((1.0, 8, callback, (4,))) == (callback, (4,))
    with pytest.raises(AssertionError, match="unknown event-heap entry layout"):
        _scheduled_call((1.0, 9, callback))


def _reachers(session: _Session, heap: list[tuple]) -> list[str]:
    """Events still in the heap that could touch ``session``: a copy of
    one of its payloads on the wire, an unsettled reliable send of one,
    or an armed child timeout of one of its node states."""
    sid = session.handle.session_id
    timeouts = {service._sessions[sid].timeout for service in session.members}
    found = []
    for entry in heap:
        callback, args = _scheduled_call(entry)
        function = getattr(callback, "__func__", None)
        if function is Transport._deliver_batch:
            found += [
                f"copy of {type(payload).__name__}"
                for payload, *_ in args[2].entries
                if payload.ledger is session
            ]
        elif function is Transport._on_ack_timeout:
            pending = args[0]
            if pending.payload.ledger is session and not pending.settled:
                found.append(f"unsettled send of {type(pending.payload).__name__}")
        elif function is Timeout._wake:
            timeout = callback.__self__
            if timeout in timeouts and timeout.armed:
                found.append("armed child timeout")
    return found


@pytest.mark.parametrize("harness", ["soak", "frontdoor"])
def test_nothing_in_flight_reaches_a_closed_session(
    harness: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    """At every close, under churn, loss, re-probes and retransmits, the
    event heap holds nothing that could deliver to, or fire for, the
    session whose state is being dropped."""
    starts = _record_starts(monkeypatch)
    closed: list[tuple[AggregationEngine, int, list[str]]] = []
    settle = _Session.settle

    def checked_settle(session: _Session) -> None:
        if session.outstanding == 1 and not session.closed:
            heap = session.engine.sim._heap
            closed.append((session.engine, session.handle.session_id, _reachers(session, heap)))
        settle(session)

    monkeypatch.setattr(_Session, "settle", checked_settle)
    if harness == "soak":
        run_soak(SoakConfig(seed=1, epochs=8))
    else:
        run_overload(OverloadConfig(seed=1, rounds=30))
    assert [reachers for *_, reachers in closed if reachers] == []
    # Every session closed once, except those still draining at the end.
    engine, _ = _main_series(starts)
    sids = [sid for owner, sid, _ in closed if owner is engine]
    assert len(set(sids)) == len(sids) > 10
    assert len(sids) + len(engine._open) == engine.sim.trace.counters["aggregation.start"]
