"""Unit tests for the structured tracer."""

from __future__ import annotations

from repro.sim.trace import Tracer


def test_counters_accumulate():
    tracer = Tracer()
    tracer.emit(0.0, "msg.sent")
    tracer.emit(1.0, "msg.sent")
    tracer.emit(1.0, "msg.lost")
    assert tracer.counters["msg.sent"] == 2
    assert tracer.counters["msg.lost"] == 1


def test_records_not_kept_by_default():
    tracer = Tracer()
    tracer.emit(0.0, "x", value=1)
    assert tracer.records == []


def test_recording_captures_fields():
    tracer = Tracer()
    tracer.start_recording()
    tracer.emit(2.5, "node.failed", peer=7)
    records = tracer.stop_recording()
    assert len(records) == 1
    assert records[0].time == 2.5
    assert records[0].kind == "node.failed"
    assert records[0].fields == {"peer": 7}


def test_stop_recording_stops_capture():
    tracer = Tracer()
    tracer.start_recording()
    tracer.emit(0.0, "a")
    tracer.stop_recording()
    tracer.emit(1.0, "b")
    assert tracer.records == []
    assert tracer.counters["b"] == 1


def test_subscribe_by_kind():
    tracer = Tracer()
    seen = []
    tracer.subscribe("hierarchy.repair", seen.append)
    tracer.emit(0.0, "hierarchy.repair", peer=1)
    tracer.emit(0.0, "other")
    assert [record.fields["peer"] for record in seen] == [1]


def test_wildcard_subscription_sees_everything():
    tracer = Tracer()
    seen = []
    tracer.subscribe("", seen.append)
    tracer.emit(0.0, "a")
    tracer.emit(0.0, "b")
    assert [record.kind for record in seen] == ["a", "b"]


def test_unsubscribe_stops_delivery():
    tracer = Tracer()
    seen = []
    tracer.subscribe("a", seen.append)
    tracer.emit(0.0, "a")
    tracer.unsubscribe("a", seen.append)
    tracer.emit(1.0, "a")
    assert len(seen) == 1
    assert tracer.counters["a"] == 2  # counters keep counting


def test_unsubscribe_unknown_pair_is_ignored():
    tracer = Tracer()
    tracer.unsubscribe("never.subscribed", print)  # no error
    tracer.subscribe("a", print)
    tracer.unsubscribe("a", len)  # wrong handler: also ignored
    tracer.emit(0.0, "a")


def test_active_reflects_consumers():
    tracer = Tracer()
    assert not tracer.active
    tracer.start_recording()
    assert tracer.active
    tracer.stop_recording()
    assert not tracer.active
    handler = lambda record: None
    tracer.subscribe("a", handler)
    assert tracer.active
    tracer.unsubscribe("a", handler)
    assert not tracer.active


def test_subscriber_added_after_emits_sees_later_events():
    """The compiled dispatch cache must be invalidated when a subscriber
    arrives late — after the kind has already been emitted (and its
    handler chain compiled as empty)."""
    tracer = Tracer()
    for _ in range(100):
        tracer.emit(0.0, "msg.sent", size=4)
    seen = []
    tracer.subscribe("msg.sent", seen.append)
    tracer.emit(1.0, "msg.sent", size=8)
    assert len(seen) == 1
    assert seen[0].fields == {"size": 8}


def test_emit_does_not_copy_handler_chain_per_event():
    """Steady-state emits reuse one compiled handler tuple (identity
    check) instead of rebuilding the subscriber list per emit."""
    tracer = Tracer()
    tracer.subscribe("msg.sent", lambda record: None)
    tracer.emit(0.0, "msg.sent")
    first = tracer._dispatch["msg.sent"]
    tracer.emit(1.0, "msg.sent")
    assert tracer._dispatch["msg.sent"] is first
