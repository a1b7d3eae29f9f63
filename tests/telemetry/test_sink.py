"""Tests for the streaming JSONL trace sink."""

from __future__ import annotations

import enum
import gc
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.trace import TraceRecord, Tracer
from repro.telemetry.sink import (
    FLUSH_INTERVAL,
    JsonlTraceSink,
    _jsonable,
    iter_trace,
    read_trace,
)


def test_sink_writes_meta_body_and_summary(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    tracer = Tracer()
    sink = JsonlTraceSink(path, tracer)
    tracer.emit(1.0, "msg.sent", sender=3, size=42)
    tracer.emit(2.0, "filter.phase", ev="begin")
    sink.close()

    records = read_trace(path)
    assert records[0]["kind"] == "trace.meta"
    assert records[0]["version"] == 1
    assert records[1] == {"t": 1.0, "kind": "msg.sent", "sender": 3, "size": 42}
    assert records[2] == {"t": 2.0, "kind": "filter.phase", "ev": "begin"}
    assert records[-1]["kind"] == "trace.summary"
    assert records[-1]["counters"] == {"msg.sent": 1, "filter.phase": 1}


def test_sink_sampling_keeps_one_in_k(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    tracer = Tracer()
    sink = JsonlTraceSink(path, tracer, sample_every=3)
    for i in range(9):
        tracer.emit(float(i), "msg.sent", seq=i)
    tracer.emit(10.0, "filter.phase", ev="begin")  # structural: never sampled
    sink.close()

    body = [r for r in read_trace(path) if r["kind"] == "msg.sent"]
    assert [r["seq"] for r in body] == [0, 3, 6]
    assert sink.skipped == 6
    kinds = [r["kind"] for r in read_trace(path)]
    assert "filter.phase" in kinds
    # Summary still carries the exact emit counts.
    summary = read_trace(path)[-1]
    assert summary["counters"]["msg.sent"] == 9


def test_sink_close_is_idempotent_and_unsubscribes(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    tracer = Tracer()
    sink = JsonlTraceSink(path, tracer)
    tracer.emit(0.0, "a")
    sink.close()
    sink.close()  # no error, no second summary
    tracer.emit(1.0, "b")  # after close: not written

    records = read_trace(path)
    assert sum(1 for r in records if r["kind"] == "trace.summary") == 1
    assert not any(r["kind"] == "b" for r in records)
    assert not tracer.active


def test_sink_context_manager(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    tracer = Tracer()
    with JsonlTraceSink(path, tracer) as sink:
        tracer.emit(0.0, "a")
    assert sink.written == 3  # meta + record + summary
    assert read_trace(path)[-1]["kind"] == "trace.summary"


def test_sink_rejects_bad_sample_every(tmp_path):
    with pytest.raises(ValueError):
        JsonlTraceSink(str(tmp_path / "t.jsonl"), Tracer(), sample_every=0)


def test_sink_coerces_numpy_and_enum_fields(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    tracer = Tracer()
    sink = JsonlTraceSink(path, tracer)
    tracer.emit(0.0, "a", count=np.int64(7), values=np.array([1, 2]))
    sink.close()
    record = read_trace(path)[1]
    assert record["count"] == 7
    assert record["values"] == [1, 2]
    json.dumps(record)  # round-trips as plain JSON


def test_iter_trace_streams_lazily(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    tracer = Tracer()
    sink = JsonlTraceSink(path, tracer)
    for i in range(5):
        tracer.emit(float(i), "tick")
    sink.close()
    iterator = iter_trace(path)
    first = next(iterator)
    assert first["kind"] == "trace.meta"
    assert sum(1 for r in iterator if r["kind"] == "tick") == 5


def test_iter_trace_drops_malformed_final_line(tmp_path):
    """A killed run truncates its last line mid-write; the rest still loads."""
    path = tmp_path / "cut.jsonl"
    path.write_text('{"kind": "trace.meta", "version": 1}\n{"t": 1.0, "kind": "a"}\n{"t": 2.0, "kin')
    records = read_trace(str(path))
    assert [r["kind"] for r in records] == ["trace.meta", "a"]


def test_iter_trace_raises_on_mid_file_corruption(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind": "trace.meta", "version": 1}\nnot json\n{"t": 1.0, "kind": "a"}\n')
    with pytest.raises(ValueError, match="bad.jsonl:2"):
        read_trace(str(path))


# ----------------------------------------------------------------------
# The compiled line writer
# ----------------------------------------------------------------------
class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Mode(str, enum.Enum):  # what ``enum.StrEnum`` (3.11+) is built on
    FAST = "fast"
    SAFE = 'sa"fe'


class Tag(str):
    pass


class Count(int):
    pass


_SPECIAL_CHARS = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\t", "%", "é", "€", "😀"])
_TEXT = st.text() | st.text(alphabet=_SPECIAL_CHARS | st.characters(), max_size=8)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, 1e300]
)
_INTS = st.integers() | st.integers(min_value=2**63 - 2, max_value=2**70) | st.booleans()
_SCALARS = st.one_of(
    _INTS,
    _FLOATS,
    _TEXT,
    st.none(),
    st.integers(-(2**62), 2**62).map(np.int64),
    _FLOATS.map(np.float64),
    st.booleans().map(np.bool_),
    st.lists(st.integers(-100, 100), max_size=4).map(np.array),
    st.sampled_from([Level.LOW, Level.HIGH, Mode.FAST, Mode.SAFE]),
    _TEXT.map(Tag),
    st.integers().map(Count),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3),
    max_leaves=6,
)
_KEYS = st.sampled_from(["t", "kind", "span", "peer"]) | _TEXT | _TEXT.map(Tag) | st.integers(0, 3)
_TIMES = _FLOATS | st.integers() | _FLOATS.map(np.float64)


def _expected_line(time, kind, fields):
    return json.dumps({"t": time, "kind": kind, **fields}, default=_jsonable) + "\n"


@settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    time=_TIMES,
    kind=_TEXT.filter(bool),  # "" is the wildcard channel, not a kind
    keys=st.lists(_KEYS, max_size=5, unique=True),
    data=st.data(),
)
def test_writer_lines_equal_json_dumps(tmp_path, time, kind, keys, data):
    """Template or fallback, every line is byte-for-byte ``json.dumps``'s,
    including a second line of the same shape (a cached template) with
    values of other types."""
    shapes = [
        dict(zip(keys, data.draw(st.lists(_VALUES, min_size=len(keys), max_size=len(keys)))))
        for _ in range(2)
    ]
    path = tmp_path / "diff.jsonl"
    tracer = Tracer()
    sink = JsonlTraceSink(str(path), tracer)
    for fields in shapes:
        tracer.emit(time, kind, dict(fields))  # the direct route
        sink.on_record(TraceRecord(time, kind, dict(fields)))  # the record route
    sink.close()
    with open(path, encoding="utf-8") as handle:
        body = handle.readlines()[1:-1]
    expected = [_expected_line(time, kind, fields) for fields in shapes for _ in range(2)]
    assert body == expected


def test_writer_encodes_at_emit_time(tmp_path):
    """A field value mutated after its emit does not change the line."""
    path = str(tmp_path / "trace.jsonl")
    tracer = Tracer()
    sink = JsonlTraceSink(path, tracer)
    payload = [1, 2]
    tracer.emit(0.0, "a", items=payload)
    payload.append(3)
    sink.close()
    assert read_trace(path)[1]["items"] == [1, 2]


def _body(path):
    return [(r["t"], r["kind"], r.get("of")) for r in read_trace(path)[1:-1]]


def _nested_script(tracer):
    """Emit ``a, c, a, c``; a subscriber on ``a`` emits a nested ``b``."""
    tracer.subscribe("a", lambda record: tracer.emit(record.time, "b", of=record.time))
    for time, kind in [(1.0, "a"), (2.0, "c"), (3.0, "a"), (4.0, "c")]:
        tracer.emit(time, kind)


#: What the sink sees: a record reaches its wildcard position after the
#: kind's own subscribers ran, so a nested emit lands first.
_NESTED_BODY = [
    (1.0, "b", 1.0), (1.0, "a", None), (2.0, "c", None),
    (3.0, "b", 3.0), (3.0, "a", None), (4.0, "c", None),
]


def test_sink_order_with_nested_emits_on_mixed_routes(tmp_path):
    """``a`` goes through the record dispatch; ``b`` and ``c`` have only
    the sink, so they take the direct route — the order is unchanged."""
    path = str(tmp_path / "trace.jsonl")
    tracer = Tracer()
    sink = JsonlTraceSink(path, tracer)
    _nested_script(tracer)
    sink.close()
    assert _body(path) == _NESTED_BODY


def test_sink_order_with_nested_emits_while_recording(tmp_path):
    """With recording on every kind takes the record dispatch; the body
    equals what a wildcard subscriber next to the sink saw, and holds the
    recorded events in the same order as the mixed-route run."""
    path = str(tmp_path / "trace.jsonl")
    tracer = Tracer()
    sink = JsonlTraceSink(path, tracer)
    beside: list[TraceRecord] = []
    tracer.subscribe("", beside.append)
    tracer.start_recording()
    _nested_script(tracer)
    recorded = tracer.stop_recording()
    sink.close()
    assert _body(path) == _NESTED_BODY
    assert _body(path) == [(r.time, r.kind, r.fields.get("of")) for r in beside]
    # Recording appends before any handler runs, so there the nested
    # ``b`` follows its ``a``.
    assert [(r.time, r.kind) for r in recorded] == [
        (1.0, "a"), (1.0, "b"), (2.0, "c"), (3.0, "a"), (3.0, "b"), (4.0, "c")
    ]


def test_switching_routes_mid_run_loses_and_duplicates_nothing(tmp_path):
    path = str(tmp_path / "trace.jsonl")
    tracer = Tracer()
    sink = JsonlTraceSink(path, tracer)
    seen: list[float] = []

    def handler(record: TraceRecord) -> None:
        seen.append(record.time)

    step = iter(range(100))

    def burst(n: int) -> None:
        for _ in range(n):
            tracer.emit(float(next(step)), "c", seq=1)

    burst(3)  # direct
    tracer.subscribe("c", handler)
    burst(3)  # record dispatch
    tracer.unsubscribe("c", handler)
    burst(3)  # direct again
    tracer.start_recording()
    burst(3)  # record dispatch
    assert len(tracer.stop_recording()) == 3
    burst(3)  # direct
    sink.close()
    assert [t for t, _, _ in _body(path)] == [float(i) for i in range(15)]
    assert seen == [3.0, 4.0, 5.0]


def test_unclosed_sink_drains_its_buffer_when_collected(tmp_path):
    """A sink dropped without ``close`` (with its tracer) still gets every
    emitted line to disk; only the summary is missing."""
    path = str(tmp_path / "trace.jsonl")
    tracer = Tracer()
    sink = JsonlTraceSink(path, tracer)
    emitted = FLUSH_INTERVAL * 2 + FLUSH_INTERVAL // 2
    for i in range(emitted):
        tracer.emit(float(i), "msg.sent", seq=i)
    assert sink._buffer  # some lines are still only in memory
    del tracer, sink
    gc.collect()
    records = read_trace(path)
    assert records[0]["kind"] == "trace.meta"
    assert [r["seq"] for r in records[1:]] == list(range(emitted))
