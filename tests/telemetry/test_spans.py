"""Unit tests for the causal span tracker."""

from __future__ import annotations

from repro.sim.engine import Simulation
from repro.telemetry.spans import NO_SPAN


def make_sim(enable: bool = True, record: bool = True) -> Simulation:
    sim = Simulation(seed=0)
    if record:
        sim.trace.start_recording()
    if enable:
        sim.telemetry.enable_spans()
    return sim


def span_records(sim: Simulation) -> list:
    return [r for r in sim.trace.records if r.kind in ("span.open", "span.close")]


def test_disabled_tracker_is_a_no_op():
    sim = make_sim(enable=False)
    spans = sim.telemetry.spans
    sid = spans.open("netfilter.run")
    assert sid == NO_SPAN
    assert spans.open_count == 0
    spans.close(sid)  # no-op, no error
    assert span_records(sim) == []


def test_enabled_without_consumer_is_a_no_op():
    # enable_spans() alone does not make spans emit: the tracer must
    # also be active (a sink or recording).  Zero-cost otherwise.
    sim = make_sim(enable=True, record=False)
    assert sim.telemetry.spans.open("netfilter.run") == NO_SPAN
    assert sim.telemetry.spans.open_count == 0


def test_open_close_emit_joined_records():
    sim = make_sim()
    spans = sim.telemetry.spans
    sid = spans.open("netfilter.run", run=3)
    assert sid == 1
    assert spans.open_count == 1
    spans.close(sid, covered=24)
    opened, closed = span_records(sim)
    assert opened.kind == "span.open"
    assert opened.fields["span"] == sid
    assert opened.fields["span_kind"] == "netfilter.run"
    assert opened.fields["parent"] == NO_SPAN
    assert opened.fields["run"] == 3
    assert closed.kind == "span.close"
    assert closed.fields["span"] == sid
    assert closed.fields["status"] == "ok"
    assert closed.fields["covered"] == 24
    assert spans.open_count == 0


def test_parent_defaults_to_current_context():
    sim = make_sim()
    spans = sim.telemetry.spans
    outer = spans.open("totals.phase")
    previous = spans.activate(outer)
    inner = spans.open("agg.session")
    spans.restore(previous)
    spans.close(inner)
    spans.close(outer)
    opens = {r.fields["span"]: r.fields["parent"] for r in span_records(sim)
             if r.kind == "span.open"}
    assert opens[outer] == NO_SPAN
    assert opens[inner] == outer


def test_double_close_is_idempotent():
    sim = make_sim()
    spans = sim.telemetry.spans
    sid = spans.open("agg.session")
    spans.close(sid)
    spans.close(sid)  # second close: silently ignored
    closes = [r for r in span_records(sim) if r.kind == "span.close"]
    assert len(closes) == 1


def test_close_peer_error_tags_owned_spans_in_open_order():
    sim = make_sim()
    spans = sim.telemetry.spans
    mine_a = spans.open("agg.node", peer=7)
    other = spans.open("agg.node", peer=8)
    mine_b = spans.open("wire.msg", peer=7)
    assert spans.close_peer(7) == 2
    closes = [r.fields for r in span_records(sim) if r.kind == "span.close"]
    assert [c["span"] for c in closes] == [mine_a, mine_b]
    assert all(c["status"] == "error" for c in closes)
    assert all(c["reason"] == "peer_crashed" for c in closes)
    assert spans.open_ids() == (other,)


def test_finish_sweeps_wire_as_inflight_and_rest_as_leaks():
    sim = make_sim()
    spans = sim.telemetry.spans
    spans.open("agg.session")
    spans.open("wire.msg")
    leaked = spans.finish()
    assert leaked == 1  # only the non-wire span counts as a leak
    statuses = {r.fields["span_kind"]: r.fields["status"]
                for r in span_records(sim) if r.kind == "span.close"}
    assert statuses == {"agg.session": "unclosed", "wire.msg": "inflight"}
    assert spans.open_count == 0


def test_wire_span_sampling_keeps_one_in_k():
    sim = Simulation(seed=0)
    sim.trace.start_recording()
    spans = sim.telemetry.enable_spans(sample_every=3)
    kept = [spans.open("wire.msg") for _ in range(9)]
    control = spans.open("agg.session")
    assert sum(1 for sid in kept if sid) == 3
    assert control != NO_SPAN  # control spans are never sampled
    # Ids advance only for kept spans, so replays allocate identically.
    assert [sid for sid in kept if sid] == [1, 2, 3]


def test_telemetry_span_context_opens_and_closes_tracker_span():
    sim = make_sim()
    spans = sim.telemetry.spans
    with sim.telemetry.span("totals.phase"):
        inside = spans.current
        assert inside != NO_SPAN
        assert spans.open_count == 1
    assert spans.current == NO_SPAN
    assert spans.open_count == 0
    closes = [r for r in span_records(sim) if r.kind == "span.close"]
    assert [r.fields["status"] for r in closes] == ["ok"]


def test_telemetry_close_sweeps_spans_before_sink_detach(tmp_path):
    import json

    path = str(tmp_path / "t.jsonl")
    sim = Simulation(seed=0)
    sim.telemetry.attach_jsonl(path)
    sim.telemetry.enable_spans()
    sim.telemetry.spans.open("agg.session")
    sim.telemetry.close()
    records = [json.loads(line) for line in open(path, encoding="utf-8")]
    kinds = [r["kind"] for r in records]
    assert "span.open" in kinds and "span.close" in kinds
    close = next(r for r in records if r["kind"] == "span.close")
    assert close["status"] == "unclosed"
