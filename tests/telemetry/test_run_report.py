"""Tests for trace folding and report rendering."""

from __future__ import annotations

from repro.net.wire import CostCategory
from repro.sim.engine import Simulation
from repro.telemetry.report import build_report, render_histogram, render_report
from repro.telemetry.sink import iter_trace


def _records():
    return [
        {"kind": "trace.meta", "version": 1, "sample_every": 1},
        {"t": 0.0, "kind": "msg.sent", "sender": 1, "recipient": 2,
         "category": "filtering", "size": 100},
        {"t": 0.0, "kind": "msg.sent", "sender": 2, "recipient": 1,
         "category": "aggregation", "size": 40},
        {"t": 1.0, "kind": "msg.delivered", "sender": 1, "recipient": 2,
         "latency": 1.0},
        {"t": 0.0, "kind": "filter.phase", "ev": "begin"},
        {"t": 8.0, "kind": "filter.phase", "ev": "end", "sim_elapsed": 8.0,
         "wall_elapsed": 0.25},
        {"kind": "trace.summary",
         "counters": {"msg.sent": 2, "msg.delivered": 1, "filter.phase": 2}},
    ]


def test_build_report_folds_phases_bytes_and_latency():
    report = build_report(_records(), path="x.jsonl")
    assert report.path == "x.jsonl"
    assert report.events == 5  # meta/summary excluded
    assert report.first_time == 0.0
    assert report.last_time == 8.0
    assert report.duration == 8.0
    assert report.n_peers_seen == 2

    assert len(report.phases) == 1
    phase = report.phases[0]
    assert phase.kind == "filter.phase"
    assert phase.count == 1
    assert phase.sim_time == 8.0
    assert phase.wall_time == 0.25

    assert report.accounting.total_bytes() == 140
    assert report.accounting.total_bytes(CostCategory.FILTERING) == 100
    assert report.latency.count == 1
    assert report.sample_scale == {}  # written == emitted: no rescaling


def test_build_report_computes_sample_scale():
    records = _records()
    # Pretend 10 msg.sent were emitted but only 2 written (1-in-5 sampling).
    records[-1]["counters"]["msg.sent"] = 10
    report = build_report(records)
    assert report.sample_scale == {"msg.sent": 5.0}
    rendered = render_report(report)
    assert "rescaled" in rendered
    # TOTAL bytes scaled back up: 140 * 5.
    assert "700" in rendered


def test_build_report_empty_trace():
    report = build_report([])
    assert report.events == 0
    assert report.duration == 0.0
    assert report.top_peers() == []


def test_top_peers_orders_by_bytes_descending():
    report = build_report(_records())
    assert report.top_peers(5) == [(1, 100), (2, 40)]
    assert report.top_peers(1) == [(1, 100)]


def test_render_report_contains_all_sections():
    rendered = render_report(build_report(_records(), path="x.jsonl"))
    assert "Trace: x.jsonl" in rendered
    assert "Per-phase time" in rendered
    assert "filter.phase" in rendered
    assert "Bytes by category" in rendered
    assert "filtering" in rendered
    assert "TOTAL" in rendered
    assert "Message latency" in rendered
    assert "heaviest peers" in rendered


def test_unknown_kinds_are_skipped_and_counted():
    # A trace written by a newer build may carry kinds this one does not
    # declare: they must not fold into the report (their field
    # conventions are unknown) but must be accounted for.
    records = _records()
    records.insert(2, {"t": 0.5, "kind": "future.kind", "payload": 1})
    records.insert(3, {"t": 0.6, "kind": "future.kind"})
    records.insert(4, {"t": 0.7, "kind": "future.other"})
    report = build_report(records)
    assert report.unknown_kinds == {"future.kind": 2, "future.other": 1}
    assert report.events == 5  # unchanged: unknown records excluded
    assert "future.kind" not in report.kinds
    rendered = render_report(report)
    assert "3 records of 2 undeclared kinds skipped" in rendered
    assert "future.kind x2" in rendered


def test_span_records_render_critical_path_sections():
    from tests.telemetry.test_critical_path import convergecast_records

    report = build_report(_records() + convergecast_records())
    assert len(report.spans) == 8
    rendered = render_report(report)
    assert "Causal spans: 8" in rendered
    assert "Critical path — session 11" in rendered
    assert "path total 10.000 = session latency 10.000" in rendered
    assert "Per-level convergecast attribution" in rendered


def test_render_histogram_empty():
    from repro.metrics.registry import HistogramMetric

    assert "no observations" in render_histogram(HistogramMetric("h", (1.0,)))


def test_report_round_trips_through_real_sink(tmp_path):
    """A trace written by the live system folds into a sane report."""
    path = str(tmp_path / "run.jsonl")
    sim = Simulation(seed=0)
    sink = sim.telemetry.attach_jsonl(path)
    # Must be a declared kind — undeclared ones are skipped by design.
    with sim.telemetry.span("filter.phase"):
        sim.run(until=5.0)
    sink.close()
    report = build_report(iter_trace(path), path=path)
    assert [p.kind for p in report.phases] == ["filter.phase"]
    assert report.phases[0].sim_time == 5.0
    render_report(report)  # renders without raising


def test_trace_is_the_one_copy_of_latency_and_bytes(tmp_path):
    """Differential: a traced run's report restates the live run exactly —
    one latency observation per delivered message, and per-category bytes
    equal to the network's own accounting."""
    from repro.aggregation.hierarchical import AggregationEngine
    from repro.core.config import NetFilterConfig
    from repro.core.netfilter import NetFilter
    from repro.hierarchy.builder import Hierarchy
    from repro.net.network import Network
    from repro.net.overlay import Topology
    from repro.net.transport import TransportConfig
    from repro.workload.workload import Workload

    path = str(tmp_path / "jittered.jsonl")
    sim = Simulation(seed=3)
    sim.telemetry.attach_jsonl(path, sample_every=1)
    overlay = Topology.random_connected(60, 4.0, sim.rng.stream("topology"))
    network = Network(sim, overlay, TransportConfig(latency_jitter=0.7))
    workload = Workload.zipf(
        n_items=400, n_peers=60, skew=1.0, rng=sim.rng.stream("workload")
    )
    network.assign_items(workload.item_sets)
    engine = AggregationEngine(Hierarchy.build(network, root=0))
    config = NetFilterConfig(filter_size=20, num_filters=2, threshold_ratio=0.02)
    NetFilter(config).run(engine)
    sim.telemetry.close()

    report = build_report(iter_trace(path), path=path)
    assert report.latency.count == sim.trace.counters["msg.delivered"] > 0
    assert report.latency.min > 1.0  # jitter reached the trace
    assert report.accounting.bytes_by_category() == network.accounting.bytes_by_category()
