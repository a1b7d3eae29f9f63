"""End-to-end telemetry: a full netFilter run streams a coherent trace."""

from __future__ import annotations

import pytest

from repro.core.config import NetFilterConfig
from repro.core.netfilter import NetFilter
from repro.experiments.harness import ExperimentScale, build_trial
from repro.telemetry.report import build_report
from repro.telemetry.sink import read_trace


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("traces") / "netfilter.jsonl")
    trial = build_trial(ExperimentScale.small(), seed=0, trace_path=path)
    config = NetFilterConfig(filter_size=50, num_filters=3, threshold_ratio=0.01)
    result = NetFilter(config).run(trial.engine)
    trial.finish_trace()
    return path, result


def test_trace_contains_expected_event_kinds(traced_run):
    path, _ = traced_run
    kinds = {record["kind"] for record in read_trace(path)}
    for expected in (
        "trace.meta",
        "trace.summary",
        "msg.sent",
        "msg.delivered",
        "filter.phase",
        "verify.phase",
        "totals.phase",
        "netfilter.run",
        "filter.heavy_groups",
        "aggregation.start",
        "aggregation.complete",
    ):
        assert expected in kinds, f"missing {expected} (saw {sorted(kinds)})"


def test_trace_timestamps_are_monotone(traced_run):
    path, _ = traced_run
    times = [
        record["t"] for record in read_trace(path) if "t" in record
    ]
    assert times, "trace has no timestamped records"
    assert all(a <= b for a, b in zip(times, times[1:]))


def test_spans_are_balanced_and_nonnegative(traced_run):
    path, _ = traced_run
    opened: dict[str, int] = {}
    for record in read_trace(path):
        ev = record.get("ev")
        if ev == "begin":
            opened[record["kind"]] = opened.get(record["kind"], 0) + 1
        elif ev == "end":
            opened[record["kind"]] = opened.get(record["kind"], 0) - 1
            assert record["sim_elapsed"] >= 0.0
            assert record["wall_elapsed"] >= 0.0
    assert opened, "no span events in trace"
    assert all(balance == 0 for balance in opened.values())


def test_summary_counters_match_body(traced_run):
    path, _ = traced_run
    records = read_trace(path)
    summary = records[-1]
    assert summary["kind"] == "trace.summary"
    body_sent = sum(1 for r in records if r.get("kind") == "msg.sent")
    # Unsampled trace: summary counters equal what is in the body.
    assert summary["sample_every"] == 1
    assert summary["counters"]["msg.sent"] == body_sent


def test_report_agrees_with_live_accounting(traced_run):
    """Replaying msg.sent events reproduces the live byte totals."""
    path, result = traced_run
    report = build_report(read_trace(path), path=path)
    assert report.accounting.total_bytes() > 0
    assert report.latency.count > 0
    phase_kinds = {phase.kind for phase in report.phases}
    assert {"filter.phase", "verify.phase", "netfilter.run"} <= phase_kinds
    assert len(result.frequent) > 0
