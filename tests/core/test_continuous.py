"""Tests for continuous monitoring with delta filtering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import NetFilterConfig
from repro.core.continuous import ContinuousNetFilter
from repro.core.netfilter import NetFilter
from repro.core.oracle import oracle_frequent_items
from repro.workload.streams import ZipfStream

from tests.conftest import build_small_system


def make_monitored(seed: int = 0, drift: int = 0):
    system = build_small_system(seed=seed, n_peers=60, n_items=3000)
    config = NetFilterConfig(filter_size=80, num_filters=2, threshold_ratio=0.01)
    monitor = ContinuousNetFilter(config, system.engine)
    stream = ZipfStream(
        n_items=3000,
        n_peers=60,
        skew=1.0,
        instances_per_epoch=3000,
        rng=system.sim.rng.stream("stream"),
        drift_per_epoch=drift,
    )
    return system, monitor, stream


def test_every_epoch_is_exact():
    system, monitor, stream = make_monitored()
    for _ in range(4):
        stream.apply_to(system.network)
        report = monitor.run_epoch()
        truth = oracle_frequent_items(system.network, report.result.threshold)
        assert report.result.frequent == truth


def test_delta_totals_match_dense_phase1():
    """The root's running group totals must equal a from-scratch dense
    phase 1 at every epoch — the correctness invariant of delta mode."""
    from repro.core.oracle import oracle_global_values

    system, monitor, stream = make_monitored()
    for _ in range(3):
        stream.apply_to(system.network)
        monitor.run_epoch()
        global_items = oracle_global_values(system.network)
        merged = np.concatenate(
            [f.local_group_values(global_items) for f in monitor.bank.filters]
        )
        assert np.array_equal(monitor._group_totals, merged)


def test_delta_cheaper_than_dense_on_quiet_epochs():
    # Small per-epoch batches touch few groups; after epoch 0 the sparse
    # deltas must undercut the dense vector.
    system, monitor, stream = make_monitored(seed=3)
    stream.instances_per_epoch = 50  # quiet epochs
    reports = []
    for _ in range(3):
        stream.apply_to(system.network)
        reports.append(monitor.run_epoch())
    first, later = reports[0], reports[-1]
    assert later.changed_groups < monitor.bank.total_groups
    assert later.result.breakdown.filtering < later.dense_equivalent_bytes
    assert later.filtering_savings > 0
    # Epoch 0 pays the sparse premium for a full change set.
    assert first.filtering_savings <= 0.1


def test_dense_mode_costs_the_same_every_epoch():
    # The ablation's dense arm: one-shot netFilter, rerun every epoch.
    system, monitor, stream = make_monitored(seed=4)
    costs = []
    for _ in range(3):
        stream.apply_to(system.network)
        costs.append(NetFilter(monitor.config).run(system.engine).breakdown.filtering)
    assert costs[0] == pytest.approx(costs[1]) == pytest.approx(costs[2])


def test_threshold_tracks_growing_data():
    system, monitor, stream = make_monitored(seed=5)
    thresholds = []
    for _ in range(3):
        stream.apply_to(system.network)
        thresholds.append(monitor.run_epoch().result.threshold)
    assert thresholds == sorted(thresholds)
    assert thresholds[-1] > thresholds[0]


def test_drift_changes_the_frequent_set():
    system, monitor, stream = make_monitored(seed=6, drift=500)
    stream.apply_to(system.network)
    first = monitor.run_epoch().result.frequent
    for _ in range(6):
        stream.apply_to(system.network)
    last = monitor.run_epoch().result.frequent
    assert not np.array_equal(first.ids, last.ids)
    # Still exact under drift.
    truth = oracle_frequent_items(system.network, monitor.reports[-1].result.threshold)
    assert last == truth


def test_reports_accumulate():
    system, monitor, stream = make_monitored(seed=7)
    for _ in range(3):
        stream.apply_to(system.network)
        monitor.run_epoch()
    assert [report.epoch for report in monitor.reports] == [0, 1, 2]


def test_monitor_probes_feed_epoch_timeseries():
    """With enable_epochs on, every monitoring round lands its probes
    (staleness, changed groups, frequent-set size, savings) in the
    windowed epoch grid."""
    system, monitor, stream = make_monitored()
    ts = system.sim.telemetry.enable_epochs(1.0)
    for _ in range(2):
        stream.apply_to(system.network)
        monitor.run_epoch()
    # Close the telemetry epoch holding the last round's probes.
    system.sim.schedule(1.0, lambda: None)
    system.sim.run()
    ts.roll()
    for probe, values in {
        "monitor.staleness": [r.result.elapsed_time for r in monitor.reports],
        "monitor.changed_groups": [float(r.changed_groups) for r in monitor.reports],
        "monitor.frequent_items": [
            float(len(r.result.frequent)) for r in monitor.reports
        ],
        "monitor.filtering_savings": [r.filtering_savings for r in monitor.reports],
    }.items():
        assert [v for _, v in ts.series(probe)] == values, probe
        assert ts.latest(probe) == values[-1]
