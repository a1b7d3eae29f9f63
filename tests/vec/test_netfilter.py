"""Oracle-exactness and telemetry tests for :class:`VecNetFilter`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import NetFilterConfig
from repro.vec import VecNetFilter, build_table

CONFIG = NetFilterConfig(filter_size=64, num_filters=2, threshold_ratio=0.01)


@pytest.fixture(scope="module")
def run():
    built = build_table(n_peers=500, n_items=5_000, seed=11)
    return built, VecNetFilter(CONFIG).run(built.table)


class TestExactness:
    def test_frequent_matches_truth(self, run):
        built, result = run
        truth = built.global_values
        expected = {
            int(i): int(v) for i, v in enumerate(truth) if v >= result.threshold
        }
        assert result.frequent.to_dict() == expected

    def test_candidate_values_exact(self, run):
        built, result = run
        truth = built.global_values
        for item_id, value in result.candidates:
            assert truth[item_id] == value

    def test_grand_total(self, run):
        built, result = run
        assert result.grand_total == int(built.global_values.sum())
        assert result.n_participants == 500

    def test_threshold_resolution(self, run):
        _, result = run
        assert result.threshold == CONFIG.resolve_threshold(result.grand_total)


class TestDegradedStates:
    def test_dead_root_is_honest(self):
        table = build_table(n_peers=50, n_items=200, seed=1).table
        table.alive[table.root] = False
        result = VecNetFilter(CONFIG).run(table)
        assert not result.complete
        assert result.coverage == 0.0
        assert len(result.frequent) == 0
        assert result.breakdown.total == 0.0

    def test_faults_reduce_coverage(self):
        table = build_table(n_peers=300, n_items=1_000, seed=5).table
        table.alive[1:31] = False
        result = VecNetFilter(CONFIG).run(table)
        assert result.coverage <= 1.0
        assert result.n_participants < 300


class TestTelemetry:
    def test_batched_phase_events_and_histogram(self):
        from repro.sim.engine import Simulation

        table = build_table(n_peers=120, n_items=500, seed=2).table
        telemetry = Simulation(seed=0).telemetry
        telemetry.tracer.start_recording()
        VecNetFilter(CONFIG).run(table, telemetry=telemetry)
        records = telemetry.tracer.stop_recording()
        phases = [r for r in records if r.kind == "vec.phase"]
        assert [r.fields["phase"] for r in phases] == [
            "totals",
            "filtering",
            "verification",
        ]
