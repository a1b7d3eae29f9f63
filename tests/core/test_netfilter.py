"""Integration tests for the full netFilter protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import filters
from repro.core.config import NetFilterConfig
from repro.core.netfilter import NetFilter
from repro.core.oracle import oracle_frequent_items

from tests.conftest import build_small_system


@pytest.fixture(scope="module")
def system():
    return build_small_system(seed=1)


@pytest.fixture(scope="module")
def result(system):
    config = NetFilterConfig(filter_size=60, num_filters=3, threshold_ratio=0.01)
    return NetFilter(config).run(system.engine)


class TestExactness:
    def test_matches_oracle(self, system, result):
        assert result.frequent == oracle_frequent_items(system.network, result.threshold)

    def test_no_false_positives(self, result):
        assert bool((result.frequent.values >= result.threshold).all())

    def test_no_false_negatives(self, system, result):
        truth = system.workload.frequent_items(result.threshold)
        assert result.frequent_ids.tolist() == truth.tolist()

    def test_values_exact(self, system, result):
        global_values = system.workload.global_values()
        for item_id, value in result.frequent:
            assert global_values[item_id] == value

    def test_candidates_superset_of_frequent(self, result):
        assert np.isin(result.frequent.ids, result.candidates.ids).all()

    def test_grand_total_and_population(self, system, result):
        assert result.grand_total == system.workload.total_value
        assert result.n_participants == system.network.n_live_peers


class TestCosts:
    def test_filtering_cost_matches_formula(self, system, result):
        # s_a · f · g for every peer except the root.
        model = system.network.size_model
        expected = (
            model.aggregate_bytes
            * 3
            * 60
            * (system.network.n_peers - 1)
            / system.network.n_peers
        )
        assert result.breakdown.filtering == pytest.approx(expected)

    def test_dissemination_cost_matches_formula(self, system, result):
        # s_g per heavy-group id, sent to every peer except the root
        # (each non-leaf forwards to its children: one copy per recipient).
        model = system.network.size_model
        expected = (
            model.group_id_bytes
            * result.heavy_groups.total_count
            * (system.network.n_peers - 1)
            / system.network.n_peers
        )
        assert result.breakdown.dissemination == pytest.approx(expected)

    def test_aggregation_cost_counts_candidate_pairs(self, system, result):
        model = system.network.size_model
        pairs = (
            result.breakdown.aggregation
            * system.network.n_peers
            / model.pair_bytes
        )
        assert pairs == pytest.approx(
            result.avg_candidates_per_peer * system.network.n_peers
        )
        # Every peer propagates at most the full candidate set once.
        assert result.avg_candidates_per_peer <= result.candidate_count

    def test_breakdown_total_is_component_sum(self, result):
        assert result.breakdown.total == pytest.approx(
            result.breakdown.filtering
            + result.breakdown.dissemination
            + result.breakdown.aggregation
        )

    def test_runs_are_cost_isolated(self, system):
        # Two identical runs must report identical (not cumulative) costs.
        config = NetFilterConfig(filter_size=50, num_filters=2, threshold_ratio=0.01)
        first = NetFilter(config).run(system.engine)
        second = NetFilter(config).run(system.engine)
        assert first.breakdown.total == pytest.approx(second.breakdown.total)
        assert first.frequent == second.frequent


class TestConfigurationIndependence:
    """The answer must not depend on (g, f) — only the cost can."""

    @pytest.mark.parametrize("filter_size", [5, 17, 64, 200])
    @pytest.mark.parametrize("num_filters", [1, 4])
    def test_any_setting_is_exact(self, system, filter_size, num_filters):
        config = NetFilterConfig(
            filter_size=filter_size,
            num_filters=num_filters,
            threshold_ratio=0.01,
        )
        result = NetFilter(config).run(system.engine)
        assert result.frequent == oracle_frequent_items(
            system.network, result.threshold
        )

    def test_absolute_threshold_config(self, system):
        config = NetFilterConfig(filter_size=32, num_filters=2, threshold=300)
        result = NetFilter(config).run(system.engine)
        assert result.threshold == 300
        assert result.frequent == oracle_frequent_items(system.network, 300)


class TestEdgeCases:
    def test_threshold_above_everything_returns_empty(self, system):
        config = NetFilterConfig(filter_size=32, num_filters=2, threshold=10**9)
        result = NetFilter(config).run(system.engine)
        assert len(result.frequent) == 0
        assert result.heavy_groups.total_count == 0
        # Phase 2 still runs but carries (almost) nothing.
        assert result.breakdown.aggregation == 0.0

    def test_tiny_threshold_returns_everything(self, system):
        config = NetFilterConfig(filter_size=64, num_filters=1, threshold=1)
        result = NetFilter(config).run(system.engine)
        truth = oracle_frequent_items(system.network, 1)
        assert result.frequent == truth

    def test_single_group_filter_degenerates_to_naive_candidates(self, system):
        config = NetFilterConfig(filter_size=1, num_filters=1, threshold_ratio=0.01)
        result = NetFilter(config).run(system.engine)
        # One group holding all mass is heavy, so every item is a candidate.
        truth = oracle_frequent_items(system.network, result.threshold)
        assert result.frequent == truth

    def test_result_str_mentions_counts(self, result):
        text = str(result)
        assert "frequent items" in text and "candidates" in text


def test_each_peer_hashes_its_items_once_per_phase(system, monkeypatch):
    # Phase 1 and phase 2 each put a peer's ids through all f filters in
    # one kernel call (per-filter hashing entered it 2·f times per peer).
    entries = []
    kernel = filters.salted_groups

    def counting(item_ids, salts, n_groups):
        entries.append(len(item_ids))
        return kernel(item_ids, salts, n_groups)

    monkeypatch.setattr(filters, "salted_groups", counting)
    config = NetFilterConfig(filter_size=60, num_filters=3, threshold_ratio=0.01)
    result = NetFilter(config).run(system.engine)
    assert result.frequent == oracle_frequent_items(system.network, result.threshold)
    assert 0 < len(entries) <= 2 * system.network.n_peers
