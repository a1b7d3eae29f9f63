"""Tests for the ablation studies."""

from __future__ import annotations

import pytest

from repro.experiments.ablations import (
    ablation_gossip,
    ablation_multi_filter,
    ablation_parameter_estimation,
    ablation_topology,
)
from repro.experiments.harness import ExperimentScale

SMALL = ExperimentScale.small()


def test_multi_filter_beats_single_big_filter():
    rows = ablation_multi_filter(SMALL, seed=0)
    by_label = {row.label: row.metrics for row in rows}
    # At the same f·g budget, f=3/g=100 prunes far better than f=1/g=300.
    assert by_label["f=3, g=100"]["candidates"] < by_label["f=1, g=300"]["candidates"]


def test_gossip_costs_more_and_is_approximate():
    rows = ablation_gossip(SMALL, seed=0, rounds=20)
    hierarchical, gossip = rows
    assert hierarchical.metrics["B/peer"] < gossip.metrics["B/peer"]
    assert hierarchical.metrics["max rel err"] == 0.0
    assert gossip.metrics["max rel err"] < 0.5


def test_parameter_estimation_lands_near_oracle_settings():
    rows = ablation_parameter_estimation(SMALL, seed=0)
    oracle, sampled = rows
    assert oracle.label == "oracle"
    assert sampled.metrics["g"] == pytest.approx(oracle.metrics["g"], rel=1.0)
    # The sampled tuning must not blow the cost up by more than 3x.
    assert sampled.metrics["total B/peer"] <= 3 * oracle.metrics["total B/peer"]
    assert sampled.metrics["sampling B/peer"] > 0


def test_header_overhead_does_not_flip_the_comparison():
    from repro.experiments.ablations import ablation_header_overhead

    rows = ablation_header_overhead(SMALL, seed=0)
    without, with_headers = rows
    # Headers make everything slightly dearer but netFilter stays well
    # ahead: both protocols send one message per tree edge per phase.
    assert with_headers.metrics["netFilter B/peer"] > without.metrics["netFilter B/peer"]
    assert with_headers.metrics["ratio"] < 0.8


def test_continuous_ablation_shows_steady_state_savings():
    from repro.experiments.ablations import ablation_continuous_monitoring

    dense, delta = ablation_continuous_monitoring(SMALL, seed=0, epochs=4)
    assert delta.metrics["steady filt B/peer"] < 0.8 * dense.metrics["steady filt B/peer"]


def test_gossip_netfilter_ablation_misses_nothing():
    from repro.experiments.ablations import ablation_gossip_netfilter

    hierarchical, gossip = ablation_gossip_netfilter(SMALL, seed=0)
    assert gossip.metrics["missed"] == 0
    assert gossip.metrics["B/peer"] > hierarchical.metrics["B/peer"]



def test_gossip_studies_pin_medium_rows():
    """Both gossip studies at N=300, a scale the golden export does not
    cover, equal the event engine's rows bit for bit (``==`` on floats)."""
    from repro.experiments.ablations import ablation_gossip_netfilter

    medium = ExperimentScale.medium()
    assert medium.n_peers == 300
    _, pushsum = ablation_gossip(medium, seed=0)
    assert pushsum.metrics == {
        "B/peer": 16160.0,
        "max rel err": 0.005382419609510647,
        "rounds": 40.0,
    }
    _, gossip = ablation_gossip_netfilter(medium, seed=0)
    assert gossip.metrics == {
        "B/peer": 285114.61333333334,
        "latency": 363.28203230275506,
        "missed": 0.0,
        "reported": 9.0,
    }

def test_exact_vs_approximate_ablation_orders_by_epsilon():
    from repro.experiments.ablations import ablation_exact_vs_approximate

    rows = ablation_exact_vs_approximate(SMALL, seed=0)
    sketch_rows = rows[1:]
    costs = [row.metrics["B/peer"] for row in sketch_rows]
    assert costs == sorted(costs)  # tighter epsilon costs more


def test_root_selection_ablation_central_is_shallower():
    from repro.experiments.ablations import ablation_root_selection

    random_row, central_row = ablation_root_selection(SMALL, seed=0)
    assert central_row.metrics["height"] <= random_row.metrics["height"]


def test_topology_does_not_change_the_answer_and_barely_the_cost():
    rows = ablation_topology(SMALL, seed=0)
    frequents = {row.metrics["frequent"] for row in rows}
    assert len(frequents) == 1  # identical answers everywhere
    costs = [row.metrics["total B/peer"] for row in rows]
    assert max(costs) < 1.5 * min(costs)
