"""Ablations of netFilter's design choices (beyond the paper's figures).

Nine studies, each isolating one design decision that DESIGN.md calls
out; :func:`run_all_ablations` runs them all.  They weigh ``f`` small
filters against one big one at a fixed ``f·g`` budget, hierarchical
against push-sum aggregation, sampling- against oracle-tuned settings,
overlay families, exact netFilter against an ε-tolerant sketch, a random
against a central root, hierarchical against gossip netFilter (Section
VI's future work), delta against dense continuous filtering, and the
cost of a per-message header.  The two gossip studies run as array
programs (:mod:`repro.vec.gossip`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.config import NetFilterConfig
from repro.core.filters import FilterBank
from repro.core.netfilter import NetFilter
from repro.core.optimizer import ParameterEstimates, derive_optimal_settings
from repro.core.sampling import ParameterEstimator, SamplingConfig
from repro.aggregation.hierarchical import AggregationEngine
from repro.experiments.harness import ExperimentScale, PaperDefaults, build_trial
from repro.experiments.parallel import TrialSpec, run_trials
from repro.hierarchy.builder import Hierarchy
from repro.metrics.breakdown import CostBreakdown
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.sim.engine import Simulation
from repro.vec.gossip import (
    GossipNetFilterConfig,
    Overlay,
    estimate_at,
    gossip_netfilter,
    push_bytes,
    push_sum,
)
from repro.workload.workload import Workload


@dataclass(frozen=True)
class AblationRow:
    """One ablation configuration and its measured outcome."""

    label: str
    metrics: dict[str, float]

    def as_dict(self) -> dict[str, float]:
        return {"variant": self.label, **self.metrics}


def ablation_multi_filter(
    scale: ExperimentScale | None = None, seed: int = 0
) -> list[AblationRow]:
    """Same filtering budget ``f·g = 300``, different splits.

    Multiple independent filters prune heterogeneous false positives
    multiplicatively, while one big filter only thins groups linearly —
    the rows show the candidate count and total cost per split.
    """
    trial = build_trial(scale or ExperimentScale.paper(), seed=seed)
    ratio = trial.defaults.threshold_ratio
    rows = []
    for num_filters, filter_size in ((1, 300), (2, 150), (3, 100), (6, 50)):
        config = NetFilterConfig(
            filter_size=filter_size, num_filters=num_filters, threshold_ratio=ratio
        )
        result = NetFilter(config).run(trial.engine)
        rows.append(
            AblationRow(
                label=f"f={num_filters}, g={filter_size}",
                metrics={
                    "candidates": float(result.candidate_count),
                    "false pos": float(result.false_positive_count),
                    "total B/peer": result.breakdown.total,
                },
            )
        )
    return rows


def ablation_gossip(
    scale: ExperimentScale | None = None,
    seed: int = 0,
    filter_size: int = 100,
    rounds: int = 40,
) -> list[AblationRow]:
    """Phase-1 group aggregates: hierarchical convergecast vs push-sum.

    Hierarchical needs one up-sweep of exact values; push-sum needs tens
    of rounds and stays approximate.  Reported: per-peer bytes and the
    worst relative error of the group-aggregate estimate at the root peer.
    """
    trial = build_trial(scale or ExperimentScale.small(), seed=seed)
    network = trial.network
    bank = FilterBank(num_filters=1, filter_size=filter_size, hash_seed=0)

    config = NetFilterConfig(
        filter_size=filter_size, num_filters=1,
        threshold_ratio=trial.defaults.threshold_ratio,
    )
    hierarchical = NetFilter(config).run(trial.engine).breakdown

    overlay = Overlay.from_network(network)
    mass = np.array(
        [bank.local_group_aggregates(network.node(int(peer)).items) for peer in overlay.peers],
        dtype=np.float64,
    )
    truth = mass.sum(axis=0)
    weight = np.ones(overlay.peers.size)
    messages, _ = push_sum(overlay, mass, weight, rounds, network.sim.rng.stream("gossip"))
    sent = push_bytes(
        network.size_model, messages, messages * filter_size, network.size_model.aggregate_bytes
    )
    # Uniform weights: x/w estimates the average, scaled by the peer count.
    estimate = estimate_at(overlay, mass, weight, trial.hierarchy.root) * overlay.peers.size
    nonzero = truth > 0
    rel_error = (
        float(np.max(np.abs(estimate[nonzero] - truth[nonzero]) / truth[nonzero]))
        if nonzero.any()
        else 0.0
    )
    return [
        AblationRow(
            "hierarchical",
            {"B/peer": hierarchical.filtering, "max rel err": 0.0, "rounds": 1.0},
        ),
        AblationRow(
            f"push-sum({rounds}r)",
            {
                "B/peer": sent / network.n_peers,
                "max rel err": rel_error,
                "rounds": float(rounds),
            },
        ),
    ]


def ablation_parameter_estimation(
    scale: ExperimentScale | None = None, seed: int = 0
) -> list[AblationRow]:
    """Tune (g, f) from sampling estimates vs from the oracle."""
    trial = build_trial(scale or ExperimentScale.paper(), seed=seed)
    ratio = trial.defaults.threshold_ratio
    workload = trial.workload
    threshold = workload.threshold(ratio)

    oracle_estimates = ParameterEstimates(
        n_items=workload.n_items,
        heavy_count=workload.heavy_count(threshold),
        mean_value=workload.mean_value(),
        mean_light_value=workload.mean_light_value(threshold),
        source="oracle",
    )
    estimator = ParameterEstimator(trial.engine, SamplingConfig(n_branches=4))
    before = trial.network.accounting.bytes_by_category()
    sampled_estimates = estimator.run(ratio)
    sampling = CostBreakdown.from_delta(
        before, trial.network.accounting.bytes_by_category(), trial.network.n_peers
    )

    rows = []
    for estimates in (oracle_estimates, sampled_estimates):
        settings = derive_optimal_settings(
            estimates, ratio, trial.network.size_model
        )
        config = NetFilterConfig(
            filter_size=settings.filter_size,
            num_filters=settings.num_filters,
            threshold_ratio=ratio,
        )
        result = NetFilter(config).run(trial.engine)
        rows.append(
            AblationRow(
                label=estimates.source.split("(")[0],
                metrics={
                    "g": float(settings.filter_size),
                    "f": float(settings.num_filters),
                    "total B/peer": result.breakdown.total,
                    "sampling B/peer": (
                        sampling.sampling if estimates.source != "oracle" else 0.0
                    ),
                },
            )
        )
    return rows


def ablation_topology(
    scale: ExperimentScale | None = None, seed: int = 0
) -> list[AblationRow]:
    """netFilter cost across overlay families at one workload."""
    scale = scale or ExperimentScale.small()
    families: dict[str, Callable[[int, np.random.Generator], Topology] | None] = {
        "random": None,
        "regular": lambda n, rng: Topology.random_regular(n, 4, rng),
        "small-world": lambda n, rng: Topology.small_world(n, 4, 0.2, rng),
        "scale-free": lambda n, rng: Topology.scale_free(n, 2, rng),
        "tree": lambda n, rng: Topology.balanced_tree(n, PaperDefaults.branching),
    }
    rows = []
    for label, family in families.items():
        trial = build_trial(scale, seed=seed, topology=family)
        config = NetFilterConfig(
            filter_size=100, num_filters=3,
            threshold_ratio=trial.defaults.threshold_ratio,
        )
        result = NetFilter(config).run(trial.engine)
        rows.append(
            AblationRow(
                label=label,
                metrics={
                    "height": float(trial.hierarchy_height),
                    "total B/peer": result.breakdown.total,
                    "frequent": float(len(result.frequent)),
                },
            )
        )
    return rows


def ablation_exact_vs_approximate(
    scale: ExperimentScale | None = None, seed: int = 0
) -> list[AblationRow]:
    """netFilter's exactness vs the ε-tolerant related-work approach.

    The paper (footnote 5) declines a quantitative comparison because the
    guarantees differ; here both run on the same workload so the trade is
    visible: the sketch protocol's cost scales with 1/ε and its report
    carries false positives and value error, while netFilter is exact.
    """
    from repro.core.approximate import ApproximateConfig, ApproximateIFIProtocol
    from repro.core.oracle import oracle_frequent_items

    trial = build_trial(scale or ExperimentScale.medium(), seed=seed)
    ratio = trial.defaults.threshold_ratio
    rows = []

    exact = NetFilter(
        NetFilterConfig(filter_size=100, num_filters=3, threshold_ratio=ratio)
    ).run(trial.engine)
    truth = oracle_frequent_items(trial.network, exact.threshold)
    rows.append(
        AblationRow(
            "netFilter (exact)",
            {
                "B/peer": exact.breakdown.total,
                "reported": float(len(exact.frequent)),
                "false pos": float(len(exact.frequent) - len(truth)),
                "value err": 0.0,
            },
        )
    )
    for epsilon in (0.01, 0.002, 0.0005):
        approx = ApproximateIFIProtocol(
            ApproximateConfig(epsilon=epsilon, threshold_ratio=ratio)
        ).run(trial.engine)
        errors = [
            estimate - truth.value_of(item_id)
            for item_id, estimate in approx.reported
            if item_id in truth
        ]
        rows.append(
            AblationRow(
                f"sketch eps={epsilon}",
                {
                    "B/peer": approx.total_cost,
                    "reported": float(len(approx.reported)),
                    "false pos": float(len(approx.reported) - len(truth)),
                    "value err": float(np.mean(errors)) if errors else 0.0,
                },
            )
        )
    return rows


def ablation_gossip_netfilter(
    scale: ExperimentScale | None = None, seed: int = 0
) -> list[AblationRow]:
    """Hierarchical netFilter vs the fully-gossip variant (Section VI's
    future work, implemented in :mod:`repro.vec.gossip`).

    Reports bytes, simulated latency, and answer quality of each.
    """
    from repro.core.oracle import oracle_frequent_items

    scale = scale or ExperimentScale.small()
    trial = build_trial(scale, seed=seed)
    ratio = trial.defaults.threshold_ratio
    hier_result = NetFilter(
        NetFilterConfig(filter_size=100, num_filters=3, threshold_ratio=ratio)
    ).run(trial.engine)

    # A fresh, identical system; gossip ignores its hierarchy.
    network = build_trial(scale, seed=seed).network
    gossip_result = gossip_netfilter(
        network,
        GossipNetFilterConfig(
            filter_size=100, num_filters=3, threshold_ratio=ratio, rounds=60
        ),
        requester=0,
    )
    truth = oracle_frequent_items(network, gossip_result.threshold)
    missed = sum(1 for item in truth.ids if item not in gossip_result.reported)
    return [
        AblationRow(
            "hierarchical",
            {
                "B/peer": hier_result.breakdown.total,
                "latency": hier_result.elapsed_time,
                "missed": 0.0,
                "reported": float(len(hier_result.frequent)),
            },
        ),
        AblationRow(
            "gossip(60r)",
            {
                "B/peer": gossip_result.total_cost,
                "latency": gossip_result.elapsed_time,
                "missed": float(missed),
                "reported": float(len(gossip_result.reported)),
            },
        ),
    ]


def ablation_root_selection(
    scale: ExperimentScale | None = None, seed: int = 0
) -> list[AblationRow]:
    """Random vs central root (Section III-A.1's 'future exploration').

    A central root minimizes the hierarchy height, shortening every
    convergecast path; per-peer byte cost barely moves (it is dominated
    by payload sizes, not path lengths) — which is presumably why the
    paper was content with a random root.
    """
    from repro.hierarchy.root_selection import central_root, random_root

    scale = scale or ExperimentScale.small()
    defaults = PaperDefaults()
    rows = []
    for label in ("random", "central"):
        sim = Simulation(seed=seed)
        topology = Topology.random_connected(
            scale.n_peers, float(defaults.branching + 1), sim.rng.stream("topology")
        )
        network = Network(sim, topology, size_model=defaults.size_model)
        workload = Workload.zipf(
            scale.n_items, scale.n_peers, defaults.skew, sim.rng.stream("workload")
        )
        network.assign_items(workload.item_sets)
        if label == "random":
            root = random_root(network, sim.rng.stream("root"))
        else:
            root = central_root(network)
        hierarchy = Hierarchy.build(network, root=root)
        engine = AggregationEngine(hierarchy)
        result = NetFilter(
            NetFilterConfig(
                filter_size=100, num_filters=3,
                threshold_ratio=defaults.threshold_ratio,
            )
        ).run(engine)
        rows.append(
            AblationRow(
                label,
                {
                    "root": float(root),
                    "height": float(hierarchy.height()),
                    "total B/peer": result.breakdown.total,
                },
            )
        )
    return rows


def ablation_continuous_monitoring(
    scale: ExperimentScale | None = None, seed: int = 0, epochs: int = 5
) -> list[AblationRow]:
    """Delta filtering vs dense phase 1 under a streaming workload.

    A quiet stream (1% of the data arriving per epoch) is monitored for
    several epochs with and without the sparse-delta optimization of
    :mod:`repro.core.continuous` (the dense arm reruns one-shot netFilter
    each epoch); reported is the mean per-epoch filtering cost after
    warm-up (epoch 0 always pays the full change set).
    """
    from repro.core.continuous import ContinuousNetFilter
    from repro.workload.streams import ZipfStream

    scale = scale or ExperimentScale.small()
    rows = []
    for delta in (False, True):
        trial = build_trial(scale, seed=seed)
        config = NetFilterConfig(
            filter_size=100, num_filters=3,
            threshold_ratio=trial.defaults.threshold_ratio,
        )
        monitor = ContinuousNetFilter(config, trial.engine) if delta else None
        stream = ZipfStream(
            n_items=scale.n_items,
            n_peers=scale.n_peers,
            skew=trial.defaults.skew,
            instances_per_epoch=max(scale.n_items // 10, 1),
            rng=trial.sim.rng.stream("stream"),
        )
        results = []
        for _ in range(epochs):
            stream.apply_to(trial.network)
            if monitor is None:
                results.append(NetFilter(config).run(trial.engine))
            else:
                results.append(monitor.run_epoch().result)
        filtering_costs = [result.breakdown.filtering for result in results]
        steady = filtering_costs[1:] or filtering_costs
        rows.append(
            AblationRow(
                "delta" if delta else "dense",
                {
                    "epoch0 filt B/peer": filtering_costs[0],
                    "steady filt B/peer": float(np.mean(steady)),
                    "total B/peer": float(
                        np.mean([r.breakdown.total for r in results[1:] or results])
                    ),
                },
            )
        )
    return rows


def ablation_header_overhead(
    scale: ExperimentScale | None = None, seed: int = 0
) -> list[AblationRow]:
    """Sensitivity to per-message header overhead.

    The paper prices payloads only (headers = 0).  Real packets carry
    headers, and protocols differ enormously in message *count*: netFilter
    and naive send one message per tree edge per phase, while gossip sends
    thousands of small pushes.  Re-pricing the same runs with a 40-byte
    header (IPv4+UDP-ish) shows which designs are chatty.
    """
    from repro.core.naive import NaiveProtocol
    from repro.net.wire import SizeModel

    scale = scale or ExperimentScale.small()
    rows = []
    for header in (0, 40):
        trial = build_trial(
            scale, seed=seed, defaults=PaperDefaults(size_model=SizeModel(header_bytes=header))
        )
        config = NetFilterConfig(filter_size=100, num_filters=3, threshold_ratio=0.01)
        net_result = NetFilter(config).run(trial.engine)
        naive_result = NaiveProtocol(config).run(trial.engine)
        rows.append(
            AblationRow(
                f"header={header}B",
                {
                    "netFilter B/peer": net_result.breakdown.total,
                    "naive B/peer": naive_result.breakdown.naive,
                    "ratio": net_result.breakdown.total
                    / max(naive_result.breakdown.naive, 1e-9),
                },
            )
        )
    return rows


def run_all_ablations(
    scale: ExperimentScale, seed: int = 0, jobs: int = 1
) -> dict[str, list[AblationRow]]:
    """All ablation studies at ``scale``; keys are the study names.

    Each study is independent (fresh simulation, fresh RNG registry), so
    ``jobs > 1`` runs them study-per-worker; key order never changes.
    """
    studies: tuple[tuple[str, Any], ...] = (
        ("multi-filter split (fixed f*g budget)", ablation_multi_filter),
        ("hierarchical vs gossip aggregation", ablation_gossip),
        ("sampling-tuned vs oracle-tuned settings", ablation_parameter_estimation),
        ("overlay topology sensitivity", ablation_topology),
        ("exact netFilter vs eps-tolerant sketch", ablation_exact_vs_approximate),
        ("root selection (random vs central)", ablation_root_selection),
        ("hierarchical vs gossip netFilter (future work)", ablation_gossip_netfilter),
        ("continuous monitoring: delta vs dense filtering", ablation_continuous_monitoring),
        ("per-message header overhead", ablation_header_overhead),
    )
    results = run_trials(
        [
            TrialSpec(fn=fn, kwargs=dict(scale=scale, seed=seed), label=name)
            for name, fn in studies
        ],
        jobs=jobs,
    )
    return {name: rows for (name, _), rows in zip(studies, results)}
