"""Churn soak harness: the monitoring service under composed faults.

The ISSUE-8 serving story, end to end: a :class:`MonitorService` runs a
time-faded :class:`~repro.core.continuous.ContinuousNetFilter` for
hundreds of scheduled epochs while the fault DSL pours trouble on it —
Poisson churn (crash + exponential downtime), periodic
:class:`~repro.faults.scenario.BurstLoss` windows, and
:class:`~repro.faults.scenario.SuspendPeer` gray failures on interior
peers — and the item distribution drifts and spikes with flash crowds.

The harness asserts the service's contract *every epoch*:

* **never blocks** — each scheduled epoch yields an answer, fresh or
  degraded, stamped with the wall epoch;
* **honest staleness** — a degraded answer's ``staleness_epochs`` never
  exceeds the configured ceiling;
* **monotone commits** — committed epoch numbers strictly increase;
* **committed exactness** — every committed frequent set matches an
  independent participant-restricted ledger mirror (the paper's
  no-false-negative guarantee carried through decay, deltas and resync)
  to float64 round-off;
* **replayability** — the answer stream is digested so two same-seed
  runs can be compared byte for byte.

Recall against the *time-faded oracle* (the ideal answer over every
arrival that actually landed on a live peer, faded by arrival epoch) is
measured per epoch and reported, not asserted: degraded epochs serve
stale results on purpose, and the recall series is exactly the honest
picture of what that costs.  ``BENCH_continuous.json`` is generated from
these rows by ``benchmarks/bench_continuous.py``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.aggregation.hierarchical import AggregationEngine
from repro.core.config import NetFilterConfig
from repro.core.continuous import ContinuousNetFilter, EpochReport
from repro.errors import ConfigurationError, ExperimentError
from repro.faults import BurstLoss, FaultInjector, FaultScenario, SuspendPeer
from repro.faults.scenario import FaultAction
from repro.hierarchy.builder import Hierarchy
from repro.hierarchy.maintenance import enable_maintenance
from repro.items.itemset import FadedItemSet, LocalItemSet
from repro.net.churn import ChurnConfig, ChurnProcess
from repro.net.heartbeat import HeartbeatConfig
from repro.net.network import Network
from repro.net.overlay import Topology
from repro.net.transport import ReliabilityConfig, TransportConfig
from repro.service import MonitorService, ServiceConfig
from repro.sim.engine import Simulation
from repro.workload.streams import ZipfStream
from repro.workload.workload import Workload


@dataclass(frozen=True)
class SoakConfig:
    """Everything one soak run needs; two presets cover CI and the bench.

    The monitor commits only at full coverage: a commit then proves
    every live peer's delta reached the root, which is what makes the
    exactness mirror — and the paper's no-false-negative claim —
    checkable per commit.  Availability under partial coverage is the
    degraded-answer path, not a weaker commit.
    """

    seed: int = 0
    epochs: int = 50
    n_peers: int = 24
    n_items: int = 2000
    skew: float = 1.0
    mean_degree: float = 4.0
    instances_per_epoch: int = 3000
    drift_per_epoch: int = 2
    flash_every: int = 10
    flash_duration: int = 2
    flash_share: float = 0.3
    decay_factor: float = 0.9
    filter_size: int = 400
    num_filters: int = 2
    threshold_ratio: float = 0.005
    epoch_interval: float = 120.0
    deadline: float = 110.0
    max_attempts: int = 3
    retry_backoff: float = 10.0
    max_staleness: int = 12
    rebaseline_after: int = 3
    churn_rate: float = 0.003
    mean_downtime: float = 150.0
    burst_every: int = 7
    burst_duration: float = 40.0
    burst_probability: float = 0.25
    suspend_every: int = 9
    suspend_duration: float = 25.0
    heartbeat_interval: float = 5.0
    heartbeat_timeout: float = 16.0
    child_timeout: float = 30.0

    def __post_init__(self) -> None:
        if self.epochs <= 0:
            raise ConfigurationError("epochs must be positive")
        if self.churn_rate < 0:
            raise ConfigurationError("churn_rate must be non-negative")
        if self.burst_every < 0 or self.suspend_every < 0:
            raise ConfigurationError("fault cadences must be non-negative")

    @classmethod
    def smoke(cls, seed: int = 0) -> "SoakConfig":
        """The CI cell: ~50 epochs, loss x churn x flash crowds."""
        return cls(seed=seed)

    @classmethod
    def full(cls, seed: int = 0) -> "SoakConfig":
        """The acceptance run: 200 epochs over a 2000-item universe."""
        return cls(seed=seed, epochs=200, n_peers=32, n_items=2000, churn_rate=0.002)


@dataclass
class SoakResult:
    """One soak run's evidence: per-epoch rows, summary, replay digest."""

    config: SoakConfig
    rows: list[dict[str, Any]]
    summary: dict[str, Any]
    digest: str

    def as_dict(self) -> dict[str, Any]:
        return {
            "config": {
                "seed": self.config.seed,
                "epochs": self.config.epochs,
                "n_peers": self.config.n_peers,
                "n_items": self.config.n_items,
                "decay_factor": self.config.decay_factor,
                "threshold_ratio": self.config.threshold_ratio,
                "max_staleness": self.config.max_staleness,
                "churn_rate": self.config.churn_rate,
                "burst_probability": self.config.burst_probability,
            },
            "digest": self.digest,
            "summary": self.summary,
            "series": self.rows,
        }


def _fault_scenario(config: SoakConfig, base: float, interiors: list[int]) -> FaultScenario:
    """Timed BurstLoss windows and SuspendPeer gray failures, phased
    against the epoch schedule (each window opens shortly after an epoch
    starts, so it hits live convergecasts, not idle time)."""
    actions: list[FaultAction] = []
    if config.burst_every > 0:
        for k in range(config.burst_every, config.epochs, config.burst_every):
            actions.append(
                BurstLoss(
                    start=base + k * config.epoch_interval + 2.0,
                    duration=config.burst_duration,
                    probability=config.burst_probability,
                )
            )
    if config.suspend_every > 0 and interiors:
        for turn, k in enumerate(
            range(config.suspend_every, config.epochs, config.suspend_every)
        ):
            actions.append(
                SuspendPeer(
                    peer=interiors[turn % len(interiors)],
                    start=base + k * config.epoch_interval + 1.0,
                    duration=config.suspend_duration,
                )
            )
    return FaultScenario(name="soak", actions=tuple(actions))


def run_soak(config: SoakConfig, trace_path: str | None = None) -> SoakResult:
    """Run one soak; raises :class:`ExperimentError` on any invariant
    breach.  Deterministic: same config, same result (and same digest).

    ``trace_path`` streams the run's JSONL telemetry trace to a file —
    the CI soak cell points it at the fault-trace artifact directory so a
    failing soak leaves its full event history behind.
    """
    sim = Simulation(seed=config.seed)
    if trace_path is None:
        return _run_soak(sim, config)
    sim.telemetry.attach_jsonl(trace_path)
    try:
        return _run_soak(sim, config)
    finally:
        sim.telemetry.close()


def _run_soak(sim: Simulation, config: SoakConfig) -> SoakResult:
    topology = Topology.random_connected(
        config.n_peers, config.mean_degree, sim.rng.stream("topology")
    )
    network = Network(
        sim,
        topology,
        transport_config=TransportConfig(latency=1.0, latency_jitter=0.3),
        reliability=ReliabilityConfig(),
    )
    workload = Workload.zipf(
        n_items=config.n_items,
        n_peers=config.n_peers,
        skew=config.skew,
        rng=sim.rng.stream("workload"),
    )
    network.assign_items(workload.item_sets)
    hierarchy = Hierarchy.build(network, root=0)
    enable_maintenance(
        hierarchy,
        HeartbeatConfig(
            interval=config.heartbeat_interval,
            timeout=config.heartbeat_timeout,
            jitter=0.5,
        ),
    )
    engine = AggregationEngine(
        hierarchy, child_timeout=config.child_timeout, hardened=True
    )
    monitor = ContinuousNetFilter(
        NetFilterConfig(
            filter_size=config.filter_size,
            num_filters=config.num_filters,
            threshold_ratio=config.threshold_ratio,
        ),
        engine,
        fading=config.decay_factor,
    )
    service = MonitorService(
        monitor,
        ServiceConfig(
            epoch_interval=config.epoch_interval,
            deadline=config.deadline,
            max_attempts=config.max_attempts,
            retry_backoff=config.retry_backoff,
            max_staleness=config.max_staleness,
            rebaseline_after=config.rebaseline_after,
        ),
    )
    stream = ZipfStream(
        config.n_items,
        config.n_peers,
        config.skew,
        config.instances_per_epoch,
        sim.rng.stream("soak.stream"),
        drift_per_epoch=config.drift_per_epoch,
        flash_every=config.flash_every,
        flash_duration=config.flash_duration,
        flash_share=config.flash_share,
    )

    # Faults: Poisson churn (root protected — failover soaks are the
    # smoke matrix's job) plus the timed loss/suspend script.
    if config.churn_rate > 0:
        ChurnProcess(
            sim,
            network,
            ChurnConfig(
                failure_rate=config.churn_rate,
                mean_downtime=config.mean_downtime,
                protected_peers=frozenset({0}),
            ),
        ).start()
    interiors = [
        peer
        for peer in sorted(hierarchy.services)
        if peer != 0 and hierarchy.children_of(peer)
    ]
    FaultInjector(
        network, _fault_scenario(config, sim.now, interiors)
    ).install()

    # ------------------------------------------------------------------
    # The oracle.  ``pending[p]``: arrivals peer p has not yet shipped in
    # a committed epoch (seeded with its build-time items).  ``mirror``:
    # the committed per-peer faded ledger, maintained by replaying the
    # root's fold recurrence independently.  ``truth``: the global faded
    # item set over every applied arrival, dated by *arrival* epoch — the
    # ideal answer the recall series is measured against.
    # ------------------------------------------------------------------
    pending: dict[int, LocalItemSet] = {
        peer: network.node(peer).items for peer in sorted(network.nodes)
    }
    mirror: dict[int, tuple[int, FadedItemSet]] = {}
    truth = FadedItemSet.empty()
    truth_frequent: dict[int, set[int]] = {}
    commit_log: list[tuple[int, int]] = []

    def before_epoch(epoch: int) -> None:
        nonlocal truth
        increments = stream.next_epoch()
        fresh_sets: list[LocalItemSet] = []
        if epoch == 0:
            # Build-time items are part of epoch 0's base, dated epoch 0
            # exactly as the first dense convergecast ships them.
            fresh_sets.extend(pending[peer] for peer in sorted(pending))
        for peer in sorted(increments):
            node = network.nodes.get(peer)
            if node is None or not node.alive:
                continue  # arrivals aimed at a dead peer are simply lost
            increment = increments[peer]
            node.items = node.items.merge(increment)
            pending[peer] = pending[peer].merge(increment)
            fresh_sets.append(increment)
        fresh = LocalItemSet.merge_many(fresh_sets)
        truth = truth.scaled(config.decay_factor).merge(fresh)
        minimum = max(config.threshold_ratio * float(truth.total_value), 1.0)
        truth_frequent[epoch] = set(truth.filter_values(minimum).ids.tolist())

    def on_commit(report: EpochReport, participants: tuple[int, ...]) -> None:
        epoch = report.epoch
        if commit_log and epoch <= commit_log[-1][0]:
            raise ExperimentError(
                f"non-monotone commit: epoch {epoch} after {commit_log[-1][0]}"
            )
        commit_log.append((epoch, len(participants)))
        for peer in sorted(participants):
            fresh = pending.pop(peer, LocalItemSet.empty())
            entry = mirror.get(peer)
            if entry is None:
                value = FadedItemSet.from_integer(fresh)
            else:
                base, faded = entry
                value = faded.scaled(config.decay_factor ** (epoch - base)).merge(fresh)
            mirror[peer] = (epoch, value)
            pending[peer] = LocalItemSet.empty()
        expected = FadedItemSet.merge_faded(
            mirror[peer][1] for peer in sorted(participants)
        )
        got = report.result.frequent
        want = expected.restrict_to(np.asarray(got.ids))
        if not (
            np.array_equal(want.ids, got.ids)
            and np.allclose(want.values, got.values, rtol=1e-9, atol=0.0)
        ):
            raise ExperimentError(
                f"committed epoch {epoch} diverges from the ledger mirror: "
                f"served {got.to_dict()!r}, oracle {want.to_dict()!r}"
            )

    monitor.on_commit(on_commit)
    outcomes = service.run(config.epochs, before_epoch=before_epoch)

    # ------------------------------------------------------------------
    # Per-epoch invariants + evidence rows.
    # ------------------------------------------------------------------
    digest = hashlib.sha256()
    rows: list[dict[str, Any]] = []
    for outcome in outcomes:
        answer = outcome.answer
        if answer is None or answer.epoch != outcome.epoch:
            raise ExperimentError(f"epoch {outcome.epoch} produced no answer")
        if answer.staleness_epochs > config.max_staleness:
            raise ExperimentError(
                f"epoch {outcome.epoch}: staleness {answer.staleness_epochs} "
                f"exceeds the configured ceiling {config.max_staleness}"
            )
        served = set(answer.frequent.ids.tolist())
        ideal = truth_frequent[outcome.epoch]
        recall = 1.0 if not ideal else len(served & ideal) / len(ideal)
        pairs = ",".join(
            f"{item}:{value!r}"
            for item, value in zip(
                answer.frequent.ids.tolist(), answer.frequent.values.tolist()
            )
        )
        digest.update(
            (
                f"{answer.epoch}|{answer.committed_epoch}|{int(answer.degraded)}|"
                f"{answer.staleness_epochs}|{answer.threshold!r}|"
                f"{answer.grand_total!r}|{pairs}\n"
            ).encode()
        )
        report = outcome.report
        rows.append(
            {
                "epoch": outcome.epoch,
                "committed": outcome.committed,
                "attempts": outcome.attempts,
                "degraded": answer.degraded,
                "staleness": answer.staleness_epochs,
                "reason": outcome.reason,
                "recall": round(recall, 6),
                "n_frequent": len(answer.frequent),
                "threshold": answer.threshold,
                "mode": report.mode if report is not None else "",
                "resyncs": report.resyncs if report is not None else 0,
                "changed_groups": report.changed_groups if report is not None else 0,
                "filtering_bytes": (
                    report.result.breakdown.filtering if report is not None else 0.0
                ),
                "filtering_savings": (
                    round(report.filtering_savings, 6) if report is not None else 0.0
                ),
                "faded_total": report.faded_total if report is not None else 0.0,
            }
        )

    committed_rows = [row for row in rows if row["committed"]]
    staleness_histogram: dict[str, int] = {}
    for row in rows:
        key = str(row["staleness"])
        staleness_histogram[key] = staleness_histogram.get(key, 0) + 1
    counters = sim.trace.counters
    summary: dict[str, Any] = {
        "epochs": len(rows),
        "committed_epochs": len(committed_rows),
        "degraded_epochs": len(rows) - len(committed_rows),
        "commit_rate": round(len(committed_rows) / max(len(rows), 1), 4),
        "max_staleness_seen": max(row["staleness"] for row in rows),
        "staleness_histogram": staleness_histogram,
        "mean_recall": round(sum(row["recall"] for row in rows) / max(len(rows), 1), 4),
        "mean_recall_committed": round(
            sum(row["recall"] for row in committed_rows) / max(len(committed_rows), 1),
            4,
        ),
        "mean_filtering_bytes_per_epoch": round(
            sum(row["filtering_bytes"] for row in committed_rows)
            / max(len(committed_rows), 1),
            2,
        ),
        "dense_epochs": sum(1 for row in committed_rows if row["mode"] == "dense"),
        "resyncs": int(counters.get("monitor.resync", 0)),
        "abandoned_attempts": int(counters.get("service.abandon", 0)),
        "churn_failures": int(counters.get("churn.failure", 0)),
        "churn_revivals": int(counters.get("churn.revival", 0)),
        "faults_injected": int(counters.get("fault.injected", 0)),
    }
    if not commit_log:
        raise ExperimentError("soak never committed a single epoch")
    return SoakResult(
        config=config, rows=rows, summary=summary, digest=digest.hexdigest()
    )
