"""The seven named workloads.

Each workload makes every input from its seed, calls only public
functions of ``repro``, and checks every op's output.  ``run`` is the
timed op and nothing else; ``check`` runs untimed and turns the op's raw
result into an :class:`Outcome` (simulated statistics, a digest that must
repeat, and the reason the op failed, if it did).  The sizes are the
contract — a later change may cut how many ops fit in a run, never N.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.config import NetFilterConfig
from repro.core.netfilter import NetFilter, NetFilterResult
from repro.core.oracle import oracle_frequent_items
from repro.experiments.harness import ExperimentScale, TrialSetup, build_trial
from repro.experiments.overload import OverloadConfig, OverloadResult, run_overload
from repro.experiments.soak import SoakConfig, SoakResult, run_soak
from repro.vec import BuiltShard, ShardedResult, ShardPlan, VecNetFilter, build_table, run_sharded

#: g=100 is the paper's Table III setting for the event engine.
SCALAR_CONFIG = NetFilterConfig(filter_size=100, num_filters=3, threshold_ratio=0.01)
#: g=1000 keeps phase-1 groups selective at n=100,000 (as BENCH_scaling).
VEC_CONFIG = NetFilterConfig(filter_size=1000, num_filters=3, threshold_ratio=0.01)


@dataclass(frozen=True)
class Outcome:
    """What one checked op produced."""

    #: Bytes the modelled network charged during the op (simulated).
    sim_bytes: float
    #: Simulated clock the op advanced (simulated seconds).
    sim_time: float
    #: Hash of every decision-relevant output; must repeat across ops.
    digest: str
    #: Why the op failed its correctness gate; empty when it passed.
    error: str = ""
    #: Bytes the op appended to the telemetry trace file.
    trace_bytes: int = 0


def _digest(*parts: Any) -> str:
    canonical = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def netfilter_work(n_peers: int) -> int:
    """Message-events of one netFilter run: three convergecasts, request
    and reply per edge, send and deliver per message (BENCH_scaling's
    ``events_equiv``)."""
    return 12 * (n_peers - 1)


class Workload:
    """One named workload at one seed; ``setup`` may be called once."""

    name = ""
    why = ""
    #: Shards whose populations one op builds (for vec.build.calls_per_shard).
    shards = 0

    def __init__(self, seed: int, smoke: bool, scratch: str) -> None:
        self.seed = seed
        self.smoke = smoke
        #: A directory the workload may write temporary files into.
        self.scratch = scratch

    @property
    def work(self) -> int:
        """Closed-form work units of one op."""
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run(self) -> Any:
        raise NotImplementedError

    def check(self, raw: Any) -> Outcome:
        raise NotImplementedError

    def close(self) -> str:
        """Release what ``setup`` opened; returns an error found only at
        close (empty when there is none)."""
        return ""


class ScalarWide(Workload):
    name = "scalar_wide"
    why = (
        "N=2000 peers, ~25 items each: per-message machinery (event heap, transport, "
        "aggregation handlers) does almost all the work, payload math almost none"
    )
    n_peers, n_items = 2000, 10_000
    smoke_size = (200, 2000)

    trial: TrialSetup
    threshold: int
    oracle: dict[int, int]
    bytes_seen: int

    @property
    def size(self) -> tuple[int, int]:
        return self.smoke_size if self.smoke else (self.n_peers, self.n_items)

    @property
    def work(self) -> int:
        return netfilter_work(self.size[0])

    def setup(self) -> None:
        self._built(build_trial(ExperimentScale(self.name, *self.size), seed=self.seed))

    def _built(self, trial: TrialSetup) -> None:
        self.trial = trial
        network = trial.network
        # The oracle never sees the protocol: its threshold comes from the
        # items the peers hold, not from the grand total netFilter measured.
        total = sum(node.items.total_value for node in network.nodes.values())
        self.threshold = SCALAR_CONFIG.resolve_threshold(int(total))
        self.oracle = oracle_frequent_items(network, self.threshold).to_dict()
        self.bytes_seen = network.accounting.total_bytes()

    def run(self) -> NetFilterResult:
        return NetFilter(SCALAR_CONFIG).run(self.trial.engine)

    def check(self, result: NetFilterResult) -> Outcome:
        total = self.trial.network.accounting.total_bytes()
        sim_bytes, self.bytes_seen = total - self.bytes_seen, total
        frequent = result.frequent.to_dict()
        error = ""
        if not result.complete:
            error = "result not complete"
        elif result.threshold != self.threshold or frequent != self.oracle:
            error = "frequent set differs from the oracle"
        return Outcome(
            sim_bytes=sim_bytes,
            sim_time=result.elapsed_time,
            digest=_digest(sorted(frequent.items()), len(result.candidates), result.threshold),
            error=error,
        )


class ScalarPaper(ScalarWide):
    name = "scalar_paper"
    why = (
        "the paper's Table III point (N=1000, n=100,000, 1000 items/peer): few messages, "
        "large payload math in filters, combiners and item-set merges"
    )
    n_peers, n_items = 1000, 100_000
    smoke_size = (100, 10_000)


class ScalarTraced(ScalarWide):
    name = "scalar_traced"
    why = (
        "scalar_wide's system with the JSONL sink and causal spans on at sample_every=1: "
        "wall_s here over wall_s of scalar_wide is the program's observability overhead"
    )
    lines_per_op: int | None = None
    lines_seen = 0
    size_seen = 0

    def setup(self) -> None:
        self.path = os.path.join(self.scratch, f"trace-{id(self)}.jsonl")
        self._built(
            build_trial(
                ExperimentScale(self.name, *self.size),
                seed=self.seed,
                trace_path=self.path,
                trace_sample_every=1,
                trace_spans=True,
            )
        )
        self.lines_seen = self._sink.written
        self.size_seen = os.path.getsize(self.path)

    @property
    def _sink(self) -> Any:
        return self.trial.sim.telemetry.sinks[0]

    def check(self, result: NetFilterResult) -> Outcome:
        outcome = super().check(result)
        written = self._sink.written
        lines, self.lines_seen = written - self.lines_seen, written
        # The sink flushes every 1000 records, so the size is good to
        # that grain; the line count is exact.
        size = os.path.getsize(self.path)
        grown, self.size_seen = size - self.size_seen, size
        if self.lines_per_op is None:
            self.lines_per_op = lines
        error = outcome.error
        if not error and lines != self.lines_per_op:
            error = f"trace grew by {lines} lines, not {self.lines_per_op}"
        return Outcome(
            outcome.sim_bytes, outcome.sim_time, outcome.digest, error, trace_bytes=grown
        )

    def close(self) -> str:
        expected = self._sink.written + 1  # close() appends the summary record
        self.trial.finish_trace()
        parsed = 0
        try:
            with open(self.path, encoding="utf-8") as handle:
                for line in handle:
                    json.loads(line)
                    parsed += 1
        except ValueError as error:
            return f"trace line {parsed + 1} is not JSON: {error}"
        finally:
            os.remove(self.path)
        if parsed != expected:
            return f"trace holds {parsed} lines, the sink wrote {expected}"
        return ""


class VecProtocol(Workload):
    name = "vec_protocol"
    why = (
        "VecNetFilter over a prebuilt 300,000-peer table: phase kernels and subtree dedup "
        "only; the population build is in setup_s, so build or caching work must not show"
    )
    shards = 1
    built: BuiltShard
    threshold: int
    oracle: dict[int, int]

    @property
    def size(self) -> tuple[int, int, int]:
        return (20_000, 10_000, 200_000) if self.smoke else (300_000, 100_000, 3_000_000)

    @property
    def work(self) -> int:
        return netfilter_work(self.size[0])

    def setup(self) -> None:
        n_peers, n_items, instances = self.size
        self.built = build_table(
            n_peers=n_peers, n_items=n_items, seed=self.seed, total_instances=instances
        )
        truth = self.built.global_values
        self.threshold = VEC_CONFIG.resolve_threshold(int(truth.sum()))
        self.oracle = _frequent_from_truth(truth, self.threshold)

    def run(self) -> NetFilterResult:
        return VecNetFilter(VEC_CONFIG).run(self.built.table)

    def check(self, result: NetFilterResult) -> Outcome:
        return _vec_outcome(result, self.size[0], self.threshold, self.oracle)


def _frequent_from_truth(truth: np.ndarray, threshold: float) -> dict[int, int]:
    ids = np.flatnonzero(truth >= threshold)
    return dict(zip(ids.tolist(), truth[ids].tolist()))


def _vec_outcome(
    result: NetFilterResult,
    n_peers: int,
    threshold: int,
    oracle: dict[int, int],
    digest: str = "",
) -> Outcome:
    frequent = result.frequent.to_dict()
    error = ""
    if not result.complete:
        error = "result not complete"
    elif result.threshold != threshold or frequent != oracle:
        error = "frequent set differs from the generation-side truth"
    # The breakdown is bytes per peer; the product undoes the division.
    sim_bytes = round(result.breakdown.total * n_peers)
    return Outcome(
        sim_bytes=sim_bytes,
        sim_time=result.elapsed_time,
        digest=digest
        or _digest(sorted(frequent.items()), len(result.candidates), result.threshold, sim_bytes),
        error=error,
    )


class VecSharded(Workload):
    name = "vec_sharded"
    why = (
        "run_sharded over 8 shards of 50,000 peers, jobs=1 (the BENCH_scaling shape): "
        "build-dominated, every shard's population is built in both rounds"
    )
    plan: ShardPlan

    @property
    def shards(self) -> int:  # type: ignore[override]
        return self.plan.n_shards

    @property
    def work(self) -> int:
        return netfilter_work(self.plan.n_peers)

    def setup(self) -> None:
        n_peers, n_items, n_shards = (16_000, 10_000, 4) if self.smoke else (400_000, 100_000, 8)
        self.plan = ShardPlan(
            n_peers=n_peers,
            n_items=n_items,
            seed=self.seed,
            n_shards=n_shards,
            config=VEC_CONFIG,
            instances_per_item=40,
        )

    def run(self) -> ShardedResult:
        # return_truth ships each shard's generation-side values with its
        # round-1 result — in-process at jobs=1, so it costs one array sum
        # and lets every op be checked against the oracle.
        return run_sharded(self.plan, jobs=1, return_truth=True)

    def check(self, sharded: ShardedResult) -> Outcome:
        truth = sharded.per_shard[0]["truth"]
        threshold = VEC_CONFIG.resolve_threshold(int(truth.sum()))
        return _vec_outcome(
            sharded.result,
            self.plan.n_peers,
            threshold,
            _frequent_from_truth(truth, threshold),
            digest=sharded.digest,
        )


class FrontdoorOverload(Workload):
    name = "frontdoor_overload"
    why = (
        "12,200 front-door requests over 40 rounds with flash crowds, burst loss and a root "
        "crash: admission, batching and cache do the work, the engine runs only ~17 sessions"
    )
    config: OverloadConfig

    @property
    def work(self) -> int:
        c = self.config
        flash_rounds = len(range(c.flash_every, c.rounds, c.flash_every))
        return c.arrivals_per_round * (c.rounds + flash_rounds * (c.flash_multiplier - 1))

    def setup(self) -> None:
        shape: dict[str, Any] = (
            dict(rounds=12, n_peers=40, n_items=2000, arrivals_per_round=20,
                 root_crash_round=4, root_revive_round=7)
            if self.smoke
            else dict(rounds=40, n_peers=200, n_items=20_000, arrivals_per_round=200,
                      root_crash_round=18, root_revive_round=24)
        )
        self.config = OverloadConfig(
            seed=self.seed,
            flash_multiplier=8,
            default_rate=10.0,
            default_burst=2000.0,
            max_queue_depth=2048,
            max_batch=512,
            **shape,
        )

    def run(self) -> OverloadResult:
        # Raises ExperimentError on any front-door contract breach.
        return run_overload(self.config)

    def check(self, result: OverloadResult) -> Outcome:
        summary = result.summary
        error = ""
        if summary["requests"] != self.work:
            error = f"{summary['requests']} requests terminated, {self.work} submitted"
        return Outcome(
            sim_bytes=summary["total_bytes"],
            sim_time=summary["p99_latency"],
            digest=result.digest,
            error=error,
        )


class MonitorSoak(Workload):
    name = "monitor_soak"
    why = (
        "25 monitoring epochs over 24 peers with heartbeats, Poisson churn, burst loss and "
        "ACK/retransmit: timers, faults and the continuous-netFilter retry loop; long "
        "simulated time, few peers"
    )
    config: SoakConfig

    @property
    def work(self) -> int:
        return self.config.epochs

    def setup(self) -> None:
        self.config = SoakConfig(seed=self.seed, epochs=5 if self.smoke else 25)

    def run(self) -> SoakResult:
        # Raises ExperimentError on any monitoring-contract breach.
        return run_soak(self.config)

    def check(self, result: SoakResult) -> Outcome:
        error = ""
        if len(result.rows) != self.work:
            error = f"{len(result.rows)} epochs answered, {self.work} scheduled"
        return Outcome(
            sim_bytes=sum(row["filtering_bytes"] for row in result.rows),
            sim_time=result.summary["max_staleness_seen"] * self.config.epoch_interval,
            digest=result.digest,
            error=error,
        )


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (
        ScalarWide,
        ScalarPaper,
        ScalarTraced,
        VecProtocol,
        VecSharded,
        FrontdoorOverload,
        MonitorSoak,
    )
}
