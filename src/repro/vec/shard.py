"""Multiprocess space-sharding for million-peer runs.

The vectorized tier removes the per-event ceiling; this module removes
the single-core ceiling.  The peer id space is split into ``K`` equal
shards, each an independent columnar population (its own overlay, tree,
and slice of the instance budget — see :mod:`repro.vec.build`), and the
driver plays the role of a super-root with the ``K`` shard roots as
children.

The protocol is the one in :mod:`repro.vec.netfilter`, run over a forest
of ``K`` trees: each round is one task per shard dispatched through
:func:`repro.experiments.parallel.run_trials`, the driver stands at the
phase barrier between them exactly as the real root would, and the ``K``
super-root links are priced like any other tree edge.  Round 2 rebuilds
its shard — the table is a pure function of ``(plan, shard)`` — so no
population is held across the barrier.

Workers are pure functions of ``(plan, shard)`` — same spec order, same
results for ``jobs=1`` and ``jobs=K`` (the :mod:`repro.experiments.parallel`
determinism contract), and the whole run collapses to a replay digest
that is a pure function of ``(seed, K, N, n, config)``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro.core.config import NetFilterConfig
from repro.core.filters import FilterBank
from repro.core.netfilter import NetFilterResult, one_shot_plan
from repro.core.verification import HeavyGroups
from repro.errors import ConfigurationError
from repro.experiments.parallel import TrialSpec, run_trials
from repro.net.wire import CostCategory
from repro.telemetry import Telemetry
from repro.vec.build import build_table
from repro.vec.engine import VEC_SHARD_KIND
from repro.vec.netfilter import Round1, Round2, barrier, finish, round1, round2
from repro.vec.state import PeerTable


@dataclass(frozen=True)
class ShardPlan:
    """A complete, picklable description of one sharded run."""

    n_peers: int
    n_items: int
    seed: int
    n_shards: int
    config: NetFilterConfig
    skew: float = 1.0
    mean_degree: float = 4.0
    instances_per_item: int = 10

    def __post_init__(self) -> None:
        if self.n_shards <= 0:
            raise ConfigurationError(f"n_shards must be positive, got {self.n_shards}")
        if self.n_peers < self.n_shards:
            raise ConfigurationError("need at least one peer per shard")

    def shard_peers(self, shard: int) -> int:
        """Peer count of one shard (the remainder spreads over the first
        few shards, so counts differ by at most one)."""
        base, extra = divmod(self.n_peers, self.n_shards)
        return base + (1 if shard < extra else 0)

    def shard_instances(self, shard: int) -> int:
        """Instance budget of one shard (equal split of ``10·n``)."""
        total = self.instances_per_item * self.n_items
        base, extra = divmod(total, self.n_shards)
        return base + (1 if shard < extra else 0)


def _build_shard(plan: ShardPlan, shard: int) -> tuple[PeerTable, np.ndarray]:
    built = build_table(
        n_peers=plan.shard_peers(shard),
        n_items=plan.n_items,
        seed=plan.seed,
        shard=shard,
        n_shards=plan.n_shards,
        skew=plan.skew,
        mean_degree=plan.mean_degree,
        total_instances=plan.shard_instances(shard),
    )
    return built.table, built.global_values


def _round1_worker(
    plan: ShardPlan, shard: int, bank: FilterBank, return_truth: bool
) -> tuple[Round1, np.ndarray | None]:
    """Round 1 for one shard, plus its generation-side truth on request."""
    table, truth = _build_shard(plan, shard)
    return round1(table, table.reachable_mask(), bank), truth if return_truth else None


def _round2_worker(plan: ShardPlan, shard: int, bank: FilterBank, heavy: HeavyGroups) -> Round2:
    """Round 2 for one shard, on a fresh build of it."""
    table, _ = _build_shard(plan, shard)
    return round2(table, table.reachable_mask(), bank, heavy)


@dataclass(frozen=True)
class ShardedResult:
    """A merged sharded run: the global answer plus replay evidence."""

    result: NetFilterResult
    plan: ShardPlan
    #: SHA-256 over the canonical JSON of every decision-relevant output —
    #: two runs of the same plan must produce the same digest.
    digest: str
    per_shard: tuple[dict[str, Any], ...]


def run_sharded(
    plan: ShardPlan,
    jobs: int = 1,
    telemetry: Telemetry | None = None,
    return_truth: bool = False,
) -> ShardedResult:
    """Run netFilter over ``plan.n_shards`` independent shards and merge
    at the super-root.  ``jobs`` workers execute shards concurrently;
    results are identical for any ``jobs`` (spec-order merge).

    With ``return_truth=True`` each round-1 worker also ships its shard's
    exact generation-side global values, so callers can check the merged
    answer against the oracle (used by ``bench_scaling``).
    """
    attempt = one_shot_plan(plan.config)
    shards = range(plan.n_shards)

    def dispatch(worker: Callable[..., Any], label: str, **kwargs: Any) -> list[Any]:
        return run_trials(
            [
                TrialSpec(
                    fn=worker,
                    kwargs={"plan": plan, "shard": s, "bank": attempt.bank, **kwargs},
                    label=f"shard{s}-{label}",
                )
                for s in shards
            ],
            jobs=jobs,
        )

    firsts, truths = zip(*dispatch(_round1_worker, "phase1", return_truth=return_truth))
    heavy, threshold = barrier(attempt, firsts)
    seconds = dispatch(_round2_worker, "phase2", heavy=heavy)
    result, totals = finish(
        attempt,
        firsts,
        heavy,
        threshold,
        seconds,
        population=plan.n_peers,
        super_root=True,
        telemetry=telemetry,
    )
    if telemetry is not None:
        telemetry.emit(
            VEC_SHARD_KIND,
            shards=plan.n_shards,
            grand_total=result.grand_total,
            heavy_groups=heavy.total_count,
        )
    truth = {"truth": np.sum(truths, axis=0)} if return_truth else {}
    per_shard = tuple(
        {
            "shard": s,
            "participants": firsts[s].participants,
            "grand_total": firsts[s].grand_total,
            "height": firsts[s].height,
            "root_candidates": len(seconds[s].candidates),
            **(truth if s == 0 else {}),
        }
        for s in shards
    )
    return ShardedResult(
        result=result,
        plan=plan,
        digest=replay_digest(plan, result, totals),
        per_shard=per_shard,
    )


def replay_digest(
    plan: ShardPlan, result: NetFilterResult, totals: dict[CostCategory, int]
) -> str:
    """SHA-256 of every decision-relevant output of a sharded run."""
    payload = {
        "plan": {
            "n_peers": plan.n_peers,
            "n_items": plan.n_items,
            "seed": plan.seed,
            "n_shards": plan.n_shards,
            "g": plan.config.filter_size,
            "f": plan.config.num_filters,
            "threshold_ratio": plan.config.threshold_ratio,
            "threshold": plan.config.threshold,
            "hash_seed": plan.config.hash_seed,
            "skew": plan.skew,
        },
        "grand_total": result.grand_total,
        "participants": result.n_participants,
        "threshold": result.threshold,
        "heavy": [groups.tolist() for groups in result.heavy_groups.per_filter],
        "frequent": sorted(result.frequent.to_dict().items()),
        "candidates": len(result.candidates),
        "bytes": {str(cat): int(n) for cat, n in sorted(totals.items())},
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
