"""netFilter executed by the vectorized tier: one array statement of
Algorithm 1.

The phase barrier splits the protocol into two rounds per tree —
:func:`round1` (totals and the group aggregate, as the tree's root ends
up holding them) and :func:`round2` (candidate verification against the
heavy groups) — with :func:`barrier`, what the root does in between, and
:func:`finish`, which prices a *forest* of round outputs and assembles
the one :class:`~repro.core.netfilter.NetFilterResult`.
:meth:`VecNetFilter.run` is that statement over a forest of one tree;
:func:`repro.vec.shard.run_sharded` is the same statement over ``K``
trees hung under a super-root.

What is computed and what it costs both come from the
:func:`~repro.core.netfilter.one_shot_plan` the event engine runs: the
filter bank, the threshold fold, and per phase the request size, the
combiner's reply size and the two cost categories.  The byte accounting
matches the scalar engine byte-for-byte on statically-faulted networks
(``tests/vec/test_equivalence.py``).

Scope: the dense tier covers the regular bulk — a fixed fault state for
the duration of one run.  Dynamic irregularity (mid-run crashes, repair,
stragglers, churn arrivals) stays with the event engine; populations
cross between the tiers through :mod:`repro.vec.escape`.

``elapsed_time`` is *modeled*, not event-driven: with fixed link latency
and no loss, each convergecast completes in exactly ``2·h`` time units
(requests reach the deepest reachable leaf at ``h``; the last reply
reaches the root at ``2·h``), so a run takes ``6·h·latency`` — the same
value the scalar clock reads on a quiet network.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.config import NetFilterConfig
from repro.core.filters import FilterBank
from repro.core.netfilter import NetFilterResult, one_shot_plan
from repro.core.session import AttemptPlan
from repro.core.verification import HeavyGroups
from repro.items.itemset import LocalItemSet
from repro.metrics.breakdown import CostBreakdown
from repro.net.wire import CostCategory, SizeModel
from repro.telemetry import Telemetry
from repro.vec import engine as vec_engine
from repro.vec.state import PeerTable


@dataclass(frozen=True)
class Round1:
    """What one tree's root holds at the phase barrier, plus the facts
    about the tree that pricing and coverage need."""

    grand_total: int
    #: Reachable peers — the protocol's ``N`` and the coverage numerator
    #: (every reached peer contributes exactly 1).
    participants: int
    aggregate: np.ndarray
    live: int
    height: int
    size_model: SizeModel
    latency: float


@dataclass(frozen=True)
class Round2:
    """One tree's verification outcome."""

    #: The root's merged candidate set with exact values over the tree.
    candidates: LocalItemSet
    #: Distinct candidate pairs summed over every in-tree reply.
    pairs_sent: int


def round1(table: PeerTable, reach: np.ndarray, bank: FilterBank) -> Round1:
    """Totals and candidate filtering over one tree."""
    grand_total, participants = vec_engine.grand_totals(table, reach)
    return Round1(
        grand_total=grand_total,
        participants=participants,
        aggregate=vec_engine.group_aggregate(table, reach, bank),
        live=table.n_live,
        height=table.reachable_height(reach),
        size_model=table.size_model,
        latency=table.latency,
    )


def barrier(plan: AttemptPlan, firsts: Sequence[Round1]) -> tuple[HeavyGroups, float]:
    """What the forest's root does between the rounds: merge the trees'
    totals and group aggregates, fold the threshold, read off the heavy
    groups."""
    grand_total = sum(tree.grand_total for tree in firsts)
    aggregate = np.sum([tree.aggregate for tree in firsts], axis=0)
    group_totals, threshold, _ = plan.fold(aggregate, grand_total)
    return HeavyGroups.from_aggregate(plan.bank, group_totals, threshold), threshold


def round2(
    table: PeerTable, reach: np.ndarray, bank: FilterBank, heavy: HeavyGroups
) -> Round2:
    """Candidate verification over one tree."""
    rows = vec_engine.candidate_rows(table, reach, bank, heavy)
    pairs_sent, root_count = vec_engine.subtree_candidate_pairs(table, rows)
    candidates = LocalItemSet(rows.universe, vec_engine.candidate_global_values(rows))
    assert root_count == len(candidates)
    return Round2(candidates=candidates, pairs_sent=pairs_sent)


def finish(
    plan: AttemptPlan,
    firsts: Sequence[Round1],
    heavy: HeavyGroups,
    threshold: float,
    seconds: Sequence[Round2],
    *,
    population: int,
    super_root: bool = False,
    telemetry: Telemetry | None = None,
) -> tuple[NetFilterResult, dict[CostCategory, int]]:
    """Price a forest of round outputs and assemble the result; also
    returns the exact byte totals per category behind the breakdown.

    Every reachable non-root peer's tree edge carries one request and one
    reply per phase.  With ``super_root`` the trees' roots are themselves
    children of one more peer (the sharded driver): one more edge per
    tree, one more hop on the clock.
    """
    assert plan.totals is not None  # a one-shot plan always runs the totals phase
    # One forest, one network: every tree has the same links.
    model, latency = firsts[0].size_model, firsts[0].latency
    grand_total = sum(tree.grand_total for tree in firsts)
    reached = sum(tree.participants for tree in firsts)
    live = sum(tree.live for tree in firsts)
    n_edges = reached if super_root else reached - len(firsts)
    height = max(tree.height for tree in firsts) + (1 if super_root else 0)
    candidates = LocalItemSet.merge_many([tree.candidates for tree in seconds])

    # Verification replies are the one tree-shaped term: the distinct
    # pairs of every in-tree reply, plus each root's value on its
    # super-root edge.
    verification = plan.verification
    pair_replies = sum(tree.pairs_sent for tree in seconds) * model.pair_bytes
    if super_root:
        pair_replies += sum(
            verification.combiner.size_bytes(tree.candidates, model) for tree in seconds
        )
    totals_reply = plan.totals.combiner.size_bytes((grand_total, reached), model)
    filtering_reply = plan.phase1.combiner.size_bytes(firsts[0].aggregate, model)
    totals: Counter[CostCategory] = Counter()
    for name, spec, request, reply_bodies in (
        ("totals", plan.totals, None, n_edges * totals_reply),
        ("filtering", plan.phase1, plan.phase1_request, n_edges * filtering_reply),
        ("verification", verification, heavy, pair_replies),
    ):
        priced = vec_engine.phase_bytes(spec, request, model, n_edges, reply_bodies)
        totals[priced.down_category] += priced.requests
        totals[priced.up_category] += priced.replies
        vec_engine.emit_phase(telemetry, name, reached, priced)

    breakdown = CostBreakdown.from_delta({}, totals, population)
    result = NetFilterResult(
        frequent=candidates.filter_values(threshold),
        candidates=candidates,
        heavy_groups=heavy,
        threshold=threshold,
        grand_total=grand_total,
        n_participants=reached,
        breakdown=breakdown,
        avg_candidates_per_peer=breakdown.aggregation / model.pair_bytes,
        config=plan.config,
        elapsed_time=6.0 * height * latency,
        coverage=reached / live if live > 0 else 1.0,
        complete=reached >= live,
    )
    return result, totals


class VecNetFilter:
    """The batched two-phase filtering protocol.

    Examples
    --------
    >>> from repro.vec.build import build_table
    >>> shard = build_table(n_peers=200, n_items=2_000, seed=7)
    >>> config = NetFilterConfig(filter_size=64, num_filters=2,
    ...                          threshold_ratio=0.01)
    >>> result = VecNetFilter(config).run(shard.table)
    >>> bool((result.frequent.values >= result.threshold).all())
    True
    """

    def __init__(self, config: NetFilterConfig) -> None:
        self.config = config

    def run(self, table: PeerTable, telemetry: Telemetry | None = None) -> NetFilterResult:
        """Execute Algorithm 1 over the columnar population."""
        if not bool(table.alive[table.root]):
            # Mirror the scalar engine's honest answer for a dead root:
            # empty, complete=False, zero coverage, nothing charged.
            return NetFilterResult.aborted(self.config, CostBreakdown(), 0.0)
        plan = one_shot_plan(self.config)
        reach = table.reachable_mask()
        first = round1(table, reach, plan.bank)
        heavy, threshold = barrier(plan, [first])
        second = round2(table, reach, plan.bank, heavy)
        result, _ = finish(
            plan,
            [first],
            heavy,
            threshold,
            [second],
            population=table.n_peers,
            telemetry=telemetry,
        )
        return result
