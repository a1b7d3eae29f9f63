"""netFilter executed by the vectorized tier.

:class:`VecNetFilter` runs the same three convergecasts as
:class:`repro.core.netfilter.NetFilter` — totals, candidate filtering,
candidate verification — as batch array programs over a
:class:`~repro.vec.state.PeerTable`, and returns the *same*
:class:`~repro.core.netfilter.NetFilterResult`, with byte accounting
that matches the scalar engine byte-for-byte on statically-faulted
networks (``tests/vec/test_equivalence.py`` pins the equivalence at
N=2,000).

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

import numpy as np

from repro.core.config import NetFilterConfig
from repro.core.filters import FilterBank
from repro.core.netfilter import NetFilterResult
from repro.core.verification import HeavyGroups
from repro.items.itemset import LocalItemSet
from repro.metrics.breakdown import CostBreakdown
from repro.net.wire import CostCategory
from repro.vec import engine as vec_engine
from repro.vec.state import PeerTable


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

    def run(self, table: PeerTable, telemetry: object = None) -> NetFilterResult:
        """Execute Algorithm 1 over the columnar population."""
        model = table.size_model
        population = table.n_peers
        if not bool(table.alive[table.root]):
            # Mirror the scalar engine's honest answer for a dead root:
            # empty, complete=False, zero coverage, nothing charged.
            return NetFilterResult.aborted(self.config, CostBreakdown(), 0.0)

        reach = table.reachable_mask()
        n_reached = int(np.count_nonzero(reach))
        n_edges = n_reached - 1  # parent->child links the convergecasts use
        height = table.reachable_height(reach)
        totals: dict[CostCategory, int] = {}

        # Step 0: grand total v and participant count N (TupleCombiner of
        # two scalar sums: s_a request down, 2*s_a reply up, all CONTROL).
        grand_total, n_participants = vec_engine.grand_totals(table, reach)
        threshold = self.config.resolve_threshold(grand_total)
        phase0 = vec_engine.phase_bytes(
            table,
            n_edges,
            request_body=model.aggregate_bytes,
            reply_bodies=n_edges * 2 * model.aggregate_bytes,
            down_category=CostCategory.CONTROL,
            up_category=CostCategory.CONTROL,
        )
        phase0.add_into(totals)
        vec_engine.emit_phase(
            telemetry,
            "totals",
            peers=n_reached,
            requests=phase0.requests,
            replies=phase0.replies,
        )

        # Phase 1: candidate filtering (s_a request down as CONTROL,
        # s_a*f*g vector reply up as FILTERING).
        bank = FilterBank(
            self.config.num_filters, self.config.filter_size, self.config.hash_seed
        )
        aggregate = vec_engine.group_aggregate(table, reach, bank)
        heavy = HeavyGroups.from_aggregate(bank, aggregate, threshold)
        phase1 = vec_engine.phase_bytes(
            table,
            n_edges,
            request_body=model.aggregate_bytes,
            reply_bodies=n_edges * model.aggregate_bytes * bank.total_groups,
            down_category=CostCategory.CONTROL,
            up_category=CostCategory.FILTERING,
        )
        phase1.add_into(totals)
        vec_engine.emit_phase(
            telemetry,
            "filtering",
            peers=n_reached,
            requests=phase1.requests,
            replies=phase1.replies,
        )

        # Phase 2: candidate verification (heavy groups ride down as
        # DISSEMINATION; keyed candidate sums merge up as AGGREGATION —
        # the one tree-shape-dependent term, batched level by level).
        rows = vec_engine.candidate_rows(table, reach, bank, heavy)
        pairs_sent, root_count, own_counts = vec_engine.subtree_candidate_pairs(
            table, rows
        )
        candidate_values = vec_engine.candidate_global_values(rows)
        candidates = LocalItemSet(rows.universe, candidate_values)
        assert root_count == len(candidates)
        frequent = candidates.filter_values(threshold)
        phase2 = vec_engine.phase_bytes(
            table,
            n_edges,
            request_body=heavy.wire_bytes(model),
            reply_bodies=pairs_sent * model.pair_bytes,
            down_category=CostCategory.DISSEMINATION,
            up_category=CostCategory.AGGREGATION,
        )
        phase2.add_into(totals)
        vec_engine.emit_phase(
            telemetry,
            "verification",
            peers=n_reached,
            requests=phase2.requests,
            replies=phase2.replies,
        )
        vec_engine.observe_candidates_histogram(telemetry, own_counts[reach])

        breakdown = CostBreakdown(
            filtering=totals.get(CostCategory.FILTERING, 0) / population,
            dissemination=totals.get(CostCategory.DISSEMINATION, 0) / population,
            aggregation=totals.get(CostCategory.AGGREGATION, 0) / population,
            control=totals.get(CostCategory.CONTROL, 0) / population,
        )
        pairs_equiv = totals.get(CostCategory.AGGREGATION, 0) / model.pair_bytes
        expected = table.n_live
        coverage = n_reached / expected if expected > 0 else 1.0
        return NetFilterResult(
            frequent=frequent,
            candidates=candidates,
            heavy_groups=heavy,
            threshold=threshold,
            grand_total=grand_total,
            n_participants=n_participants,
            breakdown=breakdown,
            avg_candidates_per_peer=pairs_equiv / population,
            config=self.config,
            elapsed_time=6.0 * height * table.latency,
            coverage=coverage,
            complete=n_reached >= expected,
        )
