"""The netFilter protocol (Section III, Algorithm 1).

One :meth:`NetFilter.run` performs, over an already-built hierarchy:

0. A combined scalar aggregation for the grand total ``v`` and the
   participant count ``N`` (Section IV: "obtained through simple aggregate
   computation ... combined with other aggregate computation").
1. **Candidate filtering** — a vector-sum aggregation of the ``f·g``
   item-group values; groups with aggregate ≥ t are heavy.
2. **Candidate verification** — the heavy-group lists ride down in the
   phase-2 request (candidate *dissemination*); every peer materializes
   its partial candidate set against them; a keyed-sum convergecast merges
   the partial sets (candidate *aggregation*) so the root ends with the
   exact global value of every candidate; candidates ≥ t are the answer.

The result is exact: no false positives, no false negatives, exact global
values — the properties the oracle-equivalence tests assert.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable

import numpy as np

from repro.aggregation.combiners import (
    KeyedSumCombiner,
    ScalarSumCombiner,
    TupleCombiner,
    VectorSumCombiner,
)
from repro.aggregation.hierarchical import AggregationEngine, SessionHandle
from repro.aggregation.spec import AggregateSpec
from repro.core.config import NetFilterConfig
from repro.core.filters import FilterBank
from repro.core.recovery import RecoveryPolicy
from repro.core.session import AttemptPlan, below_floor, run_attempt, run_phase
from repro.core.session import NetFilterResult as NetFilterResult  # re-exported: its public home
from repro.core.verification import HeavyGroups, materialize_candidates
from repro.items.itemset import LocalItemSet
from repro.net.node import Node
from repro.net.wire import CostCategory, SizeModel
from repro.sim.timers import backoff

#: ``NetFilter`` without a recovery policy: one attempt, no re-issue.
_NO_RECOVERY = RecoveryPolicy(max_phase_reissues=0, max_query_reissues=0)


def totals_spec() -> AggregateSpec:
    """The combined (v, N) aggregation of Section IV."""
    return AggregateSpec(
        name="netfilter.totals",
        combiner=TupleCombiner(ScalarSumCombiner(), ScalarSumCombiner()),
        contribute=lambda node, _: (node.items.total_value, 1),
        up_category=CostCategory.CONTROL,
    )


def filtering_spec(bank: FilterBank) -> AggregateSpec:
    """Phase 1: the item-group aggregate vector (costs ``s_a·f·g``/peer)."""

    def contribute(node: Node, _: Any) -> np.ndarray:
        return bank.local_group_aggregates(node.items)

    return AggregateSpec(
        name="netfilter.group_aggregates",
        combiner=VectorSumCombiner(bank.total_groups),
        contribute=contribute,
        up_category=CostCategory.FILTERING,
    )


def verification_spec(
    bank: FilterBank, items_of: Callable[[Node], LocalItemSet] = lambda node: node.items
) -> AggregateSpec:
    """Phase 2: heavy groups ride down in the request (dissemination),
    partial candidate sets merge upward (Algorithm 2).  ``items_of`` is
    the item set a peer verifies against — its current one, or the staged
    (faded or raw) view a continuous epoch's phase 1 represented."""

    def contribute(node: Node, heavy: HeavyGroups) -> LocalItemSet:
        partial = materialize_candidates(items_of(node), bank, heavy)
        sim = node.network.sim
        trace = sim.trace
        if trace.active:
            trace.emit(
                sim.now,
                "verify.materialized",
                peer=node.peer_id,
                candidates=len(partial),
            )
        else:
            trace.count("verify.materialized")
        return partial

    def request_bytes(heavy: HeavyGroups, model: SizeModel) -> int:
        return heavy.wire_bytes(model)

    return AggregateSpec(
        name="netfilter.candidates",
        combiner=KeyedSumCombiner(),
        contribute=contribute,
        up_category=CostCategory.AGGREGATION,
        down_category=CostCategory.DISSEMINATION,
        request_bytes=request_bytes,
    )


def one_shot_plan(config: NetFilterConfig) -> AttemptPlan:
    """Algorithm 1 as the paper states it: the threshold is ``ρ·v`` off the
    totals phase and phase 1's aggregate *is* the group-total vector."""
    bank = FilterBank(config.num_filters, config.filter_size, config.hash_seed)

    def fold(aggregate: Any, grand_total: float | None) -> tuple[np.ndarray, float, float]:
        assert grand_total is not None  # the totals phase always runs
        return aggregate, config.resolve_threshold(int(grand_total)), grand_total

    return AttemptPlan(
        config=config,
        bank=bank,
        totals=totals_spec(),
        phase1=filtering_spec(bank),
        phase1_request=None,
        fold=fold,
        verification=verification_spec(bank),
    )


class NetFilter:
    """The two-phase in-network filtering protocol.

    Examples
    --------
    See ``examples/quickstart.py`` for an end-to-end run; the essential
    shape is::

        hierarchy = Hierarchy.build(network, root=0)
        engine = AggregationEngine(hierarchy)
        result = NetFilter(NetFilterConfig(filter_size=100, num_filters=3,
                                           threshold_ratio=0.01)).run(engine)
        result.frequent.to_dict()   # {item_id: exact global value}
    """

    def __init__(
        self, config: NetFilterConfig, recovery: RecoveryPolicy | None = None
    ) -> None:
        self.config = config
        self.recovery = recovery

    def run(self, engine: AggregationEngine) -> NetFilterResult:
        """Execute Algorithm 1 over the engine's hierarchy and return the
        exact frequent-item set with measured costs.

        With a :class:`~repro.core.recovery.RecoveryPolicy`, phases whose
        coverage falls below the policy floor are re-issued, and if the
        run still comes back incomplete the whole query is re-run (early
        phases feed later ones — an undercounted grand total corrupts the
        threshold) up to ``max_query_reissues`` times.  A phase that loses
        its *root* mid-flight is re-issued the same way — against whatever
        root the hierarchy has by then, i.e. the failover successor once
        maintenance promotes one.  Without a recovery policy a root loss
        yields an empty result flagged ``complete=False``.

        The standing services discard an attempt that falls short; a
        one-shot query has nothing older to serve, so at both levels a
        re-issue replaces what is kept only if it covers at least as much,
        and the best-covered answer is returned, flagged."""
        policy = self.recovery or _NO_RECOVERY
        sim = engine.sim
        telemetry = sim.telemetry
        plan = one_shot_plan(self.config)
        reissues = 0

        def reissue(scope: str, attempt: int, coverage: float, **fields: Any) -> None:
            nonlocal reissues
            reissues += 1
            sim.trace.emit(
                sim.now,
                "request.reissued",
                scope=scope,
                **fields,
                coverage=coverage,
                attempt=attempt,
            )
            telemetry.registry.counter(f"recovery.{scope}_reissues").inc()
            sim.run(until=sim.now + backoff(policy.reissue_delay, attempt))

        def phase(spec: AggregateSpec, request_data: Any) -> SessionHandle:
            handle = run_phase(engine, spec, request_data)
            for attempt in range(1, policy.max_phase_reissues + 1):
                if not (handle.failed or below_floor(handle.coverage, policy.min_coverage)):
                    break
                reissue("phase", attempt, handle.coverage, spec=spec.name)
                retry = run_phase(engine, spec, request_data)
                if not retry.failed and (handle.failed or retry.coverage >= handle.coverage):
                    handle = retry
            return handle

        def query() -> NetFilterResult:
            with telemetry.span("netfilter.run") as span:
                result, reason = run_attempt(engine, plan, phase=phase)
                if not reason:
                    span["frequent"] = len(result.frequent)
            return result

        best = query()
        for attempt in range(1, policy.max_query_reissues + 1):
            if best.complete:
                break
            reissue("query", attempt, best.coverage)
            retry = query()
            if retry.coverage >= best.coverage:
                best = retry
        # Every re-issue the network carried, including those of a
        # whole-query retry that was discarded for covering less.
        return dataclasses.replace(best, reissues=reissues)
