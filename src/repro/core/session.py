"""One netFilter attempt and one supervision loop.

Every front end that runs the paper's protocol — the one-shot
:class:`~repro.core.netfilter.NetFilter`, the continuous monitor
(:mod:`repro.core.continuous`, :mod:`repro.service.monitor`) and the
query front door (:mod:`repro.frontdoor.batching`) — runs the same
sequence (Algorithm 1: totals → candidate filtering → heavy groups →
candidate verification → threshold) under the same policy: retry with
exponential backoff inside a deadline, gate on coverage, then commit or
fail with a named reason.  Both are stated here, once:
:func:`run_attempt` (what differs between callers is an
:class:`AttemptPlan`, not code) and :func:`supervise` (the policy types
only name a budget, a deadline and the base delay they hand to the one
schedule, :func:`repro.sim.timers.backoff`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, TypeVar

import numpy as np

from repro.aggregation.hierarchical import AggregationEngine, SessionHandle
from repro.aggregation.spec import AggregateSpec
from repro.core.config import NetFilterConfig
from repro.core.filters import FilterBank
from repro.core.verification import HeavyGroups
from repro.items.itemset import LocalItemSet
from repro.metrics.breakdown import CostBreakdown
from repro.sim.engine import Simulation

#: Why an attempt did not count — the vocabulary of every
#: ``service.abandon`` / ``frontdoor.session_retry`` event, soak row and
#: front-door verdict.
ROOT_DEAD = "root_dead"  # the root was down before the attempt opened
DEADLINE = "deadline"  # the deadline passed with a phase in flight
ROOT_LOST = "root_lost"  # a phase lost its root (dead at start or mid-session)
MEMBERSHIP_CHANGED = "membership_changed"  # the live set moved under the attempt
COVERAGE = "coverage"  # a phase missed a live peer


def below_floor(coverage: float, floor: float) -> bool:
    """The coverage gate.  At ``floor = 1.0`` it is the exactness gate:
    with integer ``covered``/``expected`` counts, ``coverage < 1.0``
    exactly when some live peer's contribution is missing."""
    return coverage < floor


@dataclass(frozen=True)
class NetFilterResult:
    """Everything one netFilter run produced.

    Attributes
    ----------
    frequent:
        The exact answer: frequent item ids with their exact global values.
    candidates:
        The merged candidate set the root verified (frequent items plus
        the filtering false positives).
    heavy_groups:
        The heavy item groups found by phase 1.
    threshold:
        The absolute threshold ``t`` used.
    grand_total:
        The measured grand total ``v``.
    n_participants:
        Peers that contributed (the aggregated ``N``).
    breakdown:
        Measured per-peer byte costs for this run only.
    avg_candidates_per_peer:
        Measured average number of candidate pairs each peer propagated in
        phase 2 — the y-axis of Figure 5(a)/6(a).
    config:
        The configuration that produced this result.
    """

    frequent: LocalItemSet
    candidates: LocalItemSet
    heavy_groups: HeavyGroups
    threshold: float
    grand_total: int
    n_participants: int
    breakdown: CostBreakdown
    avg_candidates_per_peer: float
    config: NetFilterConfig
    #: Simulated time the whole run took (three convergecasts; with unit
    #: link latency this is a few times the hierarchy height — the
    #: latency face of the hierarchical-vs-gossip trade-off).
    elapsed_time: float = 0.0
    #: Worst per-phase coverage fraction (covered / live peers at phase
    #: start) across the run's three convergecasts.
    coverage: float = 1.0
    #: Whether every phase covered every live peer.  Only a ``complete``
    #: result carries the paper's no-false-negative guarantee; an
    #: incomplete one may have silently pruned a frequent item.
    complete: bool = True
    #: Phase + whole-query re-issues spent getting here.
    reissues: int = 0

    @classmethod
    def aborted(
        cls, config: NetFilterConfig, breakdown: CostBreakdown, elapsed_time: float
    ) -> "NetFilterResult":
        """The honest answer of an attempt that stopped before its last
        phase (root lost, deadline, membership moved): an empty result
        flagged ``complete=False`` with zero coverage — never a silently
        wrong frequent-item set — that still owns the bytes it spent."""
        return cls(
            frequent=LocalItemSet.empty(),
            candidates=LocalItemSet.empty(),
            heavy_groups=HeavyGroups(per_filter=()),
            threshold=0,
            grand_total=0,
            n_participants=0,
            breakdown=breakdown,
            avg_candidates_per_peer=0.0,
            config=config,
            elapsed_time=elapsed_time,
            coverage=0.0,
            complete=False,
        )

    @property
    def frequent_ids(self) -> np.ndarray:
        """Ids of the reported frequent items, ascending."""
        return self.frequent.ids

    @property
    def candidate_count(self) -> int:
        """Distinct candidates verified in phase 2."""
        return len(self.candidates)

    @property
    def false_positive_count(self) -> int:
        """Candidates that verification rejected (``fp`` in the paper —
        false positives *of the candidate set*; the final answer has
        none)."""
        return len(self.candidates) - len(self.frequent)

    def __str__(self) -> str:
        return (
            f"NetFilterResult({len(self.frequent)} frequent items, "
            f"{self.candidate_count} candidates, t={self.threshold}, "
            f"{self.breakdown.total:.0f} B/peer)"
        )


# ----------------------------------------------------------------------
# One attempt
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AttemptPlan:
    """What one attempt computes — the part of Algorithm 1 that differs
    between a one-shot query and a continuous epoch."""

    #: Recorded on the result; ``f`` and ``g`` label the ``filter.phase`` span.
    config: NetFilterConfig
    #: The filter bank heavy groups are read against.
    bank: FilterBank
    #: The combined ``(v, N)`` aggregation — or ``None`` when the threshold
    #: does not come from a totals phase (a decayed monitor reads it off
    #: the faded group vector); ``N`` is then what phase 1 covered.
    totals: AggregateSpec | None
    #: Candidate filtering, and what rides down in its request (a
    #: continuous epoch's anchor).
    phase1: AggregateSpec
    phase1_request: Any
    #: ``fold(phase-1 aggregate, v or None)`` → ``(group totals, threshold,
    #: grand total)``: identity plus ``ρ·v`` for a one-shot query, the
    #: running (faded) group vector for a continuous epoch.
    fold: Callable[[Any, float | None], tuple[np.ndarray, float, float]]
    #: Candidate verification; the heavy groups ride down in its request.
    verification: AggregateSpec


#: Runs one phase of an attempt: ``(spec, request data) → handle``.
PhaseRunner = Callable[[AggregateSpec, Any], SessionHandle]


def run_phase(
    engine: AggregationEngine,
    spec: AggregateSpec,
    request_data: Any = None,
    deadline: float | None = None,
) -> SessionHandle:
    """Run one aggregation phase at whatever ``engine.hierarchy.root`` is
    now.  Never raises on a lost root: a root that is down at the start
    yields a synthetic failed handle, exactly like one that dies
    mid-session, so retry loops can wait for failover and re-aim at the
    promoted root.  A handle that comes back not ``done`` means the
    deadline passed with the session still in flight."""
    if not engine.network.node(engine.hierarchy.root).alive:
        return engine.dead_root_session(spec)
    return engine.drive_session(engine.start(spec, request_data), deadline=deadline)


def _stop_reason(handle: SessionHandle) -> str:
    if not handle.done:
        return DEADLINE
    return ROOT_LOST if handle.failed else ""


def run_attempt(
    engine: AggregationEngine,
    plan: AttemptPlan,
    *,
    deadline: float | None = None,
    exact: bool = False,
    stable_over: tuple[int, ...] | None = None,
    phase: PhaseRunner | None = None,
) -> tuple[NetFilterResult, str]:
    """Run Algorithm 1 once; returns ``(result, reason)``.

    An empty reason means the result counts: every phase finished inside
    ``deadline``, the live set still equals ``stable_over`` (each where
    given) and, if ``exact``, every phase covered every live peer.
    Otherwise the reason names the first check that failed and the result
    is the honest flagged one (:meth:`NetFilterResult.aborted` if a phase
    never finished); its breakdown is this attempt's byte delta either
    way.  ``phase`` replaces the plain :func:`run_phase` call — where
    ``NetFilter`` hangs its per-phase re-issue policy.
    """
    network = engine.network
    sim = engine.sim
    telemetry = sim.telemetry
    config = plan.config
    before = network.accounting.bytes_by_category()
    started_at = sim.now
    run: PhaseRunner = phase or partial(run_phase, engine, deadline=deadline)

    def spent() -> CostBreakdown:
        after = network.accounting.bytes_by_category()
        return CostBreakdown.from_delta(before, after, network.n_peers)

    def stopped(reason: str) -> tuple[NetFilterResult, str]:
        return NetFilterResult.aborted(config, spent(), sim.now - started_at), reason

    handles: list[SessionHandle] = []
    grand_total: float | None = None
    n_participants = 0

    # Step 0: grand total v and participant count N.
    if plan.totals is not None:
        with telemetry.span("totals.phase") as span:
            handle = run(plan.totals, None)
            if reason := _stop_reason(handle):
                return stopped(reason)
            handles.append(handle)
            grand_total, n_participants = handle.value
            span["participants"] = int(n_participants)

    # Phase 1: candidate filtering (Algorithm 1, lines 1-3).
    with telemetry.span(
        "filter.phase", num_filters=config.num_filters, filter_size=config.filter_size
    ) as span:
        handle = run(plan.phase1, plan.phase1_request)
        if reason := _stop_reason(handle):
            return stopped(reason)
        handles.append(handle)
        if plan.totals is None:
            n_participants = handle.covered
        group_totals, threshold, grand_total = plan.fold(handle.value, grand_total)
        heavy = HeavyGroups.from_aggregate(plan.bank, group_totals, threshold)
        span["heavy_groups"] = heavy.total_count
        telemetry.emit(
            "filter.heavy_groups",
            total=heavy.total_count,
            per_filter=list(heavy.counts),
            threshold=threshold,
        )

    # Phase 2: candidate verification (Algorithm 1, line 4; Algorithm 2).
    with telemetry.span("verify.phase") as span:
        handle = run(plan.verification, heavy)
        if reason := _stop_reason(handle):
            return stopped(reason)
        handles.append(handle)
        candidates: LocalItemSet = handle.value
        frequent = candidates.filter_values(threshold)
        span["candidates"] = len(candidates)
        span["frequent"] = len(frequent)

    # A peer that crashed after one phase and revived before the end leaves
    # the live set unchanged, yet a phase it missed started with fewer live
    # peers — and counted itself complete without that peer's values.
    if stable_over is not None and (
        tuple(network.live_peers()) != stable_over
        or any(handle.expected != len(stable_over) for handle in handles)
    ):
        return stopped(MEMBERSHIP_CHANGED)
    coverage = min(handle.coverage for handle in handles)
    breakdown = spent()
    result = NetFilterResult(
        frequent=frequent,
        candidates=candidates,
        heavy_groups=heavy,
        threshold=threshold,
        grand_total=int(grand_total),
        n_participants=int(n_participants),
        breakdown=breakdown,
        avg_candidates_per_peer=breakdown.aggregation / network.size_model.pair_bytes,
        config=config,
        elapsed_time=sim.now - started_at,
        coverage=coverage,
        complete=all(handle.complete for handle in handles),
    )
    return result, COVERAGE if exact and not result.complete else ""


# ----------------------------------------------------------------------
# One supervision loop
# ----------------------------------------------------------------------
T = TypeVar("T")


def supervise(
    sim: Simulation,
    attempt: Callable[[], tuple[T, str]],
    *,
    max_attempts: int,
    deadline: float,
    delay: Callable[[int], float],
    on_failure: Callable[[int, str], None],
) -> tuple[T, str, int]:
    """Call ``attempt()`` — which, like :func:`run_attempt`, returns
    ``(value, reason)`` with an empty reason on success — until it
    succeeds, ``max_attempts`` are spent, or the sim clock reaches
    ``deadline``; returns the last ``(value, reason)`` and the number of
    attempts started.

    The deadline is absolute: retries eat into the same budget, no
    attempt after the first starts at or past it, and the settle delay
    ``delay(k)`` after failed attempt ``k`` is clipped to the time left.
    ``on_failure(k, reason)`` runs after each failed attempt, before the
    settle delay — where callers trace the abandon/retry.
    """
    attempts = 0
    while True:
        attempts += 1
        value, reason = attempt()
        if not reason:
            break
        on_failure(attempts, reason)
        if attempts >= max_attempts:
            break
        settle = min(delay(attempts), max(deadline - sim.now, 0.0))
        if settle > 0:
            sim.run(until=sim.now + settle)
        if sim.now >= deadline:
            break
    return value, reason, attempts
