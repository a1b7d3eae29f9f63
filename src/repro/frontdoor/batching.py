"""N-way shared aggregation sessions for batched requests.

This generalizes the pairwise minimum-threshold sharing of
:class:`~repro.core.requests.MultiRequestCoordinator`: a whole batch of
admitted requests, with differing threshold ratios, is served by **one**
netFilter execution at the minimum requested ratio, and each member's
answer is carved from the shared superset at its own threshold (items
frequent at ``t`` are a subset of those frequent at ``t_min``).

The session is :func:`repro.core.session.run_attempt` under
:func:`~repro.core.session.supervise`: unlike :meth:`NetFilter.run` it
has a hard sim-time deadline (the front door must keep its next
scheduling round), retries with exponential backoff while budget
remains, and discards an attempt that missed a live peer — a session
that cannot cover the whole live population honestly fails instead of
committing a silently-wrong superset.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import partial

from repro.aggregation.hierarchical import AggregationEngine
from repro.core.config import NetFilterConfig, ceil_threshold
from repro.core.netfilter import NetFilterResult, one_shot_plan
from repro.core.session import run_attempt, supervise
from repro.frontdoor.config import FrontDoorConfig
from repro.items.itemset import LocalItemSet
from repro.sim.timers import backoff


@dataclass(frozen=True)
class PendingRequest:
    """One admitted request waiting in the batch queue."""

    request_id: int
    tenant: str
    requester: int
    threshold_ratio: float
    max_staleness: int
    submitted_at: float
    deadline: float


@dataclass(frozen=True)
class BatchOutcome:
    """What one batch's shared session produced.

    A committed outcome carries the shared :class:`NetFilterResult` at
    the batch's minimum ratio plus the measured byte cost of every
    attempt (retries included — the tenants pay for what the network
    actually carried).  A failed outcome names the terminal reason.
    """

    result: NetFilterResult | None
    reason: str
    attempts: int
    bytes_spent: float
    min_ratio: float

    @property
    def committed(self) -> bool:
        return self.result is not None

    def carve(self, threshold_ratio: float) -> tuple[LocalItemSet, int]:
        """One member's answer: the shared frequent set re-thresholded
        at the member's own ratio through the canonical derivation."""
        assert self.result is not None
        threshold = ceil_threshold(threshold_ratio, self.result.grand_total)
        return self.result.frequent.filter_values(threshold), threshold


class BatchSessionRunner:
    """Runs one deadline-bounded, coverage-gated netFilter execution per
    batch, retrying with backoff on failure."""

    def __init__(
        self,
        engine: AggregationEngine,
        filter_config: NetFilterConfig,
        config: FrontDoorConfig,
    ) -> None:
        self.engine = engine
        self.filter_config = filter_config
        self.config = config

    def run(self, batch: list[PendingRequest]) -> BatchOutcome:
        """Serve ``batch`` with one shared session (plus bounded retries).

        The session deadline is absolute from the first attempt's start:
        retries eat into the same budget, so a struggling session can
        never stall the scheduling cadence indefinitely.
        """
        assert batch, "empty batch"
        engine = self.engine
        sim = engine.sim
        telemetry = sim.telemetry
        config = self.config
        min_ratio = min(request.threshold_ratio for request in batch)
        plan = one_shot_plan(
            dataclasses.replace(
                self.filter_config, threshold_ratio=min_ratio, threshold=None
            )
        )
        deadline = sim.now + config.session_deadline
        before_total = engine.network.accounting.total_bytes()

        def retrying(attempts: int, reason: str) -> None:
            if attempts <= config.max_session_retries:
                telemetry.emit("frontdoor.session_retry", attempt=attempts, reason=reason)

        with telemetry.span(
            "frontdoor.session", batch=len(batch), min_ratio=min_ratio
        ) as span:
            result, reason, attempts = supervise(
                sim,
                partial(run_attempt, engine, plan, deadline=deadline, exact=True),
                max_attempts=1 + config.max_session_retries,
                deadline=deadline,
                delay=partial(backoff, config.retry_backoff),
                on_failure=retrying,
            )
            span["committed"] = not reason
            span["attempts"] = attempts
        bytes_spent = float(
            engine.network.accounting.total_bytes() - before_total
        )
        return BatchOutcome(
            result=None if reason else result,
            reason=reason,
            attempts=attempts,
            bytes_spent=bytes_spent,
            min_ratio=min_ratio,
        )
