"""Configuration of the multi-tenant query front door.

Two layers of policy compose here.  A :class:`TenantPolicy` is the
per-tenant contract: how fast the tenant may submit (token-bucket rate
limit), how many network bytes its queries may consume in total (cost
budget, enforced against the *measured* byte accounting of the shared
sessions it rides on), and how stale a cached answer it is willing to
accept.  A :class:`FrontDoorConfig` is the service-wide overload policy:
the batching cadence, per-session deadlines and retry budgets, the queue
depth past which new work is shed, and the circuit breaker that stops
burning sessions against a root that keeps failing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

#: ``retry_after`` value meaning "do not retry": the rejection is
#: permanent under current policy (an exhausted byte budget does not
#: refill by waiting).
NO_RETRY = -1.0


@dataclass(frozen=True)
class TenantPolicy:
    """One tenant's admission contract.

    Attributes
    ----------
    rate:
        Token-bucket refill rate, requests per unit of simulated time.
        Each admitted or cache-served request consumes one token; a
        request arriving with no token available is rejected with
        ``rate_limit`` and an honest ``retry_after`` (the time until the
        bucket holds a full token again).
    burst:
        Bucket capacity — how many requests the tenant may fire
        back-to-back after an idle stretch.
    byte_budget:
        Lifetime network-byte budget, charged from the measured cost of
        every shared session the tenant's requests ride on (an equal
        per-request share of the session's byte delta).  ``None`` means
        unmetered.  An exhausted budget rejects with ``budget`` and
        ``retry_after = NO_RETRY``.
    max_staleness:
        The tenant's staleness tolerance, in front-door rounds: the
        oldest cached answer (plus any staleness the cache entry itself
        already carries) the tenant accepts instead of a fresh session.
        ``0`` refuses all cached answers.
    """

    rate: float = 1.0
    burst: float = 8.0
    byte_budget: int | None = None
    max_staleness: int = 4

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {self.rate}")
        if self.burst < 1:
            raise ConfigurationError(f"burst must be at least 1, got {self.burst}")
        if self.byte_budget is not None and self.byte_budget <= 0:
            raise ConfigurationError(
                f"byte_budget must be positive (or None), got {self.byte_budget}"
            )
        if self.max_staleness < 0:
            raise ConfigurationError(
                f"max_staleness must be non-negative, got {self.max_staleness}"
            )


@dataclass(frozen=True)
class FrontDoorConfig:
    """Service-wide scheduling, shedding, and degradation policy.

    Attributes
    ----------
    round_interval:
        Sim time between scheduling rounds.  Requests arriving between
        rounds queue up; each round coalesces the queue into one shared
        aggregation session.
    max_batch:
        Most requests one shared session serves.  The batch runs at the
        *minimum* requested threshold ratio and every member's answer is
        carved from the shared superset (Section III-A.1, generalized
        N-way).
    max_queue_depth:
        Admission stops queueing past this depth: later requests are
        rejected with ``queue_full`` instead of waiting unboundedly.
    session_deadline:
        Sim-time budget for one shared session (all three convergecasts
        plus retries).  A session that cannot commit inside it fails the
        batch — members fall back to the cache or are rejected.
    max_session_retries:
        Attempts beyond the first for one batch's session.
    retry_backoff:
        Settle delay before the first session retry; retry ``k`` waits
        ``backoff(retry_backoff, k)``, and the session deadline, not a
        cap, bounds the schedule.  A session commits only if it folded
        in every live peer (the exactness gate).
    client_timeout:
        Client-side deadline per request, from submission.  A request
        unanswered past it terminates as ``REJECTED(timeout)`` — the
        guarantee that no request ever blocks indefinitely, even when
        the root is down and cannot answer at all.
    breaker_threshold:
        Consecutive failed sessions that open the circuit breaker.
    breaker_reset:
        Sim time the breaker stays open before probing with one
        half-open session.  While open, queued and incoming batchable
        requests are served from the cache or rejected
        (``breaker_open``) — no sessions are attempted.
    default_policy:
        The :class:`TenantPolicy` applied to tenants without an explicit
        one.
    """

    round_interval: float = 30.0
    max_batch: int = 256
    max_queue_depth: int = 1024
    session_deadline: float = 150.0
    max_session_retries: int = 2
    retry_backoff: float = 10.0
    client_timeout: float = 400.0
    breaker_threshold: int = 3
    breaker_reset: float = 120.0
    default_policy: TenantPolicy = field(default_factory=TenantPolicy)

    def __post_init__(self) -> None:
        if self.round_interval <= 0:
            raise ConfigurationError(
                f"round_interval must be positive, got {self.round_interval}"
            )
        if self.max_batch < 1:
            raise ConfigurationError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.session_deadline <= 0:
            raise ConfigurationError(
                f"session_deadline must be positive, got {self.session_deadline}"
            )
        if self.max_session_retries < 0:
            raise ConfigurationError(
                f"max_session_retries must be non-negative, got {self.max_session_retries}"
            )
        if self.retry_backoff < 0:
            raise ConfigurationError(
                f"retry_backoff must be non-negative, got {self.retry_backoff}"
            )
        if self.client_timeout <= self.round_interval:
            raise ConfigurationError(
                "client_timeout must exceed round_interval (a request must "
                f"survive at least one scheduling round), got {self.client_timeout}"
            )
        if self.breaker_threshold < 1:
            raise ConfigurationError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_reset <= 0:
            raise ConfigurationError(
                f"breaker_reset must be positive, got {self.breaker_reset}"
            )
