"""Configuration of the standing monitoring service."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.session import backoff, check_retry_policy
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ServiceConfig:
    """How the monitoring service schedules, retries, and degrades.

    Attributes
    ----------
    epoch_interval:
        Sim time between scheduled epoch starts (the monitoring cadence).
    deadline:
        Sim-time budget per epoch, measured from its scheduled start.  An
        epoch that cannot commit within it is abandoned and served
        degraded; the budget must leave room inside ``epoch_interval`` so
        a late epoch never eats its successor's slot.
    max_attempts:
        Attempts per epoch before giving up early (the deadline still
        bounds the total even if attempts remain).
    retry_backoff:
        Settle delay before the first retry (lets in-flight repair
        traffic — failovers, re-adoptions — land before re-asking).
    backoff_factor:
        Multiplier on the settle delay per further retry.
    min_coverage:
        Coverage floor for commit: every phase of the attempt must cover
        at least this fraction of the peers live at its start.  1.0 (the
        default) demands full coverage — the exactness gate.
    max_staleness:
        The service's advertised staleness bound, in epochs.  Serving an
        answer older than this is a contract violation: it is still
        served (never block), but counted and traced.
    rebaseline_after:
        Consecutive abandoned epochs after which the next attempt
        escalates to a dense re-baseline, re-anchoring the root vector to
        the live population instead of chasing deltas that keep failing.
    """

    epoch_interval: float = 240.0
    deadline: float = 180.0
    max_attempts: int = 3
    retry_backoff: float = 20.0
    backoff_factor: float = 2.0
    min_coverage: float = 1.0
    max_staleness: int = 8
    rebaseline_after: int = 3

    def __post_init__(self) -> None:
        if self.epoch_interval <= 0:
            raise ConfigurationError(
                f"epoch_interval must be positive, got {self.epoch_interval}"
            )
        if not 0 < self.deadline <= self.epoch_interval:
            raise ConfigurationError(
                f"deadline must be in (0, epoch_interval], got {self.deadline}"
            )
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )
        check_retry_policy(
            "retry_backoff", self.retry_backoff, self.backoff_factor, self.min_coverage
        )
        if self.max_staleness < 1:
            raise ConfigurationError(
                f"max_staleness must be at least 1 epoch, got {self.max_staleness}"
            )
        if self.rebaseline_after < 1:
            raise ConfigurationError(
                f"rebaseline_after must be at least 1, got {self.rebaseline_after}"
            )

    def delay_for(self, attempt: int) -> float:
        """Settle delay before retry number ``attempt`` (1-based); the
        epoch deadline, not a cap, bounds the schedule."""
        return backoff(self.retry_backoff, self.backoff_factor, attempt)
