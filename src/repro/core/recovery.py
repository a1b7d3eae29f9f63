"""Requester-side recovery policy: re-issue on insufficient coverage.

The hardened aggregation layer *detects* incomplete sessions (coverage
accounting in :mod:`repro.aggregation.hierarchical`); this module holds
the requester's *response* to that signal.  A protocol run configured with
a :class:`RecoveryPolicy` re-issues an aggregation phase — and, if phases
keep coming back short, the whole query — up to bounded retry budgets,
waiting a settle delay between attempts so transient failures (a crashed
peer reviving, a partition healing) can clear.  The delay backs off
exponentially with a cap, in the same deterministic style as the
transport's retransmit schedule: early retries are cheap when the cause
was a blip, later retries wait long enough for repair to land.

This is what restores the paper's no-false-negative guarantee whenever
the network stabilises: a phase that finally covers every live peer is
exact, so the query built from fully-covered phases is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.session import backoff, check_retry_policy
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RecoveryPolicy:
    """Retry budgets for coverage-driven re-issue.

    Attributes
    ----------
    min_coverage:
        A phase whose coverage (peers covered / live peers at session
        start) falls below this fraction is considered failed and
        re-issued.  ``1.0`` demands exactness — any missing peer triggers
        a retry.
    max_phase_reissues:
        How many times a single phase may be re-issued before the run
        accepts the best coverage it achieved.
    max_query_reissues:
        How many times the *whole query* may be re-run when a phase stays
        below ``min_coverage`` after its per-phase budget.  Re-running the
        query (rather than just the failed phase) matters because early
        phases feed later ones: a grand total measured over 4/5 peers
        yields the wrong threshold even if later phases recover.
    reissue_delay:
        Simulated time to wait before the *first* re-issue, giving
        revivals and hierarchy repair a chance to land.
    backoff_factor:
        Multiplier applied to the delay on every further attempt
        (attempt ``k`` waits ``reissue_delay * backoff_factor**(k-1)``,
        matching the transport's retransmit style).  ``1.0`` restores the
        fixed settle delay.
    reissue_delay_cap:
        Ceiling on any single backed-off delay.
    """

    min_coverage: float = 1.0
    max_phase_reissues: int = 2
    max_query_reissues: int = 1
    reissue_delay: float = 50.0
    backoff_factor: float = 2.0
    reissue_delay_cap: float = 400.0

    def __post_init__(self) -> None:
        check_retry_policy(
            "reissue_delay", self.reissue_delay, self.backoff_factor, self.min_coverage
        )
        if self.max_phase_reissues < 0:
            raise ConfigurationError("max_phase_reissues must be non-negative")
        if self.max_query_reissues < 0:
            raise ConfigurationError("max_query_reissues must be non-negative")
        if self.reissue_delay_cap < self.reissue_delay:
            raise ConfigurationError("reissue_delay_cap must be >= reissue_delay")

    def delay_for(self, attempt: int) -> float:
        """Settle delay before re-issue number ``attempt`` (1-based)."""
        return backoff(
            self.reissue_delay, self.backoff_factor, attempt, self.reissue_delay_cap
        )
