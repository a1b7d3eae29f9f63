"""The standing monitoring service layer.

Supervises :class:`~repro.core.continuous.ContinuousNetFilter` as a
long-lived query: scheduled epochs with deadlines, retry with backoff,
coverage-gated two-phase commit, and degraded-mode serving with honest
staleness bounds.  See :mod:`repro.service.monitor`.  Peers ask for
the standing answer through the query front door
(``FrontDoor(..., monitor=service)``, :mod:`repro.frontdoor`).
"""

from repro.service.answer import EpochOutcome, MonitorAnswer
from repro.service.config import ServiceConfig
from repro.service.monitor import MonitorService

__all__ = [
    "EpochOutcome",
    "MonitorAnswer",
    "MonitorService",
    "ServiceConfig",
]
