"""Exception hierarchy for the netfilter-p2p library.

All library-specific failures derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to discriminate the individual failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly (e.g. scheduling an
    event in the past, or running a simulation that was already stopped)."""


class NetworkError(ReproError):
    """A network-substrate invariant was violated (unknown peer, message to
    a departed node, malformed payload, ...)."""


class TopologyError(NetworkError):
    """An overlay topology could not be constructed as requested (e.g. a
    disconnected graph where a connected one is required)."""


class HierarchyError(ReproError):
    """The aggregation hierarchy is in an unexpected state (no root, a peer
    without an upstream neighbour outside of repair, ...)."""


class AggregationError(ReproError):
    """An aggregate computation failed or was configured inconsistently."""


class ProtocolError(ReproError):
    """A netFilter (or naive baseline) protocol run violated its own state
    machine — this always indicates a bug, never a legitimate runtime
    condition, and is therefore an exception rather than a result code."""


class ConfigurationError(ReproError):
    """User-supplied configuration is invalid (non-positive filter size,
    threshold ratio outside ``(0, 1]``, ...)."""


class WorkloadError(ReproError):
    """A workload generator was parameterized inconsistently."""


class ExperimentError(ReproError):
    """An experiment-harness invariant failed (soak oracle mismatch,
    staleness ceiling breached, non-monotone commits, ...)."""
