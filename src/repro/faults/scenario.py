"""The fault-scenario DSL: declarative, deterministic failure scripts.

A :class:`FaultScenario` is a named, ordered tuple of *actions* — frozen
dataclasses describing crashes, revivals, partitions, targeted message
drops/delays, and burst loss.  Scenarios contain no behaviour: the
:class:`~repro.faults.injector.FaultInjector` interprets them against a
live network.  Keeping the script side-effect-free is what makes fault
runs replayable — the same scenario over the same seed produces the same
event sequence, so the determinism replay gate applies to faulted runs
unchanged.

Time semantics: every ``at``/``start`` is an absolute simulation time.
Build scenarios *after* any setup that advances the clock (hierarchy
construction, settle periods) or offset from ``sim.now`` explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.net.message import Payload
from repro.net.wire import CostCategory


@dataclass(frozen=True)
class MessageMatch:
    """A predicate over one wire attempt.  ``None`` fields match anything.

    Attributes
    ----------
    sender, recipient:
        Peer ids to match.
    category:
        The payload's :class:`~repro.net.wire.CostCategory`.
    payload_kind:
        The payload class name (e.g. ``"AggReplyPayload@main"`` — tagged
        payload classes carry the hierarchy tag in their name).  Matched
        with :func:`str.startswith` so ``"AggReplyPayload"`` matches every
        tagged variant.
    """

    sender: int | None = None
    recipient: int | None = None
    category: CostCategory | None = None
    payload_kind: str | None = None

    def matches(self, sender: int, recipient: int, payload: Payload) -> bool:
        """Whether this predicate selects the given wire attempt."""
        if self.sender is not None and sender != self.sender:
            return False
        if self.recipient is not None and recipient != self.recipient:
            return False
        if self.category is not None and payload.category != self.category:
            return False
        if self.payload_kind is not None and not type(payload).__name__.startswith(
            self.payload_kind
        ):
            return False
        return True


@dataclass(frozen=True)
class CrashPeer:
    """Fail a peer at an absolute time, or when it is about to receive its
    ``after``-th message matching ``on_match``.

    The message-triggered form crashes at the current instant
    (``schedule(0.0, ...)``), so the matching message itself is still put
    on the wire — it then arrives at a dead recipient, reproducing the
    classic "replied into a crash" race.
    Exactly one of ``at`` / ``on_match`` must be set.
    """

    peer: int
    at: float | None = None
    on_match: MessageMatch | None = None
    after: int = 1

    def __post_init__(self) -> None:
        if (self.at is None) == (self.on_match is None):
            raise ConfigurationError("CrashPeer needs exactly one of at/on_match")
        if self.after < 1:
            raise ConfigurationError("after must be >= 1")


@dataclass(frozen=True)
class RevivePeer:
    """Revive a (by then) failed peer at an absolute time."""

    peer: int
    at: float

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError("at must be non-negative")


@dataclass(frozen=True)
class PartitionLinks:
    """Silently drop all traffic over a set of links for an interval.

    Links are undirected: ``(a, b)`` cuts both directions.  The partition
    is a pure transport effect — peers stay alive, their timers keep
    running, and traffic not crossing a cut link is unaffected.
    """

    links: tuple[tuple[int, int], ...]
    start: float
    duration: float

    def __post_init__(self) -> None:
        if not self.links:
            raise ConfigurationError("PartitionLinks needs at least one link")
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.start < 0:
            raise ConfigurationError("start must be non-negative")

    def cuts(self, sender: int, recipient: int) -> bool:
        """Whether this partition severs the (undirected) link."""
        for a, b in self.links:
            if (sender, recipient) in ((a, b), (b, a)):
                return True
        return False


@dataclass(frozen=True)
class DropMessages:
    """Drop the next ``count`` messages matching a predicate, starting at
    an absolute time."""

    match: MessageMatch
    count: int
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError("count must be >= 1")
        if self.start < 0:
            raise ConfigurationError("start must be non-negative")


@dataclass(frozen=True)
class DelayMessages:
    """Add ``extra_delay`` to the next ``count`` matching messages."""

    match: MessageMatch
    count: int
    extra_delay: float
    start: float = 0.0

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ConfigurationError("count must be >= 1")
        if self.extra_delay <= 0:
            raise ConfigurationError("extra_delay must be positive")
        if self.start < 0:
            raise ConfigurationError("start must be non-negative")


@dataclass(frozen=True)
class BurstLoss:
    """Independent random loss at ``probability`` during a time window.

    Randomness comes from the simulation's ``"faults.burst_loss"`` stream,
    so bursts replay bit-for-bit and are independent of the transport's
    own background-loss stream.
    """

    start: float
    duration: float
    probability: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.start < 0:
            raise ConfigurationError("start must be non-negative")
        if not 0.0 < self.probability <= 1.0:
            raise ConfigurationError("probability must be in (0, 1]")


@dataclass(frozen=True)
class SuspendPeer:
    """Gray failure: the peer stays alive but transmits nothing for a
    window.

    The peer's timers keep running and it still *receives* traffic — only
    its outbound messages are dropped on the wire.  To its neighbours it
    is indistinguishable from a crash (silence), which is exactly what a
    failure detector must not be fooled by: the adaptive detector's false
    suspicions under suspend windows shorter than its deadline are the
    test surface this action exists for.
    """

    peer: int
    start: float
    duration: float

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.start < 0:
            raise ConfigurationError("start must be non-negative")


#: The action union the injector interprets.
FaultAction = (
    CrashPeer
    | RevivePeer
    | PartitionLinks
    | DropMessages
    | DelayMessages
    | BurstLoss
    | SuspendPeer
)


@dataclass(frozen=True)
class FaultScenario:
    """A named, ordered script of fault actions.

    Action order matters only for same-message precedence in the injector
    (earlier actions inspect a wire attempt first); timed actions fire at
    their own absolute times regardless of position.
    """

    name: str
    actions: tuple[FaultAction, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("a scenario needs a name")
        for action in self.actions:
            if not isinstance(
                action,
                (
                    CrashPeer,
                    RevivePeer,
                    PartitionLinks,
                    DropMessages,
                    DelayMessages,
                    BurstLoss,
                    SuspendPeer,
                ),
            ):
                raise ConfigurationError(
                    f"unknown fault action type {type(action).__name__!r}"
                )
