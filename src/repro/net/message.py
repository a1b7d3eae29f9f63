"""Message and payload base classes.

A :class:`Payload` is what protocol code constructs and handles; the
:class:`Message` envelope (sender, recipient, timestamps) is added by the
transport.  Every payload prices itself against a
:class:`~repro.net.wire.SizeModel` and declares the
:class:`~repro.net.wire.CostCategory` its bytes are charged to, so the
accounting is decided where the payload is defined — next to the protocol —
rather than in the transport.
"""

from __future__ import annotations

import abc
from typing import Protocol

from repro.net.wire import CostCategory, SizeModel


class WireLedger(Protocol):
    """Counts what the transport still carries for one group of payloads.

    The transport calls :meth:`hold` for every copy of a payload it
    schedules for delivery (a copy the fault hook drops or the link loses
    never is) and for every reliable send of it, and :meth:`settle` once
    for each when it ends: the copy drained — delivered (after the
    handler returns), dead recipient, unhandled or duplicate — or the
    send acknowledged or given up.  A count back at zero means no copy of
    the group can arrive any more.
    """

    def hold(self) -> None: ...

    def settle(self) -> None: ...


class Payload(abc.ABC):
    """Base class for everything sent between peers.

    Subclasses must set :attr:`category` and implement :meth:`body_bytes`.
    """

    #: Accounting bucket for this payload's bytes.
    category: CostCategory = CostCategory.CONTROL

    #: The ledger the transport holds and settles this payload's copies
    #: against, or ``None`` for untracked traffic.  Bookkeeping only:
    #: never priced, never on the wire.
    ledger: WireLedger | None = None

    @abc.abstractmethod
    def body_bytes(self, model: SizeModel) -> int:
        """Size of the payload body in bytes under the given size model."""

    def size_bytes(self, model: SizeModel) -> int:
        """Total wire size: body plus the model's per-message header.

        The result is cached per instance, keyed by the size-model
        *identity*: payloads are immutable and a simulation prices every
        message against one model, so repeated sends of the same payload
        (heartbeats, shared control singletons, retransmissions) price it
        once.  ``object.__setattr__`` is used because most payloads are
        frozen dataclasses.
        """
        cache: tuple[SizeModel, int] | None = getattr(self, "_size_cache", None)
        if cache is not None and cache[0] is model:
            return cache[1]
        size = self.body_bytes(model) + model.header_bytes
        object.__setattr__(self, "_size_cache", (model, size))
        return size


class Message:
    """A payload in flight, as seen by the receiving node.

    A plain ``__slots__`` class rather than a dataclass: the transport
    builds one per delivered message, and the generated dataclass
    ``__init__`` roughly doubles that cost at production scale.
    """

    __slots__ = ("sender", "recipient", "payload", "sent_at", "delivered_at", "span")

    def __init__(
        self,
        sender: int,
        recipient: int,
        payload: Payload,
        sent_at: float,
        delivered_at: float,
        span: int = 0,
    ) -> None:
        self.sender = sender
        self.recipient = recipient
        self.payload = payload
        self.sent_at = sent_at
        self.delivered_at = delivered_at
        #: Causal span id of this wire message (0 when span tracking is
        #: off).  The transport stamps it at send and makes it the current
        #: causal context while the handler runs, so protocol work caused
        #: by this delivery parents to it (see repro.telemetry.spans).
        self.span = span

    @property
    def kind(self) -> str:
        """Short payload-class name, for traces and debugging."""
        return type(self.payload).__name__

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message(sender={self.sender}, recipient={self.recipient}, "
            f"payload={self.payload!r}, sent_at={self.sent_at}, "
            f"delivered_at={self.delivered_at})"
        )
