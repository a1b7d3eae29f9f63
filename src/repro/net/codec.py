"""The wire codec: a registry of every payload type that can be sent.

netFilter's exactness argument leans on two properties of the wire layer:
every byte the cost model reports was priced by the payload that put it
there (size accounting), and every payload type registers under a name
no other class holds, so the payload kind that traces and reports record
names exactly one class.  Registration is mandatory, checked statically
by the ``PROTO001`` rule of :mod:`repro.lint` and enforced at import time
by the :func:`register_payload` decorator itself.

Usage::

    @register_payload
    @dataclass(frozen=True)
    class ProbePayload(Payload):
        category = CostCategory.CONTROL

        def body_bytes(self, model: SizeModel) -> int:
            return model.aggregate_bytes
"""

from __future__ import annotations

from typing import TypeVar

from repro.errors import NetworkError
from repro.net.message import Payload
from repro.net.wire import CostCategory

P = TypeVar("P", bound=Payload)

#: All registered payload types, keyed by class name (tagged per-instance
#: subclasses register under ``Base@tag``).
_PAYLOAD_TYPES: dict[str, type[Payload]] = {}


def register_payload(cls: type[P]) -> type[P]:
    """Class decorator: validate and register one payload type.

    Validates at import time that the class carries its own size
    accounting (a concrete ``body_bytes``) and names a cost category —
    the two invariants the byte accounting of Section IV rests on.

    Raises
    ------
    NetworkError
        If the class is abstract about its size, lacks a category, or a
        different class already registered under the same name.
    """
    if cls.body_bytes is Payload.body_bytes or getattr(
        cls.body_bytes, "__isabstractmethod__", False
    ):
        raise NetworkError(
            f"payload {cls.__name__} does not implement body_bytes(); every "
            "registered payload must price itself"
        )
    category = getattr(cls, "category", None)
    if not isinstance(category, (CostCategory, property)):
        raise NetworkError(
            f"payload {cls.__name__} must declare a CostCategory (attribute "
            "or property) so its bytes land in an accounting bucket"
        )
    name = cls.__name__
    existing = _PAYLOAD_TYPES.get(name)
    if existing is not None and existing is not cls:
        raise NetworkError(f"payload name {name!r} is already registered")
    _PAYLOAD_TYPES[name] = cls
    return cls
