"""Wire-codec registry: registration validation and unique names."""

from dataclasses import dataclass

import pytest

from repro.errors import NetworkError
from repro.net.codec import register_payload
from repro.net.heartbeat import HeartbeatPayload
from repro.net.message import Payload
from repro.net.tagging import tagged
from repro.net.wire import CostCategory, SizeModel


def _fresh_payload(name: str) -> type[Payload]:
    """A registrable payload class with a unique name per test."""

    @dataclass(frozen=True)
    class _P(Payload):  # repro-lint: disable=PROTO001
        category = CostCategory.CONTROL

        def body_bytes(self, model: SizeModel) -> int:
            return 7

    _P.__name__ = name
    _P.__qualname__ = name
    return _P


def test_duplicate_name_rejected():
    register_payload(_fresh_payload("CodecDuplicate"))
    with pytest.raises(NetworkError, match="already registered"):
        register_payload(_fresh_payload("CodecDuplicate"))


def test_reregistering_same_class_is_idempotent():
    cls = register_payload(_fresh_payload("CodecIdempotent"))
    assert register_payload(cls) is cls


def test_abstract_body_bytes_rejected():
    class Sizeless(Payload):  # repro-lint: disable=PROTO001
        category = CostCategory.CONTROL

    with pytest.raises(NetworkError, match="body_bytes"):
        register_payload(Sizeless)


def test_missing_category_rejected():
    class Uncategorised(Payload):  # repro-lint: disable=PROTO001
        category = None  # type: ignore[assignment]

        def body_bytes(self, model: SizeModel) -> int:
            return 1

    with pytest.raises(NetworkError, match="CostCategory"):
        register_payload(Uncategorised)


def test_protocol_payloads_are_registered():
    # A protocol payload holds its name: another class under it is refused.
    with pytest.raises(NetworkError, match="already registered"):
        register_payload(_fresh_payload(HeartbeatPayload.__name__))


def test_tagged_subclasses_register_under_base_at_tag():
    cls = tagged(HeartbeatPayload, "codec-test")
    assert cls.__name__ == "HeartbeatPayload@codec-test"
    assert register_payload(cls) is cls
    with pytest.raises(NetworkError, match="already registered"):
        register_payload(_fresh_payload("HeartbeatPayload@codec-test"))
