"""Unit tests for the fault-scenario DSL."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    BurstLoss,
    CrashPeer,
    DelayMessages,
    DropMessages,
    FaultScenario,
    MessageMatch,
    PartitionLinks,
    RevivePeer,
)
from repro.net.wire import CostCategory
from repro.aggregation.hierarchical import AggReplyPayload
from repro.aggregation.spec import AggregateSpec
from repro.aggregation.combiners import ScalarSumCombiner


def make_payload() -> AggReplyPayload:
    spec = AggregateSpec(
        name="t",
        combiner=ScalarSumCombiner(),
        contribute=lambda node, _: 1,
        up_category=CostCategory.FILTERING,
    )
    return AggReplyPayload(session_id=1, spec=spec, value=3)


def test_match_all_fields_none_matches_everything():
    assert MessageMatch().matches(0, 1, make_payload())


def test_match_filters_by_sender_recipient_category():
    payload = make_payload()
    assert MessageMatch(sender=3).matches(3, 1, payload)
    assert not MessageMatch(sender=3).matches(4, 1, payload)
    assert MessageMatch(recipient=1).matches(3, 1, payload)
    assert not MessageMatch(recipient=2).matches(3, 1, payload)
    assert MessageMatch(category=CostCategory.FILTERING).matches(3, 1, payload)
    assert not MessageMatch(category=CostCategory.SKETCH).matches(3, 1, payload)


def test_match_payload_kind_is_a_prefix_match():
    """Tagged payload classes are named ``Base@tag``; a bare base name
    must match every tagged variant."""
    payload = make_payload()
    assert MessageMatch(payload_kind="AggReplyPayload").matches(0, 1, payload)
    assert not MessageMatch(payload_kind="AggRequestPayload").matches(0, 1, payload)


def test_crash_needs_exactly_one_trigger():
    with pytest.raises(ConfigurationError):
        CrashPeer(peer=1)
    with pytest.raises(ConfigurationError):
        CrashPeer(peer=1, at=3.0, on_match=MessageMatch())
    CrashPeer(peer=1, at=3.0)
    CrashPeer(peer=1, on_match=MessageMatch(sender=0))


def test_action_validation():
    with pytest.raises(ConfigurationError):
        CrashPeer(peer=1, on_match=MessageMatch(), after=0)
    with pytest.raises(ConfigurationError):
        RevivePeer(peer=1, at=-1.0)
    with pytest.raises(ConfigurationError):
        PartitionLinks(links=(), start=0.0, duration=5.0)
    with pytest.raises(ConfigurationError):
        PartitionLinks(links=((0, 1),), start=0.0, duration=0.0)
    with pytest.raises(ConfigurationError):
        DropMessages(match=MessageMatch(), count=0)
    with pytest.raises(ConfigurationError):
        DelayMessages(match=MessageMatch(), count=1, extra_delay=0.0)
    with pytest.raises(ConfigurationError):
        BurstLoss(start=0.0, duration=10.0, probability=0.0)
    with pytest.raises(ConfigurationError):
        FaultScenario(name="")


def test_partition_cuts_both_directions():
    partition = PartitionLinks(links=((2, 5),), start=0.0, duration=1.0)
    assert partition.cuts(2, 5)
    assert partition.cuts(5, 2)
    assert not partition.cuts(2, 4)
