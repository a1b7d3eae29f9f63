"""Unit tests for the requester-side recovery policy's backoff schedule."""

from __future__ import annotations

import pytest

from repro.core.recovery import RecoveryPolicy
from repro.errors import ConfigurationError


def test_default_schedule_doubles_up_to_the_cap():
    policy = RecoveryPolicy(reissue_delay=50.0)
    assert [policy.delay_for(k) for k in range(1, 6)] == [
        50.0,
        100.0,
        200.0,
        400.0,
        400.0,  # capped
    ]


def test_unit_backoff_factor_restores_the_fixed_delay():
    policy = RecoveryPolicy(reissue_delay=60.0, backoff_factor=1.0)
    assert [policy.delay_for(k) for k in range(1, 5)] == [60.0] * 4


def test_custom_factor_and_cap():
    policy = RecoveryPolicy(
        reissue_delay=10.0, backoff_factor=3.0, reissue_delay_cap=100.0
    )
    assert [policy.delay_for(k) for k in range(1, 5)] == [10.0, 30.0, 90.0, 100.0]


def test_attempts_are_one_based():
    policy = RecoveryPolicy()
    with pytest.raises(ConfigurationError):
        policy.delay_for(0)


def test_backoff_validation():
    with pytest.raises(ConfigurationError):
        RecoveryPolicy(backoff_factor=0.5)
    with pytest.raises(ConfigurationError):
        RecoveryPolicy(reissue_delay=50.0, reissue_delay_cap=10.0)


# The monitor's and the front door's settle delays follow the same
# schedule (uncapped: their deadlines bound the total instead).
def _service_delay(**kwargs):
    from repro.service import ServiceConfig

    return ServiceConfig(**kwargs).delay_for


def _frontdoor_delay(**kwargs):
    from repro.frontdoor import FrontDoorConfig

    return FrontDoorConfig(**kwargs).retry_delay


@pytest.mark.parametrize("delay_of", [_service_delay, _frontdoor_delay])
def test_service_and_frontdoor_schedules(delay_of):
    delay = delay_of(retry_backoff=10.0)
    assert [delay(k) for k in range(1, 6)] == [10.0, 20.0, 40.0, 80.0, 160.0]
    delay = delay_of(retry_backoff=10.0, backoff_factor=3.0)
    assert [delay(k) for k in range(1, 5)] == [10.0, 30.0, 90.0, 270.0]
    delay = delay_of(retry_backoff=60.0, backoff_factor=1.0)
    assert [delay(k) for k in range(1, 5)] == [60.0] * 4


@pytest.mark.parametrize("delay_of", [_service_delay, _frontdoor_delay])
def test_service_and_frontdoor_attempts_are_one_based(delay_of):
    # Used to return a delay *below* the configured base, silently.
    with pytest.raises(ConfigurationError):
        delay_of()(0)
