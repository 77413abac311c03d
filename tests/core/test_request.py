"""TripRequest invariants."""

import pytest

from repro.core.request import TripRequest
from repro.exceptions import ScheduleError


def make(**overrides):
    params = dict(
        request_id=1,
        origin=0,
        destination=5,
        request_time=100.0,
        max_wait=600.0,
        detour_epsilon=0.2,
        direct_cost=300.0,
    )
    params.update(overrides)
    return TripRequest(**params)


def test_pickup_deadline():
    assert make().pickup_deadline == 700.0


def test_max_ride_cost():
    assert make().max_ride_cost == pytest.approx(360.0)


def test_latest_dropoff_bound():
    assert make().latest_dropoff_bound == pytest.approx(700.0 + 360.0)


def test_zero_epsilon_allows_only_direct():
    request = make(detour_epsilon=0.0)
    assert request.max_ride_cost == request.direct_cost


def test_same_origin_destination_rejected():
    with pytest.raises(ScheduleError):
        make(destination=0)


def test_negative_wait_rejected():
    with pytest.raises(ScheduleError):
        make(max_wait=-1.0)


def test_negative_epsilon_rejected():
    with pytest.raises(ScheduleError):
        make(detour_epsilon=-0.1)


def test_nonpositive_direct_cost_rejected():
    with pytest.raises(ScheduleError):
        make(direct_cost=0.0)


@pytest.mark.parametrize(
    "field", ["request_time", "max_wait", "detour_epsilon", "direct_cost"]
)
def test_infinite_bound_rejected(field):
    with pytest.raises(ScheduleError):
        make(**{field: float("inf")})


def test_frozen():
    request = make()
    with pytest.raises(Exception):
        request.origin = 3


def test_repr():
    assert "TripRequest" in repr(make())
