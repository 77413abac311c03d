"""Schedule stops: the pickup and dropoff points of trip requests."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.request import TripRequest


class StopKind(enum.Enum):
    """Whether a stop picks a rider up or drops them off."""

    PICKUP = "pickup"
    DROPOFF = "dropoff"


@dataclass(frozen=True, slots=True)
class Stop:
    """One scheduled visit: the pickup (``s_i``) or dropoff (``e_i``) of a
    trip request. Identity is ``(request_id, kind)`` so stops can be used
    in sets and as dict keys regardless of request object identity."""

    request: TripRequest = field(compare=False)
    kind: StopKind = field(compare=False)
    key: tuple[int, StopKind] = field(init=False)
    #: The road-network vertex this stop visits.
    vertex: int = field(init=False, compare=False, repr=False)
    is_pickup: bool = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        pickup = self.kind is StopKind.PICKUP
        request = self.request
        object.__setattr__(self, "key", (request.request_id, self.kind))
        object.__setattr__(self, "is_pickup", pickup)
        object.__setattr__(
            self, "vertex", request.origin if pickup else request.destination
        )

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Stop):
            return NotImplemented
        return self.key == other.key

    @property
    def request_id(self) -> int:
        return self.request.request_id

    @property
    def is_dropoff(self) -> bool:
        return self.kind is StopKind.DROPOFF

    def __repr__(self) -> str:
        tag = "P" if self.is_pickup else "D"
        return f"{tag}{self.request.request_id}@{self.vertex}"


def pickup(request: TripRequest) -> Stop:
    """The pickup stop of ``request``."""
    return Stop(request, StopKind.PICKUP)


def dropoff(request: TripRequest) -> Stop:
    """The dropoff stop of ``request``."""
    return Stop(request, StopKind.DROPOFF)
