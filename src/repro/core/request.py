"""Trip requests (Definition 1 of the paper).

A trip ``tr = <s, e, w, eps>`` has a source ``s``, destination ``e``,
maximal waiting time ``w`` and service constraint ``eps`` bounding the
on-road pickup-to-dropoff cost by ``(1 + eps) * d(s, e)``.

All costs are travel-time seconds (the paper's constant 14 m/s makes
time and distance interchangeable). ``direct_cost`` — the shortest-path
cost ``d(s, e)`` — is computed once when the request enters the system
and carried on the request, since every constraint check needs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf

from repro.exceptions import ScheduleError


@dataclass(frozen=True, slots=True)
class TripRequest:
    """An accepted-for-evaluation trip request.

    Attributes
    ----------
    request_id:
        Unique, monotonically increasing id (also the tie-breaker in
        deterministic orderings).
    origin, destination:
        Road-network vertices ``s`` and ``e``.
    request_time:
        Simulation time (seconds) at which the request was made. The
        vehicle's location at this instant is the paper's ``r_i``.
    max_wait:
        ``w`` — the rider must be picked up by ``request_time + max_wait``.
    detour_epsilon:
        ``eps`` — the on-road pickup-to-dropoff cost may be at most
        ``(1 + eps) * direct_cost``.
    direct_cost:
        Shortest-path cost ``d(s, e)`` in seconds.
    pickup_deadline:
        Latest pickup time ``request_time + w`` (absolute seconds); set
        at construction.
    max_ride_cost:
        Maximum allowed on-road pickup-to-dropoff cost
        ``(1 + eps) * d(s, e)``; set at construction.
    """

    request_id: int
    origin: int
    destination: int
    request_time: float
    max_wait: float
    detour_epsilon: float
    direct_cost: float
    pickup_deadline: float = field(init=False, compare=False, repr=False)
    max_ride_cost: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.origin == self.destination:
            raise ScheduleError(
                f"request {self.request_id}: origin equals destination "
                f"({self.origin})"
            )
        if self.max_wait < 0:
            raise ScheduleError(f"request {self.request_id}: negative max_wait")
        if self.detour_epsilon < 0:
            raise ScheduleError(f"request {self.request_id}: negative epsilon")
        if self.direct_cost <= 0:
            raise ScheduleError(
                f"request {self.request_id}: non-positive direct cost"
            )
        object.__setattr__(
            self, "pickup_deadline", self.request_time + self.max_wait
        )
        object.__setattr__(
            self, "max_ride_cost", (1.0 + self.detour_epsilon) * self.direct_cost
        )
        if not (self.pickup_deadline < inf and self.max_ride_cost < inf):
            # A stop that cannot be reached arrives at ``inf``; the
            # schedulers reject it only because it misses a finite bound.
            raise ScheduleError(f"request {self.request_id}: infinite deadline")

    @property
    def latest_dropoff_bound(self) -> float:
        """Worst-case absolute dropoff time, ``pickup_deadline +
        max_ride_cost``. This is the latest-arrival time used by the
        slack filter for the dropoff of a not-yet-picked-up trip (see
        "Exactness and the slack filter" in
        :mod:`repro.core.kinetic.tree`: it makes the filter safe — never
        over-pruning)."""
        return self.pickup_deadline + self.max_ride_cost

    def __repr__(self) -> str:
        return (
            f"TripRequest(id={self.request_id}, {self.origin}->{self.destination}, "
            f"t={self.request_time:.0f}, w={self.max_wait:.0f}, "
            f"eps={self.detour_epsilon:.2f})"
        )
