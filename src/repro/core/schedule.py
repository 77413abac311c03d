"""Valid trip schedules (Definition 2) and their exact evaluation.

A schedule here is the *unfinished* suffix the paper reasons about: the
sequence of pickup/dropoff stops a vehicle will visit from its current
location onward, moving along shortest paths between consecutive stops.
:func:`evaluate_schedule` is the single source of truth for validity —
every algorithm (brute force, branch & bound, MIP reconstruction, kinetic
tree) either calls it or is property-tested against it.

Validity (Definition 2):

1. *point order* — a trip's pickup precedes its dropoff; onboard trips
   appear only as dropoffs;
2. *waiting time* — pickup arrival <= ``request_time + w``;
3. *service constraint* — on-road cost between a trip's pickup and
   dropoff <= ``(1 + eps) * d(s, e)``; for onboard trips the cost already
   driven since their actual pickup counts.

Plus the seat-capacity constraint of the experiments (Tables I and II).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.stop import Stop
from repro.exceptions import ScheduleError


@dataclass(frozen=True, slots=True)
class ScheduleEvaluation:
    """Outcome of a successful schedule evaluation.

    ``cost`` is the paper's objective: total on-road cost of the
    unfinished schedule from the vehicle's location through the last stop.
    """

    stops: tuple[Stop, ...]
    arrivals: tuple[float, ...]
    cost: float

    @property
    def completion_time(self) -> float:
        """Absolute time the last stop is reached."""
        return self.arrivals[-1] if self.arrivals else 0.0


def check_structure(
    stops: Sequence[Stop], onboard_ids: frozenset[int] | set[int]
) -> None:
    """Raise :class:`ScheduleError` unless the stop sequence is
    structurally sound (point-order condition and no duplicates)."""
    seen_pickup: set[int] = set()
    seen_dropoff: set[int] = set()
    for stop in stops:
        rid = stop.request_id
        if stop.is_pickup:
            if rid in onboard_ids:
                raise ScheduleError(f"request {rid} is onboard but scheduled for pickup")
            if rid in seen_pickup:
                raise ScheduleError(f"request {rid} picked up twice")
            seen_pickup.add(rid)
        else:
            if rid in seen_dropoff:
                raise ScheduleError(f"request {rid} dropped off twice")
            if rid not in seen_pickup and rid not in onboard_ids:
                raise ScheduleError(
                    f"request {rid} dropped off before being picked up"
                )
            seen_dropoff.add(rid)
    missing = seen_pickup - seen_dropoff
    if missing:
        raise ScheduleError(f"requests picked up but never dropped off: {missing}")


def evaluate_schedule(
    engine,
    start_vertex: int,
    start_time: float,
    stops: Sequence[Stop],
    onboard_pickup_times: Mapping[int, float],
    capacity: int | None = None,
    initial_load: int | None = None,
) -> ScheduleEvaluation | None:
    """Exact validity check and costing of a stop sequence.

    Parameters
    ----------
    engine:
        A :class:`~repro.roadnet.engine.ShortestPathEngine`.
    start_vertex, start_time:
        The vehicle's decision point ``(l, t)``.
    stops:
        Proposed unfinished schedule. Structural validity is assumed
        (call :func:`check_structure` for untrusted input).
    onboard_pickup_times:
        ``request_id -> actual pickup time`` for passengers already in
        the vehicle; their ride budget is measured from these times.
    capacity:
        Seat capacity, or ``None`` for unlimited (Fig. 9(c) "unlim").
    initial_load:
        Passengers currently in the vehicle; defaults to
        ``len(onboard_pickup_times)``.

    Returns
    -------
    The evaluation, or ``None`` when any waiting-time, service or
    capacity constraint is violated (the common, non-exceptional case
    during search).
    """
    time = start_time
    location = start_vertex
    load = len(onboard_pickup_times) if initial_load is None else initial_load
    pickup_times = dict(onboard_pickup_times)
    arrivals: list[float] = []

    for stop in stops:
        time += engine.distance(location, stop.vertex)
        location = stop.vertex
        request = stop.request
        if stop.is_pickup:
            if time > request.pickup_deadline + _EPS:
                return None
            load += 1
            if capacity is not None and load > capacity:
                return None
            pickup_times[request.request_id] = time
        else:
            picked_at = pickup_times.get(request.request_id)
            if picked_at is None:
                raise ScheduleError(
                    f"request {request.request_id} dropped off before pickup"
                )
            if time - picked_at > request.max_ride_cost + _EPS:
                return None
            load -= 1
        arrivals.append(time)

    return ScheduleEvaluation(
        stops=tuple(stops), arrivals=tuple(arrivals), cost=time - start_time
    )


#: Absolute tolerance for floating-point constraint comparisons. Costs are
#: sums of tens of edge weights in seconds; 1e-6 s of slack is far below
#: any meaningful travel time and absorbs accumulation error.
_EPS = 1e-6


def schedule_cost(engine, start_vertex: int, stops: Sequence[Stop]) -> float:
    """On-road cost of visiting ``stops`` in order from ``start_vertex``
    (no validity checking)."""
    total = 0.0
    location = start_vertex
    for stop in stops:
        total += engine.distance(location, stop.vertex)
        location = stop.vertex
    return total
