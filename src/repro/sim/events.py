"""Discrete events and the simulation event queue."""

from __future__ import annotations

import enum
import heapq
import itertools
from dataclasses import dataclass, field

from repro.exceptions import SimulationError


class EventKind(enum.IntEnum):
    """Event types, ordered so simultaneous events resolve deterministically:
    stop arrivals apply before new requests at the same instant, batch
    flushes see every request that arrived by their instant, and
    location reports come last."""

    STOP_REACHED = 0
    REQUEST_ARRIVAL = 1
    BATCH_DISPATCH = 2
    LOCATION_REPORT = 3


@dataclass(frozen=True, slots=True)
class Event:
    """One scheduled simulation event.

    ``payload`` is kind-specific: a workload trip spec for request
    arrivals, a ``(vehicle_id, plan_version)`` pair for stop arrivals
    (stale versions are dropped — vehicles re-plan), a vehicle id for
    location reports, and ``None`` for periodic batch-dispatch flushes.
    """

    time: float
    kind: EventKind
    payload: object = field(compare=False, default=None)


class EventQueue:
    """Min-heap of events ordered by (time, kind, insertion order)."""

    def __init__(self):
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()
        self._last_time = float("-inf")

    def push(self, event: Event) -> None:
        """Schedule an event; past events (before the last pop) are
        rejected to catch causality bugs early."""
        if event.time < self._last_time - 1e-9:
            raise SimulationError(
                f"event at t={event.time} scheduled before current "
                f"time {self._last_time}"
            )
        heapq.heappush(
            self._heap, (event.time, int(event.kind), next(self._counter), event)
        )

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SimulationError("event queue is empty")
        time, _, _, event = heapq.heappop(self._heap)
        self._last_time = time
        return event

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def current_time(self) -> float:
        """Time of the most recently popped event."""
        return self._last_time
