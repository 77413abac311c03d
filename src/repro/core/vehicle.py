"""Vehicle kinematics.

A vehicle (the paper's *server*) is always either **busy** — following
the shortest-path route of its committed schedule — or **idle**, cruising
the road network ("follows the current road segment (at intersections,
the next segment to follow is chosen randomly)", Section VI).

Movement is represented as timestamped vertex waypoints. Idle cruising is
materialized lazily: waypoints are appended only when some component asks
where the vehicle is, so idle vehicles cost nothing between requests.

Matching happens at vertices: a vehicle mid-edge cannot reroute before
the next intersection, so its *decision point* is the next waypoint at or
after the request time — the ``(l, t)`` every scheduling algorithm
starts from.
"""

from __future__ import annotations

import random

from repro.exceptions import SimulationError

#: Compact the waypoint history once this many entries have been passed.
_COMPACT_THRESHOLD = 512


class Vehicle:
    """Kinematic state of one server."""

    __slots__ = (
        "vehicle_id",
        "capacity",
        "waypoints",
        "_index",
        "busy",
        "plan_version",
        "_rng",
        "_prev_vertex",
    )

    def __init__(
        self,
        vehicle_id: int,
        start_vertex: int,
        start_time: float = 0.0,
        capacity: int | None = 4,
        seed: int | None = None,
    ):
        self.vehicle_id = vehicle_id
        self.capacity = capacity
        self.waypoints: list[tuple[float, int]] = [(start_time, start_vertex)]
        self._index = 0
        self.busy = False
        #: Monotone counter invalidating in-flight stop events on re-plan.
        self.plan_version = 0
        self._rng = random.Random(vehicle_id * 2654435761 if seed is None else seed)
        self._prev_vertex: int | None = None

    # ------------------------------------------------------------------
    # Route management
    # ------------------------------------------------------------------
    def set_route(self, waypoints: list[tuple[float, int]]) -> None:
        """Commit a new driving plan (timestamped vertices, increasing)."""
        if not waypoints:
            raise SimulationError("a route needs at least one waypoint")
        for (t1, _), (t2, _) in zip(waypoints, waypoints[1:]):
            if t2 < t1:
                raise SimulationError("route waypoints must be time-ordered")
        self.waypoints = list(waypoints)
        self._index = 0
        self.busy = True
        self.plan_version += 1

    def set_idle(self, vertex: int, time: float) -> None:
        """Enter cruise mode from the given position."""
        self.waypoints = [(time, vertex)]
        self._index = 0
        self.busy = False
        self._prev_vertex = None
        self.plan_version += 1

    # ------------------------------------------------------------------
    # Position queries
    # ------------------------------------------------------------------
    def decision_point(self, now: float, graph) -> tuple[int, float]:
        """The next vertex the vehicle can re-plan from at/after ``now``:
        ``(vertex, arrival time)``. For idle vehicles, extends the random
        cruise lazily."""
        if not self.busy:
            self._extend_cruise(now, graph)
        self._advance(now)
        time, vertex = self.waypoints[self._index]
        if time < now:
            # Past the final waypoint (busy vehicle that finished its
            # leg): wait at that vertex until ``now``.
            return vertex, now
        return vertex, time

    def position_at(self, now: float, graph) -> tuple[float, float]:
        """Approximate planar coordinates at ``now`` (for the grid index).

        Interpolates linearly between the waypoints bracketing ``now``;
        coordinates are exact at vertices, approximate mid-edge — the
        index only needs a conservative location.
        """
        if graph.coords is None:
            raise SimulationError("position_at requires graph coordinates")
        if not self.busy:
            self._extend_cruise(now, graph)
        self._advance(now)
        t_next, v_next = self.waypoints[self._index]
        if t_next <= now or self._index == 0:
            x, y = graph.coords[v_next]
            return float(x), float(y)
        t_prev, v_prev = self.waypoints[self._index - 1]
        span = t_next - t_prev
        frac = 0.0 if span <= 0 else (now - t_prev) / span
        x0, y0 = graph.coords[v_prev]
        x1, y1 = graph.coords[v_next]
        return float(x0 + frac * (x1 - x0)), float(y0 + frac * (y1 - y0))

    def current_vertex(self, now: float, graph) -> int:
        """The last vertex passed at or before ``now``."""
        if not self.busy:
            self._extend_cruise(now, graph)
        self._advance(now)
        time, vertex = self.waypoints[self._index]
        if time > now and self._index > 0:
            return self.waypoints[self._index - 1][1]
        return vertex

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _advance(self, now: float) -> None:
        """Move the waypoint cursor to the first waypoint at/after ``now``."""
        waypoints = self.waypoints
        index = self._index
        last = len(waypoints) - 1
        while index < last and waypoints[index][0] < now:
            index += 1
        self._index = index
        if index > _COMPACT_THRESHOLD:
            del self.waypoints[: index - 1]
            self._index = 1

    def _extend_cruise(self, until: float, graph) -> None:
        """Append random-walk waypoints until coverage of ``until``.

        Follows the paper's idle behavior: keep driving, choosing the
        next road segment uniformly at random at each intersection
        (avoiding an immediate U-turn where possible).
        """
        time, vertex = self.waypoints[-1]
        while time < until:
            neighbors = graph.neighbors(vertex)
            if len(neighbors) == 0:
                # Isolated vertex: park.
                self.waypoints.append((until, vertex))
                return
            weights = graph.neighbor_weights(vertex)
            choices = [
                pos
                for pos in range(len(neighbors))
                if int(neighbors[pos]) != self._prev_vertex
            ] or list(range(len(neighbors)))
            pos = choices[self._rng.randrange(len(choices))]
            self._prev_vertex = vertex
            vertex = int(neighbors[pos])
            time += float(weights[pos])
            self.waypoints.append((time, vertex))

    def __repr__(self) -> str:
        state = "busy" if self.busy else "idle"
        return f"Vehicle(id={self.vehicle_id}, {state})"
