"""Request-to-vehicle matching: agents and the dispatcher.

On each incoming request the dispatcher (Section VI): (1) filters
candidate vehicles through the grid index — "servers that are farther
than ``w`` from the pickup location are unable to respond"; (2) asks
candidates for a *quote* — the cost of their best valid augmented
schedule; (3) assigns the request to the cheapest quote and commits only
that vehicle ("the simulator trips the request with each vehicle and
then chooses the vehicle returning the minimum time").

Step (2) is screened fleet-wide (the paper's branch-and-bound applied
across vehicles): one ``distance_many`` fan-out from the pickup gives
every candidate the admissible bound ``d(v, o) + d(o, e)`` on its quote,
vehicles that cannot reach the pickup in time are dropped, and the rest
are trial-inserted cheapest bound first until no remaining bound can win
or tie. The winner is exactly the one quoting every candidate would pick.

Two agent families exist:

* :class:`KineticAgent` — owns a live
  :class:`~repro.core.kinetic.tree.KineticTree`; quoting is a trial
  insertion, committing adopts the trial;
* :class:`RescheduleAgent` — owns plain (onboard, pending, committed)
  state and re-solves from scratch with a
  :class:`~repro.algorithms.base.SchedulingAlgorithm` (brute force,
  branch & bound, MIP, insertion) — the paper's baseline behavior.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from math import inf
from typing import Sequence

from repro.constants import SPEED_MPS
from repro.obs.trace import NULL_TRACER, clock
from repro.core.kinetic.tree import (
    SCREEN_MARGIN,
    KineticTree,
    KineticTrial,
    misses_pickup,
)
from repro.core.problem import ScheduleResult, SchedulingProblem
from repro.core.request import TripRequest
from repro.core.stop import Stop
from repro.core.vehicle import Vehicle
from repro.exceptions import DisconnectedError, SimulationError


@dataclass(frozen=True, slots=True)
class Quote:
    """One vehicle's offer for a request."""

    agent: "VehicleAgent" = field(compare=False)
    request: TripRequest = field(compare=False)
    cost: float
    decision_vertex: int
    decision_time: float
    payload: object = field(compare=False, default=None)


@dataclass(slots=True)
class AssignmentResult:
    """Outcome of dispatching one request.

    ``quote_timings`` holds ``(active_trips, seconds)`` per quote
    actually made (at most one per candidate: the fleet screen skips
    vehicles that cannot win) — the raw material for the paper's ART
    buckets; ``elapsed`` is this request's contribution to ACRT.
    """

    request: TripRequest
    winner: "VehicleAgent | None"
    cost: float
    elapsed: float
    num_candidates: int
    quote_timings: list[tuple[int, float]]

    @property
    def assigned(self) -> bool:
        return self.winner is not None


class VehicleAgent(abc.ABC):
    """Scheduling brain of one vehicle."""

    #: Opt-in to :meth:`Dispatcher.submit`'s fleet screen: a quote's cost
    #: is the completion time, measured from the decision point, of a
    #: schedule driven along shortest paths that visits the pickup by
    #: its deadline and then the dropoff. The screen then may drop the
    #: agent unquoted when it cannot reach the pickup or when
    #: ``d(v, o) + d(o, e)`` already exceeds the best quote. Agents that
    #: leave it False are always quoted, at ``now``.
    travel_time_quotes = False

    def __init__(self, vehicle: Vehicle, engine):
        self.vehicle = vehicle
        self.engine = engine

    # -- scheduling ----------------------------------------------------
    @abc.abstractmethod
    def quote(self, request: TripRequest, now: float) -> Quote | None:
        """Best augmented-schedule cost for ``request``, without mutating
        any committed state. ``None`` = cannot serve."""

    def quote_batch(
        self, requests: Sequence[TripRequest], now: float
    ) -> list["Quote | None"]:
        """Quote several requests from one decision point (batched
        dispatch). The concrete agent families resolve the decision
        point once and delegate to :meth:`quote_batch_at`; the fallback
        just quotes sequentially."""
        return [self.quote(request, now) for request in requests]

    def quote_batch_at(
        self, requests: Sequence[TripRequest], vertex: int, t: float
    ) -> list["Quote | None"]:
        """Quote several requests from a pre-resolved decision point,
        one at a time."""
        return [self.quote_at(request, vertex, t) for request in requests]

    def quote_at(
        self, request: TripRequest, vertex: int | None, t: float
    ) -> Quote | None:
        """One quote from a pre-resolved decision point — what
        :meth:`Dispatcher.submit` and the batched planes call.

        Implemented by the concrete agent families; the fallback lets
        agents that only implement :meth:`quote` (scripted test agents)
        still be dispatched by quoting at time ``t``."""
        return self.quote(request, t)

    @abc.abstractmethod
    def commit(self, quote: Quote) -> None:
        """Adopt a previously returned quote (the request is won)."""

    @abc.abstractmethod
    def next_stop(self) -> tuple[float, tuple[Stop, ...]] | None:
        """Arrival time and stop(s) of the next committed visit."""

    @abc.abstractmethod
    def arrive_next(self) -> list[tuple[float, Stop]]:
        """Execute the next committed visit, updating rider state;
        returns the ``(arrival, stop)`` pairs serviced (several for a
        hotspot group node)."""

    # -- state ---------------------------------------------------------
    @property
    @abc.abstractmethod
    def num_active_trips(self) -> int:
        """Accepted, unfinished trips (the ART bucket key)."""

    @property
    @abc.abstractmethod
    def load(self) -> int:
        """Riders currently in the vehicle."""

    @property
    def is_idle(self) -> bool:
        return self.num_active_trips == 0

    # -- movement ------------------------------------------------------
    def build_route(
        self,
        decision_vertex: int,
        decision_time: float,
        stops: Sequence[Stop],
    ) -> list[tuple[float, int]]:
        """Timestamped vertex waypoints along shortest paths through the
        committed stops, for :meth:`Vehicle.set_route`."""
        waypoints: list[tuple[float, int]] = [(decision_time, decision_vertex)]
        t = decision_time
        loc = decision_vertex
        graph = self.engine.graph
        for stop in stops:
            path = self.engine.path(loc, stop.vertex)
            for weight, v in zip(graph.path_weights(path), path[1:]):
                t += weight
                waypoints.append((t, v))
            loc = stop.vertex
        return waypoints


class KineticAgent(VehicleAgent):
    """Vehicle driven by a live kinetic tree."""

    travel_time_quotes = True

    def __init__(
        self,
        vehicle: Vehicle,
        engine,
        mode: str = "slack",
        hotspot_theta: float | None = None,
        eager_invalidation: bool = False,
        start_time: float | None = None,
        expansion_budget: int | None = None,
        schedule_cap: int | None = None,
    ):
        super().__init__(vehicle, engine)
        # Root the tree exactly where/when the vehicle starts.
        first_time, start_vertex = vehicle.waypoints[0]
        if start_time is None:
            start_time = first_time
        self.tree = KineticTree(
            engine,
            start_vertex,
            start_time,
            capacity=vehicle.capacity,
            mode=mode,
            hotspot_theta=hotspot_theta,
            eager_invalidation=eager_invalidation,
            expansion_budget=expansion_budget,
            schedule_cap=schedule_cap,
        )

    def quote_at(
        self, request: TripRequest, vertex: int, t: float
    ) -> Quote | None:
        trial = self.tree.try_insert(request, vertex, t)
        if trial is None:
            return None
        return Quote(
            agent=self,
            request=request,
            cost=trial.best_cost,
            decision_vertex=vertex,
            decision_time=t,
            payload=trial,
        )

    def quote(self, request: TripRequest, now: float) -> Quote | None:
        vertex, t = self.vehicle.decision_point(now, self.engine.graph)
        return self.quote_at(request, vertex, t)

    def quote_batch(
        self, requests: Sequence[TripRequest], now: float
    ) -> list[Quote | None]:
        vertex, t = self.vehicle.decision_point(now, self.engine.graph)
        return self.quote_batch_at(requests, vertex, t)

    def quote_batch_at(
        self, requests: Sequence[TripRequest], vertex: int, t: float
    ) -> list[Quote | None]:
        """Trial-insert every request from one shared decision point;
        :meth:`KineticTree.try_insert` screens each one before descent.
        Defined on this class so the per-layer trace of the end-to-end
        benchmark (``benchmarks/e2e``) can wrap it by name."""
        return [self.quote_at(request, vertex, t) for request in requests]

    def commit(self, quote: Quote) -> None:
        trial: KineticTrial = quote.payload
        self.tree.commit(trial)
        stops: list[Stop] = []
        for node in self.tree.committed:
            stops.extend(node.stops)
        self.vehicle.set_route(
            self.build_route(quote.decision_vertex, quote.decision_time, stops)
        )

    def next_stop(self) -> tuple[float, tuple[Stop, ...]] | None:
        if not self.tree.committed:
            return None
        node = self.tree.committed[0]
        return node.last_arrival, node.stops

    def arrive_next(self) -> list[tuple[float, Stop]]:
        node = self.tree.advance()
        return list(zip(node.arrivals, node.stops))

    @property
    def num_active_trips(self) -> int:
        return self.tree.num_active_trips

    @property
    def load(self) -> int:
        return self.tree.load


class RescheduleAgent(VehicleAgent):
    """Vehicle that re-solves its schedule from scratch per request."""

    travel_time_quotes = True

    def __init__(self, vehicle: Vehicle, engine, algorithm):
        super().__init__(vehicle, engine)
        self.algorithm = algorithm
        self.onboard: dict[TripRequest, float] = {}
        self.pending: list[TripRequest] = []
        self.committed_stops: list[Stop] = []
        self.committed_arrivals: list[float] = []

    def _problem(
        self, request: TripRequest | None, vertex: int, t: float
    ) -> SchedulingProblem:
        return SchedulingProblem(
            start_vertex=vertex,
            start_time=t,
            onboard=dict(self.onboard),
            pending=tuple(self.pending),
            new_request=request,
            capacity=self.vehicle.capacity,
        )

    def quote_at(
        self, request: TripRequest, vertex: int, t: float
    ) -> Quote | None:
        result = self.algorithm.solve(self._problem(request, vertex, t))
        if result is None:
            return None
        return Quote(
            agent=self,
            request=request,
            cost=result.cost,
            decision_vertex=vertex,
            decision_time=t,
            payload=result,
        )

    def quote(self, request: TripRequest, now: float) -> Quote | None:
        vertex, t = self.vehicle.decision_point(now, self.engine.graph)
        return self.quote_at(request, vertex, t)

    def quote_batch(
        self, requests: Sequence[TripRequest], now: float
    ) -> list[Quote | None]:
        vertex, t = self.vehicle.decision_point(now, self.engine.graph)
        return self.quote_batch_at(requests, vertex, t)

    def quote_batch_at(
        self, requests: Sequence[TripRequest], vertex: int, t: float
    ) -> list[Quote | None]:
        """Re-solve once per request from one shared decision point; the
        (onboard, pending) base problem is identical across the batch."""
        return [self.quote_at(request, vertex, t) for request in requests]

    def commit(self, quote: Quote) -> None:
        result: ScheduleResult = quote.payload
        self.pending.append(quote.request)
        self.committed_stops = list(result.stops)
        self.committed_arrivals = list(result.arrivals)
        self.vehicle.set_route(
            self.build_route(
                quote.decision_vertex, quote.decision_time, self.committed_stops
            )
        )

    def next_stop(self) -> tuple[float, tuple[Stop, ...]] | None:
        if not self.committed_stops:
            return None
        return self.committed_arrivals[0], (self.committed_stops[0],)

    def arrive_next(self) -> list[tuple[float, Stop]]:
        if not self.committed_stops:
            raise SimulationError("no committed stop to arrive at")
        stop = self.committed_stops.pop(0)
        arrival = self.committed_arrivals.pop(0)
        if stop.is_pickup:
            self.pending = [
                r for r in self.pending if r.request_id != stop.request_id
            ]
            self.onboard[stop.request] = arrival
        else:
            for request in list(self.onboard):
                if request.request_id == stop.request_id:
                    del self.onboard[request]
        return [(arrival, stop)]

    @property
    def num_active_trips(self) -> int:
        return len(self.onboard) + len(self.pending)

    @property
    def load(self) -> int:
        return len(self.onboard)


class Dispatcher:
    """Matches each incoming request to the vehicle whose augmented
    schedule costs least (the paper's objective: the total cost of the
    unfinished schedule with the new request inserted)."""

    def __init__(
        self,
        engine,
        agents: Sequence[VehicleAgent],
        grid_index=None,
        staleness_seconds: float = 60.0,
    ):
        self.engine = engine
        self.agents = list(agents)
        self.grid_index = grid_index
        self.staleness_seconds = staleness_seconds
        #: The run's span collector (repro.obs); the simulator swaps in
        #: its own. Write-only: no matching decision ever reads it.
        self.tracer = NULL_TRACER
        self._next_request_id = 0

    # ------------------------------------------------------------------
    def make_request(
        self,
        origin: int,
        destination: int,
        request_time: float,
        max_wait: float,
        detour_epsilon: float,
    ) -> TripRequest | None:
        """Stamp a raw trip spec into a :class:`TripRequest` (computing
        ``d(s, e)``); ``None`` for degenerate/unreachable specs."""
        if origin == destination:
            return None
        try:
            direct = self.engine.distance(origin, destination)
        except DisconnectedError:
            return None
        request = TripRequest(
            request_id=self._next_request_id,
            origin=origin,
            destination=destination,
            request_time=request_time,
            max_wait=max_wait,
            detour_epsilon=detour_epsilon,
            direct_cost=direct,
        )
        self._next_request_id += 1
        return request

    def candidates(self, request: TripRequest) -> list[VehicleAgent]:
        """Conservative candidate set via the grid index.

        Straight-line distance lower-bounds network distance, so a disc
        of radius ``(w + staleness) * speed`` around the pickup covers
        every vehicle that could possibly arrive in time.
        """
        if self.grid_index is None or self.engine.graph.coords is None:
            return self.agents
        x, y = self.engine.graph.coords[request.origin]
        radius = (request.max_wait + self.staleness_seconds) * SPEED_MPS
        ids = set(self.grid_index.query_radius(float(x), float(y), radius))
        return [a for a in self.agents if a.vehicle.vehicle_id in ids]

    def _screen(
        self, request: TripRequest, candidates: list[VehicleAgent], now: float
    ) -> tuple[list[tuple[int | None, float]], list[float | None]]:
        """Decision point and quote lower bound of every candidate.

        Every opted-in agent (:attr:`VehicleAgent.travel_time_quotes`)
        resolves its decision point ``(v, t)`` — exactly the call its
        quote would make — and one fan-out from the pickup gives all of
        them ``d(o, v)``, which stands in for ``d(v, o)`` on the
        undirected network (:data:`SCREEN_MARGIN` absorbs last-ulp
        asymmetry). A vehicle that :func:`misses_pickup` gets bound
        ``None`` (never quoted); the rest get ``d(v, o) + d(o, e)``: any
        augmented schedule drives to the pickup and then on to the
        dropoff, so its cost is at least that. Other agents quote at
        ``now`` with bound ``-inf``.
        """
        points: list[tuple[int | None, float]] = []
        bounds: list[float | None] = []
        screened: list[int] = []
        for i, agent in enumerate(candidates):
            if agent.travel_time_quotes:
                points.append(agent.vehicle.decision_point(now, agent.engine.graph))
                screened.append(i)
            else:
                points.append((None, now))
            bounds.append(-inf)
        if not screened:
            return points, bounds
        legs = self.engine.distance_many(
            request.origin, [points[i][0] for i in screened]
        )
        for i, leg in zip(screened, legs):
            leg = float(leg)
            if misses_pickup(request, points[i][1], leg):
                bounds[i] = None
                continue
            bounds[i] = leg + request.direct_cost
        return points, bounds

    def submit(self, request: TripRequest, now: float) -> AssignmentResult:
        """Quote the candidates that could win, assign the cheapest,
        commit the winner.

        Candidates are trial-inserted in ascending order of their
        :meth:`_screen` bound, stopping once a bound exceeds the best
        cost found by more than :data:`SCREEN_MARGIN` plus the 1e-9 tie
        band: no remaining vehicle can then win or tie. The winner is
        picked from the quotes made, in candidate order, with the
        comparison quoting every candidate would apply — costs within
        1e-9 tie and go to the lowest vehicle id. Every skipped cost lies
        more than ``SCREEN_MARGIN`` above the minimum, so the winner is
        the vehicle the quote-everyone loop picks (determinism
        contract 11).
        """
        # The stopwatches stay even when untraced: elapsed feeds ACRT
        # and the per-quote stamps feed the ART buckets either way. The
        # tracer just gets the same stamps as a finished span.
        started = clock()
        quote_timings: list[tuple[int, float]] = []
        candidates = self.candidates(request)
        points, bounds = self._screen(request, candidates, now)
        quotes: list[Quote | None] = [None] * len(candidates)
        floor = inf
        reachable = [i for i, bound in enumerate(bounds) if bound is not None]
        for i in sorted(reachable, key=bounds.__getitem__):
            if bounds[i] - SCREEN_MARGIN > floor + 1e-9:
                break
            agent = candidates[i]
            active = agent.num_active_trips
            t0 = clock()
            quote = agent.quote_at(request, *points[i])
            quote_timings.append((active, clock() - t0))
            if quote is None:
                continue
            quotes[i] = quote
            floor = min(floor, quote.cost)
        best: Quote | None = None
        for quote in quotes:
            if quote is None:
                continue
            if (
                best is None
                or quote.cost < best.cost - 1e-9
                or (
                    abs(quote.cost - best.cost) <= 1e-9
                    and quote.agent.vehicle.vehicle_id
                    < best.agent.vehicle.vehicle_id
                )
            ):
                best = quote
        if best is not None:
            best.agent.commit(best)
        elapsed = clock() - started
        self.tracer.emit(
            "submit",
            "dispatch",
            started,
            started + elapsed,
            request=request.request_id,
            candidates=len(candidates),
            assigned=best is not None,
        )
        return AssignmentResult(
            request=request,
            winner=best.agent if best is not None else None,
            cost=best.cost if best is not None else float("inf"),
            elapsed=elapsed,
            num_candidates=len(candidates),
            quote_timings=quote_timings,
        )
