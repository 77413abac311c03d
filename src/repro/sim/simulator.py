"""Event-driven ridesharing simulation (Section VI's framework).

The simulation replays a trip stream in request-time order. Vehicles
cruise when idle and execute committed schedules otherwise; assigned
vehicles re-route on the fly. Dispatch runs through the batched
subsystem (:mod:`repro.dispatch`): with ``batch_window_s == 0`` each
request is flushed the instant it arrives (the paper's immediate
dispatch), otherwise requests accumulate in a
:class:`~repro.dispatch.window.BatchWindow` and each periodic
``BATCH_DISPATCH`` event runs one synchronous flush at its instant:
snapshot the batch, quote it against the fleet as it stands, and let
the policy solve and commit.

Flushes run every ``batch_window_s`` seconds of simulated time. With
``carry_over=True``, requests that had a feasible quote but lost the
flush's assignment, and whose wait budget still reaches the next
flush, re-enter the window
(:class:`~repro.dispatch.policies.CarriedRequest`) instead of being
settled in-batch; a request no vehicle can serve is rejected at its
first flush. A carried request's accumulated response-time debt is
folded into the final :class:`~repro.core.matching.AssignmentResult`
when a later flush settles it.

Event causality: committed plans are versioned — when a vehicle is
re-planned (wins a request), its in-flight stop-arrival event becomes
stale and is dropped when popped; the commit schedules a fresh one.
"""

from __future__ import annotations

import numpy as np

from repro.core.matching import Dispatcher
from repro.dispatch import BatchDispatcher, BatchWindow, QuoteService, make_policy
from repro.obs import Tracer, clock, write_chrome_trace, write_metrics_json
from repro.sim.config import SimulationConfig
from repro.sim.events import Event, EventKind, EventQueue
from repro.sim.fleet import build_fleet
from repro.sim.metrics import SimulationReport
from repro.sim.workload import TripSpec
from repro.spatial.geometry import BoundingBox
from repro.spatial.grid_index import GridIndex


class Simulation:
    """One configured simulation run over a trip stream."""

    def __init__(
        self,
        engine,
        config: SimulationConfig,
        trips: list[TripSpec],
    ):
        self.engine = engine
        self.config = config
        self.trips = sorted(trips, key=lambda t: t.request_time)
        self.start_time = self.trips[0].request_time if self.trips else 0.0
        self.horizon = self.trips[-1].request_time if self.trips else 0.0

        self.agents = build_fleet(engine, config, start_time=self.start_time)
        self._agents_by_id = {a.vehicle.vehicle_id: a for a in self.agents}

        self.grid_index = None
        if config.use_grid_index and engine.graph.coords is not None:
            coords = engine.graph.coords
            bounds = BoundingBox(
                float(np.min(coords[:, 0])),
                float(np.min(coords[:, 1])),
                float(np.max(coords[:, 0])),
                float(np.max(coords[:, 1])),
            )
            self.grid_index = GridIndex(bounds, cell_meters=config.grid_cell_meters)

        #: The run's span collector (repro.obs). Disabled (the default)
        #: it is a literal no-op; enabled it records every flush's
        #: stages. Telemetry is write-only — nothing below ever reads
        #: it back into a dispatch decision.
        self.tracer = Tracer(enabled=config.trace)
        self._flush_seq = 0

        self.report = SimulationReport()
        self.report.tracer = self.tracer

        self.dispatcher = Dispatcher(
            engine,
            self.agents,
            grid_index=self.grid_index,
            staleness_seconds=config.report_interval,
        )
        self.dispatcher.tracer = self.tracer
        self.batch_dispatcher = BatchDispatcher(
            self.dispatcher,
            make_policy(config.dispatch_policy, config.assignment_rounds),
        )
        self.batch_window = (
            BatchWindow(config.batch_window_s)
            if config.batch_window_s > 0
            else None
        )
        #: Carry-over debt: request_id -> (elapsed, quote_timings,
        #: times_carried) accumulated over the flushes a request lost,
        #: folded into its final AssignmentResult at settle.
        self._carry_debt: dict[int, tuple[float, list, int]] = {}
        self.quote_service = QuoteService()

    # ------------------------------------------------------------------
    def run(self) -> SimulationReport:
        """Process every event; returns the aggregated report."""
        started = clock()
        self._run_events()
        self.report.wall_seconds = clock() - started
        self.report.extra["engine_stats"] = getattr(
            self.engine, "stats", lambda: {}
        )()
        if self.grid_index is not None:
            self.report.extra["grid_stats"] = self.grid_index.stats()
        if self.config.trace_out:
            write_chrome_trace(self.tracer.records(), self.config.trace_out)
        if self.config.metrics_out:
            write_metrics_json(
                self.report.registry,
                self.config.metrics_out,
                extra=self.report.summary(),
            )
        return self.report

    def _run_events(self) -> None:
        queue = EventQueue()
        for spec in self.trips:
            queue.push(Event(spec.request_time, EventKind.REQUEST_ARRIVAL, spec))
        if self.grid_index is not None:
            for agent in self.agents:
                self._report_location(agent, self.start_time)
                queue.push(
                    Event(
                        self.start_time + self.config.report_interval,
                        EventKind.LOCATION_REPORT,
                        agent.vehicle.vehicle_id,
                    )
                )

        if self.batch_window is not None and self.trips:
            queue.push(
                Event(
                    self.start_time + self.config.batch_window_s,
                    EventKind.BATCH_DISPATCH,
                )
            )

        while True:
            while queue:
                event = queue.pop()
                if event.kind is EventKind.REQUEST_ARRIVAL:
                    self._handle_request(event.payload, event.time, queue)
                elif event.kind is EventKind.STOP_REACHED:
                    self._handle_stop(event.payload, event.time, queue)
                elif event.kind is EventKind.BATCH_DISPATCH:
                    self._handle_batch_flush(event.time, queue)
                else:
                    self._handle_report(event.payload, event.time, queue)
            if self.batch_window is not None and self.batch_window:
                # Safety net: flush the final partial window so tail
                # requests are never silently dropped, whatever ended
                # the periodic flush chain. Committing schedules new
                # stop events, so loop back to drain them.
                self._dispatch_batch(
                    self.batch_window.flush(),
                    max(queue.current_time, self.start_time),
                    queue,
                )
                continue
            break

    # ------------------------------------------------------------------
    def _handle_request(self, spec: TripSpec, now: float, queue: EventQueue) -> None:
        request = self.dispatcher.make_request(
            spec.origin,
            spec.destination,
            now,
            self.config.constraints.max_wait_seconds,
            self.config.constraints.detour_epsilon,
        )
        if request is None:
            return
        if self.batch_window is None:
            self._dispatch_batch([request], now, queue)
        else:
            self.batch_window.add(request)

    def _handle_batch_flush(self, now: float, queue: EventQueue) -> None:
        """Periodic ``BATCH_DISPATCH``: one synchronous flush under one
        ``flush`` span. Snapshot the window's accumulated requests,
        quote them, solve and commit through the policy. Then
        schedule the next flush — the chain runs until the first flush
        at or after the last request arrival (same flush instants as the
        old ``next <= horizon + window`` rule, but immune to float
        accumulation stopping the chain one window early and stranding
        tail requests)."""
        flush_id = self._flush_seq
        self._flush_seq += 1
        wall_start = clock()
        with self.tracer.span(
            "flush", flush=flush_id, sim_now=round(now, 3)
        ) as flush_span:
            next_flush = (
                now + self.config.batch_window_s if now < self.horizon else None
            )
            with self.tracer.span("snapshot", flush=flush_id):
                requests = self.batch_window.flush()
            flush_span.annotate(requests=len(requests))
            if requests:
                quote_set = None
                if self.batch_dispatcher.policy.uses_quote_set:
                    with self.tracer.span(
                        "quote.collect", cat="quote", flush=flush_id
                    ):
                        quote_set = self.quote_service.begin(
                            self.dispatcher, requests, now
                        ).collect()
                    self.report.record_quote_stage(quote_set)
                # A carried request must still be assignable at the next
                # flush.
                self._commit_batch(
                    requests,
                    now,
                    queue,
                    quote_set=quote_set,
                    carry_deadline=next_flush if self.config.carry_over else None,
                )
        if requests:
            self.report.record_flush_wall(clock() - wall_start)
        if next_flush is not None:
            queue.push(Event(next_flush, EventKind.BATCH_DISPATCH))

    def _dispatch_batch(self, requests, now: float, queue: EventQueue) -> None:
        """Assign one batch outside the periodic flush chain — immediate
        dispatch, and the end-of-run safety net — under its own
        ``flush`` span, settling every request here."""
        wall_start = clock()
        with self.tracer.span(
            "flush", requests=len(requests), sim_now=round(now, 3)
        ):
            self._commit_batch(requests, now, queue)
        self.report.record_flush_wall(clock() - wall_start)

    def _commit_batch(
        self, requests, now, queue, quote_set=None, carry_deadline=None
    ) -> None:
        """Dispatch one batch and fold the outcome into the report; each
        winning vehicle gets exactly one fresh stop event (its final
        post-batch plan), and one location report. Carried requests
        (carry-over batching) re-enter the window for the next flush,
        accumulating their response-time debt until a later flush
        settles them; ``carry_deadline=None`` settles everything here."""
        batch = self.batch_dispatcher.dispatch(
            requests, now, quote_set=quote_set, carry_deadline=carry_deadline
        )
        self.report.record_batch(batch)
        if batch.carried:
            for item in batch.carried:
                rid = item.request.request_id
                elapsed, timings, times = self._carry_debt.pop(
                    rid, (0.0, [], 0)
                )
                self._carry_debt[rid] = (
                    elapsed + item.elapsed,
                    timings + item.quote_timings,
                    times + 1,
                )
                self.report.record_carry(now - item.request.request_time)
            self.batch_window.carry(item.request for item in batch.carried)
        winners: dict[int, object] = {}
        for result in batch.results:
            debt = self._carry_debt.pop(result.request.request_id, None)
            if debt is not None:
                elapsed, timings, times = debt
                result.elapsed += elapsed
                result.quote_timings = timings + result.quote_timings
                self.report.record_carry_settle(times)
            self.report.record_assignment(result)
            if result.assigned:
                self.report.record_assign_latency(
                    now - result.request.request_time
                )
                self.report.service_log[result.request.request_id] = {
                    "request": result.request,
                    "vehicle": result.winner.vehicle.vehicle_id,
                    "assigned_cost": result.cost,
                    "assigned_at": now,
                }
                winners[result.winner.vehicle.vehicle_id] = result.winner
        for agent in winners.values():
            self._schedule_next_stop(agent, queue)
            if self.grid_index is not None:
                self._report_location(agent, now)

    def _handle_stop(self, payload, now: float, queue: EventQueue) -> None:
        vehicle_id, plan_version = payload
        agent = self._agents_by_id[vehicle_id]
        if agent.vehicle.plan_version != plan_version:
            return  # stale: the vehicle re-planned since this was scheduled
        serviced = agent.arrive_next()
        for arrival, stop in serviced:
            entry = self.report.service_log.setdefault(stop.request_id, {})
            entry["pickup" if stop.is_pickup else "dropoff"] = arrival
        self.report.occupancy.observe(vehicle_id, agent.load)
        if self.grid_index is not None:
            self._report_location(agent, now)
        if agent.next_stop() is not None:
            self._schedule_next_stop(agent, queue)
        else:
            last_arrival, last_stop = serviced[-1]
            agent.vehicle.set_idle(last_stop.vertex, last_arrival)

    def _handle_report(self, vehicle_id: int, now: float, queue: EventQueue) -> None:
        agent = self._agents_by_id[vehicle_id]
        self._report_location(agent, now)
        next_time = now + self.config.report_interval
        if next_time <= self.horizon:
            queue.push(Event(next_time, EventKind.LOCATION_REPORT, vehicle_id))

    def _schedule_next_stop(self, agent, queue: EventQueue) -> None:
        upcoming = agent.next_stop()
        if upcoming is None:
            return
        arrival, _stops = upcoming
        queue.push(
            Event(
                arrival,
                EventKind.STOP_REACHED,
                (agent.vehicle.vehicle_id, agent.vehicle.plan_version),
            )
        )

    def _report_location(self, agent, now: float) -> None:
        x, y = agent.vehicle.position_at(now, self.engine.graph)
        self.grid_index.update(agent.vehicle.vehicle_id, x, y)


def simulate(engine, config: SimulationConfig, trips: list[TripSpec]) -> SimulationReport:
    """Convenience one-shot: build and run a :class:`Simulation`."""
    return Simulation(engine, config, trips).run()
