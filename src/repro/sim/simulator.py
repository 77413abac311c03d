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

The flush cadence is owned by a window controller
(:mod:`repro.dispatch.adaptive`): each flush asks the controller for
the next window length. The fixed controller echoes the configured
constant (bit-identical to the pre-controller chain); with
``adaptive_window=True`` the window is retuned per flush from the
observed arrival intensity, clamped to the configured band. With
``carry_over=True``, requests that end a flush unassigned but whose
wait budget still reaches the next flush re-enter the window
(:class:`~repro.dispatch.policies.CarriedRequest`) instead of being
settled in-batch; their accumulated response-time debt is folded
into the final :class:`~repro.core.matching.AssignmentResult` when a
later flush settles them.

Event causality: committed plans are versioned — when a vehicle is
re-planned (wins a request), its in-flight stop-arrival event becomes
stale and is dropped when popped; the commit schedules a fresh one.
"""

from __future__ import annotations

import numpy as np

from repro.core.matching import Dispatcher
from repro.dispatch import BatchDispatcher, BatchWindow, QuoteService, make_policy
from repro.dispatch.adaptive import make_window_controller
from repro.dispatch.policies import GreedyPolicy
from repro.faults import (
    FaultInjector,
    FlushBudget,
    RetryPolicy,
    parse_fault_spec,
    run_with_fault,
)
from repro.obs import (
    LiveTelemetry,
    Tracer,
    clock,
    write_chrome_trace,
    write_metrics_json,
)
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

        # The report (and its metrics registry) exists before the
        # dispatch stack so the fault injector can count into it.
        self.report = SimulationReport()
        self.report.tracer = self.tracer

        #: Deterministic fault injection (repro.faults). An empty plan
        #: (the default) makes the injector — and every hardened code
        #: path it gates — a literal no-op: determinism contract 10.
        self.fault_injector = FaultInjector(
            parse_fault_spec(config.fault_spec),
            seed=config.fault_seed,
            registry=self.report.registry,
            tracer=self.tracer,
        )
        self.retry_policy = RetryPolicy(
            max_attempts=config.task_retries + 1,
            timeout_s=config.task_timeout_s,
            backoff_s=config.retry_backoff_s,
            backoff_cap_s=config.retry_backoff_cap_s,
        )
        #: The degradation ladder's last rung: a flush that exhausts its
        #: deadline budget is dispatched greedily (sequential
        #: cheapest-quote, no batch solve), unhardened by design.
        self._fallback_policy = GreedyPolicy()

        self.dispatcher = Dispatcher(
            engine,
            self.agents,
            grid_index=self.grid_index,
            staleness_seconds=config.report_interval,
            objective=config.objective,
        )
        self.dispatcher.tracer = self.tracer
        try:
            # Engine fan-out spans (Dijkstra row-cache sweeps). Shared
            # engines (bench contexts) simply follow the latest run's
            # tracer; a disabled tracer silences them again.
            engine.tracer = self.tracer
        except AttributeError:
            pass
        self.batch_dispatcher = BatchDispatcher(
            self.dispatcher,
            make_policy(
                config.dispatch_policy,
                config.assignment_rounds,
                num_shards=config.num_shards,
                shard_backend=config.shard_backend,
                shard_boundary_cells=config.shard_boundary_cells,
                injector=self.fault_injector,
                retry=self.retry_policy,
            ),
        )
        self.batch_window = (
            BatchWindow(config.batch_window_s)
            if config.batch_window_s > 0
            else None
        )
        #: Owns the flush cadence: fixed (config constants, bit-identical
        #: to the pre-controller chain) or adaptive (per-flush retune).
        self.window_controller = make_window_controller(config)
        self._arrivals_since_flush = 0
        #: Carry-over debt: request_id -> (elapsed, quote_timings,
        #: times_carried) accumulated over the flushes a request lost,
        #: folded into its final AssignmentResult at settle.
        self._carry_debt: dict[int, tuple[float, list, int]] = {}
        self.quote_service = QuoteService(
            injector=self.fault_injector, retry=self.retry_policy
        )
        #: Live-ops layer (repro.obs.live): sim-time windowed time
        #: series, SLO engine and resource monitor. ``None`` (the
        #: default) keeps the event loop's fast path untouched; enabled
        #: it is still write-only — determinism contract 9 extends to
        #: it (tests/sim/test_live_telemetry.py).
        self.live = LiveTelemetry.from_config(
            config, self.report.registry, self.start_time
        )

    # ------------------------------------------------------------------
    def _install_engine_faults(self) -> bool:
        """Shadow ``engine.distance_many`` with a fault-drawing wrapper
        (instance attribute — the class stays untouched). Draws only
        happen inside an open engine window (quote computation); the
        greedy fallback and commit paths never open one, so the ladder's
        last rung stays fault-immune. Returns whether a wrapper was
        installed (the caller must restore it — engines are shared
        across runs in bench/test contexts)."""
        injector = self.fault_injector
        if not injector.wants("engine.distance_many"):
            return False
        original = self.engine.distance_many

        def distance_many_with_faults(source, targets):
            fault, sleeping = injector.draw_engine()
            if fault is not None:
                return run_with_fault(fault, sleeping, None, original, source, targets)
            return original(source, targets)

        self.engine.distance_many = distance_many_with_faults
        return True

    def run(self) -> SimulationReport:
        """Process every event; returns the aggregated report."""
        started = clock()
        engine_faults = self._install_engine_faults()
        try:
            self._run_events()
        finally:
            if engine_faults:
                del self.engine.distance_many
            # The sharded policy owns a worker pool; release it however
            # the run ended — an exception must not strand worker
            # processes until GC.
            policy_close = getattr(self.batch_dispatcher.policy, "close", None)
            if policy_close is not None:
                policy_close()
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

        live = self.live
        while True:
            while queue:
                event = queue.pop()
                if live is not None:
                    # Close any sim-time telemetry windows this event's
                    # timestamp completes (the event's own samples then
                    # land in the next window). Read-and-report only:
                    # nothing the live layer does feeds back into
                    # dispatch, so enabling it stays bit-identical.
                    live.advance(event.time)
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

        if live is not None:
            # Final partial window + JSONL flush + SLO verdict.
            slo_document = live.finish(
                max(queue.current_time, self.start_time)
            )
            if slo_document is not None:
                self.report.extra["slo"] = slo_document
            self.report.extra["timeseries"] = {
                "windows": len(live.recorder.rows),
                "path": self.config.timeseries_out,
            }

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
            self._arrivals_since_flush += 1

    def _handle_batch_flush(self, now: float, queue: EventQueue) -> None:
        """Periodic ``BATCH_DISPATCH``: one synchronous flush under one
        ``flush`` span. Retune the window controller on the
        flush-to-flush arrival count, snapshot the window's accumulated
        requests, quote them, solve and commit through the policy. Then
        schedule the next flush — the chain runs until the first flush
        at or after the last request arrival (same flush instants as the
        old ``next <= horizon + window`` rule, but immune to float
        accumulation stopping the chain one window early and stranding
        tail requests)."""
        controller = self.window_controller
        flush_id = self._flush_seq
        self._flush_seq += 1
        wall_start = clock()
        with self.tracer.span(
            "flush", flush=flush_id, sim_now=round(now, 3)
        ) as flush_span:
            controller.on_flush(now, self._arrivals_since_flush)
            self._arrivals_since_flush = 0
            self.batch_window.window_s = controller.window_s
            self.report.record_window(now, controller.window_s)
            next_flush = now + controller.window_s if now < self.horizon else None
            with self.tracer.span("snapshot", flush=flush_id):
                requests = self.batch_window.flush()
            flush_span.annotate(requests=len(requests))
            if requests:
                quote_set = None
                degraded = False
                if self.batch_dispatcher.policy.uses_quote_set:
                    budget = (
                        FlushBudget(self.config.flush_deadline_s)
                        if self.config.flush_deadline_s is not None
                        else None
                    )
                    with self.tracer.span(
                        "quote.collect", cat="quote", flush=flush_id
                    ):
                        quote_set = self.quote_service.begin(
                            self.dispatcher, requests, now, budget=budget
                        ).collect()
                    self.report.record_quote_stage(quote_set)
                    controller.observe_quote_stage(quote_set.quote_seconds)
                    if quote_set.deadline_exceeded:
                        # Ladder's last rung: the flush blew its deadline
                        # budget mid-quote. Drop the partial quote set and
                        # dispatch this one flush greedily — the next
                        # flush starts a fresh budget.
                        degraded = True
                        quote_set = None
                        self.report.record_flush_degraded()
                # A carried request must still be assignable at the next
                # flush. The fault-carry bound is the same instant, but
                # armed whenever a next flush exists: the ladder's rescue
                # must work even with carry-over batching disabled.
                self._commit_batch(
                    requests,
                    now,
                    queue,
                    quote_set=quote_set,
                    carry_deadline=next_flush if self.config.carry_over else None,
                    fault_deadline=next_flush,
                    degraded=degraded,
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
        self,
        requests,
        now,
        queue,
        quote_set=None,
        carry_deadline=None,
        fault_deadline=None,
        degraded=False,
    ) -> None:
        """Dispatch one batch and fold the outcome into the report; each
        winning vehicle gets exactly one fresh stop event (its final
        post-batch plan), and one location report. Carried requests
        (carry-over batching) re-enter the window for the next flush,
        accumulating their response-time debt until a later flush
        settles them; ``carry_deadline=None`` settles everything here.
        ``degraded=True`` is the ladder's last rung: dispatch through
        the greedy fallback policy for this flush only."""
        if degraded:
            # Greedy downgrade: sequential cheapest-quote dispatch, no
            # batch solve, no fault hardening — the one rung guaranteed
            # not to consume any failed machinery.
            batch = self._fallback_policy.assign(
                self.dispatcher,
                list(requests),
                now,
                carry_deadline=carry_deadline,
            )
        else:
            batch = self.batch_dispatcher.dispatch(
                requests,
                now,
                quote_set=quote_set,
                carry_deadline=carry_deadline,
                fault_deadline=fault_deadline,
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
                if item.fault_rescued:
                    self.report.record_fault_rescue()
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
            request = entry.get("request")
            if request is not None:
                # Live guarantee counters (pickup.late / detour
                # violations) — read the pickup stamp before this
                # stop's own entry lands.
                self.report.record_stop_service(
                    request, stop.is_pickup, arrival, pickup=entry.get("pickup")
                )
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
