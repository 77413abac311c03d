"""Measurement: ACRT, ART buckets, occupancy and service statistics.

Paper definitions (Section VI):

* **ACRT** — average customer response time: "the average time required
  to complete the search for the minimum time needed to satisfy a new
  request" (one sample per request, across all candidate vehicles);
* **ART** — average response time: "the average time needed to calculate
  the best route for a taxi to follow given its current state, for
  different request sizes" (one sample per (vehicle, request) quote,
  bucketed by the vehicle's current number of active requests).
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, field
from statistics import mean

from repro.obs.metrics import MetricsRegistry


class RunningStats:
    """Streaming mean/min/max/count without storing samples."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict[str, float | None]:
        """Summary dict; ``min``/``max`` are ``None`` (JSON ``null``)
        when no sample was recorded — a real 0.0 sample stays 0.0."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
        }


class ARTCollector:
    """Per-quote compute times, bucketed by active-request count."""

    def __init__(self):
        self.buckets: dict[int, RunningStats] = defaultdict(RunningStats)

    def record(self, active_trips: int, seconds: float) -> None:
        self.buckets[active_trips].add(seconds)

    def mean_for(self, active_trips: int) -> float | None:
        """Mean ART (seconds) for a bucket, or ``None`` if unobserved."""
        stats = self.buckets.get(active_trips)
        return stats.mean if stats else None

    def as_dict(self) -> dict[int, dict[str, float]]:
        return {k: v.as_dict() for k, v in sorted(self.buckets.items())}


class OccupancyTracker:
    """Per-vehicle occupancy statistics (Section VI.B closing numbers:
    max passengers, fleet average, top-20%-filled average)."""

    def __init__(self):
        self._max_by_vehicle: dict[int, int] = defaultdict(int)
        self._sample_sum = 0.0
        self._sample_count = 0

    def observe(self, vehicle_id: int, load: int) -> None:
        """Record a vehicle's load at a stop event."""
        if load > self._max_by_vehicle[vehicle_id]:
            self._max_by_vehicle[vehicle_id] = load
        self._sample_sum += load
        self._sample_count += 1

    @property
    def max_passengers(self) -> int:
        """Largest simultaneous passenger count seen on any vehicle."""
        return max(self._max_by_vehicle.values(), default=0)

    @property
    def mean_max_per_vehicle(self) -> float:
        """Average over vehicles of their own maximum occupancy."""
        if not self._max_by_vehicle:
            return 0.0
        return mean(self._max_by_vehicle.values())

    @property
    def top20_mean(self) -> float:
        """Mean max-occupancy of the top 20% most filled vehicles."""
        if not self._max_by_vehicle:
            return 0.0
        values = sorted(self._max_by_vehicle.values(), reverse=True)
        top = values[: max(1, len(values) // 5)]
        return mean(top)

    @property
    def mean_load_at_stops(self) -> float:
        """Average load over all stop events (ride-pooling intensity)."""
        if not self._sample_count:
            return 0.0
        return self._sample_sum / self._sample_count


@dataclass
class SimulationReport:
    """Aggregated outcome of one simulation run."""

    num_requests: int = 0
    num_assigned: int = 0
    num_rejected: int = 0
    acrt: RunningStats = field(default_factory=RunningStats)
    art: ARTCollector = field(default_factory=ARTCollector)
    occupancy: OccupancyTracker = field(default_factory=OccupancyTracker)
    total_assignment_cost: float = 0.0
    candidate_counts: RunningStats = field(default_factory=RunningStats)
    #: Quotes made per settled request — the ART sample base. Immediate
    #: dispatch quotes at most its candidates (the fleet screen skips
    #: vehicles that cannot win); batched policies quote whole columns,
    #: once per round.
    quote_counts: RunningStats = field(default_factory=RunningStats)
    #: Batched dispatch (repro.dispatch): requests per flush, wall time
    #: inside the assignment solver per flush, rejections per flush.
    #: Immediate dispatch records each request as a singleton batch.
    num_batches: int = 0
    batch_sizes: RunningStats = field(default_factory=RunningStats)
    solver_seconds: RunningStats = field(default_factory=RunningStats)
    batch_rejections: RunningStats = field(default_factory=RunningStats)
    #: Adaptive batching (repro.dispatch.adaptive): per-flush window
    #: lengths as scheduled by the window controller, plus the full
    #: trajectory (flush time, window_s). Populated for every batched
    #: run (the fixed controller's trajectory is constant).
    window_s_stats: RunningStats = field(default_factory=RunningStats)
    window_trajectory: list = field(default_factory=list)
    #: Carry-over batching: carried requests per flush (0 when disabled),
    #: request age in seconds at each carry event, total carry events,
    #: and the most flushes any single request rode along.
    carried_per_flush: RunningStats = field(default_factory=RunningStats)
    carry_age_s: RunningStats = field(default_factory=RunningStats)
    carry_events: int = 0
    max_carries: int = 0
    #: Request-to-assignment latency (commit time minus request time) per
    #: assigned request; 0 under immediate dispatch, and the metric the
    #: adaptive window shortens off-peak.
    assign_latency_s: RunningStats = field(default_factory=RunningStats)
    #: Flush quote stage (repro.dispatch.quoting): per-flush quote
    #: stage wall time. Empty unless a batched flush ran a policy that
    #: consumes a quote set.
    quote_seconds: RunningStats = field(default_factory=RunningStats)
    wall_seconds: float = 0.0
    #: The run's metrics registry (repro.obs): every record_* method
    #: below mirrors its samples into named streaming histograms here,
    #: which is where p50/p90/p99 come from (RunningStats keeps only
    #: mean/min/max) and what ``metrics_out`` serializes.
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: The run's span collector (a :class:`repro.obs.Tracer`, attached
    #: by :class:`~repro.sim.simulator.Simulation`; ``None`` for
    #: hand-built reports). ``report.tracer.records()`` is what the
    #: trace exporters and the bench stage breakdown read.
    tracer: object | None = None
    #: request_id -> {"request", "vehicle", "assigned_cost", "assigned_at",
    #: "pickup", "dropoff"}: the guarantee audit and the decision rows.
    service_log: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    #: Request outcome counters (``docs/observability.md``);
    #: pre-registered at report creation so the exported registry always
    #: carries them (zero included) — asserted by
    #: ``tests/obs/test_metrics_naming.py``.
    SERVICE_COUNTERS = (
        "requests.settled",
        "requests.assigned",
        "requests.rejected",
    )

    def __post_init__(self):
        for name in self.SERVICE_COUNTERS:
            self.registry.counter(name)

    @property
    def service_rate(self) -> float:
        """Fraction of requests assigned to a vehicle."""
        if not self.num_requests:
            return 0.0
        return self.num_assigned / self.num_requests

    @property
    def acrt_ms(self) -> float:
        """Mean ACRT in milliseconds (the paper's reporting unit)."""
        return self.acrt.mean * 1000.0

    def art_ms(self, active_trips: int) -> float | None:
        """Mean ART in milliseconds for one bucket."""
        value = self.art.mean_for(active_trips)
        return None if value is None else value * 1000.0

    def record_assignment(self, result) -> None:
        """Fold one :class:`~repro.core.matching.AssignmentResult` in."""
        self.num_requests += 1
        self.acrt.add(result.elapsed)
        self.registry.histogram("dispatch.acrt_s").add(result.elapsed)
        self.candidate_counts.add(result.num_candidates)
        self.quote_counts.add(len(result.quote_timings))
        art_hist = self.registry.histogram("quote.art_s")
        for active, seconds in result.quote_timings:
            self.art.record(active, seconds)
            art_hist.add(seconds)
        self.registry.counter("requests.settled").inc()
        if result.assigned:
            self.num_assigned += 1
            self.total_assignment_cost += result.cost
            self.registry.counter("requests.assigned").inc()
        else:
            self.num_rejected += 1
            self.registry.counter("requests.rejected").inc()

    def record_batch(self, batch) -> None:
        """Fold one :class:`~repro.dispatch.policies.BatchResult` in
        (empty flushes are not recorded). Batch size counts every
        request the flush handled — settled and carried alike."""
        size = batch.batch_size + len(batch.carried)
        if size == 0:
            return
        self.num_batches += 1
        self.batch_sizes.add(size)
        self.registry.histogram("flush.batch_size", unit="requests").add(size)
        self.solver_seconds.add(batch.solver_seconds)
        self.registry.histogram("flush.solve_s").add(batch.solver_seconds)
        self.batch_rejections.add(batch.num_rejected)
        self.carried_per_flush.add(len(batch.carried))

    def record_window(self, now: float, window_s: float) -> None:
        """Record one flush's scheduled window length (the window
        controller's output at that flush)."""
        self.window_s_stats.add(window_s)
        self.window_trajectory.append((now, window_s))

    def record_carry(self, age_seconds: float) -> None:
        """Record one carry event (a request re-entering the window);
        ``age_seconds`` is how long the request had been waiting."""
        self.carry_events += 1
        self.carry_age_s.add(age_seconds)

    def record_carry_settle(self, times_carried: int) -> None:
        """Record a carried request finally settling (assigned or
        rejected) after riding along ``times_carried`` flushes."""
        if times_carried > self.max_carries:
            self.max_carries = times_carried

    def record_assign_latency(self, seconds: float) -> None:
        """Record one assigned request's request-to-commit latency (the
        batching delay the adaptive window trades against batch size)."""
        self.assign_latency_s.add(seconds)
        self.registry.histogram("assign.latency_s").add(seconds)

    def record_flush_wall(self, seconds: float) -> None:
        """Record one flush's total wall time (snapshot + quote + solve +
        commit + bookkeeping as seen by the simulator)."""
        self.registry.histogram("flush.total_s").add(seconds)

    def record_quote_stage(self, quote_set) -> None:
        """Fold one flush's completed quote stage
        (:class:`~repro.dispatch.quoting.QuoteSet`) in."""
        self.quote_seconds.add(quote_set.quote_seconds)
        self.registry.histogram("flush.quote_s").add(quote_set.quote_seconds)

    def verify_service_guarantees(self, tolerance: float = 1e-5) -> list[str]:
        """Audit the service log against Definition 2: every assigned
        rider picked up by ``request_time + w`` and carried within
        ``(1 + eps) d(s, e)``. Returns violation descriptions (empty =
        all guarantees held). Requests whose service was still in flight
        when the simulation ended are only checked for what happened.
        """
        violations: list[str] = []
        for rid, entry in self.service_log.items():
            request = entry.get("request")
            if request is None:
                continue
            picked = entry.get("pickup")
            dropped = entry.get("dropoff")
            if picked is not None and picked > request.pickup_deadline + tolerance:
                violations.append(
                    f"request {rid}: picked up at {picked:.1f} after "
                    f"deadline {request.pickup_deadline:.1f}"
                )
            if picked is not None and dropped is not None:
                ride = dropped - picked
                if ride > request.max_ride_cost + tolerance:
                    violations.append(
                        f"request {rid}: ride cost {ride:.1f} exceeds "
                        f"(1+eps)d = {request.max_ride_cost:.1f}"
                    )
        return violations

    def decision_rows(self) -> tuple:
        """What the run decided — the meaning of "bit-identical" in
        ``docs/determinism.md``. Element 0 is the header
        ``(num_requests, num_assigned, num_rejected,
        repr(total_assignment_cost))``; the rest are the assigned
        requests in id order, ``(rid, vehicle, repr(assigned_cost),
        repr(assigned_at), repr(pickup), repr(dropoff))``. ``repr``
        keeps every float to the last ulp. Wall-clock fields and ART
        sample counts are not decisions and stay out."""
        header = (
            self.num_requests,
            self.num_assigned,
            self.num_rejected,
            repr(self.total_assignment_cost),
        )
        rows = sorted(
            (
                rid,
                entry["vehicle"],
                repr(entry["assigned_cost"]),
                repr(entry.get("assigned_at")),
                repr(entry.get("pickup")),
                repr(entry.get("dropoff")),
            )
            for rid, entry in self.service_log.items()
            if "vehicle" in entry
        )
        return (header, *rows)

    def decision_digest(self) -> str:
        """SHA-256 of :meth:`decision_rows`: equal digests, same decisions."""
        return hashlib.sha256(repr(self.decision_rows()).encode()).hexdigest()

    def summary(self) -> dict[str, float]:
        """Flat dict for the paper tables (``python -m repro.bench``)
        and ``--metrics-out``."""
        latency = self.registry.histogram("assign.latency_s")
        solve = self.registry.histogram("flush.solve_s")
        summary = {
            "requests": self.num_requests,
            "assigned": self.num_assigned,
            "rejected": self.num_rejected,
            "service_rate": round(self.service_rate, 4),
            "acrt_ms": round(self.acrt_ms, 4),
            "mean_candidates": round(self.candidate_counts.mean, 2),
            "mean_quotes": round(self.quote_counts.mean, 2),
            "max_passengers": self.occupancy.max_passengers,
            "mean_max_occupancy": round(self.occupancy.mean_max_per_vehicle, 3),
            "top20_mean_occupancy": round(self.occupancy.top20_mean, 3),
            "batches": self.num_batches,
            "mean_batch_size": round(self.batch_sizes.mean, 2),
            "max_batch_size": int(self.batch_sizes.max) if self.num_batches else 0,
            "solver_ms_mean": round(self.solver_seconds.mean * 1000.0, 4),
            "mean_batch_rejected": round(self.batch_rejections.mean, 3),
            "window_s_mean": round(self.window_s_stats.mean, 4),
            "window_s_min": round(
                self.window_s_stats.min if self.window_s_stats.count else 0.0, 4
            ),
            "window_s_max": round(
                self.window_s_stats.max if self.window_s_stats.count else 0.0, 4
            ),
            "assign_latency_s_mean": round(self.assign_latency_s.mean, 4),
            "assign_latency_s_p50": round(latency.quantile(0.50) or 0.0, 4),
            "assign_latency_s_p99": round(latency.quantile(0.99) or 0.0, 4),
            "solver_ms_p99": round((solve.quantile(0.99) or 0.0) * 1000.0, 4),
            "carry_events": self.carry_events,
            "carried_per_flush_mean": round(self.carried_per_flush.mean, 3),
            "carry_age_s_mean": round(self.carry_age_s.mean, 3),
            "max_carries": self.max_carries,
            "pipeline_flushes": self.quote_seconds.count,
            "quote_ms_mean": round(self.quote_seconds.mean * 1000.0, 4),
            "wall_seconds": round(self.wall_seconds, 3),
        }
        return summary

    def text_summary(self) -> str:
        """Human-readable report block: service/latency numbers plus the
        batching section (batch sizes, solver wall time, rejections per
        flush) when any batches were recorded. Immediate dispatch
        (``batch_window_s=0``) counts each request as a singleton batch,
        so the section then shows mean size 1.0 and zero solver time."""
        summary = self.summary()
        lines = ["--- simulation report ---"]
        for key in (
            "requests",
            "assigned",
            "rejected",
            "service_rate",
            "acrt_ms",
            "max_passengers",
            "wall_seconds",
        ):
            lines.append(f"{key:24s} {summary[key]}")
        lines.append(
            f"{'vehicles_per_request':24s} candidates "
            f"{summary['mean_candidates']}, trial-inserted {summary['mean_quotes']}"
        )
        if self.num_batches:
            lines.append("--- batched dispatch ---")
            lines.append(f"{'batches':24s} {self.num_batches}")
            lines.append(
                f"{'batch_size':24s} mean {self.batch_sizes.mean:.2f} "
                f"max {int(self.batch_sizes.max)}"
            )
            lines.append(
                f"{'solver_ms':24s} mean {self.solver_seconds.mean * 1000:.3f} "
                f"max {self.solver_seconds.max * 1000:.3f}"
            )
            lines.append(
                f"{'rejected_per_batch':24s} mean {self.batch_rejections.mean:.3f}"
            )
        adaptive_ran = self.window_s_stats.count and (
            self.window_s_stats.min != self.window_s_stats.max
        )
        if adaptive_ran or self.carry_events:
            lines.append("--- adaptive window / carry-over ---")
            if self.window_s_stats.count:
                lines.append(
                    f"{'window_s':24s} mean {self.window_s_stats.mean:.2f} "
                    f"min {self.window_s_stats.min:.2f} "
                    f"max {self.window_s_stats.max:.2f}"
                )
            lines.append(
                f"{'assign_latency_s':24s} mean {self.assign_latency_s.mean:.2f}"
            )
            lines.append(
                f"{'carried':24s} events {self.carry_events} "
                f"mean/flush {self.carried_per_flush.mean:.3f} "
                f"max_carries {self.max_carries}"
            )
            if self.carry_events:
                lines.append(
                    f"{'carry_age_s':24s} mean {self.carry_age_s.mean:.2f} "
                    f"max {self.carry_age_s.max:.2f}"
                )
        if self.quote_seconds.count:
            lines.append("--- quote stage ---")
            lines.append(f"{'pipeline_flushes':24s} {self.quote_seconds.count}")
            lines.append(
                f"{'quote_ms':24s} mean {self.quote_seconds.mean * 1000:.3f} "
                f"max {self.quote_seconds.max * 1000:.3f}"
            )
        return "\n".join(lines)
