"""Measurement: ACRT, ART buckets, occupancy and service statistics.

Paper definitions (Section VI):

* **ACRT** — average customer response time: "the average time required
  to complete the search for the minimum time needed to satisfy a new
  request" (one sample per request, across all candidate vehicles);
* **ART** — average response time: "the average time needed to calculate
  the best route for a taxi to follow given its current state, for
  different request sizes" (one sample per (vehicle, request) quote,
  bucketed by the vehicle's current number of active requests).

Every statistic of a run lives in one place: the report's
:class:`~repro.obs.metrics.MetricsRegistry`. Each ``record_*`` method
writes into instruments bound once at report creation, and
:meth:`SimulationReport.summary`, ``acrt_ms``, ``art_ms(k)`` and the
outcome counts read those instruments back.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict
from dataclasses import dataclass, field
from statistics import mean

from repro.obs.metrics import Histogram, MetricsRegistry


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


def _mean(hist: Histogram) -> float:
    """A histogram's mean, 0.0 when empty (the summary's convention)."""
    return hist.total / hist.count if hist.count else 0.0


@dataclass
class SimulationReport:
    """Aggregated outcome of one simulation run: the registry's
    instruments plus what is not a sample stream — occupancy, the
    assignment cost and the service log."""

    occupancy: OccupancyTracker = field(default_factory=OccupancyTracker)
    total_assignment_cost: float = 0.0
    wall_seconds: float = 0.0
    #: The run's metrics registry (repro.obs): every counter and
    #: histogram the report records into and reads back
    #: (``docs/observability.md`` lists them). ``metrics_out``
    #: serializes it.
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
    #: Prefix of the per-bucket ART family: ``quote.art_s.active_<k>``
    #: holds the quotes made while the vehicle had ``k`` active requests.
    ART_FAMILY = "quote.art_s.active_"

    def __post_init__(self):
        # Every instrument is bound here, once: recording never looks a
        # name up, and a fresh report exports every one (zero included).
        counter, histogram = self.registry.counter, self.registry.histogram
        self._settled, self._assigned, self._rejected = (
            counter(name) for name in self.SERVICE_COUNTERS
        )
        self._acrt = histogram("dispatch.acrt_s")
        self._candidates = histogram("dispatch.candidates", unit="vehicles")
        self._quotes = histogram("dispatch.quotes", unit="quotes")
        self._art = histogram("quote.art_s")
        self._art_by_active: dict[int, Histogram] = {}
        self._batch_size = histogram("flush.batch_size", unit="requests")
        self._batch_rejected = histogram("flush.rejected", unit="requests")
        self._batch_carried = histogram("flush.carried", unit="requests")
        self._solve = histogram("flush.solve_s")
        self._quote_stage = histogram("flush.quote_s")
        self._flush_wall = histogram("flush.total_s")
        self._carry_age = histogram("carry.age_s")
        self._carry_flushes = histogram("carry.flushes", unit="flushes")
        self._latency = histogram("assign.latency_s")

    # -- outcome counts --------------------------------------------------
    @property
    def num_requests(self) -> int:
        return self._settled.value

    @property
    def num_assigned(self) -> int:
        return self._assigned.value

    @property
    def num_rejected(self) -> int:
        return self._rejected.value

    @property
    def num_batches(self) -> int:
        """Non-empty flushes (immediate dispatch: one per request)."""
        return self._batch_size.count

    @property
    def carry_events(self) -> int:
        """Times any request was carried into a later flush."""
        return self._carry_age.count

    @property
    def max_carries(self) -> int:
        """Most flushes a single request rode along before settling."""
        return int(self._carry_flushes.max) if self._carry_flushes.count else 0

    @property
    def service_rate(self) -> float:
        """Fraction of requests assigned to a vehicle."""
        if not self.num_requests:
            return 0.0
        return self.num_assigned / self.num_requests

    @property
    def acrt_ms(self) -> float:
        """Mean ACRT in milliseconds (the paper's reporting unit)."""
        return _mean(self._acrt) * 1000.0

    def art_by_active(self) -> dict[int, Histogram]:
        """The ART family, ``{active requests: histogram}`` ascending."""
        return dict(sorted(self._art_by_active.items()))

    def art_ms(self, active_trips: int) -> float | None:
        """Mean ART in milliseconds for one bucket (``None`` if unseen)."""
        hist = self._art_by_active.get(active_trips)
        return None if hist is None else _mean(hist) * 1000.0

    # -- recording -------------------------------------------------------
    def record_assignment(self, result) -> None:
        """Fold one :class:`~repro.core.matching.AssignmentResult` in."""
        self._settled.inc()
        self._acrt.add(result.elapsed)
        self._candidates.add(result.num_candidates)
        self._quotes.add(len(result.quote_timings))
        art, family = self._art, self._art_by_active
        for active, seconds in result.quote_timings:
            bucket = family.get(active)
            if bucket is None:
                bucket = family[active] = self.registry.histogram(
                    f"{self.ART_FAMILY}{active}"
                )
            bucket.add(seconds)
            art.add(seconds)
        if result.assigned:
            self._assigned.inc()
            self.total_assignment_cost += result.cost
        else:
            self._rejected.inc()

    def record_batch(self, batch) -> None:
        """Fold one :class:`~repro.dispatch.policies.BatchResult` in
        (empty flushes are not recorded). Batch size counts every
        request the flush handled — settled and carried alike."""
        size = batch.batch_size + len(batch.carried)
        if size == 0:
            return
        self._batch_size.add(size)
        self._solve.add(batch.solver_seconds)
        self._batch_rejected.add(batch.num_rejected)
        self._batch_carried.add(len(batch.carried))

    def record_carry(self, age_seconds: float) -> None:
        """Record one carry event (a request re-entering the window);
        ``age_seconds`` is how long the request had been waiting."""
        self._carry_age.add(age_seconds)

    def record_carry_settle(self, times_carried: int) -> None:
        """Record a carried request finally settling (assigned or
        rejected) after riding along ``times_carried`` flushes."""
        self._carry_flushes.add(times_carried)

    def record_assign_latency(self, seconds: float) -> None:
        """Record one assigned request's request-to-commit latency (the
        batching delay a longer window trades against batch size)."""
        self._latency.add(seconds)

    def record_flush_wall(self, seconds: float) -> None:
        """Record one flush's total wall time (snapshot + quote + solve +
        commit + bookkeeping as seen by the simulator)."""
        self._flush_wall.add(seconds)

    def record_quote_stage(self, quote_set) -> None:
        """Fold one flush's completed quote stage
        (:class:`~repro.dispatch.quoting.QuoteSet`) in."""
        self._quote_stage.add(quote_set.quote_seconds)

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
        latency, solve = self._latency, self._solve
        return {
            "requests": self.num_requests,
            "assigned": self.num_assigned,
            "rejected": self.num_rejected,
            "service_rate": round(self.service_rate, 4),
            "acrt_ms": round(self.acrt_ms, 4),
            "mean_candidates": round(_mean(self._candidates), 2),
            "mean_quotes": round(_mean(self._quotes), 2),
            "max_passengers": self.occupancy.max_passengers,
            "mean_max_occupancy": round(self.occupancy.mean_max_per_vehicle, 3),
            "top20_mean_occupancy": round(self.occupancy.top20_mean, 3),
            "batches": self.num_batches,
            "mean_batch_size": round(_mean(self._batch_size), 2),
            "max_batch_size": int(self._batch_size.max) if self.num_batches else 0,
            "solver_ms_mean": round(_mean(solve) * 1000.0, 4),
            "mean_batch_rejected": round(_mean(self._batch_rejected), 3),
            "assign_latency_s_mean": round(_mean(latency), 4),
            "assign_latency_s_p50": round(latency.quantile(0.50) or 0.0, 4),
            "assign_latency_s_p99": round(latency.quantile(0.99) or 0.0, 4),
            "solver_ms_p99": round((solve.quantile(0.99) or 0.0) * 1000.0, 4),
            "carry_events": self.carry_events,
            "carried_per_flush_mean": round(_mean(self._batch_carried), 3),
            "carry_age_s_mean": round(_mean(self._carry_age), 3),
            "max_carries": self.max_carries,
            "pipeline_flushes": self._quote_stage.count,
            "quote_ms_mean": round(_mean(self._quote_stage) * 1000.0, 4),
            "wall_seconds": round(self.wall_seconds, 3),
        }

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
        solve, quote_stage = self._solve, self._quote_stage
        if self.num_batches:
            lines.append("--- batched dispatch ---")
            lines.append(f"{'batches':24s} {self.num_batches}")
            lines.append(
                f"{'batch_size':24s} mean {_mean(self._batch_size):.2f} "
                f"max {int(self._batch_size.max)}"
            )
            lines.append(
                f"{'solver_ms':24s} mean {_mean(solve) * 1000:.3f} "
                f"max {solve.max * 1000:.3f}"
            )
            lines.append(
                f"{'rejected_per_batch':24s} mean "
                f"{_mean(self._batch_rejected):.3f}"
            )
        if self.carry_events:
            lines.append("--- carry-over ---")
            lines.append(
                f"{'assign_latency_s':24s} mean {_mean(self._latency):.2f}"
            )
            lines.append(
                f"{'carried':24s} events {self.carry_events} "
                f"mean/flush {_mean(self._batch_carried):.3f} "
                f"max_carries {self.max_carries}"
            )
            lines.append(
                f"{'carry_age_s':24s} mean {_mean(self._carry_age):.2f} "
                f"max {self._carry_age.max:.2f}"
            )
        if quote_stage.count:
            lines.append("--- quote stage ---")
            lines.append(f"{'pipeline_flushes':24s} {quote_stage.count}")
            lines.append(
                f"{'quote_ms':24s} mean {_mean(quote_stage) * 1000:.3f} "
                f"max {quote_stage.max * 1000:.3f}"
            )
        return "\n".join(lines)
