"""Tracing overhead gates.

Two claims from ``repro.obs.trace``'s module docstring, measured:

* **enabled is cheap** — across a reference flush (quote the batch
  through ``QuoteService``, solve the LAP) the tracer's seams account
  for at most 3 % of the flush, seam-timed min-over-repeats;
* **disabled is free** — with tracing off the same flush never
  constructs a single ``Span`` (constructor poisoned), so the hot path
  pays one attribute load and one branch, not an allocation.
"""

import pytest

from repro.core.matching import Dispatcher
from repro.dispatch.quoting import QuoteService
from repro.dispatch.solver import solve_assignment
from repro.obs.trace import NULL_TRACER, Span, Tracer, clock
from repro.roadnet.generators import grid_city
from repro.roadnet.matrix import MatrixEngine
from repro.sim.config import SimulationConfig
from repro.sim.fleet import build_fleet
from repro.sim.workload import ShanghaiLikeWorkload


@pytest.fixture(scope="module")
def flush_scenario():
    """One real flush's worth of work: a kinetic fleet and a batch of
    requests sized so quote+solve takes milliseconds (so the 3 % band
    is far above timer noise)."""
    city = grid_city(22, 22, seed=9)
    engine = MatrixEngine(city)
    config = SimulationConfig(num_vehicles=24, algorithm="kinetic", seed=9)
    agents = build_fleet(engine, config, start_time=0.0)
    specs = ShanghaiLikeWorkload(city, seed=9, min_trip_meters=800.0).generate(
        num_trips=40, duration_seconds=60.0
    )
    dispatcher = Dispatcher(engine, agents)
    requests = [
        request
        for spec in specs
        if (
            request := dispatcher.make_request(
                spec.origin, spec.destination, 100.0, 600.0, 0.2
            )
        )
        is not None
    ]
    return dispatcher, requests


def reference_flush(dispatcher, requests, tracer):
    """Quote + solve one batch exactly as a batched flush does."""
    dispatcher.tracer = tracer
    service = QuoteService()
    with tracer.span("flush", requests=len(requests)):
        with tracer.span("quote.collect", cat="quote"):
            quote_set = service.begin(dispatcher, requests, 120.0).collect()
        matrix = quote_set.matrix
        with tracer.span(
            "solve",
            cat="solve",
            rows=int(matrix.keys.shape[0]),
            cols=int(matrix.keys.shape[1]),
        ):
            pairs = solve_assignment(matrix.keys)
    return pairs


def test_traced_flush_within_3_percent_of_untraced(
    flush_scenario, monkeypatch
):
    dispatcher, requests = flush_scenario
    traced = Tracer(enabled=True)

    # Warm every cache (engine rows, decision points), and pin the
    # standing contract: tracing never changes the assignment.
    baseline_pairs = reference_flush(dispatcher, requests, NULL_TRACER)
    assert reference_flush(dispatcher, requests, traced) == baseline_pairs

    # Seam-timing, same design as the live-layer gate below: tracing
    # touches the flush only through ``Tracer.span`` / ``Tracer.emit``
    # and ``Span.__enter__`` / ``__exit__``, so its cost is summed at
    # those seams and compared to the *rest of the same run*. A/B
    # differencing of two whole flushes cannot resolve 3 % on shared
    # machines — identical ~20 ms flushes drift far more than that
    # with neighbor load — but a within-run ratio holds steady because
    # interference inflates numerator and denominator together.
    spent = {"trace": 0.0}

    def timed(method):
        def wrapper(*args, **kwargs):
            t0 = clock()
            result = method(*args, **kwargs)
            spent["trace"] += clock() - t0
            return result

        return wrapper

    monkeypatch.setattr(Tracer, "span", timed(Tracer.span))
    monkeypatch.setattr(Tracer, "emit", timed(Tracer.emit))
    monkeypatch.setattr(Span, "__enter__", timed(Span.__enter__))
    monkeypatch.setattr(Span, "__exit__", timed(Span.__exit__))

    ratios = []
    for _ in range(7):
        spent["trace"] = 0.0
        t0 = clock()
        pairs = reference_flush(dispatcher, requests, traced)
        total = clock() - t0
        ratios.append(spent["trace"] / (total - spent["trace"]))

    assert pairs == baseline_pairs  # telemetry never steers dispatch
    ratio = min(ratios)  # min-over-repeats: the stable floor
    assert ratio <= 0.03, (
        f"tracing spent {ratio * 100:.2f} % of flush time "
        f"(samples: {[f'{r * 100:.2f}%' for r in ratios]}, gate is 3 %)"
    )


def test_disabled_trace_allocates_no_spans(flush_scenario, monkeypatch):
    dispatcher, requests = flush_scenario

    def explode(*args, **kwargs):
        raise AssertionError("span allocated with tracing disabled")

    monkeypatch.setattr(Span, "__init__", explode)
    pairs = reference_flush(dispatcher, requests, NULL_TRACER)
    assert pairs  # the flush really ran, without one Span.__init__
    assert NULL_TRACER.records() == []


# ----------------------------------------------------------------------
# Live-telemetry layer (PR 8): the rolling-window plane rides the same
# budget discipline — a fully enabled live layer (time series + SLO +
# resource monitor) stays within 5 % of the disabled run, full-sim A/B.
# ----------------------------------------------------------------------
def test_live_layer_within_5_percent_of_disabled(tmp_path, monkeypatch):
    from repro.obs.live import LiveTelemetry
    from repro.sim.simulator import simulate

    # Measurement design: the live layer enters the simulation through
    # exactly two seams — ``LiveTelemetry.advance`` (per event) and
    # ``LiveTelemetry.finish`` (end of run) — so its cost is timed *at
    # those seams* and compared against the same run's remaining sim
    # time. A/B differencing of two whole-run timings cannot resolve
    # 5 % on shared CI machines (identical runs drift ±30 % there);
    # the within-run ratio is stable because interference inflates
    # numerator and denominator together.
    #
    # Window density matters too: live cost scales with *window
    # rolls*, sim cost with *dispatch work*, so the gate uses a
    # request rate dense enough that each 60 s window holds real
    # flush work (~7 requests/min — still far below the paper's
    # city-scale rates; a sparser-than-production workload would
    # overstate the ratio).
    city = grid_city(12, 12, seed=5)
    engine = MatrixEngine(city)
    trips = ShanghaiLikeWorkload(city, seed=5, min_trip_meters=500.0).generate(
        num_trips=100, duration_seconds=900
    )
    base = dict(
        num_vehicles=8,
        algorithm="kinetic",
        seed=2,
        dispatch_policy="lap",
        batch_window_s=15.0,
    )
    live = dict(
        base,
        timeseries_out=str(tmp_path / "ts.jsonl"),
        timeseries_window_s=60.0,
        slo="service_rate>=0.5,wait_p99<=600",
        slo_out=str(tmp_path / "slo.json"),
        resource_monitor=True,
    )

    def run(params):
        return simulate(engine, SimulationConfig(**params), trips)

    # Warm caches, and pin the contract while we are at it.
    off_report = run(base)
    on_report = run(live)
    assert on_report.num_assigned == off_report.num_assigned
    assert (
        on_report.total_assignment_cost == off_report.total_assignment_cost
    )

    spent = {"live": 0.0}
    real_advance = LiveTelemetry.advance
    real_finish = LiveTelemetry.finish

    def timed_advance(self, now):
        t0 = clock()
        real_advance(self, now)
        spent["live"] += clock() - t0

    def timed_finish(self, now):
        t0 = clock()
        result = real_finish(self, now)
        spent["live"] += clock() - t0
        return result

    monkeypatch.setattr(LiveTelemetry, "advance", timed_advance)
    monkeypatch.setattr(LiveTelemetry, "finish", timed_finish)

    ratios = []
    for _ in range(3):
        spent["live"] = 0.0
        t0 = clock()
        run(live)
        total = clock() - t0
        ratios.append(spent["live"] / (total - spent["live"]))

    ratio = min(ratios)  # min-over-repeats, as for the trace gates
    assert ratio <= 0.05, (
        f"live layer spent {ratio * 100:.2f} % of sim time "
        f"(samples: {[f'{r * 100:.2f}%' for r in ratios]}, gate is 5 %)"
    )
