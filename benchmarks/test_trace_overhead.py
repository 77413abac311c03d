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

    # Seam-timing: tracing touches the flush only through
    # ``Tracer.span`` / ``Tracer.emit`` and ``Span.__enter__`` /
    # ``__exit__``, so its cost is summed at those seams and compared
    # to the *rest of the same run*. A/B differencing of two whole
    # flushes cannot resolve 3 % on shared machines — identical ~20 ms
    # flushes drift far more than that with neighbor load — but a
    # within-run ratio holds steady because interference inflates
    # numerator and denominator together.
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
