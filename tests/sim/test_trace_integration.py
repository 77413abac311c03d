"""Flush-pipeline telemetry, end to end through the simulator.

A traced run produces a span tree whose ``flush`` spans decompose into
the snapshot/quote/solve/commit stages, and its exports load back
intact. That tracing never steers dispatch is determinism contract 9,
pinned in ``tests/test_contracts.py``.
"""

import json

import pytest

from repro.obs.export import chrome_trace_events, read_chrome_trace
from repro.obs.report import slowest_flushes
from repro.roadnet.generators import grid_city
from repro.roadnet.matrix import MatrixEngine
from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulation, simulate
from repro.sim.workload import ShanghaiLikeWorkload


@pytest.fixture(scope="module")
def scenario():
    city = grid_city(12, 12, seed=5)
    engine = MatrixEngine(city)
    trips = ShanghaiLikeWorkload(city, seed=5, min_trip_meters=500.0).generate(
        num_trips=50, duration_seconds=900
    )
    return engine, trips


def _run(scenario, **overrides):
    engine, trips = scenario
    params = dict(
        num_vehicles=6,
        algorithm="kinetic",
        seed=2,
        dispatch_policy="lap",
        batch_window_s=15.0,
    )
    params.update(overrides)
    return simulate(engine, SimulationConfig(**params), trips)


def test_untraced_run_collects_no_spans(scenario):
    report = _run(scenario)
    assert report.tracer is not None
    assert not report.tracer.enabled
    assert report.tracer.records() == []


# ----------------------------------------------------------------------
# Span tree structure
# ----------------------------------------------------------------------
def test_flush_spans_decompose_into_pipeline_stages(scenario):
    """Every non-empty batched flush is exactly one ``flush`` span whose
    direct children are its stages, and the slowest-flush drilldown
    shows the snapshot beside them."""
    report = _run(scenario, trace=True)
    records = report.tracer.records()
    flushes = [r for r in records if r.name == "flush"]
    assert flushes, "a batched traced run must record flush spans"
    assert all(f.parent_id is None for f in flushes)
    ids = [f.args["flush"] for f in flushes]
    assert len(ids) == len(set(ids))  # one span per flush
    busy = [f for f in flushes if f.args["requests"] > 0]
    assert len(busy) == report.num_batches
    for flush in busy:
        kids = {r.name for r in records if r.parent_id == flush.span_id}
        assert kids >= {"snapshot", "quote.collect", "solve", "commit"}
    for flush in slowest_flushes(chrome_trace_events(records), top=3):
        assert flush["children"][0]["name"] == "snapshot"


def _column_children(records, name):
    """Spans called ``name``, each with its ``quote.column`` children."""
    return {
        span.span_id: [
            r for r in records
            if r.parent_id == span.span_id and r.name == "quote.column"
        ]
        for span in records
        if span.name == name
    }


def test_later_round_quote_spans_have_column_children(scenario):
    """The iterative policy's own re-quote rounds trace their columns
    like the flush's quote stage does."""
    report = _run(scenario, trace=True, dispatch_policy="iterative")
    rounds = _column_children(report.tracer.records(), "quote")
    assert rounds, "no later-round quote span recorded"
    assert all(rounds.values())


def test_safety_net_flush_traces_its_quote_columns(scenario):
    """The end-of-run safety-net flush quotes inside the policy; its
    columns are traced too."""

    class NoFlushChain(Simulation):
        def _handle_batch_flush(self, now, queue):
            pass  # every request waits for the safety net

    engine, trips = scenario
    config = SimulationConfig(
        num_vehicles=6,
        algorithm="kinetic",
        seed=2,
        dispatch_policy="lap",
        batch_window_s=15.0,
        trace=True,
    )
    report = NoFlushChain(engine, config, trips).run()
    rounds = _column_children(report.tracer.records(), "quote")
    assert rounds, "the safety-net flush recorded no quote span"
    assert all(rounds.values())


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------
def test_trace_and_metrics_exports_load_back(scenario, tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    metrics_path = tmp_path / "metrics.json"
    report = _run(
        scenario,
        trace=True,
        trace_out=str(trace_path),
        metrics_out=str(metrics_path),
    )
    events = read_chrome_trace(str(trace_path))
    assert len(events) == len(report.tracer.records())
    assert {e["name"] for e in events} >= {"flush", "solve", "commit"}
    assert min(e["ts"] for e in events) == 0  # rebased

    document = json.loads(metrics_path.read_text(encoding="utf-8"))
    latency = document["histograms"]["assign.latency_s"]
    assert latency["count"] == report.num_assigned
    assert latency["p50"] is not None and latency["p99"] is not None
    # The report summary rides along as context.
    assert document["context"]["assigned"] == report.num_assigned
    summary = report.summary()
    assert summary["assign_latency_s_p50"] > 0.0
    assert summary["assign_latency_s_p99"] >= summary["assign_latency_s_p50"]


def test_metrics_export_works_without_tracing(scenario, tmp_path):
    """The registry is always live — ``metrics_out`` needs no ``trace``."""
    metrics_path = tmp_path / "metrics.json"
    report = _run(scenario, metrics_out=str(metrics_path))
    document = json.loads(metrics_path.read_text(encoding="utf-8"))
    assert document["histograms"]["flush.total_s"]["count"] > 0
    assert report.tracer.records() == []


def test_trace_out_without_trace_is_rejected():
    with pytest.raises(ValueError, match="trace_out requires trace=True"):
        SimulationConfig(trace_out="/tmp/t.jsonl")
