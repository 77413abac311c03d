"""Flush-pipeline telemetry, end to end through the simulator.

The contract under test is *telemetry never steers dispatch*: a traced
run must be bit-identical to the untraced run on every configuration
the determinism pins cover (batched LAP, sharded, async quoting), while
producing a span tree whose ``flush`` spans decompose into the
quote/solve/commit stages and whose exports load back intact.
"""

import json

import pytest

from repro.obs.export import read_chrome_trace
from repro.roadnet.generators import grid_city
from repro.roadnet.matrix import MatrixEngine
from repro.sim.config import SimulationConfig
from repro.sim.simulator import simulate
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


def _deterministic_state(report):
    return {
        "num_requests": report.num_requests,
        "num_assigned": report.num_assigned,
        "num_rejected": report.num_rejected,
        "total_cost": round(report.total_assignment_cost, 6),
        "service_log": {
            rid: (
                entry.get("vehicle"),
                entry.get("assigned_cost"),
                entry.get("pickup"),
                entry.get("dropoff"),
            )
            for rid, entry in report.service_log.items()
        },
    }


# ----------------------------------------------------------------------
# Telemetry never steers dispatch
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"dispatch_policy": "sharded", "num_shards": 3,
         "shard_backend": "process"},
        {"quote_workers": 2, "quote_backend": "thread",
         "quote_overlap_s": 2.0},
        {"dispatch_policy": "greedy", "batch_window_s": 0.0},
    ],
    ids=["lap", "sharded_process", "async_quotes", "greedy_immediate"],
)
def test_traced_run_is_bit_identical_to_untraced(scenario, overrides):
    untraced = _run(scenario, **overrides)
    traced = _run(scenario, trace=True, **overrides)
    assert _deterministic_state(traced) == _deterministic_state(untraced)


def test_untraced_run_collects_no_spans(scenario):
    report = _run(scenario)
    assert report.tracer is not None
    assert not report.tracer.enabled
    assert report.tracer.records() == []


# ----------------------------------------------------------------------
# Span tree structure
# ----------------------------------------------------------------------
def test_flush_spans_decompose_into_pipeline_stages(scenario):
    report = _run(scenario, trace=True)
    records = report.tracer.records()
    by_id = {r.span_id: r for r in records}
    flushes = [r for r in records if r.name == "flush"]
    assert flushes, "a batched traced run must record flush spans"
    for flush in flushes:
        kids = sorted(
            r.name for r in records if r.parent_id == flush.span_id
        )
        assert kids == ["cleanup", "commit", "quote.collect", "solve"]
        assert flush.parent_id is None
        assert "flush" in flush.args and "requests" in flush.args
    # The issue side pairs up: every flush id also has a flush.issue
    # span with a snapshot child, linked by the flush arg.
    issue_ids = {
        r.args["flush"]
        for r in records
        if r.name == "flush.issue" and "flush" in r.args
    }
    assert {f.args["flush"] for f in flushes} <= issue_ids
    for record in records:
        if record.name == "snapshot":
            assert by_id[record.parent_id].name == "flush.issue"


def test_shard_spans_nest_under_solve(scenario):
    report = _run(
        scenario,
        trace=True,
        dispatch_policy="sharded",
        num_shards=3,
        shard_backend="process",
    )
    records = report.tracer.records()
    by_id = {r.span_id: r for r in records}
    shard_solves = [r for r in records if r.name == "shard.solve"]
    assert shard_solves, "the sharded policy must record per-shard solves"
    for shard in shard_solves:
        assert by_id[shard.parent_id].name == "solve"
        assert "shard" in shard.args


def test_worker_quote_spans_parent_to_the_issue_span(scenario):
    report = _run(
        scenario,
        trace=True,
        quote_workers=2,
        quote_backend="thread",
        quote_overlap_s=2.0,
    )
    records = report.tracer.records()
    by_id = {r.span_id: r for r in records}
    columns = [r for r in records if r.name == "quote.column"]
    assert columns, "async quoting must record per-column worker spans"
    assert {by_id[c.parent_id].name for c in columns} == {"quote.issue"}


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
