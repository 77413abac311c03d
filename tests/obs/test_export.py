"""Exporter schema pins: Chrome trace-event JSONL and metrics.json.

The trace schema is pinned by a *golden file*
(``tests/obs/data/golden_trace.jsonl``): a fixed span tree driven by a
fake clock must serialize byte-identically, so any schema change —
field renames, ordering, µs rounding — fails loudly and forces a
deliberate golden update. Extend the schema additively.
"""

import json
import os

from repro.obs.export import (
    chrome_trace_events,
    read_chrome_trace,
    write_chrome_trace,
    write_metrics_json,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_trace.jsonl")


class FakeClock:
    """Every read returns the next scripted tick (1 s apart)."""

    def __init__(self):
        self.value = 0.0

    def __call__(self):
        tick = self.value
        self.value += 1.0
        return tick


def golden_records():
    """The pinned span tree: one flush with a solve child plus one
    emitted worker column — every exporter feature in four spans."""
    tracer = Tracer(enabled=True, clock=FakeClock())
    with tracer.span("flush", flush=0, requests=2) as flush:  # t=0..3
        with tracer.span("solve", cat="solve", rows=2, cols=3):  # t=1..2
            pass
        tracer.emit(
            "quote.column", "quote", 0.25, 0.75, parent=flush, vehicle=7
        )
    return tracer.records()


def test_chrome_trace_matches_the_golden_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    count = write_chrome_trace(golden_records(), str(path))
    assert count == 3
    produced = path.read_text(encoding="utf-8")
    golden = open(GOLDEN, encoding="utf-8").read()
    assert produced == golden, (
        "Chrome-trace schema drifted from tests/obs/data/golden_trace.jsonl"
        " — if the change is deliberate, regenerate the golden file"
    )


def test_events_are_rebased_sorted_and_integer_microseconds():
    events = chrome_trace_events(golden_records())
    assert [e["name"] for e in events] == ["flush", "quote.column", "solve"]
    flush, column, solve = events
    # Rebased: the earliest span starts at ts=0 whatever the clock said.
    assert flush["ts"] == 0 and flush["dur"] == 3_000_000
    assert column["ts"] == 250_000 and column["dur"] == 500_000
    assert solve["ts"] == 1_000_000 and solve["dur"] == 1_000_000
    for event in events:
        assert event["ph"] == "X" and event["pid"] == 1
        assert isinstance(event["ts"], int) and isinstance(event["dur"], int)
    # Parenthood travels in args, alongside the annotations.
    assert solve["args"]["parent_id"] == flush["args"]["span_id"]
    assert column["args"]["parent_id"] == flush["args"]["span_id"]
    assert flush["args"]["parent_id"] is None
    assert flush["args"]["requests"] == 2
    assert column["args"]["vehicle"] == 7


def test_empty_records_export_no_events(tmp_path):
    assert chrome_trace_events([]) == []
    path = tmp_path / "empty.jsonl"
    assert write_chrome_trace([], str(path)) == 0
    assert read_chrome_trace(str(path)) == []


def test_read_roundtrips_jsonl_and_accepts_the_array_form(tmp_path):
    events = chrome_trace_events(golden_records())
    jsonl = tmp_path / "trace.jsonl"
    write_chrome_trace(golden_records(), str(jsonl))
    assert read_chrome_trace(str(jsonl)) == events
    # Hand-wrapped strict array (what some viewers emit) reads too.
    array = tmp_path / "trace.json"
    array.write_text(json.dumps(events), encoding="utf-8")
    assert read_chrome_trace(str(array)) == events


def test_write_metrics_json_document_shape(tmp_path):
    registry = MetricsRegistry()
    registry.histogram("assign.latency_s").add(2.5)
    registry.counter("flush.count").inc(3)
    path = tmp_path / "metrics.json"
    document = write_metrics_json(
        registry, str(path), extra={"service_rate": 0.9}
    )
    on_disk = json.loads(path.read_text(encoding="utf-8"))
    assert on_disk == document
    assert on_disk["context"] == {"service_rate": 0.9}
    assert on_disk["counters"]["flush.count"] == {"value": 3}
    latency = on_disk["histograms"]["assign.latency_s"]
    assert latency["count"] == 1 and latency["p99"] == 2.5


def test_write_metrics_json_without_extra_has_no_context_key(tmp_path):
    path = tmp_path / "metrics.json"
    document = write_metrics_json(MetricsRegistry(), str(path))
    assert "context" not in document
