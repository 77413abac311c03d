"""The benchmark harness: suites, cells, memoization, tables."""

import os

import pytest

from repro.bench.harness import (
    BenchContext,
    ExperimentTable,
    SuiteSpec,
    fmt_cell,
    fmt_ms,
    repro_scale,
)
from repro.sim.metrics import SimulationReport


TINY = SuiteSpec(
    name="tiny",
    grid_rows=8,
    grid_cols=8,
    num_vehicles=4,
    capacity=4,
    num_trips=10,
    duration_seconds=600.0,
    seed=5,
    min_trip_meters=300.0,
)


@pytest.fixture(scope="module")
def context():
    return BenchContext(TINY)


def test_scaled_suite():
    scaled = TINY.scaled(2.0)
    assert scaled.num_vehicles == 8
    assert scaled.num_trips == 20
    assert TINY.scaled(1.0) is TINY


def test_repro_scale_env(monkeypatch):
    monkeypatch.setenv("REPRO_SCALE", "2.5")
    assert repro_scale() == 2.5
    monkeypatch.delenv("REPRO_SCALE")
    assert repro_scale() == 1.0


def test_context_builds_workload(context):
    assert len(context.trips) == TINY.num_trips
    assert context.city.num_vertices == 64


def test_run_cell_returns_report(context):
    report = context.run_cell(algorithm="kinetic")
    assert isinstance(report, SimulationReport)
    assert report.num_requests == TINY.num_trips


def test_run_cell_memoized(context):
    first = context.run_cell(algorithm="kinetic")
    second = context.run_cell(algorithm="kinetic")
    assert first is second


def test_run_cell_distinct_params_not_shared(context):
    a = context.run_cell(algorithm="kinetic")
    b = context.run_cell(algorithm="kinetic", num_vehicles=2)
    assert a is not b


def test_burst_suite_appends_bursts():
    burst = SuiteSpec(
        name="tinyburst",
        grid_rows=8,
        grid_cols=8,
        num_vehicles=4,
        capacity=4,
        num_trips=10,
        duration_seconds=600.0,
        seed=5,
        min_trip_meters=300.0,
        burst_count=2,
        burst_size=3,
    )
    context = BenchContext(burst)
    assert len(context.trips) > 10
    times = [t.request_time for t in context.trips]
    assert times == sorted(times)


def test_table_render_and_save(tmp_path):
    table = ExperimentTable(
        "figX",
        "demo",
        ["a", "b"],
        [["1", "2"], ["333", "4"]],
        notes="hello",
    )
    text = table.render()
    assert "figX" in text and "hello" in text
    assert "333" in text
    path = table.save(str(tmp_path))
    assert os.path.exists(path)
    with open(path, encoding="utf-8") as handle:
        assert "demo" in handle.read()


def test_table_render_empty_rows():
    table = ExperimentTable("figY", "empty", ["col"], [])
    assert "figY" in table.render()


def test_fmt_ms():
    assert fmt_ms(None) == "-"
    assert fmt_ms(12.3) == "12.300"


def test_fmt_cell(context):
    report = context.run_cell(algorithm="kinetic")
    assert fmt_cell(None, "acrt") == "DNF"
    assert fmt_cell(report, "acrt") != "DNF"
    assert fmt_cell(report, "service_rate").replace(".", "").isdigit()
    with pytest.raises(ValueError):
        fmt_cell(report, "latency_p99")


def test_dnf_on_budget_exceeded():
    burst = SuiteSpec(
        name="tinyexplode",
        grid_rows=8,
        grid_cols=8,
        num_vehicles=2,
        capacity=4,
        num_trips=8,
        duration_seconds=600.0,
        seed=5,
        min_trip_meters=300.0,
        burst_count=1,
        burst_size=8,
    )
    context = BenchContext(burst)
    report = context.run_cell(
        algorithm="kinetic",
        tree_mode="basic",
        capacity=None,
        tree_expansion_budget=50,
    )
    assert report is None  # rendered as DNF
