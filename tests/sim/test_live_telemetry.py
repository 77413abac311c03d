"""Live telemetry end to end through the simulator: time-series rows,
the SLO verdict in the summary, console status lines.

That the live layer never steers dispatch, and that ``slo.json``
reproduces byte for byte on a same-seed rerun, is determinism contract
9, pinned in ``tests/test_contracts.py``.
"""

import json

import pytest

from repro.roadnet.generators import grid_city
from repro.roadnet.matrix import MatrixEngine
from repro.sim.config import SimulationConfig
from repro.sim.simulator import simulate
from repro.sim.workload import ShanghaiLikeWorkload

SLO_SPEC = "service_rate>=0.5,wait_compliance>=0.5,wait_p99<=600"


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


def _live_overrides(tmp_path):
    """Every live feature at once."""
    return dict(
        timeseries_out=str(tmp_path / "ts.jsonl"),
        timeseries_window_s=120.0,
        timeseries_ring=3,
        slo=SLO_SPEC,
        slo_out=str(tmp_path / "slo.json"),
        live_report_every=4,
        resource_monitor=True,
    )


def test_disabled_run_builds_no_live_layer(scenario):
    report = _run(scenario)
    assert "timeseries" not in report.extra
    assert "slo" not in report.extra


# ----------------------------------------------------------------------
# Time-series rows and report integration
# ----------------------------------------------------------------------
def test_timeseries_rows_are_contiguous_and_consistent(scenario, tmp_path):
    report = _run(scenario, **_live_overrides(tmp_path))
    path = tmp_path / "ts.jsonl"
    rows = [
        json.loads(line)
        for line in path.read_text(encoding="utf-8").splitlines()
    ]
    assert rows, "an enabled run must emit time-series rows"
    assert report.extra["timeseries"] == {
        "windows": len(rows),
        "path": str(path),
    }
    for index, row in enumerate(rows):
        assert row["window"] == index
        if index:
            assert row["t_start"] == rows[index - 1]["t_end"]
    # Window counter deltas add up to the end-of-run cumulative count.
    settled = sum(
        row["counters"].get("requests.settled", 0) for row in rows
    )
    assert settled == report.num_requests
    # The resource monitor fed the rows: RSS appears as a gauge.
    assert any(
        "resource.rss_bytes" in row["gauges"] for row in rows
    )
    # Rolling quantiles appear once assignment latency has samples.
    assert any(
        "assign.latency_s" in row.get("rolling", {}) for row in rows
    )


def test_summary_carries_the_slo_verdict(scenario, tmp_path):
    report = _run(scenario, **_live_overrides(tmp_path))
    summary = report.summary()
    assert summary["slo_pass"] in (True, False)
    assert summary["slo_windows"] == report.extra["slo"]["num_windows"]
    assert "slo_alert_windows" in summary
    text = report.text_summary()
    assert "service-level objectives" in text
    assert SLO_SPEC.split(",")[0] in text


def test_live_report_prints_status_lines(scenario, tmp_path, capsys):
    _run(
        scenario,
        timeseries_window_s=120.0,
        live_report_every=1,
    )
    lines = [
        line
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("[live]")
    ]
    assert lines, "--live-report must print console status lines"
    assert "settled=" in lines[0] and "service=" in lines[0]
