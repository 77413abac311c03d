"""Live telemetry end to end through the simulator.

Determinism contract 9 extends to the whole live-ops plane: a run
with the live layer *fully enabled* — windowed time series, SLO
engine, resource monitor, console reports — must be bit-identical to
a run with it disabled, on every configuration the original trace
pins cover. And because the SLO engine consumes only simulated-time
metrics, the entire ``slo.json`` verdict (per-window values, verdicts
and burn rates included) must reproduce exactly on a same-seed rerun
of the bimodal adaptive workload.
"""

import json

import pytest

from repro.roadnet.generators import grid_city
from repro.roadnet.matrix import MatrixEngine
from repro.sim.config import SimulationConfig
from repro.sim.simulator import simulate
from repro.sim.workload import ShanghaiLikeWorkload, bimodal_trips

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


def _live_overrides(tmp_path, suffix=""):
    """Every live feature at once: the strongest form of the pin."""
    return dict(
        timeseries_out=str(tmp_path / f"ts{suffix}.jsonl"),
        timeseries_window_s=120.0,
        timeseries_ring=3,
        slo=SLO_SPEC,
        slo_out=str(tmp_path / f"slo{suffix}.json"),
        live_report_every=4,
        resource_monitor=True,
    )


# ----------------------------------------------------------------------
# Contract 9, extended: the live layer never steers dispatch
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "overrides",
    [
        {},
        {"dispatch_policy": "sharded", "num_shards": 3,
         "shard_backend": "process"},
        {"dispatch_policy": "greedy", "batch_window_s": 0.0},
    ],
    ids=["lap", "sharded_process", "greedy_immediate"],
)
def test_live_run_is_bit_identical_to_disabled(scenario, tmp_path, overrides):
    disabled = _run(scenario, **overrides)
    live = _run(scenario, **_live_overrides(tmp_path), **overrides)
    assert _deterministic_state(live) == _deterministic_state(disabled)


def test_disabled_run_builds_no_live_layer(scenario):
    report = _run(scenario)
    assert "timeseries" not in report.extra
    assert "slo" not in report.extra


# ----------------------------------------------------------------------
# slo.json reproduces exactly on a same-seed rerun (bimodal workload)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def bimodal_scenario():
    city = grid_city(12, 12, seed=7)
    engine = MatrixEngine(city)
    trips, split = bimodal_trips(
        city,
        seed=7,
        offpeak_s=600.0,
        peak_s=300.0,
        offpeak_trips=15,
        peak_trips=45,
        min_trip_meters=500.0,
    )
    return engine, trips, split


def _bimodal_run(bimodal_scenario, tmp_path, suffix):
    engine, trips, split = bimodal_scenario
    config = SimulationConfig(
        num_vehicles=8,
        algorithm="kinetic",
        seed=3,
        dispatch_policy="lap",
        batch_window_s=15.0,
        adaptive_window=True,
        window_min_s=5.0,
        window_max_s=30.0,
        timeseries_out=str(tmp_path / f"ts{suffix}.jsonl"),
        timeseries_window_s=120.0,
        slo=SLO_SPEC,
        slo_out=str(tmp_path / f"slo{suffix}.json"),
        resource_monitor=True,
    )
    report = simulate(engine, config, trips)
    document = json.loads(
        (tmp_path / f"slo{suffix}.json").read_text(encoding="utf-8")
    )
    return report, document


def test_slo_verdict_reproduces_on_same_seed_rerun(
    bimodal_scenario, tmp_path
):
    report_a, doc_a = _bimodal_run(bimodal_scenario, tmp_path, "_a")
    report_b, doc_b = _bimodal_run(bimodal_scenario, tmp_path, "_b")
    # The whole document — per-window metrics, verdicts, burn rates —
    # is simulated-time only, so it reproduces bit for bit.
    assert doc_a == doc_b
    assert (tmp_path / "slo_a.json").read_bytes() == (
        tmp_path / "slo_b.json"
    ).read_bytes()
    assert _deterministic_state(report_a) == _deterministic_state(report_b)

    assert doc_a["spec"] == SLO_SPEC
    assert doc_a["num_windows"] >= 2
    labels = {o["label"] for o in doc_a["objectives"]}
    assert labels == {
        "service_rate>=0.5", "wait_compliance>=0.5", "wait_p99<=600",
    }
    # The bimodal run serves most requests at this capacity.
    rate = next(
        o for o in doc_a["objectives"] if o["metric"] == "service_rate"
    )
    assert rate["overall_value"] is not None
    assert rate["overall_pass"] is not None


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
