"""Smoke tests: the example scripts run and demonstrate what they claim."""

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name: str, *args: str, timeout: float = 240.0) -> str:
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_quickstart_shows_sharing():
    out = run_example("quickstart.py")
    assert "valid schedule(s)" in out
    # At least one vehicle carries multiple riders (a shared plan with
    # more than one pickup before a dropoff).
    assert any("P0" in line and "P1" in line for line in out.splitlines())


def test_shanghai_day_small():
    out = run_example("shanghai_day.py", "--vehicles", "8", "--hours", "0.3")
    assert "service-guarantee audit: 0 violations" in out
    assert "ART by active requests" in out


def test_custom_network():
    out = run_example("custom_network.py")
    assert "all engines agree" in out


def test_batched_dispatch_small():
    out = run_example(
        "batched_dispatch.py", "--vehicles", "6", "--hours", "0.3",
    )
    assert "service-guarantee audit" in out
    assert "lap" in out and "iterative" in out
    assert "batched dispatch" in out  # the report's batching section


def test_trace_flush_small(tmp_path):
    trace_path = tmp_path / "trace.jsonl"
    out = run_example(
        "trace_flush.py", "--vehicles", "6",
        "--offpeak-trips", "15", "--peak-trips", "50",
        "--trace-out", str(trace_path),
    )
    assert "tracing on" in out
    assert "where flush time goes" in out
    assert "slowest flushes" in out
    assert "assignment latency: p50" in out
    # The stage table really decomposes the pipeline.
    for span in ("flush", "quote.collect", "solve", "commit"):
        assert span in out
    assert trace_path.exists()
    # The written trace feeds the CLI reporter.
    import subprocess as sp

    result = sp.run(
        [
            sys.executable,
            os.path.join(EXAMPLES, "..", "tools", "trace_report.py"),
            str(trace_path),
        ],
        capture_output=True,
        text=True,
        timeout=60.0,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "span" in result.stdout and "flush" in result.stdout


@pytest.mark.slow
def test_airport_hotspot():
    out = run_example("airport_hotspot.py", timeout=600.0)
    assert "hotspot" in out
    assert "DNF" in out or "optimality gap" in out


@pytest.mark.slow
def test_algorithm_comparison():
    out = run_example(
        "algorithm_comparison.py", "--trips", "25", "--vehicles", "6",
        timeout=600.0,
    )
    assert "mip" in out
