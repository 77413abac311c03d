"""tools/trace_report.py CLI: --json mode and failure modes."""

import json
import os
import subprocess
import sys

import pytest

from repro.obs.export import write_chrome_trace
from repro.obs.trace import Tracer

REPO = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
TOOL = os.path.join(REPO, "tools", "trace_report.py")


def run_tool(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    return subprocess.run(
        [sys.executable, TOOL, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


@pytest.fixture
def trace_path(tmp_path):
    clock = iter(float(i) for i in range(100))
    tracer = Tracer(enabled=True, clock=lambda: next(clock))
    with tracer.span("flush", flush=1, requests=3):
        with tracer.span("quote.collect"):
            pass
        with tracer.span("solve"):
            pass
        with tracer.span("commit"):
            pass
        with tracer.span("cleanup"):
            pass
    path = tmp_path / "trace.jsonl"
    write_chrome_trace(tracer.records(), str(path))
    return path


def test_text_mode_summarizes(trace_path):
    result = run_tool(str(trace_path))
    assert result.returncode == 0, result.stderr
    assert "flush" in result.stdout
    assert "slowest flushes" in result.stdout


def test_json_mode_is_machine_readable(trace_path):
    result = run_tool(str(trace_path), "--json", "--top", "2")
    assert result.returncode == 0, result.stderr
    document = json.loads(result.stdout)
    assert document["trace"] == str(trace_path)
    assert document["events"] == 5
    assert {s["name"] for s in document["stages"]} == {
        "flush", "quote.collect", "solve", "commit", "cleanup",
    }
    assert len(document["slowest_flushes"]) == 1
    assert document["slowest_flushes"][0]["args"]["requests"] == 3


def test_missing_trace_is_a_clear_error(tmp_path):
    result = run_tool(str(tmp_path / "nope.jsonl"))
    assert result.returncode == 2
    assert "cannot read trace" in result.stderr
    assert result.stdout == ""


def test_malformed_trace_is_a_clear_error(tmp_path):
    path = tmp_path / "garbage.jsonl"
    path.write_text("this is not json\n", encoding="utf-8")
    result = run_tool(str(path))
    assert result.returncode == 2
    assert "not a Chrome trace" in result.stderr


def test_empty_trace_is_a_clear_error(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("", encoding="utf-8")
    result = run_tool(str(path), "--json")
    assert result.returncode == 1
    assert "no trace events" in result.stderr
    assert "--trace-out" in result.stderr


def test_wrong_jsonl_kind_is_a_clear_error(tmp_path):
    """Valid JSONL that is not a trace gets a diagnosis, not a
    traceback."""
    path = tmp_path / "rows.jsonl"
    path.write_text(
        '{"window": 0, "t_start": 0.0, "counters": {}}\n', encoding="utf-8"
    )
    result = run_tool(str(path))
    assert result.returncode == 1
    assert "not trace events" in result.stderr
    assert "--trace-out" in result.stderr
    assert "Traceback" not in result.stderr
