"""Shared fixtures for the benchmark suite.

Each benchmark regenerates one paper artifact via
:mod:`repro.bench.experiments` and asserts on the in-memory table. The
suite writes nothing: the committed tables under ``benchmarks/results/``
are regenerated only by ``python -m repro.bench --save-dir
benchmarks/results``.
"""

from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _committed_outputs() -> dict:
    """``(size, mtime_ns)`` of every results table and root-level
    ``BENCH*`` document — the files a benchmark run must not touch."""
    files = [
        *(REPO_ROOT / "benchmarks" / "results").rglob("*"),
        *REPO_ROOT.glob("BENCH*"),
    ]
    return {
        str(path.relative_to(REPO_ROOT)): (stat.st_size, stat.st_mtime_ns)
        for path in files
        if path.is_file()
        for stat in [path.stat()]
    }


@pytest.fixture(scope="session", autouse=True)
def committed_outputs_untouched():
    before = _committed_outputs()
    yield
    assert _committed_outputs() == before, "the test run rewrote committed outputs"


@pytest.fixture(scope="session")
def run_table():
    """Run an experiment by id and return its in-memory table."""
    from repro.bench.experiments import run_experiment

    return run_experiment
