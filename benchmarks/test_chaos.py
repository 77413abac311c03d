"""Fault tolerance: the chaos-benchmark headline claims, gated.

Regenerates ``benchmarks/results/chaos.txt`` (and ``BENCH_chaos.json``
at the repo root) and checks, on the mixed-fault sweep:

* the degradation ladder holds the line — at the 5% mixed fault rate
  the service rate stays within 10% of the fault-free run on the
  process shard backend;
* every cell accounts for every request (assigned + rejected ==
  requests): faults degrade service, they never lose riders;
* the ladder actually ran — faults were injected, retries happened,
  and the deliberate over-deadline delay degraded (at least) one flush
  to greedy on every faulted cell, after which the run recovered;
* determinism contract 10: the serial cell at the gate rate replays
  bit-identically, fault counters included.
"""

import json
import os

REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")


def test_chaos(benchmark, run_and_save):
    table = benchmark.pedantic(
        run_and_save, args=("chaos",), iterations=1, rounds=1
    )
    assert {row[0] for row in table.rows} == {"process", "serial"}

    doc_path = os.path.join(REPO_ROOT, "BENCH_chaos.json")
    assert os.path.exists(doc_path)
    with open(doc_path, encoding="utf-8") as handle:
        doc = json.load(handle)
    runs = doc["runs"]
    gate = f"{doc['workload']['gate_rate']:g}"

    # Headline gate: 5%-fault service within 10% of fault-free.
    fault_free = runs["process"]["0"]["service_rate"]
    at_gate = runs["process"][gate]["service_rate"]
    assert at_gate >= 0.9 * fault_free, (at_gate, fault_free)

    # No cell, at any intensity, loses a request or breaks a guarantee.
    for backend, cells in runs.items():
        for rate, cell in cells.items():
            assert cell["accounting_ok"], (backend, rate)
            assert cell["guarantee_violations"] == 0, (backend, rate)

    # The ladder was actually exercised in every faulted cell: faults
    # landed, retries absorbed most, and the deliberate over-deadline
    # delay downgraded at least one flush to greedy.
    for backend, cells in runs.items():
        for rate, cell in cells.items():
            if rate == "0":
                assert cell["faults_injected"] == 0
                assert cell["flushes_degraded"] == 0
                continue
            assert cell["faults_injected"] > 0, (backend, rate)
            assert cell["retries"] > 0, (backend, rate)
            assert cell["flushes_degraded"] >= 1, (backend, rate)

    # Determinism contract 10 at the gate rate on the serial backend.
    assert runs["serial"][gate]["deterministic_rerun"] is True
