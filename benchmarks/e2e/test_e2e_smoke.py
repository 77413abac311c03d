"""Smoke test of the end-to-end benchmark at ``--smoke`` scale.

Every workload runs untraced and traced in this process (so the
patching can be inspected), then the command itself runs once per
trace mode as the benchmark contract calls it.
"""

import inspect
import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, HERE)

from e2e_workloads import WORKLOADS, run_once  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)
END_TO_END = [m["name"] for m in CONTRACT["end_to_end"]]
PER_LAYER = [m["name"] for m in CONTRACT["per_layer"]]


def _git_status():
    try:
        done = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout if done.returncode == 0 else None


@pytest.fixture(scope="module", autouse=True)
def repository_unchanged():
    before = _git_status()
    yield
    if before is not None:
        assert _git_status() == before, "the benchmark changed the repository"


def _functions_of_the_program() -> dict:
    """Every function bound in a loaded ``repro`` module or in a class
    defined there — what the tracer may rebind and must put back."""
    bound = {}
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in vars(module).items():
            if inspect.isfunction(value):
                bound[module_name, attr] = value
            elif inspect.isclass(value) and value.__module__ == module_name:
                for name, member in vars(value).items():
                    if inspect.isfunction(member):
                        bound[module_name, attr, name] = member
    return bound


def test_contract_names_are_well_formed():
    names = END_TO_END + PER_LAYER + [w["name"] for w in CONTRACT["workloads"]]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_untraced_and_traced(name, tmp_path):
    spec = WORKLOADS[name].smoke()
    run_once(spec, seed=3)  # loads every module the run imports lazily
    before = _functions_of_the_program()
    plain = run_once(spec, seed=3)
    spans = tmp_path / "spans.jsonl"
    traced = run_once(spec, seed=3, layer_names=PER_LAYER, spans_path=str(spans))
    assert _functions_of_the_program() == before, "a wrapped attribute is left patched"

    for result in (plain, traced):
        assert result["failed"] == 0 and result["violations"] == []
        assert result["assigned"] + result["rejected"] == result["requests"]
        assert list(result["metrics"]) == END_TO_END
        assert all(value > 0 for value in result["metrics"].values())
    assert plain["digest"] == traced["digest"]

    layers = traced["layers"]
    # trace.overhead_share takes two processes; run.py adds it.
    assert sorted(layers) == sorted(set(PER_LAYER) - {"trace.overhead_share"})
    parts = sum(value for key, value in layers.items() if key.endswith(".self_s"))
    assert parts == pytest.approx(traced["metrics"]["wall_s"], rel=0.01)
    assert layers["sim.events.calls"] > 0
    assert layers["core.kinetic.try_insert.calls"] > 0
    batched = spec.window_s > 0
    assert (layers["dispatch.solver.solve_assignment.calls"] > 0) == batched
    assert (layers["roadnet.row_hit_rate"] > 0) == (spec.engine_kind == "dijkstra")

    records = [json.loads(line) for line in spans.read_text().splitlines()]
    assert records[0]["name"] == "sim.loop" and records[0]["parent"] == -1
    assert all(0 <= r["parent"] < r["id"] for r in records[1:])


@pytest.mark.parametrize("trace, declared", [(0, END_TO_END), (1, PER_LAYER)])
def test_command_prints_the_contract_line(trace, declared, tmp_path):
    done = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"), "--workload", "rush_batched",
            "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke",
            "--out", str(tmp_path),
        ],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == declared
    units = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]}
    assert all(result["metrics"][n]["unit"] == units[n] for n in declared)
    assert (tmp_path / "results.json").exists()
    assert (tmp_path / "rush_batched.spans.jsonl").exists() == bool(trace)
