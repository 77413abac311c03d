#!/usr/bin/env python3
"""End-to-end benchmark of the dispatcher (see README.md beside this file).

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
        one measurement of one workload (the BENCHMARK.json contract): the
        last stdout line is a JSON object with the end-to-end metrics
        (--trace 0) or the per-layer metrics (--trace 1).
    python3 benchmarks/e2e/run.py [--seed N] [--reps R] [--out DIR]
        the full suite: R measurements of every workload, round-robin, after
        one discarded warm-up, then one traced run each; writes
        DIR/results.json and DIR/<workload>.spans.jsonl.
    python3 benchmarks/e2e/run.py compare A/results.json B/results.json
        applies each metric's bound to two result files.

Every repetition runs in a fresh child process, one at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

#: Fewest repetitions one measurement takes the median of.
MIN_REPS = 3
#: One repetition's process time on the sizing box (import, set-up, run,
#: 5.5-7.5 s by workload); ``--seconds`` buys ``seconds // REP_SECONDS``
#: of them. A count, not a deadline: the same ``--seconds`` always runs
#: the same streams, so two runs of one commit decide identically.
REP_SECONDS = 6


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def spawn(spec, seed: int, traced: bool, smoke: bool, spans_path: str | None = None) -> dict:
    """One repetition in a fresh interpreter; returns its result dict."""
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", spec.name, "--seed", str(seed), "--trace", str(int(traced)),
    ]
    if smoke:
        command.append("--smoke")
    if spans_path is not None:
        command += ["--spans", spans_path]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"repetition failed: {' '.join(command)}")
    return json.loads(done.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(spec, seed: int, seconds: float, traced: bool, smoke: bool, out: str | None) -> dict:
    """One measurement: ``seconds // REP_SECONDS`` (at least MIN_REPS) fresh
    processes, each on its own trip stream derived from ``seed``, every
    end-to-end metric the median over them — averaging over streams is
    what keeps a metric steady from seed to seed. The traced measurement
    instead runs stream 0 untraced and then traced."""
    reps = 1 if traced else max(MIN_REPS, int(seconds // REP_SECONDS))
    children = [spawn(spec, seed * 1000 + k, False, smoke) for k in range(reps)]
    result = {
        "seed": seed,
        "repetitions": reps,
        "attempted": sum(child["requests"] for child in children),
        "failed": sum(child["failed"] for child in children),
        "response_samples": [child["response_samples"] for child in children],
        "digest": hashlib.sha256(
            "".join(child["digest"] for child in children).encode()
        ).hexdigest(),
        "metrics": {
            name: statistics.median(child["metrics"][name] for child in children)
            for name in children[0]["metrics"]
        },
    }
    problems = [v for child in children for v in child["violations"]]
    if traced:
        spans_path = os.path.join(out, f"{spec.name}.spans.jsonl") if out else None
        twin = spawn(spec, seed * 1000, True, smoke, spans_path)
        if twin["digest"] != children[0]["digest"]:
            problems.append("traced run decided differently from the untraced run")
        problems += twin["violations"]
        result["failed"] += twin["failed"]
        result["layers"] = twin["layers"]
        result["layers"]["trace.overhead_share"] = (
            twin["metrics"]["wall_s"] / children[0]["metrics"]["wall_s"] - 1.0
        )
    result["problems"] = problems
    result["correct"] = not problems and result["failed"] == 0
    return result


def environment() -> dict:
    """Where and on what the numbers were taken, kept beside them."""
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_1min": os.getloadavg()[0],
    }


def print_metrics(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<52} {value:>14.6g} {units[name]}")


def run_contract(args, contract: dict, spec) -> int:
    """One workload, one measurement, result JSON on the last line."""
    started_in = environment()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[kind]}
    result = measure(spec, args.seed, args.seconds, bool(args.trace), args.smoke, args.out)
    values = result["layers"] if args.trace else result["metrics"]
    print_metrics(
        f"{spec.name} seed {args.seed} ({result['repetitions']} repetitions)", values, units
    )
    print_verdict(result)
    if args.out:
        entry = summarize([result], result if args.trace else None)
        write_results(args.out, {spec.name: entry}, args.smoke, started_in)
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if result["correct"] else 1


def print_verdict(entry: dict) -> None:
    print(f"  decision_digest {entry['digest']}")
    print(f"  response samples per repetition {entry['response_samples']}")
    for problem in entry["problems"]:
        print(f"  PROBLEM {problem}")
    print(f"  correct {entry['correct']}")


def summarize(measurements: list[dict], traced: dict | None) -> dict:
    """Fold one workload's measurements of one seed, and its traced
    measurement, into a results entry. The same seed must decide the
    same way every time."""
    first = measurements[0]
    checked = measurements + ([traced] if traced else [])
    problems = [p for m in checked for p in m["problems"]]
    if len({m["digest"] for m in measurements}) > 1:
        problems.append("measurements of one seed decided differently")
    entry = {
        "seed": first["seed"],
        "digest": first["digest"],
        "correct": not problems and all(m["correct"] for m in checked),
        "problems": problems,
        "response_samples": first["response_samples"],
        "metrics": {},
    }
    for name in first["metrics"]:
        values = [m["metrics"][name] for m in measurements]
        q1, median, q3 = quartiles(values)
        entry["metrics"][name] = {"values": values, "q1": q1, "median": median, "q3": q3}
    if traced:
        entry["layers"] = traced["layers"]
    return entry


def write_results(out: str, workloads: dict, smoke: bool, started_in: dict) -> str:
    path = os.path.join(out, "results.json")
    with open(path, "w") as handle:
        json.dump(
            {"environment": started_in, "smoke": smoke, "workloads": workloads},
            handle, indent=1,
        )
    return path


def run_suite(args, contract: dict, workloads: dict) -> int:
    """Every workload ``--reps`` times, round-robin so that drift of the
    machine spreads over all of them, then traced once each."""
    started_in = environment()
    out = args.out or tempfile.mkdtemp(prefix="e2e-bench-")
    seconds = contract["run_seconds"]
    specs = list(workloads.values())
    seeds = {s.name: s.default_seed if args.seed is None else args.seed for s in specs}
    spawn(specs[0], seeds[specs[0].name], False, True)  # warm-up, discarded
    taken: dict[str, list[dict]] = {s.name: [] for s in specs}
    for _ in range(args.reps):
        for spec in specs:
            taken[spec.name].append(
                measure(spec, seeds[spec.name], seconds, False, args.smoke, None)
            )
    entries = {
        spec.name: summarize(
            taken[spec.name],
            measure(spec, seeds[spec.name], seconds, True, args.smoke, out),
        )
        for spec in specs
    }
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    for name, entry in entries.items():
        print(f"\n{name} seed {entry['seed']} ({args.reps} measurements)")
        for metric, stats in entry["metrics"].items():
            print(
                f"  {metric:<52} {stats['median']:>14.6g} {units[metric]:<6}"
                f" q1 {stats['q1']:.6g} q3 {stats['q3']:.6g}"
            )
        print_metrics("  per layer (one traced repetition)", entry["layers"], units)
        print_verdict(entry)
    print(f"\nresults {write_results(out, entries, args.smoke, started_in)}")
    return 0 if all(entry["correct"] for entry in entries.values()) else 1


def compare(path_a: str, path_b: str, contract: dict) -> int:
    """One row per workload x end-to-end metric: B's median against A's
    under the metric's bound. ``unresolved`` when either side's quartile
    spread exceeds the bound — unless every value of one side beats
    every value of the other."""
    with open(path_a) as a, open(path_b) as b:
        side_a, side_b = json.load(a)["workloads"], json.load(b)["workloads"]
    worse_rows = 0
    print(f"{'workload':<16}{'metric':<18}{'A median':>12}{'B median':>12}"
          f"{'B worse by':>12}{'spread A':>10}{'spread B':>10}{'bound':>7}  verdict")
    for name in side_a:
        if name not in side_b:
            continue
        for metric in contract["end_to_end"]:
            a, b = (side[name]["metrics"][metric["name"]] for side in (side_a, side_b))
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse_by = sign * (b["median"] - a["median"]) / a["median"]
            spreads = [(s["q3"] - s["q1"]) / s["median"] for s in (a, b)]
            signed_a = [sign * v for v in a["values"]]
            signed_b = [sign * v for v in b["values"]]
            separated = max(signed_b) < min(signed_a) or max(signed_a) < min(signed_b)
            if max(spreads) > metric["bound"] and not separated:
                verdict = "unresolved"
            elif worse_by > metric["bound"]:
                verdict = "WORSE"
                worse_rows += 1
            else:
                verdict = "within bound"
            print(f"{name:<16}{metric['name']:<18}{a['median']:>12.5g}{b['median']:>12.5g}"
                  f"{worse_by:>+12.2%}{spreads[0]:>10.2%}{spreads[1]:>10.2%}"
                  f"{metric['bound']:>7.0%}  {verdict}")
        same = side_a[name]["digest"] == side_b[name]["digest"]
        print(f"{name:<16}decision_digest {'identical' if same else 'DIFFERENT'}"
              f" (seeds {side_a[name]['seed']}, {side_b[name]['seed']})")
    return 1 if worse_rows else 0


def main(argv: list[str]) -> int:
    contract = load_contract()
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A/results.json B/results.json")
        return compare(argv[1], argv[2], contract)

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=5, help="suite: measurements per workload")
    parser.add_argument("--out", help="directory for results.json and span files")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes (tier-1 smoke test)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit(f"the program under test is missing: {ROOT}/src/repro")
    from e2e_workloads import WORKLOADS, run_once

    if args.child:
        spec = WORKLOADS[args.workload]
        spec = spec.smoke() if args.smoke else spec
        layer_names = [m["name"] for m in contract["per_layer"]] if args.trace else None
        print(json.dumps(run_once(spec, args.seed, layer_names, args.spans)))
        return 0

    if args.out:
        os.makedirs(args.out, exist_ok=True)
    if args.workload is None:
        return run_suite(args, contract, WORKLOADS)
    if args.seed is None:
        args.seed = WORKLOADS[args.workload].default_seed
    return run_contract(args, contract, WORKLOADS[args.workload])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
