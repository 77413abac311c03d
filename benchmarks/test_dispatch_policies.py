"""Batched dispatch: service rate and dispatch latency by policy.

Runs the ``dispatch_policies`` experiment and checks the
subsystem's headline claim: windowed linear-assignment dispatch serves at
least as many requests as the paper's greedy immediate baseline at this
fleet/workload, at per-window solver cost in the low milliseconds.
"""


def _by_policy(table):
    return {row[0]: row for row in table.rows}


def _num(cell):
    return None if cell in ("-", "DNF") else float(cell.replace(",", ""))


def test_dispatch_policies(benchmark, run_table):
    table = benchmark.pedantic(
        run_table, args=("dispatch_policies",), iterations=1, rounds=1
    )
    rows = _by_policy(table)
    assert set(rows) == {
        "greedy_immediate",
        "greedy_batched",
        "lap",
        "iterative",
    }

    greedy_rate = _num(rows["greedy_immediate"][1])
    lap_rate = _num(rows["lap"][1])
    assert greedy_rate is not None and lap_rate is not None
    # The subsystem's acceptance bar: global assignment over a window
    # serves no fewer requests than per-request greedy dispatch. The
    # default-scale workload is deterministic given its seed, so this is
    # a stable pin, not a flaky heuristic ordering (at REPRO_SCALE != 1
    # the ordering is not guaranteed).
    assert lap_rate >= greedy_rate, (lap_rate, greedy_rate)

    # Dispatch latency (ACRT) stays the same order of magnitude: the
    # batch solve amortises, it doesn't blow up the response time.
    greedy_acrt = _num(rows["greedy_immediate"][2])
    for policy in ("greedy_batched", "lap", "iterative"):
        acrt = _num(rows[policy][2])
        assert acrt is not None and acrt <= 10 * greedy_acrt, (policy, acrt)

    # Batching happened (mean batch size > 1) and the solver was timed.
    for policy in ("lap", "iterative"):
        assert _num(rows[policy][3]) > 1.0
        assert _num(rows[policy][4]) is not None
