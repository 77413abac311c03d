"""One function per paper table/figure (experiment index: README,
"Reproducing the paper's experiments").

Every function returns an :class:`~repro.bench.harness.ExperimentTable`
whose rows/series mirror the corresponding artifact of the paper. Scaled
absolute times differ (Python vs the authors' C++/Xeon setup); the
*shapes* — algorithm ordering, trends across constraints/fleet/capacity,
which variants fail to finish — are the reproduction targets, gated by
``benchmarks/test_*.py`` and committed under ``benchmarks/results/``.
"""

from __future__ import annotations

import statistics
import time as _time

from repro.bench.harness import (
    BURST_SUITE,
    DEFAULT_EXPANSION_BUDGET,
    DEFAULT_THETA,
    FOUR_SUITE,
    TREE_SUITE,
    ExperimentTable,
    fmt_cell,
    get_context,
)
from repro.core.constraints import PAPER_CONSTRAINT_SWEEP

#: The four algorithms of Fig. 6 / Fig. 8 with their config overrides.
FOUR_ALGOS: list[tuple[str, dict]] = [
    ("kinetic_tree", {"algorithm": "kinetic", "tree_mode": "slack"}),
    ("brute_force", {"algorithm": "brute_force"}),
    ("branch_and_bound", {"algorithm": "branch_and_bound"}),
    ("mip", {"algorithm": "mip"}),
]

#: The tree variants of Fig. 7 / Fig. 9.
TREE_VARIANTS: list[tuple[str, dict]] = [
    ("basic", {"algorithm": "kinetic", "tree_mode": "basic"}),
    ("slack", {"algorithm": "kinetic", "tree_mode": "slack"}),
    (
        "hotspot",
        {
            "algorithm": "kinetic",
            "tree_mode": "slack",
            "hotspot_theta": DEFAULT_THETA,
        },
    ),
]

#: Fleet-size sweeps as multiples of each suite's default (paper Table I:
#: 1k/2k/5k/10k/20k around 10k; Table II: 500/1k/2k/5k/10k around 2k).
FOUR_SERVER_FACTORS = (0.1, 0.2, 0.5, 1.0, 2.0)
TREE_SERVER_FACTORS = (0.25, 0.5, 1.0, 2.5, 5.0)

#: Capacity sweep of Fig. 9(c); ``None`` is the paper's "unlim".
CAPACITY_SWEEP = (3, 4, 5, 6, 7, 8, 12, 16, None)


def _fleet_sizes(base: int, factors) -> list[int]:
    return [max(2, round(base * f)) for f in factors]


# ----------------------------------------------------------------------
# Table I / Table II — parameter grids
# ----------------------------------------------------------------------
def table1() -> ExperimentTable:
    """Paper Table I: parameters of the four-algorithm comparison."""
    ctx = get_context(FOUR_SUITE)
    rows = [
        ["Capacity", "4 (default)", "4"],
        [
            "Constraints",
            "; ".join(c.label for c in PAPER_CONSTRAINT_SWEEP) + " (default 10 min / 20%)",
            "same sweep",
        ],
        [
            "Number of servers",
            "1,000; 2,000; 5,000; 10,000 (default); 20,000",
            "; ".join(
                str(v) for v in _fleet_sizes(ctx.suite.num_vehicles, FOUR_SERVER_FACTORS)
            )
            + f" (default {ctx.suite.num_vehicles})",
        ],
        ["Requests", "432,327 (one Shanghai day)", str(len(ctx.trips))],
        [
            "Road network",
            "122,319 vertices / 188,426 edges",
            f"{ctx.city.num_vertices} vertices / {ctx.city.num_edges} edges",
        ],
    ]
    return ExperimentTable(
        "table1",
        "Parameters for four-algorithm comparison (paper vs scaled)",
        ["parameter", "paper", "this reproduction"],
        rows,
        notes="requests-per-server-hour ratio matches the paper's default cell",
    )


def table2() -> ExperimentTable:
    """Paper Table II: parameters of the tree-variant comparison."""
    ctx = get_context(TREE_SUITE)
    rows = [
        [
            "Capacity",
            "3; 4; 5; 6 (default); 7; 8; 12; 16; unlimited",
            "; ".join("unlim" if c is None else str(c) for c in CAPACITY_SWEEP),
        ],
        [
            "Number of servers",
            "500; 1,000; 2,000 (default); 5,000; 10,000",
            "; ".join(
                str(v) for v in _fleet_sizes(ctx.suite.num_vehicles, TREE_SERVER_FACTORS)
            )
            + f" (default {ctx.suite.num_vehicles})",
        ],
        [
            "Constraints",
            "; ".join(c.label for c in PAPER_CONSTRAINT_SWEEP) + " (default 10 min / 20%)",
            "same sweep",
        ],
        ["Requests", "432,327 (one Shanghai day)", str(len(ctx.trips))],
    ]
    return ExperimentTable(
        "table2",
        "Parameters for tree-algorithm comparison (paper vs scaled)",
        ["parameter", "paper", "this reproduction"],
        rows,
    )


# ----------------------------------------------------------------------
# Figure 6 — four-algorithm comparison
# ----------------------------------------------------------------------
def _reports_for(ctx, algos, **extra):
    return {name: ctx.run_cell(**cfg, **extra) for name, cfg in algos}


def fig6a() -> ExperimentTable:
    """Fig. 6(a): ART by number of active requests, four algorithms."""
    ctx = get_context(FOUR_SUITE)
    reports = _reports_for(ctx, FOUR_ALGOS)
    buckets = sorted(
        {
            b
            for r in reports.values()
            if r is not None
            for b in r.art_by_active()
        }
    )
    rows = [
        [str(b)] + [fmt_cell(reports[name], "art", b) for name, _ in FOUR_ALGOS]
        for b in buckets
    ]
    return ExperimentTable(
        "fig6a",
        "ART (ms) vs number of active requests",
        ["active_requests"] + [name for name, _ in FOUR_ALGOS],
        rows,
        notes="paper shape: ART grows with active requests; tree lowest",
    )


def fig6b() -> ExperimentTable:
    """Fig. 6(b): ACRT vs constraints, four algorithms."""
    ctx = get_context(FOUR_SUITE)
    rows = []
    for constraints in PAPER_CONSTRAINT_SWEEP:
        reports = _reports_for(ctx, FOUR_ALGOS, constraints=constraints)
        rows.append(
            [constraints.label]
            + [fmt_cell(reports[name], "acrt") for name, _ in FOUR_ALGOS]
        )
    return ExperimentTable(
        "fig6b",
        "ACRT (ms) vs constraints",
        ["constraints"] + [name for name, _ in FOUR_ALGOS],
        rows,
        notes="paper shape: tree fastest; BF ~ B&B; MIP ~20x slower",
    )


def fig6c() -> ExperimentTable:
    """Fig. 6(c): ACRT vs number of servers, four algorithms."""
    ctx = get_context(FOUR_SUITE)
    rows = []
    for fleet in _fleet_sizes(ctx.suite.num_vehicles, FOUR_SERVER_FACTORS):
        reports = _reports_for(ctx, FOUR_ALGOS, num_vehicles=fleet)
        rows.append(
            [str(fleet)]
            + [fmt_cell(reports[name], "acrt") for name, _ in FOUR_ALGOS]
        )
    return ExperimentTable(
        "fig6c",
        "ACRT (ms) vs number of servers",
        ["servers"] + [name for name, _ in FOUR_ALGOS],
        rows,
        notes="paper shape: tree fastest at every fleet size",
    )


# ----------------------------------------------------------------------
# Figure 7 — tree variants
# ----------------------------------------------------------------------
def fig7a() -> ExperimentTable:
    """Fig. 7(a): ART by number of active requests, tree variants."""
    ctx = get_context(TREE_SUITE)
    reports = _reports_for(ctx, TREE_VARIANTS)
    buckets = sorted(
        {b for r in reports.values() if r is not None for b in r.art_by_active()}
    )
    rows = [
        [str(b)] + [fmt_cell(reports[name], "art", b) for name, _ in TREE_VARIANTS]
        for b in buckets
    ]
    return ExperimentTable(
        "fig7a",
        "ART (ms) vs number of active requests (tree variants)",
        ["active_requests"] + [name for name, _ in TREE_VARIANTS],
        rows,
    )


def fig7b() -> ExperimentTable:
    """Fig. 7(b): ACRT vs constraints, tree variants."""
    ctx = get_context(TREE_SUITE)
    rows = []
    for constraints in PAPER_CONSTRAINT_SWEEP:
        reports = _reports_for(ctx, TREE_VARIANTS, constraints=constraints)
        rows.append(
            [constraints.label]
            + [fmt_cell(reports[name], "acrt") for name, _ in TREE_VARIANTS]
        )
    return ExperimentTable(
        "fig7b",
        "ACRT (ms) vs constraints (tree variants)",
        ["constraints"] + [name for name, _ in TREE_VARIANTS],
        rows,
        notes="paper shape: slack saves most under tight constraints (up to ~32%)",
    )


def fig7c() -> ExperimentTable:
    """Fig. 7(c): ACRT vs number of servers, tree variants."""
    ctx = get_context(TREE_SUITE)
    rows = []
    for fleet in _fleet_sizes(ctx.suite.num_vehicles, TREE_SERVER_FACTORS):
        reports = _reports_for(ctx, TREE_VARIANTS, num_vehicles=fleet)
        rows.append(
            [str(fleet)]
            + [fmt_cell(reports[name], "acrt") for name, _ in TREE_VARIANTS]
        )
    return ExperimentTable(
        "fig7c",
        "ACRT (ms) vs number of servers (tree variants)",
        ["servers"] + [name for name, _ in TREE_VARIANTS],
        rows,
    )


# ----------------------------------------------------------------------
# Figure 8 — ART at four active requests, four algorithms
# ----------------------------------------------------------------------
def _art_bucket_table(ctx, algos, bucket: int, sweep_name: str, experiment_id: str, title: str):
    # If the scale is too small for the requested bucket to ever occur,
    # fall back to the deepest observed bucket and say so — an empty table
    # reproduces nothing.
    defaults = _reports_for(ctx, algos)
    observed = [
        b for r in defaults.values() if r is not None for b in r.art_by_active()
    ]
    effective = min(bucket, max(observed, default=0))
    note_extra = ""
    if effective != bucket:
        note_extra = (
            f"; requested bucket {bucket} unobserved at this scale, "
            f"showing deepest populated bucket {effective} "
            "(set REPRO_SCALE>1 for deeper buckets)"
        )
    bucket = effective
    rows = []
    if sweep_name == "constraints":
        for constraints in PAPER_CONSTRAINT_SWEEP:
            reports = _reports_for(ctx, algos, constraints=constraints)
            rows.append(
                [constraints.label]
                + [fmt_cell(reports[name], "art", bucket) for name, _ in algos]
            )
        first = "constraints"
    else:
        factors = (
            FOUR_SERVER_FACTORS if ctx.suite.name == "four" else TREE_SERVER_FACTORS
        )
        for fleet in _fleet_sizes(ctx.suite.num_vehicles, factors):
            reports = _reports_for(ctx, algos, num_vehicles=fleet)
            rows.append(
                [str(fleet)]
                + [fmt_cell(reports[name], "art", bucket) for name, _ in algos]
            )
        first = "servers"
    return ExperimentTable(
        experiment_id,
        title,
        [first] + [name for name, _ in algos],
        rows,
        notes=(
            f"'-' = no vehicle was quoted while holding exactly {bucket} "
            "active requests in that cell (sparse bucket at this scale)"
            + note_extra
        ),
    )


def fig8a() -> ExperimentTable:
    """Fig. 8(a): ART at 4 active requests vs constraints."""
    return _art_bucket_table(
        get_context(FOUR_SUITE),
        FOUR_ALGOS,
        4,
        "constraints",
        "fig8a",
        "ART (ms) at 4 active requests vs constraints",
    )


def fig8b() -> ExperimentTable:
    """Fig. 8(b): ART at 4 active requests vs number of servers."""
    return _art_bucket_table(
        get_context(FOUR_SUITE),
        FOUR_ALGOS,
        4,
        "servers",
        "fig8b",
        "ART (ms) at 4 active requests vs number of servers",
    )


# ----------------------------------------------------------------------
# Figure 9 — tree scalability
# ----------------------------------------------------------------------
def fig9a() -> ExperimentTable:
    """Fig. 9(a): ART at 6 active requests vs constraints, tree variants."""
    return _art_bucket_table(
        get_context(TREE_SUITE),
        TREE_VARIANTS,
        6,
        "constraints",
        "fig9a",
        "ART (ms) at 6 active requests vs constraints (tree variants)",
    )


def fig9b() -> ExperimentTable:
    """Fig. 9(b): ART at 6 active requests vs servers, tree variants."""
    return _art_bucket_table(
        get_context(TREE_SUITE),
        TREE_VARIANTS,
        6,
        "servers",
        "fig9b",
        "ART (ms) at 6 active requests vs number of servers (tree variants)",
    )


def fig9c() -> ExperimentTable:
    """Fig. 9(c): ACRT vs capacity; only hotspot completes unlimited."""
    ctx = get_context(BURST_SUITE)
    rows = []
    for capacity in CAPACITY_SWEEP:
        reports = _reports_for(
            ctx,
            TREE_VARIANTS,
            capacity=capacity,
            tree_expansion_budget=DEFAULT_EXPANSION_BUDGET,
        )
        label = "unlim" if capacity is None else str(capacity)
        rows.append(
            [label]
            + [fmt_cell(reports[name], "acrt") for name, _ in TREE_VARIANTS]
        )
    return ExperimentTable(
        "fig9c",
        "ACRT (ms) vs capacity (tree variants)",
        ["capacity"] + [name for name, _ in TREE_VARIANTS],
        rows,
        notes="DNF = expansion budget exceeded (paper: 'breaks off' past "
        "capacity 7 for basic/slack; hotspot completes 'unlim')",
    )


# ----------------------------------------------------------------------
# Occupancy statistics (Section VI.B closing numbers)
# ----------------------------------------------------------------------
def occupancy() -> ExperimentTable:
    """Unlimited-capacity occupancy stats vs the paper's 17 / 1.7 / 3.9."""
    ctx = get_context(BURST_SUITE)
    report = ctx.run_cell(
        algorithm="kinetic",
        tree_mode="slack",
        hotspot_theta=DEFAULT_THETA,
        capacity=None,
        tree_expansion_budget=DEFAULT_EXPANSION_BUDGET,
    )
    if report is None:
        rows = [["run", "DNF", "-"]]
    else:
        occ = report.occupancy
        rows = [
            ["max passengers in any server", "17", str(occ.max_passengers)],
            ["mean max occupancy per server", "1.7", f"{occ.mean_max_per_vehicle:.2f}"],
            ["mean of top-20% filled servers", "~3.9", f"{occ.top20_mean:.2f}"],
            ["service rate", "(not reported)", f"{report.service_rate:.3f}"],
        ]
    return ExperimentTable(
        "occupancy",
        "Unlimited-capacity occupancy statistics (hotspot tree)",
        ["statistic", "paper", "this reproduction"],
        rows,
    )


# ----------------------------------------------------------------------
# Supporting microbenchmarks and ablations
# ----------------------------------------------------------------------
#: Timed query passes per engine in ``micro_engine``.
MICRO_ENGINE_REPS = 5


def micro_engine() -> ExperimentTable:
    """Shortest-path engine throughput and cache effectiveness: each
    engine answers the same query stream ``MICRO_ENGINE_REPS`` times,
    each pass on a freshly built engine (so the row LRU starts cold
    every time), and the table reports the median throughput with the
    min–max range over the passes."""
    import numpy as np

    from repro.roadnet.engine import DijkstraEngine
    from repro.roadnet.generators import grid_city
    from repro.roadnet.hub_labeling import HubLabelEngine
    from repro.roadnet.matrix import MatrixEngine

    city = grid_city(20, 20, seed=3)
    rng = np.random.default_rng(3)
    # Locality-skewed query stream (the paper's rationale for LRU caches).
    hot = rng.integers(0, city.num_vertices, size=50)
    queries = []
    for _ in range(3000):
        if rng.random() < 0.8:
            queries.append((int(rng.choice(hot)), int(rng.choice(hot))))
        else:
            queries.append(
                (int(rng.integers(0, city.num_vertices)), int(rng.integers(0, city.num_vertices)))
            )

    rows = []
    for name, make in (
        ("matrix", MatrixEngine),
        ("dijkstra+lru", DijkstraEngine),
        ("hub_label", HubLabelEngine),
    ):
        rates = []
        for _ in range(MICRO_ENGINE_REPS):
            engine = make(city)
            t0 = _time.perf_counter()
            for s, e in queries:
                engine.distance(s, e)
            rates.append(len(queries) / (_time.perf_counter() - t0))
        stats = engine.stats() if hasattr(engine, "stats") else {}
        hit_rate = stats.get("row_hit_rate", "")
        rows.append(
            [
                name,
                f"{statistics.median(rates):,.0f}",
                f"{min(rates):,.0f}–{max(rates):,.0f}",
                f"{hit_rate:.3f}" if hit_rate != "" else "-",
            ]
        )
    return ExperimentTable(
        "micro_engine",
        "Distance-query throughput (queries/s) and row-LRU hit rate",
        ["engine", "queries_per_sec", "range", "cache_hit_rate"],
        rows,
        notes=(
            "supports Section VI's caching discussion; 20x20 grid city; "
            f"median and min–max of {MICRO_ENGINE_REPS} passes, each on a "
            "fresh engine"
        ),
    )


def ablation_beam() -> ExperimentTable:
    """Schedule-cap load shedding (Section V generalized): bounded trees
    vs the exact tree, on the burst workload where trees get large."""
    ctx = get_context(BURST_SUITE)
    rows = []
    for cap in (None, 32, 8, 2):
        report = ctx.run_cell(
            algorithm="kinetic",
            capacity=8,
            tree_schedule_cap=cap,
            tree_expansion_budget=DEFAULT_EXPANSION_BUDGET,
        )
        label = "exact" if cap is None else str(cap)
        rows.append(
            [
                label,
                fmt_cell(report, "acrt"),
                fmt_cell(report, "service_rate"),
                f"{report.total_assignment_cost:,.0f}" if report else "DNF",
            ]
        )
    return ExperimentTable(
        "ablation_beam",
        "Schedule-cap (beam) ablation, burst workload, capacity 8",
        ["schedules kept", "acrt_ms", "service_rate", "total_cost_s"],
        rows,
        notes="smaller beams trade matching quality for bounded trees",
    )


def ablation_invalidation() -> ExperimentTable:
    """Eager vs lazy tree invalidation (Section IV options)."""
    ctx = get_context(TREE_SUITE)
    rows = []
    for label, eager in (("lazy", False), ("eager", True)):
        report = ctx.run_cell(algorithm="kinetic", eager_invalidation=eager)
        rows.append(
            [label, fmt_cell(report, "acrt"), fmt_cell(report, "service_rate")]
        )
    return ExperimentTable(
        "ablation_invalidation",
        "Tree invalidation policy ablation (kinetic tree)",
        ["policy", "acrt_ms", "service_rate"],
        rows,
        notes="identical assignments expected; eager trades upkeep for "
        "smaller trees at insertion time",
    )


#: Batched-dispatch policy comparison cells (repro.dispatch). Window of
#: 15 s: long enough that batches form (~2 requests at the tree suite's
#: intensity), short enough that the queueing delay doesn't starve the
#: wait budget.
DISPATCH_WINDOW_S = 15.0
DISPATCH_POLICY_CELLS: list[tuple[str, dict]] = [
    ("greedy_immediate", {"dispatch_policy": "greedy", "batch_window_s": 0.0}),
    (
        "greedy_batched",
        {"dispatch_policy": "greedy", "batch_window_s": DISPATCH_WINDOW_S},
    ),
    ("lap", {"dispatch_policy": "lap", "batch_window_s": DISPATCH_WINDOW_S}),
    (
        "iterative",
        {"dispatch_policy": "iterative", "batch_window_s": DISPATCH_WINDOW_S},
    ),
]


def dispatch_policies() -> ExperimentTable:
    """Batched dispatch subsystem: policy comparison at a fixed window.

    Not a paper artifact — this compares the new :mod:`repro.dispatch`
    assignment policies (greedy / linear assignment / iterative rounds)
    against the paper's immediate per-request dispatch on the tree-suite
    workload.
    """
    ctx = get_context(TREE_SUITE)
    rows = []
    for label, overrides in DISPATCH_POLICY_CELLS:
        report = ctx.run_cell(algorithm="kinetic", **overrides)
        if report is None:
            rows.append([label] + ["DNF"] * 5)
            continue
        summary = report.summary()
        rows.append(
            [
                label,
                fmt_cell(report, "service_rate"),
                fmt_cell(report, "acrt"),
                f"{summary['mean_batch_size']:.2f}",
                f"{summary['solver_ms_mean']:.3f}",
                f"{report.total_assignment_cost:,.0f}",
            ]
        )
    return ExperimentTable(
        "dispatch_policies",
        "Batched dispatch: policy comparison "
        f"(window {DISPATCH_WINDOW_S:.0f} s, kinetic tree)",
        [
            "policy",
            "service_rate",
            "acrt_ms",
            "mean_batch_size",
            "solver_ms",
            "total_cost_s",
        ],
        rows,
        notes="greedy_immediate is the paper's per-request dispatch; lap "
        "solves one request x vehicle linear assignment per window",
    )


#: Experiment registry: id -> (function, short description).
ALL_EXPERIMENTS = {
    "table1": (table1, "Table I parameter grid"),
    "table2": (table2, "Table II parameter grid"),
    "fig6a": (fig6a, "ART vs active requests, four algorithms"),
    "fig6b": (fig6b, "ACRT vs constraints, four algorithms"),
    "fig6c": (fig6c, "ACRT vs servers, four algorithms"),
    "fig7a": (fig7a, "ART vs active requests, tree variants"),
    "fig7b": (fig7b, "ACRT vs constraints, tree variants"),
    "fig7c": (fig7c, "ACRT vs servers, tree variants"),
    "fig8a": (fig8a, "ART@4 vs constraints, four algorithms"),
    "fig8b": (fig8b, "ART@4 vs servers, four algorithms"),
    "fig9a": (fig9a, "ART@6 vs constraints, tree variants"),
    "fig9b": (fig9b, "ART@6 vs servers, tree variants"),
    "fig9c": (fig9c, "ACRT vs capacity, tree variants"),
    "occupancy": (occupancy, "Unlimited-capacity occupancy statistics"),
    "micro_engine": (micro_engine, "Engine throughput / cache hit rates"),
    "ablation_invalidation": (ablation_invalidation, "eager vs lazy pruning"),
    "ablation_beam": (ablation_beam, "schedule-cap load shedding"),
    "dispatch_policies": (dispatch_policies, "batched dispatch policy comparison"),
}


def run_experiment(experiment_id: str) -> ExperimentTable:
    """Run one experiment by id."""
    try:
        func, _ = ALL_EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(ALL_EXPERIMENTS)
        raise ValueError(f"unknown experiment {experiment_id!r}; known: {known}") from None
    return func()
