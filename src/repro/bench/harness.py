"""Shared infrastructure for the experiment suite.

The paper runs two experiment families (Tables I and II) over one
Shanghai taxi day. This harness mirrors them as two *suites* — the
four-algorithm suite (capacity 4, 10,000 servers default) and the
tree-variant suite (capacity 6, 2,000 servers default) — scaled down to
laptop-size defaults that keep the paper's requests-per-server-hour
ratios, and scaled back up with ``REPRO_SCALE``.

Simulation cells are memoized: Fig. 6(b) and Fig. 8(a) read different
metrics (ACRT vs a single ART bucket) from the *same* sweep runs, so each
(suite, algorithm, parameter) cell is simulated exactly once per process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.core.constraints import ConstraintConfig
from repro.exceptions import TreeBudgetExceeded
from repro.roadnet.engine import make_engine
from repro.roadnet.generators import grid_city
from repro.sim.config import SimulationConfig
from repro.sim.metrics import SimulationReport
from repro.sim.simulator import simulate
from repro.sim.workload import ShanghaiLikeWorkload


def repro_scale() -> float:
    """Problem-size multiplier from the ``REPRO_SCALE`` env var."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))


@dataclass(frozen=True, slots=True)
class SuiteSpec:
    """One experiment family's base configuration."""

    name: str
    grid_rows: int
    grid_cols: int
    num_vehicles: int
    capacity: int | None
    num_trips: int
    duration_seconds: float
    seed: int
    #: Minimum trip length; longer trips raise per-vehicle concurrency
    #: (the paper's Shanghai trips are long relative to the city).
    min_trip_meters: float = 800.0
    #: Co-located request bursts mixed into the stream (Section V's
    #: airport-terminal pattern; drives the high-capacity tree blowup).
    burst_count: int = 0
    burst_size: int = 0

    def scaled(self, scale: float) -> "SuiteSpec":
        """Multiply fleet and demand by ``scale`` (>= 1 recommended)."""
        if scale == 1.0:
            return self
        return replace(
            self,
            num_vehicles=max(2, round(self.num_vehicles * scale)),
            num_trips=max(5, round(self.num_trips * scale)),
        )


#: Four-algorithm comparison (paper Table I): capacity 4; the paper's
#: 432,327 trips / 10,000 servers / day ≈ 1.8 requests per server-hour.
FOUR_SUITE = SuiteSpec(
    name="four",
    grid_rows=26,
    grid_cols=26,
    num_vehicles=16,
    capacity=4,
    num_trips=100,
    duration_seconds=3600.0,
    seed=42,
    min_trip_meters=1200.0,
)

#: Tree-variant comparison (paper Table II): capacity 6; 2,000 servers
#: default ≈ 9 requests per server-hour — the heavy-load regime in which
#: trees grow deep.
TREE_SUITE = SuiteSpec(
    name="tree",
    grid_rows=30,
    grid_cols=30,
    num_vehicles=10,
    capacity=6,
    num_trips=300,
    duration_seconds=3600.0,
    seed=7,
    min_trip_meters=1500.0,
)

#: The tree suite plus co-located airport-style bursts — used for the
#: capacity sweep (Fig. 9(c)) and the occupancy statistics, where the
#: paper's blowup is driven by exactly this pattern. Kept separate from
#: TREE_SUITE so the constraint/fleet sweeps stay tractable.
BURST_SUITE = SuiteSpec(
    name="burst",
    grid_rows=30,
    grid_cols=30,
    num_vehicles=10,
    capacity=6,
    num_trips=300,
    duration_seconds=3600.0,
    seed=7,
    min_trip_meters=1500.0,
    burst_count=3,
    burst_size=8,
)

#: Default hotspot merge radius θ for the hotspot tree variant, in
#: seconds of travel (30 s at 14 m/s = 420 m).
DEFAULT_THETA = 30.0

#: Per-insertion expansion budget standing in for the paper's
#: "reasonable time / 3 GB" cutoff (Fig. 9(c)).
DEFAULT_EXPANSION_BUDGET = 200_000


class BenchContext:
    """City, engine, workload and memoized simulation cells for a suite."""

    def __init__(self, suite: SuiteSpec):
        self.suite = suite
        self.city = grid_city(suite.grid_rows, suite.grid_cols, seed=suite.seed)
        self.engine = make_engine(self.city, "matrix")
        self.workload = ShanghaiLikeWorkload(
            self.city, seed=suite.seed, min_trip_meters=suite.min_trip_meters
        )
        self.trips = self.workload.generate(
            num_trips=suite.num_trips, duration_seconds=suite.duration_seconds
        )
        if suite.burst_count and suite.burst_size:
            from repro.sim.workload import burst_workload

            hotspots = self.workload.hotspots
            start = self.trips[0].request_time
            for b in range(suite.burst_count):
                when = start + (b + 1) * suite.duration_seconds / (
                    suite.burst_count + 1
                )
                self.trips.extend(
                    burst_workload(
                        self.city,
                        int(hotspots[b % len(hotspots)]),
                        suite.burst_size,
                        when,
                        dest_center_vertex=int(hotspots[(b + 1) % len(hotspots)]),
                        seed=suite.seed + b,
                    )
                )
            self.trips.sort(key=lambda t: t.request_time)
        self._cells: dict[tuple, SimulationReport | None] = {}

    def run_cell(self, **overrides) -> SimulationReport | None:
        """Simulate one parameter cell (memoized). ``None`` means the cell
        did not finish (tree expansion budget exceeded) — the paper's
        "breaks off" marker."""
        key = tuple(sorted(overrides.items(), key=lambda kv: str(kv[0])))
        if key in self._cells:
            return self._cells[key]
        params = {
            "num_vehicles": self.suite.num_vehicles,
            "capacity": self.suite.capacity,
            "seed": self.suite.seed,
        }
        params.update(overrides)
        config = SimulationConfig(**params)
        try:
            report = simulate(self.engine, config, self.trips)
        except TreeBudgetExceeded:
            report = None
        self._cells[key] = report
        return report


_CONTEXTS: dict[tuple[str, float], BenchContext] = {}


def get_context(suite: SuiteSpec) -> BenchContext:
    """Process-wide memoized context for a suite at the current scale."""
    scale = repro_scale()
    key = (suite.name, scale)
    if key not in _CONTEXTS:
        _CONTEXTS[key] = BenchContext(suite.scaled(scale))
    return _CONTEXTS[key]


# ----------------------------------------------------------------------
# Output tables
# ----------------------------------------------------------------------
@dataclass(slots=True)
class ExperimentTable:
    """A rendered experiment result, paper-artifact shaped."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[str]]
    notes: str = ""

    def render(self) -> str:
        """Fixed-width text table with title and notes."""
        widths = [
            max(len(str(self.headers[c])), *(len(str(r[c])) for r in self.rows))
            if self.rows
            else len(str(self.headers[c]))
            for c in range(len(self.headers))
        ]

        def fmt_row(cells) -> str:
            return " | ".join(str(c).ljust(w) for c, w in zip(cells, widths))

        lines = [
            f"== {self.experiment_id}: {self.title} ==",
            fmt_row(self.headers),
            "-+-".join("-" * w for w in widths),
        ]
        lines.extend(fmt_row(row) for row in self.rows)
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def save(self, directory: str) -> str:
        """Write the rendered table under ``directory``; returns the path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.experiment_id}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.render() + "\n")
        return path


def fmt_ms(millis: float | None) -> str:
    """Milliseconds with sub-ms resolution; '-' for missing buckets."""
    if millis is None:
        return "-"
    return f"{millis:.3f}"


def fmt_cell(report: SimulationReport | None, metric: str, bucket: int | None = None) -> str:
    """Extract one display cell from a report (``DNF`` when absent)."""
    if report is None:
        return "DNF"
    if metric == "acrt":
        return fmt_ms(report.acrt_ms)
    if metric == "art":
        return fmt_ms(report.art_ms(bucket))
    if metric == "service_rate":
        return f"{report.service_rate:.3f}"
    raise ValueError(f"unknown metric {metric!r}")
