"""The four end-to-end workloads and one measured repetition of each.

A repetition is: build the city, engine, trip stream and ``Simulation``
from a seed (``setup_s``), run it (``wall_s``) with one timer pair at
the dispatch entry (``response_ms_*``), audit the outcome, and hash the
assignments. ``run.py`` executes each repetition in a fresh process.
"""

from __future__ import annotations

import hashlib
import resource
from contextlib import nullcontext
from dataclasses import dataclass, replace
from time import perf_counter as clock

import numpy as np

from e2e_layers import LayerTrace, Patches, layer_metrics

#: City geography (street grid and demand hotspots) is fixed; ``--seed``
#: drives what changes from day to day: the trip sample and where the
#: fleet starts. Hotspots that moved with the seed would swing wall time
#: by +-20 % between seeds on the same code.
CITY_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    grid: int
    min_trip_m: float
    trips: int
    horizon_s: float
    vehicles: int
    capacity: int
    wait_min: float
    detour_pct: float
    policy: str = "greedy"
    window_s: float = 0.0
    carry_over: bool = False
    engine_kind: str = "auto"
    #: Seed of the full-suite mode when ``--seed`` is not given.
    default_seed: int = 11

    def smoke(self) -> "Workload":
        """The same code paths at a size the tier-1 smoke test affords."""
        return replace(
            self,
            grid=min(self.grid, 16),
            trips=max(20, self.trips // 20),
            horizon_s=self.horizon_s / 10,
            vehicles=max(4, self.vehicles // 6),
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="city_immediate",
            grid=50, min_trip_m=1000, trips=1200, horizon_s=3600,
            vehicles=120, capacity=4, wait_min=10, detour_pct=20,
        ),
        Workload(
            name="deep_trees",
            grid=30, min_trip_m=1500, trips=2000, horizon_s=7200,
            vehicles=18, capacity=6, wait_min=8, detour_pct=40,
            default_seed=7,
        ),
        Workload(
            name="rush_batched",
            grid=50, min_trip_m=1000, trips=880, horizon_s=3600,
            vehicles=50, capacity=4, wait_min=6, detour_pct=20,
            policy="lap", window_s=10.0, carry_over=True,
        ),
        Workload(
            name="sparse_dijkstra",
            grid=45, min_trip_m=1000, trips=210, horizon_s=3600,
            vehicles=30, capacity=4, wait_min=3, detour_pct=10,
            engine_kind="dijkstra",
        ),
    )
}


def build(spec: Workload, seed: int):
    """Everything ``setup_s`` covers; returns the ready ``Simulation``."""
    from repro.core.constraints import ConstraintConfig
    from repro.roadnet.engine import make_engine
    from repro.roadnet.generators import grid_city
    from repro.sim.config import SimulationConfig
    from repro.sim.simulator import Simulation
    from repro.sim.workload import ShanghaiLikeWorkload

    graph = grid_city(spec.grid, spec.grid, seed=CITY_SEED)
    engine = make_engine(graph, spec.engine_kind)
    generator = ShanghaiLikeWorkload(
        graph, min_trip_meters=spec.min_trip_m, seed=CITY_SEED
    )
    generator.rng = np.random.default_rng(seed)
    trips = generator.generate(spec.trips, spec.horizon_s)
    config = SimulationConfig(
        num_vehicles=spec.vehicles,
        capacity=spec.capacity,
        constraints=ConstraintConfig.from_minutes(spec.wait_min, spec.detour_pct),
        dispatch_policy=spec.policy,
        batch_window_s=spec.window_s,
        carry_over=spec.carry_over,
        engine_kind=spec.engine_kind,
        seed=seed,
    )
    return Simulation(engine, config, trips)


class ResponseTimer(Patches):
    """The one timer pair of the untraced run: the time to answer one
    dispatch call. ``BatchDispatcher.dispatch`` closes a sample — one per
    request under immediate dispatch, one per flush when batched, where
    the flush's earlier ``QuoteService.begin`` and
    ``PendingQuotes.collect`` are added to it. Nested calls (a policy
    re-quoting inside ``dispatch``) are already inside a timed call."""

    def __init__(self):
        super().__init__()
        self.samples_ms: list[float] = []
        self._pending_s = 0.0
        self._inside = False

    def _timed(self, fn, closes: bool):
        def timed(*args, **kwargs):
            if self._inside:
                return fn(*args, **kwargs)
            self._inside = True
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self._pending_s += clock() - start
                self._inside = False
                if closes:
                    self.samples_ms.append(self._pending_s * 1e3)
                    self._pending_s = 0.0

        return timed

    def install(self) -> None:
        from repro.dispatch.dispatcher import BatchDispatcher
        from repro.dispatch.quoting import PendingQuotes, QuoteService

        self.patch(QuoteService, "begin", lambda fn: self._timed(fn, False))
        self.patch(PendingQuotes, "collect", lambda fn: self._timed(fn, False))
        self.patch(BatchDispatcher, "dispatch", lambda fn: self._timed(fn, True))


def decision_digest(report) -> str:
    """SHA-256 over the sorted assignments; two commits that promise
    bit-identical decisions must print the same digest."""
    rows = sorted(
        (rid, entry["vehicle"], repr(entry["assigned_cost"]))
        for rid, entry in report.service_log.items()
        if "vehicle" in entry
    )
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def run_once(
    spec: Workload,
    seed: int,
    layer_names: list[str] | None = None,
    spans_path: str | None = None,
) -> dict:
    """One repetition; returns its measurements and correctness facts.
    With ``layer_names`` (the declared per-layer metrics) it is the
    traced repetition and also returns their values."""
    # Lazily imported by make_engine / the trip generator: load them
    # before the set-up timer so setup_s times the program, not imports.
    import scipy.spatial  # noqa: F401
    import repro.roadnet.astar  # noqa: F401
    import repro.roadnet.hub_labeling  # noqa: F401
    import repro.roadnet.matrix  # noqa: F401

    start = clock()
    sim = build(spec, seed)
    setup_s = clock() - start

    timer = ResponseTimer()
    trace = LayerTrace() if layer_names is not None else None
    timer.install()
    try:
        if trace is not None:
            trace.install(sim)
        start = clock()
        with trace.root() if trace is not None else nullcontext():
            report = sim.run()
        wall_s = clock() - start
    finally:
        if trace is not None:
            trace.restore()
        timer.restore()

    violations = report.verify_service_guarantees()
    undecided = report.num_requests - report.num_assigned - report.num_rejected
    lost = len(sim.trips) - report.num_requests
    samples = timer.samples_ms
    result = {
        "seed": seed,
        "requests": len(sim.trips),
        "assigned": report.num_assigned,
        "rejected": report.num_rejected,
        "failed": len(violations) + abs(undecided) + abs(lost),
        "violations": violations[:5],
        "digest": decision_digest(report),
        "response_samples": len(samples),
        "metrics": {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "requests_per_s": report.num_requests / wall_s,
            "response_ms_p50": float(np.percentile(samples, 50)),
            "response_ms_p90": float(np.percentile(samples, 90)),
            "served_share": report.num_assigned / max(1, report.num_requests),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }
    if trace is not None:
        result["layers"] = layer_metrics(trace, sim, layer_names)
        if spans_path is not None:
            trace.write_spans(spans_path)
    return result
