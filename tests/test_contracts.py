"""Determinism contracts 1, 4, 7, 9 and 12 (``docs/determinism.md``) as one table.

Each row runs one scenario under two sides and asserts that they decided
the same: equal :meth:`SimulationReport.decision_rows`, which is what
"bit-identical" means. A side is ``SimulationConfig`` overrides on the
scenario's base config (``engine_kind`` picks the shortest-path engine
built on the scenario's city), optionally run through a reference
``Simulation`` subclass that re-implements the code a layer replaced. A
row without side B is a same-seed rerun of side A (the contracts about
a layer's own randomness). ``extra`` names further diagnostics the row
compares; ``checks`` are assertions on side A that keep the row from
passing vacuously; a ``same=False`` row is a control whose sides must
differ. Runs are memoised per (scenario, config, reference), so a
baseline shared by several rows runs once.

Contract 11 keeps its Hypothesis oracle in
``tests/properties/test_screened_submit.py``.
"""

import functools
import hashlib
import os
import sys
from dataclasses import dataclass

import pytest

from repro.roadnet.engine import make_engine
from repro.roadnet.generators import grid_city
from repro.sim.config import SimulationConfig
from repro.sim.events import Event, EventKind
from repro.sim.simulator import Simulation
from repro.sim.workload import ShanghaiLikeWorkload


# ----------------------------------------------------------------------
# Reference simulations: the code a layer replaced
# ----------------------------------------------------------------------
class ImmediateReferenceSimulation(Simulation):
    """The seed's request handler: submit each request to the plain
    :class:`~repro.core.matching.Dispatcher` and commit inline, with no
    batch layer in between (contract 1)."""

    def _handle_request(self, spec, now, queue):
        request = self.dispatcher.make_request(
            spec.origin,
            spec.destination,
            now,
            self.config.constraints.max_wait_seconds,
            self.config.constraints.detour_epsilon,
        )
        if request is None:
            return
        result = self.dispatcher.submit(request, now)
        self.report.record_assignment(result)
        if result.assigned:
            self.report.service_log[request.request_id] = {
                "request": request,
                "vehicle": result.winner.vehicle.vehicle_id,
                "assigned_cost": result.cost,
                "assigned_at": now,
            }
            agent = result.winner
            self._schedule_next_stop(agent, queue)
            if self.grid_index is not None:
                self._report_location(agent, now)


class PrePipelineReferenceSimulation(Simulation):
    """The flush before the pipeline: settle the whole batch in one
    block and schedule the next flush with the config arithmetic inline
    (contracts 4 and 7)."""

    def _handle_batch_flush(self, now, queue):
        requests = self.batch_window.flush()
        if requests:
            self._dispatch_batch(requests, now, queue)
        if now < self.horizon:
            queue.push(
                Event(now + self.config.batch_window_s, EventKind.BATCH_DISPATCH)
            )


IMMEDIATE = ImmediateReferenceSimulation
PRE_PIPELINE = PrePipelineReferenceSimulation


# ----------------------------------------------------------------------
# Scenarios and sides
# ----------------------------------------------------------------------
def _stream(grid, seed, min_trip_m, trips, duration_s):
    city = grid_city(grid, grid, seed=seed)
    workload = ShanghaiLikeWorkload(city, seed=seed, min_trip_meters=min_trip_m)
    return city, workload.generate(trips, duration_s)


BASE = dict(algorithm="kinetic", dispatch_policy="lap", batch_window_s=15.0)

#: name -> (engine and trip stream builder, base config overrides)
SCENARIOS = {
    "small": (lambda: _stream(12, 5, 500.0, 50, 900), dict(num_vehicles=6, seed=2)),
    "medium": (lambda: _stream(14, 11, 600.0, 80, 1200), dict(num_vehicles=8, seed=3)),
    "large": (
        lambda: _stream(16, 9, 800.0, 90, 1500),
        dict(num_vehicles=10, seed=5, batch_window_s=20.0),
    ),
}


@functools.cache
def _scenario(name):
    return SCENARIOS[name][0]()


@functools.cache
def _engine(name, kind):
    """One engine per (scenario, kind), shared by every run."""
    return make_engine(_scenario(name)[0], kind)


@dataclass(frozen=True)
class Side:
    overrides: tuple
    reference: type | None


def side(reference=None, **overrides):
    """Config overrides, optionally run through a reference simulation."""
    return Side(tuple(sorted(overrides.items())), reference)


GREEDY_0 = dict(dispatch_policy="greedy", batch_window_s=0.0)


# ----------------------------------------------------------------------
# Diagnostics beyond the decisions, and checks on side A
# ----------------------------------------------------------------------
#: name -> what of a run's report a row also compares
EXTRA = {
    "candidates": lambda r: (
        r.registry.histogram("dispatch.candidates").count,
        r.registry.histogram("dispatch.candidates").total,
    ),
    "art_counts": lambda r: {k: v.count for k, v in r.art_by_active().items()},
    "occupancy": lambda r: dict(r.occupancy._max_by_vehicle),
    "carry": lambda r: (r.carry_events, r.max_carries),
}


def _quote_stage_every_flush(report):
    assert report.registry.histogram("flush.quote_s").count == report.num_batches


def _carries(report):
    assert report.carry_events > 0


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Row:
    contract: int
    scenario: str
    a: Side
    b: Side | None = None  # None: a same-seed rerun of side a
    extra: tuple = ()
    checks: tuple = ()
    same: bool = True


def _row(id, *args, **kwargs):
    return pytest.param(Row(*args, **kwargs), id=id)


CONTRACTS = [
    # 1. window 0 + greedy ≡ immediate dispatch
    *(
        _row(
            f"1-immediate-{algorithm}", 1, "medium",
            side(num_vehicles=10, algorithm=algorithm, **GREEDY_0),
            side(IMMEDIATE, num_vehicles=10, algorithm=algorithm, **GREEDY_0),
            extra=("candidates", "art_counts", "occupancy"),
        )
        for algorithm in ("kinetic", "insertion")
    ),
    # Singleton batches leave LAP nothing to optimise. ART counts differ
    # by design: greedy quotes only what its fleet screen lets through.
    _row(
        "1-lap-vs-greedy", 1, "medium",
        side(num_vehicles=10, batch_window_s=0.0), side(num_vehicles=10, **GREEDY_0),
        extra=("candidates", "occupancy"),
    ),
    # 4. batched flush ≡ pre-pipeline reference
    *(
        _row(
            f"4-{policy}", 4, "large",
            side(dispatch_policy=policy, **more),
            side(PRE_PIPELINE, dispatch_policy=policy, **more),
            extra=("art_counts", "occupancy"), checks=(_quote_stage_every_flush,),
        )
        for policy, more in (("lap", {}), ("iterative", {}))
    ),
    # 7. carry-over-off is inert — and the row can fail: with carry-over
    # on, requests are carried and the decisions change.
    _row(
        "7-carry-off", 7, "medium", side(carry_over=False), side(PRE_PIPELINE),
        extra=("carry",),
    ),
    _row(
        "7-carry-on-differs", 7, "medium", side(carry_over=True), side(PRE_PIPELINE),
        checks=(_carries,), same=False,
    ),
    # 9. telemetry never steers dispatch
    *(
        _row(f"9-traced-{name}", 9, "small", side(trace=True, **o), side(**o))
        for name, o in (("lap", {}), ("greedy-immediate", GREEDY_0))
    ),
    _row(
        "9-traced-carry", 9, "medium",
        side(trace=True, carry_over=True), side(carry_over=True), extra=("carry",),
    ),
    # 12. the Dijkstra engine decides as the matrix engine does
    _row(
        "12-dijkstra-vs-matrix-lap-carry", 12, "medium",
        side(engine_kind="dijkstra", carry_over=True),
        side(engine_kind="matrix", carry_over=True),
        extra=("carry",), checks=(_carries,),
    ),
    _row(
        "12-dijkstra-vs-matrix-greedy-immediate", 12, "medium",
        side(engine_kind="dijkstra", **GREEDY_0),
        side(engine_kind="matrix", **GREEDY_0),
        extra=("candidates", "occupancy"),
    ),
]


@pytest.fixture(scope="module")
def run():
    """``run(scenario, side, fresh=False) -> SimulationReport``,
    memoised unless ``fresh``."""
    memo = {}

    def run(scenario, side, fresh=False):
        params = {**BASE, **SCENARIOS[scenario][1], **dict(side.overrides)}
        config = SimulationConfig(**params)
        key = (scenario, side.reference, repr(config))
        if fresh or key not in memo:
            trips = _scenario(scenario)[1]
            engine = _engine(scenario, config.engine_kind)
            report = (side.reference or Simulation)(engine, config, trips).run()
            if fresh:
                return report
            memo[key] = report
        return memo[key]

    return run


@pytest.mark.parametrize("row", CONTRACTS)
def test_contract(run, row):
    a = run(row.scenario, row.a)
    b = run(row.scenario, row.b) if row.b else run(row.scenario, row.a, fresh=True)
    if row.same:
        assert a.decision_rows() == b.decision_rows()
        for name in row.extra:
            assert EXTRA[name](a) == EXTRA[name](b), name
    else:
        assert a.decision_rows() != b.decision_rows()
    for check in row.checks:
        check(a)


def test_every_contract_has_a_row():
    """Contracts 1–12, less the retired 2, 3, 5, 6, 8 and 10 and
    contract 11 (its own property test)."""
    assert {p.values[0].contract for p in CONTRACTS} == set(range(1, 13)) - {
        2, 3, 5, 6, 8, 10, 11
    }


def test_e2e_digest_is_a_projection_of_decision_rows():
    """The e2e driver's ``decision_digest`` hashes the first three
    fields of each decision row."""
    here = os.path.dirname(__file__)
    sys.path.insert(0, os.path.join(here, os.pardir, "benchmarks", "e2e"))
    import e2e_workloads

    for spec in e2e_workloads.WORKLOADS.values():
        report = e2e_workloads.build(spec.smoke(), seed=3).run()
        projected = sorted(row[:3] for row in report.decision_rows()[1:])
        expected = hashlib.sha256(repr(projected).encode()).hexdigest()
        assert e2e_workloads.decision_digest(report) == expected, spec.name
