"""The degradation ladder, end to end (``docs/robustness.md``).

Each rung degrades instead of failing: different fault seeds draw
different faults; a permanently failing quote column carries its
requests (never drops them); a flush that blows its deadline budget
downgrades to greedy for that flush only; and a long mixed-fault chaos
soak completes with zero requests lost.

Determinism contract 10 — an empty or unfireable plan changes nothing,
a fixed ``(fault_spec, fault_seed)`` replays bit-identically, and the
retry rung decides as the fault-free run does — is pinned in
``tests/test_contracts.py``.
"""

import pytest

from repro.roadnet.generators import grid_city
from repro.roadnet.matrix import MatrixEngine
from repro.sim.config import SimulationConfig
from repro.sim.simulator import Simulation, simulate
from repro.sim.workload import ShanghaiLikeWorkload


@pytest.fixture(scope="module")
def scenario():
    city = grid_city(14, 14, seed=11)
    engine = MatrixEngine(city)
    trips = ShanghaiLikeWorkload(city, seed=11, min_trip_meters=600.0).generate(
        num_trips=80, duration_seconds=1200
    )
    return city, engine, trips


def _run(scenario, **overrides):
    _, engine, trips = scenario
    params = dict(
        num_vehicles=8,
        algorithm="kinetic",
        seed=3,
        dispatch_policy="lap",
        batch_window_s=15.0,
    )
    params.update(overrides)
    return simulate(engine, SimulationConfig(**params), trips)


def test_different_fault_seeds_draw_differently(scenario):
    spec = "quote.task:crash:0.2"
    a = _run(scenario, fault_spec=spec, fault_seed=1).summary()
    b = _run(scenario, fault_spec=spec, fault_seed=2).summary()
    assert a["faults_injected"] > 0 and b["faults_injected"] > 0
    assert a["faults_injected"] != b["faults_injected"]


# ----------------------------------------------------------------------
# Ladder rung 2: failed quote column -> requests carried, not dropped
# ----------------------------------------------------------------------
def test_permanent_quote_failure_carries_requests_not_drops(scenario):
    """Every quote attempt crashes, so every column fails every flush:
    requests ride the fault-carry path flush to flush until their wait
    budget runs out, then are rejected — all settled, none vanish."""
    expected = _run(scenario).num_requests
    report = _run(scenario, fault_spec="quote.task:crash:%1")
    summary = report.summary()
    assert report.num_requests == expected
    assert report.num_assigned + report.num_rejected == report.num_requests
    assert summary["fault_rescued_carries"] > 0
    assert summary["quote_columns_failed"] > 0
    # With quoting fully dead nothing can be assigned...
    assert report.num_assigned == 0
    # ...but nothing was silently lost either: every request settled.
    assert report.num_rejected == expected


# ----------------------------------------------------------------------
# Ladder rung 3: deadline exhaustion -> one-flush greedy downgrade
# ----------------------------------------------------------------------
def test_deadline_exhaustion_downgrades_one_flush_then_recovers(scenario):
    """A single huge injected delay blows the first flush's budget: that
    flush dispatches greedily, the chain continues, and every later
    flush runs the full pipeline again."""
    report = _run(
        scenario,
        fault_spec="quote.task:delay:@1:10",
        flush_deadline_s=1.0,
    )
    summary = report.summary()
    assert summary["flushes_degraded"] == 1
    assert summary["faults_injected"] == 1
    # The run went on: many more flushes committed after the downgrade,
    # and the service rate survived one greedy flush.
    assert report.num_batches > 1
    assert report.num_assigned + report.num_rejected == report.num_requests
    assert report.num_assigned > 0


def test_no_deadline_means_no_degradation(scenario):
    report = _run(scenario, fault_spec="quote.task:delay:0.3:0.5")
    assert report.summary()["flushes_degraded"] == 0


# ----------------------------------------------------------------------
# Chaos soak: >= 1000 flushes of mixed faults
# ----------------------------------------------------------------------
SOAK_PARAMS = dict(
    num_vehicles=6,
    algorithm="kinetic",
    seed=5,
    dispatch_policy="lap",
    batch_window_s=2.0,
    carry_over=True,
    flush_deadline_s=1.0,
    task_retries=1,
)

@pytest.fixture(scope="module")
def soak_scenario():
    city = grid_city(12, 12, seed=5)
    engine = MatrixEngine(city)
    trips = ShanghaiLikeWorkload(city, seed=5, min_trip_meters=600.0).generate(
        num_trips=300, duration_seconds=2400
    )
    reference = simulate(engine, SimulationConfig(**SOAK_PARAMS), trips)
    return engine, trips, reference


def test_chaos_soak_loses_nothing(soak_scenario):
    """The acceptance soak: a long simulation under a 5% mixed fault
    plan — quote crashes and delays, engine fan-out crashes — with
    carry-over and a flush deadline armed.
    It must complete, drive >= 1000 flushes, and account for every
    request: assigned or rejected (expiry settles as rejection), with
    the same request population as the fault-free reference."""
    engine, trips, reference = soak_scenario
    spec = (
        "quote.task:crash:0.05,"
        "quote.task:delay:0.03:0.6,"
        "engine.distance_many:crash:0.05"
    )
    sim = Simulation(
        engine,
        SimulationConfig(
            **SOAK_PARAMS,
            fault_spec=spec,
            fault_seed=13,
        ),
        trips,
    )
    report = sim.run()
    summary = report.summary()
    assert sim._flush_seq >= 1000
    assert summary["faults_injected"] > 0
    # Zero requests silently lost: the chaos run settled exactly the
    # same request population as the fault-free reference, every one of
    # them assigned or rejected.
    assert report.num_requests == reference.num_requests
    assert report.num_assigned + report.num_rejected == report.num_requests
    # The ladder holds the line: faults cost at most 10% of the service
    # the fault-free reference delivers.
    assert report.num_assigned >= 0.9 * reference.num_assigned
    # The ladder took real traffic: retried attempts and failed columns.
    assert summary["retries"] > 0
    assert summary["quote_columns_failed"] > 0
