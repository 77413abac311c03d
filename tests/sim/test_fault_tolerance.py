"""Determinism contract 10 and the degradation ladder, end to end.

Three guarantee families (``docs/robustness.md``, ``docs/determinism.md``
contract 10):

* **empty plan ≡ unhardened** — with no fault plan (or an armed plan
  whose clauses can never fire) the hardened pipeline is bit-identical
  to the fault-free run on every backend: the injector, retry loops and
  budget checks perturb nothing;
* **seeded replay** — a fixed ``(fault_spec, fault_seed)`` replays
  bit-identically on the serial backend, including every fault counter;
* **the ladder** — each rung degrades instead of failing: a transiently
  crashing quote is retried to the identical answer; a permanently
  failing quote column carries its requests (never drops them); a
  permanently failing shard is re-solved serially to the identical
  assignment; a flush that blows its deadline budget downgrades to
  greedy for that flush only; and a long mixed-fault chaos soak on the
  process backend completes with zero requests lost.
"""

import pytest

from repro.exceptions import TreeBudgetExceeded
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


def _deterministic_state(report):
    """Everything a run produces except wall-clock timings."""
    return {
        "num_requests": report.num_requests,
        "num_assigned": report.num_assigned,
        "num_rejected": report.num_rejected,
        "total_cost": report.total_assignment_cost,
        "carry_events": report.carry_events,
        "service_log": {
            rid: {
                "vehicle": entry.get("vehicle"),
                "assigned_cost": entry.get("assigned_cost"),
                "assigned_at": entry.get("assigned_at"),
                "pickup": entry.get("pickup"),
                "dropoff": entry.get("dropoff"),
            }
            for rid, entry in report.service_log.items()
        },
    }


def _fault_state(report):
    """The deterministic state plus every fault-tolerance counter."""
    state = _deterministic_state(report)
    summary = report.summary()
    for key in (
        "faults_injected",
        "retries",
        "pool_recreations",
        "quote_columns_failed",
        "shard_serial_rescues",
        "flushes_degraded",
        "fault_rescued_carries",
    ):
        state[key] = summary[key]
    return state


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


# ----------------------------------------------------------------------
# Contract 10: empty plan ≡ unhardened, on every backend
# ----------------------------------------------------------------------
def test_no_plan_and_unfireable_plan_are_bit_identical(scenario):
    """An armed injector whose clauses can never fire (rate 0) draws RNG
    samples and runs every hardened branch, yet must change nothing
    against the disarmed run."""
    baseline = _deterministic_state(_run(scenario))
    armed = _run(scenario, fault_spec="quote.task:crash:0.0", fault_seed=9)
    assert _deterministic_state(armed) == baseline
    assert armed.summary()["faults_injected"] == 0


@pytest.mark.parametrize("backend", ["serial", "process"])
def test_empty_plan_identical_across_shard_backends(scenario, backend):
    """Contract 10 on the sharded pipeline: the hardened executor with
    no plan is bit-identical across the serial and process backends."""
    reference = _deterministic_state(
        _run(scenario, dispatch_policy="sharded", num_shards=2)
    )
    run = _run(
        scenario,
        dispatch_policy="sharded",
        num_shards=2,
        shard_backend=backend,
    )
    assert _deterministic_state(run) == reference


def test_empty_plan_identical_with_async_quote_pipeline(scenario):
    """The hardened quote service (worker-side fault hooks, retry-aware
    collect) with no plan matches the deferred synchronous reference."""
    reference = _deterministic_state(_run(scenario, quote_overlap_s=5.0))
    for workers, backend in ((1, "serial"), (2, "thread")):
        run = _run(
            scenario,
            quote_overlap_s=5.0,
            quote_workers=workers,
            quote_backend=backend,
        )
        assert _deterministic_state(run) == reference


# ----------------------------------------------------------------------
# Contract 10: seeded replay
# ----------------------------------------------------------------------
def test_fixed_plan_and_seed_replay_bit_identically(scenario):
    spec = "quote.task:crash:0.1,quote.task:delay:0.05:0.2,shard.solve:crash:0.05"
    kwargs = dict(
        dispatch_policy="sharded",
        num_shards=2,
        fault_spec=spec,
        fault_seed=21,
        flush_deadline_s=5.0,
    )
    first = _fault_state(_run(scenario, **kwargs))
    second = _fault_state(_run(scenario, **kwargs))
    assert first == second
    assert first["faults_injected"] > 0


def test_different_fault_seeds_draw_differently(scenario):
    spec = "quote.task:crash:0.2"
    a = _run(scenario, fault_spec=spec, fault_seed=1).summary()
    b = _run(scenario, fault_spec=spec, fault_seed=2).summary()
    assert a["faults_injected"] > 0 and b["faults_injected"] > 0
    assert a["faults_injected"] != b["faults_injected"]


# ----------------------------------------------------------------------
# Ladder rung 1: retry — transient faults change nothing
# ----------------------------------------------------------------------
def test_transient_quote_crash_is_retried_to_the_identical_run(scenario):
    baseline = _deterministic_state(_run(scenario))
    report = _run(scenario, fault_spec="quote.task:crash:@1")
    assert _deterministic_state(report) == baseline
    summary = report.summary()
    assert summary["faults_injected"] == 1
    assert summary["retries"] == 1
    assert summary["quote_columns_failed"] == 0


def test_transient_engine_crash_is_retried_to_the_identical_run(scenario):
    _, engine, _ = scenario
    baseline = _deterministic_state(_run(scenario))
    report = _run(scenario, fault_spec="engine.distance_many:crash:@1")
    assert _deterministic_state(report) == baseline
    assert report.summary()["retries"] >= 1
    # The engine wrapper is an instance attribute installed for the run
    # and must be removed afterwards — engines are shared across tests.
    assert "distance_many" not in vars(engine)


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
# Ladder rung 3: failed shard -> serial re-solve, bit-identical
# ----------------------------------------------------------------------
def test_permanent_shard_failure_is_rescued_serially_bit_identical(scenario):
    kwargs = dict(dispatch_policy="sharded", num_shards=2)
    baseline = _deterministic_state(_run(scenario, **kwargs))
    report = _run(
        scenario, fault_spec="shard.solve:crash:%1", task_retries=1, **kwargs
    )
    assert _deterministic_state(report) == baseline
    summary = report.summary()
    assert summary["shard_serial_rescues"] > 0
    assert summary["retries"] > 0


# ----------------------------------------------------------------------
# Ladder rung 4: deadline exhaustion -> one-flush greedy downgrade
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
# A run that raises releases its worker pools
# ----------------------------------------------------------------------
def test_a_run_that_raises_leaves_no_live_worker_pool(scenario):
    """An exception out of the event loop (here a blown tree-expansion
    budget) must still shut the shard pool and the quote pool down —
    worker processes may not wait for GC."""
    _, engine, trips = scenario
    sim = Simulation(
        engine,
        SimulationConfig(
            num_vehicles=8,
            seed=3,
            dispatch_policy="sharded",
            num_shards=2,
            shard_backend="process",
            batch_window_s=10.0,
            quote_workers=2,
            quote_overlap_s=5.0,
            tree_expansion_budget=3,
        ),
        trips,
    )
    with pytest.raises(TreeBudgetExceeded):
        sim.run()
    assert sim.batch_dispatcher.policy.executor.pool._pool is None
    assert sim.quote_service._pool is None


# ----------------------------------------------------------------------
# Chaos soak: >= 1000 flushes of mixed faults on the process backend
# ----------------------------------------------------------------------
SOAK_PARAMS = dict(
    num_vehicles=6,
    algorithm="kinetic",
    seed=5,
    dispatch_policy="sharded",
    num_shards=2,
    shard_backend="process",
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


def test_chaos_soak_process_backend_loses_nothing(soak_scenario):
    """The acceptance soak: a long simulation under a 5% mixed fault
    plan — quote crashes and delays, shard crashes, pool deaths — on the
    process shard backend, with carry-over and a flush deadline armed.
    It must complete, drive >= 1000 flushes, and account for every
    request: assigned or rejected (expiry settles as rejection), with
    the same request population as the fault-free reference."""
    engine, trips, reference = soak_scenario
    spec = (
        "quote.task:crash:0.05,"
        "quote.task:delay:0.03:0.6,"
        "shard.solve:crash:0.05,"
        "pool.submit:pool_death:0.01"
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
    # The ladder took real traffic: failed columns and rescued shards.
    assert summary["quote_columns_failed"] > 0
    assert summary["shard_serial_rescues"] > 0
