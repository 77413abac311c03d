"""Sharded dispatch determinism guarantees.

Four pins:

* ``sharded`` with ``num_shards=1`` (serial backend) is byte-identical
  to the unsharded global ``lap`` solve on every deterministic metric;
* for a fixed seed, assignments are identical across the ``serial``
  and ``process`` backends;
* worker count and a mid-run pool recreation never change the result
  (completion order is sorted away before reconciliation);
* injected shard-solve crashes — retried on the pool, or exhausted into
  the parent's serial rescue — never change the result either.
"""

import numpy as np
import pytest

from repro.dispatch.sharding import (
    ShardExecutor,
    ShardPartitioner,
    WorkerPool,
    solve_sharded,
)
from repro.dispatch.sharding.partitioner import Shard, ShardPlan
from repro.dispatch.solver import solve_assignment
from repro.faults import FaultInjector, RetryPolicy, parse_fault_spec
from repro.roadnet.generators import grid_city
from repro.roadnet.matrix import MatrixEngine
from repro.sim.config import SimulationConfig
from repro.sim.simulator import simulate
from repro.sim.workload import ShanghaiLikeWorkload


@pytest.fixture(scope="module")
def scenario():
    city = grid_city(16, 16, seed=9)
    engine = MatrixEngine(city)
    trips = ShanghaiLikeWorkload(city, seed=9, min_trip_meters=800.0).generate(
        num_trips=90, duration_seconds=1500
    )
    return engine, trips


def _deterministic_state(report):
    """Everything a run produces except wall-clock timings."""
    return {
        "num_requests": report.num_requests,
        "num_assigned": report.num_assigned,
        "num_rejected": report.num_rejected,
        "total_cost": report.total_assignment_cost,
        "art_counts": {k: v.count for k, v in report.art.buckets.items()},
        "occupancy": dict(report.occupancy._max_by_vehicle),
        "service_log": {
            rid: {
                "vehicle": entry.get("vehicle"),
                "assigned_cost": entry.get("assigned_cost"),
                "pickup": entry.get("pickup"),
                "dropoff": entry.get("dropoff"),
            }
            for rid, entry in report.service_log.items()
        },
    }


def _run(scenario, policy, **overrides):
    engine, trips = scenario
    config = SimulationConfig(
        num_vehicles=10,
        algorithm="kinetic",
        seed=5,
        dispatch_policy=policy,
        batch_window_s=20.0,
        **overrides,
    )
    return simulate(engine, config, trips)


def test_one_shard_serial_equals_global_lap(scenario):
    lap = _run(scenario, "lap")
    sharded = _run(scenario, "sharded", num_shards=1)
    assert _deterministic_state(sharded) == _deterministic_state(lap)
    # No sharded run records zero-shard batches.
    assert sharded.shard_sizes.count == sharded.num_batches
    assert int(sharded.boundary_conflicts.total) == 0


@pytest.mark.parametrize("backend", ["process"])
def test_backends_agree_with_serial(scenario, backend):
    serial = _run(scenario, "sharded", num_shards=3)
    other = _run(
        scenario, "sharded", num_shards=3, shard_backend=backend
    )
    assert _deterministic_state(other) == _deterministic_state(serial)


def test_boundary_cells_zero_still_serves_every_request(scenario):
    """An aggressive halo may push matches into the sequential cleanup
    but must never lose requests outright."""
    unlimited = _run(scenario, "sharded", num_shards=3)
    tight = _run(
        scenario, "sharded", num_shards=3, shard_boundary_cells=0
    )
    assert tight.num_requests == unlimited.num_requests
    assert tight.num_assigned >= 0.9 * unlimited.num_assigned


# ----------------------------------------------------------------------
# Matrix-level: worker counts and shard counts on the numeric plane
# ----------------------------------------------------------------------
def _random_keys(seed, m=40, n=30, infeasible=0.4):
    rng = np.random.default_rng(seed)
    keys = rng.uniform(1.0, 100.0, size=(m, n))
    keys[rng.random((m, n)) < infeasible] = np.inf
    return keys


@pytest.fixture(scope="module")
def four_shards():
    """``(keys, plan, serial outcome)``: a hand-rolled 4-shard row-split
    plan over a raw matrix (no grid needed) and the serial-backend
    reference every process-backend cell must reproduce."""
    keys = _random_keys(21)
    rows = np.array_split(np.arange(keys.shape[0]), 4)
    plan = ShardPlan(
        shards=[
            Shard(i, tuple(int(r) for r in rs), tuple(range(keys.shape[1])))
            for i, rs in enumerate(rows)
        ],
        num_shards_requested=4,
    )
    with ShardExecutor("serial") as serial_ex:
        return keys, plan, solve_sharded(keys, plan, serial_ex)


@pytest.mark.parametrize("backend", ["process"])
@pytest.mark.parametrize("workers", [1, 2, 4])
def test_worker_count_never_changes_pairs(four_shards, backend, workers):
    keys, plan, reference = four_shards
    with ShardExecutor(backend, max_workers=workers) as ex:
        outcome = solve_sharded(keys, plan, ex)
        # Dropping and lazily rebuilding the pool between flushes (the
        # degradation ladder's recovery move) must be invisible.
        ex.pool.recreate()
        recreated = solve_sharded(keys, plan, ex)
    assert outcome.pairs == reference.pairs
    assert outcome.boundary_conflicts == reference.boundary_conflicts
    assert outcome.shard_sizes == reference.shard_sizes
    assert recreated.pairs == reference.pairs


@pytest.mark.parametrize(
    "spec,max_attempts,rescues",
    [("shard.solve:crash:@1", 3, 0), ("shard.solve:crash:%1", 2, 4)],
    ids=["retried_on_pool", "serial_rescue"],
)
def test_injected_crashes_never_change_pairs(
    four_shards, spec, max_attempts, rescues
):
    """A one-shot in-worker crash is retried on the process pool; a
    shard whose every attempt crashes is re-solved serially in the
    parent. Either way the pairs equal the fault-free serial ones."""
    keys, plan, reference = four_shards
    with ShardExecutor(
        "process",
        max_workers=2,
        injector=FaultInjector(parse_fault_spec(spec), seed=0),
        retry=RetryPolicy(
            max_attempts=max_attempts, backoff_s=0.0, backoff_cap_s=0.0
        ),
    ) as ex:
        outcome = solve_sharded(keys, plan, ex)
    assert outcome.pairs == reference.pairs
    assert outcome.serial_rescues == rescues


def test_reconciled_shards_match_nearly_as_many_pairs_as_global(four_shards):
    """Sharding gives up optimality only at the boundary: columns claimed
    by several shards are reconciled, and the outcome still matches at
    least 95% of the pairs the global solve does."""
    keys, _, outcome = four_shards
    assert outcome.boundary_conflicts > 0
    assert len(outcome.pairs) >= 0.95 * len(solve_assignment(keys))


def test_thread_shard_backend_is_rejected():
    """The shard executor, its worker pool and the config all name the
    two backends that exist."""
    with pytest.raises(ValueError, match="serial, process"):
        ShardExecutor("thread")
    with pytest.raises(ValueError, match="serial, process"):
        WorkerPool("thread")
    with pytest.raises(ValueError, match="serial, process"):
        SimulationConfig(
            dispatch_policy="sharded", shard_backend="thread"
        )


def test_sharded_without_grid_index_is_rejected_by_config():
    with pytest.raises(ValueError, match="grid index"):
        SimulationConfig(
            dispatch_policy="sharded", num_shards=2, use_grid_index=False
        )


def test_fallback_reason_surfaces_in_outcome():
    """A degenerate plan must say so: the outcome (and through it the
    batch metrics) records why the flush was solved globally."""
    keys = _random_keys(5, m=6, n=5)
    plan = ShardPartitioner(3).plan(
        _MatrixShim(keys), grid_index=None, coords=None
    )
    with ShardExecutor("serial") as ex:
        outcome = solve_sharded(keys, plan, ex)
    assert outcome.fallback_reason == "no grid index"
    assert outcome.num_shards == 1
    assert outcome.pairs == solve_assignment(keys)


def test_single_shard_plan_is_bitwise_global():
    keys = _random_keys(33, m=25, n=25)
    plan = ShardPartitioner(1).plan(_MatrixShim(keys))
    with ShardExecutor("serial") as ex:
        outcome = solve_sharded(keys, plan, ex)
    assert outcome.pairs == solve_assignment(keys)
    assert outcome.boundary_conflicts == 0
    assert outcome.num_shards == 1


class _MatrixShim:
    """Duck-typed stand-in for CostMatrix in single-shard plans."""

    def __init__(self, keys):
        self.keys = keys
        self.requests = [None] * keys.shape[0]
        self.agents = [None] * keys.shape[1]

    @property
    def shape(self):
        return self.keys.shape
