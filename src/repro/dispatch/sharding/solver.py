"""The sharded solve: partition plan -> fan-out -> reconcile.

:func:`solve_sharded` is the numeric heart of the sharding subsystem —
it takes one batch's key matrix and a :class:`~repro.dispatch.sharding.
partitioner.ShardPlan`, solves every shard's submatrix through a
:class:`~repro.dispatch.sharding.executor.ShardExecutor`, and merges the
per-shard proposals through the
:class:`~repro.dispatch.sharding.reconciler.BoundaryReconciler`.

It deliberately knows nothing about quotes, agents or commits: the
``sharded`` dispatch policy hands it plain numpy keys and gets plain
index pairs back, which is what lets the process backend ship work to
other cores.

A single-shard plan short-circuits the reconciler and returns the
shard's pairs untouched, making ``shards=1`` *bit-identical* to a
global :func:`~repro.dispatch.solver.solve_assignment` call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dispatch.sharding.executor import ShardExecutor, solve_one_shard
from repro.dispatch.sharding.partitioner import ShardPlan
from repro.dispatch.sharding.reconciler import BoundaryReconciler
from repro.faults import TaskFailure
from repro.obs.trace import NULL_TRACER


@dataclass(slots=True)
class ShardedSolveOutcome:
    """One flush's sharded solve: final pairs plus per-shard telemetry."""

    pairs: list[tuple[int, int]] = field(default_factory=list)
    #: Requests per solved shard (the partition balance signal).
    shard_sizes: list[int] = field(default_factory=list)
    #: In-worker solve seconds per shard.
    shard_seconds: list[float] = field(default_factory=list)
    #: Vehicles claimed by more than one shard this flush.
    boundary_conflicts: int = 0
    num_shards: int = 0
    #: Why spatial sharding degenerated to one global shard (``None``
    #: when the plan sharded as requested) — surfaced into the batch
    #: metrics so a silently-global "sharded" run is visible.
    fallback_reason: str | None = None
    #: Shards whose fan-out task exhausted its retry budget and were
    #: re-solved serially in the parent (degradation-ladder rung 2).
    serial_rescues: int = 0


def solve_sharded(
    keys: np.ndarray,
    plan: ShardPlan,
    executor: ShardExecutor,
    reconciler: BoundaryReconciler | None = None,
    tracer=NULL_TRACER,
) -> ShardedSolveOutcome:
    """Solve one batch's ``keys`` according to ``plan``.

    Returns global ``(row, col)`` pairs — at most one per row and per
    column, sorted — plus the per-shard sizes/solve times and the number
    of boundary conflicts the reconciler had to resolve. ``tracer``
    (a :class:`repro.obs.Tracer`) adds per-shard ``shard.solve`` spans;
    the default is a no-op.

    A shard whose fan-out task still fails after the executor's retry
    budget comes back as a :class:`~repro.faults.TaskFailure`; it is
    re-solved serially right here in the parent (a shard solve is a pure
    numpy computation — the parent can always do it itself), counted in
    ``serial_rescues``. The final pairs are therefore identical to a
    fault-free run's, whatever the fan-out failures.
    """
    tasks = [
        (
            shard.shard_id,
            keys[np.ix_(shard.rows, shard.cols)]
            if shard.rows and shard.cols
            else np.empty((len(shard.rows), len(shard.cols))),
        )
        for shard in plan.shards
    ]
    results = executor.run(tasks, tracer=tracer)

    keys_by_id = dict(tasks)
    rescues = 0
    for i, entry in enumerate(results):
        if isinstance(entry, TaskFailure):
            results[i] = solve_one_shard(entry.task_id, keys_by_id[entry.task_id])
            rescues += 1

    shards_by_id = {shard.shard_id: shard for shard in plan.shards}
    proposals: list[list[tuple[int, int]]] = []
    sizes: list[int] = []
    seconds: list[float] = []
    for shard_id, local_pairs, secs in results:
        shard = shards_by_id[shard_id]
        proposals.append(
            [(shard.rows[i], shard.cols[j]) for i, j in local_pairs]
        )
        sizes.append(len(shard.rows))
        seconds.append(secs)

    if len(plan.shards) == 1:
        # Bit-identical to the global solve: nothing to reconcile.
        pairs = proposals[0] if proposals else []
        conflicts = 0
    else:
        outcome = (reconciler or BoundaryReconciler()).reconcile(
            keys, proposals
        )
        pairs = outcome.pairs
        conflicts = outcome.boundary_conflicts
    return ShardedSolveOutcome(
        pairs=pairs,
        shard_sizes=sizes,
        shard_seconds=seconds,
        boundary_conflicts=conflicts,
        num_shards=len(plan.shards),
        fallback_reason=plan.fallback_reason,
        serial_rescues=rescues,
    )
