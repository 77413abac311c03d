"""Sharded parallel dispatch: region-partitioned batch solves.

A flush's request x vehicle linear assignment is one
``scipy.optimize.linear_sum_assignment`` call: O(n^3) in the worst case
and single-core, so it grows faster than the batch. This subsystem
federates it over spatial partitions (after Simonetto et al.'s
per-region linear assignment and Vakayil et al.'s large-scale iterative
decomposition); ``docs/architecture.md`` records what that saves at
n = 200 to 2000 rows:

1. :class:`ShardPartitioner` groups the batch's requests by their pickup
   :class:`~repro.spatial.grid_index.GridIndex` cell and balances cells
   across ``num_shards`` shards; each shard's candidate vehicles are the
   finite columns of its rows (optionally halo-limited by
   ``boundary_cells``);
2. the per-shard key submatrices are solved concurrently through a
   :class:`ShardExecutor` (``serial`` or ``process`` backend) — only
   numpy arrays cross the worker boundary, quoting stays in the parent
   on the batched ``quote_batch`` plane;
3. :class:`BoundaryReconciler` resolves vehicles claimed by several
   shards with one deterministic second-stage assignment over the
   conflict set, so no request is double-assigned and no feasible
   boundary match is silently dropped.

``shards=1`` (any backend) short-circuits to a single global solve and
is bit-identical to the unsharded ``lap`` policy; splitting into ``k``
shards cuts solve work roughly ``k^2``-fold before parallelism even
starts (O(n^3) on n/k-sized blocks).

``serial`` is the reference loop; ``process`` is a plain stdlib
``ProcessPoolExecutor`` with pickled tasks, pinned bit-identical to
``serial`` at every worker count (determinism contract 3) and hardened
by the pool-death / retry / serial-rescue ladder of ``docs/robustness.md``.
At the flush sizes this repo produces (<= 180x200) the sharding win is
the block decomposition itself, which the serial loop already has.

The subsystem is wired through ``SimulationConfig`` (``num_shards``,
``shard_backend``, ``shard_boundary_cells``) and the ``sharded`` dispatch
policy.
"""

from repro.dispatch.sharding.executor import (
    SHARD_BACKENDS,
    ShardExecutor,
    WorkerPool,
    solve_one_shard,
)
from repro.dispatch.sharding.partitioner import Shard, ShardPartitioner, ShardPlan
from repro.dispatch.sharding.reconciler import BoundaryReconciler, ReconcileOutcome
from repro.dispatch.sharding.solver import ShardedSolveOutcome, solve_sharded

__all__ = [
    "BoundaryReconciler",
    "ReconcileOutcome",
    "SHARD_BACKENDS",
    "Shard",
    "ShardExecutor",
    "ShardPartitioner",
    "ShardPlan",
    "ShardedSolveOutcome",
    "WorkerPool",
    "solve_one_shard",
    "solve_sharded",
]
