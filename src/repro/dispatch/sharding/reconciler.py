"""Second-stage assignment over shard-boundary conflicts.

Per-shard solves are independent, so a vehicle that is a candidate
column of two shards (it straddles their boundary) can win a request in
each — a double-assignment no single vehicle can honor. The
:class:`BoundaryReconciler` resolves these deterministically:

1. every proposal whose vehicle was claimed by exactly one shard is
   accepted as-is;
2. the *conflict set* — all requests whose proposed vehicle was claimed
   more than once — is re-solved as one small linear assignment against
   every not-yet-accepted column of the global key matrix.

Stage 2 uses the same LAP solver as the shards, so the outcome is
deterministic and maximum-cardinality: a request that loses a contested
vehicle immediately falls back to its best remaining alternative rather
than being dropped, and no feasible boundary match is silently lost
(requests stage 2 still cannot place flow into the policy's sequential
cleanup, exactly like global-solve losers).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from repro.dispatch.solver import solve_assignment


@dataclass(slots=True)
class ReconcileOutcome:
    """Conflict-free pairs plus what reconciliation had to do.

    ``boundary_conflicts`` counts the vehicles claimed by more than one
    shard; ``conflict_rows`` the requests that went through the
    second-stage solve.
    """

    pairs: list[tuple[int, int]] = field(default_factory=list)
    boundary_conflicts: int = 0
    conflict_rows: tuple[int, ...] = ()


class BoundaryReconciler:
    """Merges per-shard assignment proposals into one valid matching."""

    def reconcile(
        self, keys: np.ndarray, proposals: list[list[tuple[int, int]]]
    ) -> ReconcileOutcome:
        """Resolve ``proposals`` (one ``(row, col)`` list per shard, in
        shard-id order, global indices) against the batch's ``keys``.

        Rows are owned by exactly one shard each, so conflicts are
        always *column* collisions across shards.
        """
        claims: dict[int, list[int]] = defaultdict(list)
        for shard_pairs in proposals:
            for row, col in shard_pairs:
                claims[col].append(row)

        accepted = [
            (rows[0], col) for col, rows in claims.items() if len(rows) == 1
        ]
        conflicted = {col: rows for col, rows in claims.items() if len(rows) > 1}
        if not conflicted:
            accepted.sort()
            return ReconcileOutcome(pairs=accepted)

        conflict_rows = sorted(
            row for rows in conflicted.values() for row in rows
        )
        taken = {col for _, col in accepted}
        # Only not-yet-taken columns some conflict row can actually use:
        # an infeasible column can never be matched, so dropping it here
        # keeps the second-stage matrix as small as the conflict itself.
        usable = np.isfinite(keys[conflict_rows]).any(axis=0)
        free_cols = [
            int(c) for c in np.nonzero(usable)[0] if int(c) not in taken
        ]
        if not free_cols:
            accepted.sort()
            return ReconcileOutcome(
                pairs=accepted,
                boundary_conflicts=len(conflicted),
                conflict_rows=tuple(conflict_rows),
            )
        sub = keys[np.ix_(conflict_rows, free_cols)]
        for i, j in solve_assignment(sub):
            accepted.append((conflict_rows[i], free_cols[j]))
        accepted.sort()
        return ReconcileOutcome(
            pairs=accepted,
            boundary_conflicts=len(conflicted),
            conflict_rows=tuple(conflict_rows),
        )
