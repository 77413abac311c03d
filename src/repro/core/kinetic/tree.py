"""The kinetic tree of all valid trip schedules (Sections IV and V).

The tree's root tracks the vehicle's current location; every root-to-leaf
path is one complete valid schedule over the vehicle's active trips, and
the vehicle executes the cheapest one. A new request is handled by
*insertion*: every feasible interleaving of the new pickup/dropoff into
every materialized schedule is built copy-on-write (the paper's
``insertNodes``/``copyNodes``, Algorithm 1), producing a **trial** the
dispatcher can compare across vehicles and commit only on the winner
("Only the chosen tree needs to have its ∆ updated").

Exactness and the slack filter
------------------------------
Feasibility of every constructed node is re-checked *exactly* (waiting
time, service constraint relative to the pickup arrival on the same path,
seat capacity), so the tree never materializes an invalid schedule.

The ``mode="slack"`` fast filter (Theorem 1) additionally rejects a
subtree in O(1) when the arrival delay imposed on it exceeds its stored
aggregate ``∆ = min(own slack, max over children ∆)``. Slacks derive from
per-stop absolute latest-arrival times (LAT, see
:func:`~repro.core.kinetic.node.stop_latest_arrival`); for the dropoff of
a not-yet-picked-up trip the LAT is the *worst-case* bound
``pickup_deadline + (1+eps) d(s,e)``. This choice makes the filter safe:

* a pickup's slack and an already-picked-up dropoff's slack are exact;
* a pending dropoff's slack is an upper bound on any true tolerance
  (its pickup may still arrive later than assumed), and on any path its
  own pickup — whose slack *is* exact — also sits below the insertion
  edge whenever delaying the dropoff could matter without delaying the
  pickup equally.

Hence ``delay > ∆`` implies every schedule in the subtree is truly
broken (never over-prunes), while anything the filter admits wrongly is
caught by the exact per-node checks. Basic and slack modes therefore
return identical results — a property test enforces this.

Distance lookups
----------------
The tree reads the road network one leg at a time, ``engine.distance(u,
v)``, as Algorithm 1 and the paper's LRU-cached engine do: a leg is
fetched only when the placement that needs it is tried, and each
decision point's checks are plain scalar comparisons. An unreachable
leg reads ``inf``, which fails :meth:`KineticTree._admit` and the slack
filter like any missed deadline. Fan-outs over many vehicles belong to
the dispatcher (:mod:`repro.core.matching`), which calls the engine's
batched ``distance_many`` itself.

Hotspot clustering (``hotspot_theta``)
--------------------------------------
When inserting a stop that is within θ (network distance) of every stop
in an existing node's group, the stop *merges* into that group (visited
consecutively, insertion order) instead of spawning new permutations,
and alternative placements are shed (Section V: "a server may decide to
shed the load by only maintaining a subset of the schedules"). Theorem 2
bounds the optimality loss by ``2(m+1)θ`` for a group of ``m`` stops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import inf
from typing import Iterator, Sequence

from repro.core.kinetic.node import TreeNode, stop_latest_arrival
from repro.core.request import TripRequest
from repro.core.stop import Stop, dropoff, pickup
from repro.exceptions import DisconnectedError, ScheduleError

#: Floating-point tolerance for constraint comparisons (seconds); matches
#: repro.core.schedule._EPS so the tree and the reference validator agree.
EPSILON = 1e-6

_MODES = ("basic", "slack")


@dataclass(frozen=True, slots=True)
class KineticTrial:
    """A tentative augmented tree for one (vehicle, request) pair.

    Holds everything needed to either discard the attempt (the common
    case — another vehicle won) or commit it in O(1) plus one ∆ sweep.
    """

    request: TripRequest | None
    decision_vertex: int
    decision_time: float
    children: list[TreeNode] = field(compare=False)
    best_cost: float = 0.0
    best_nodes: tuple[TreeNode, ...] = field(default=(), compare=False)
    expansions: int = 0


class KineticTree:
    """All valid schedules of one vehicle, maintained kinetically.

    Parameters
    ----------
    engine:
        Shortest-path engine (:class:`~repro.roadnet.engine.ShortestPathEngine`).
    start_vertex, start_time:
        Initial vehicle position ``(l, t)``.
    capacity:
        Seat capacity; ``None`` = unlimited (Fig. 9(c)).
    mode:
        ``"basic"`` or ``"slack"`` (min-max filtering, Theorem 1).
    hotspot_theta:
        Merge radius θ in seconds of travel (Section V), or ``None`` to
        disable hotspot clustering.
    eager_invalidation:
        When True, stale branches are pruned on every advance (the
        paper's *eager* option); otherwise pruning happens implicitly on
        the next insertion (*lazy*, the default).
    """

    def __init__(
        self,
        engine,
        start_vertex: int,
        start_time: float = 0.0,
        capacity: int | None = None,
        mode: str = "slack",
        hotspot_theta: float | None = None,
        eager_invalidation: bool = False,
        expansion_budget: int | None = None,
        schedule_cap: int | None = None,
    ):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        if hotspot_theta is not None and hotspot_theta < 0:
            raise ValueError("hotspot_theta must be non-negative")
        if expansion_budget is not None and expansion_budget < 1:
            raise ValueError("expansion_budget must be >= 1 or None")
        if schedule_cap is not None and schedule_cap < 1:
            raise ValueError("schedule_cap must be >= 1 or None")
        self.engine = engine
        self.capacity = capacity
        self.mode = mode
        self.hotspot_theta = hotspot_theta
        self.eager_invalidation = eager_invalidation
        self.expansion_budget = expansion_budget
        #: Section V generalization: "a server may decide to shed the
        #: load by only maintaining a subset of the schedules". When set,
        #: every successful insertion keeps only the ``schedule_cap``
        #: cheapest schedules (a beam over complete schedules). Bounded
        #: memory, approximate matching; the committed schedule is always
        #: among the kept ones.
        self.schedule_cap = schedule_cap

        self.root_vertex = start_vertex
        self.root_time = start_time
        self.children: list[TreeNode] = []
        #: request_id -> actual pickup time for riders in the vehicle.
        self.onboard: dict[int, float] = {}
        #: all accepted, unfinished requests by id (onboard + pending).
        self.active_requests: dict[int, TripRequest] = {}
        #: committed path: the node sequence the vehicle is executing.
        self.committed: list[TreeNode] = []
        self._expansions = 0

    @classmethod
    def from_problem(
        cls,
        engine,
        problem,
        mode: str = "slack",
        hotspot_theta: float | None = None,
    ) -> "KineticTree | None":
        """Materialize the full tree of all valid schedules for a
        :class:`~repro.core.problem.SchedulingProblem` snapshot (without
        its ``new_request``).

        Used by the one-shot algorithm adapter and by tests; the live
        simulator grows trees incrementally instead. Returns ``None``
        when the snapshot admits no valid schedule at all.
        """
        tree = cls(
            engine,
            problem.start_vertex,
            problem.start_time,
            capacity=problem.capacity,
            mode=mode,
            hotspot_theta=hotspot_theta,
        )
        tree.onboard = dict(problem.onboard_pickup_times)
        tree.active_requests = {r.request_id: r for r in problem.onboard}
        for request in problem.pending:
            tree.active_requests[request.request_id] = request

        stops: list[Stop] = [dropoff(r) for r in problem.onboard]
        for request in problem.pending:
            stops.append(pickup(request))
            stops.append(dropoff(request))
        if not stops:
            return tree
        children = tree._enumerate(
            stops,
            problem.start_vertex,
            problem.start_time,
            dict(tree.onboard),
            len(tree.onboard),
        )
        if children is None:
            return None
        completion, best_nodes = _best_leaf_path(children)
        tree.children = children
        tree.committed = list(best_nodes)
        tree._recompute_deltas()
        return tree

    def _enumerate(
        self,
        remaining: list[Stop],
        loc: int,
        time: float,
        pickup_arrivals: dict[int, float],
        load: int,
    ) -> list[TreeNode] | None:
        """All valid orderings of ``remaining`` as a prefix tree."""
        out: list[TreeNode] = []
        for index, stop in enumerate(remaining):
            if not stop.is_pickup and stop.request_id not in pickup_arrivals:
                continue  # its pickup is not placed yet: no leg to fetch
            arrival = time + self._leg(loc, stop.vertex)
            outcome = self._admit(stop, arrival, pickup_arrivals, load)
            if outcome is None:
                continue
            new_load, added = outcome
            rest = remaining[:index] + remaining[index + 1 :]
            if rest:
                sub = self._enumerate(
                    rest, stop.vertex, arrival, pickup_arrivals, new_load
                )
                if sub is not None:
                    out.append(TreeNode((stop,), (arrival,), sub))
            else:
                out.append(TreeNode((stop,), (arrival,)))
            if added:
                del pickup_arrivals[stop.request_id]
        return out or None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def num_active_trips(self) -> int:
        """Trips accepted but not completed."""
        return len(self.active_requests)

    @property
    def load(self) -> int:
        """Riders currently in the vehicle."""
        return len(self.onboard)

    def size(self) -> int:
        """Total node count (the paper's memory-cost measure)."""
        return sum(child.count_nodes() for child in self.children)

    def num_schedules(self) -> int:
        """Number of materialized valid schedules (leaves)."""
        return sum(child.count_leaves() for child in self.children)

    def all_schedules(self) -> Iterator[tuple[tuple[Stop, ...], tuple[float, ...]]]:
        """Yield ``(stops, arrivals)`` for every materialized schedule."""

        def walk(node: TreeNode, stops: list[Stop], arrivals: list[float]):
            stops = stops + list(node.stops)
            arrivals = arrivals + list(node.arrivals)
            if node.is_leaf:
                yield tuple(stops), tuple(arrivals)
            for child in node.children:
                yield from walk(child, stops, arrivals)

        for child in self.children:
            yield from walk(child, [], [])

    def best_schedule(self) -> tuple[float, tuple[Stop, ...]] | None:
        """Cost and stop sequence of the committed schedule, or ``None``
        when the vehicle has no commitments."""
        if not self.committed:
            return None
        stops: list[Stop] = []
        for node in self.committed:
            stops.extend(node.stops)
        cost = self.committed[-1].last_arrival - self.root_time
        return cost, tuple(stops)

    # ------------------------------------------------------------------
    # Insertion (Algorithm 1)
    # ------------------------------------------------------------------
    def try_insert(
        self, request: TripRequest, decision_vertex: int, decision_time: float
    ) -> KineticTrial | None:
        """Build the augmented tree for ``request`` from the given
        decision point, without modifying this tree.

        Returns ``None`` when no valid augmented schedule exists (the
        vehicle cannot serve the request).
        """
        if request.request_id in self.active_requests:
            raise ScheduleError(f"request {request.request_id} already assigned")
        self._expansions = 0
        remaining = (pickup(request), dropoff(request))
        pickup_arrivals = dict(self.onboard)
        children = self._build(
            self.children,
            decision_vertex,
            decision_time,
            pickup_arrivals,
            len(self.onboard),
            remaining,
        )
        if children is None:
            return None
        if self.schedule_cap is not None:
            children = _keep_best_schedules(children, self.schedule_cap)
        completion, best_nodes = _best_leaf_path(children)
        return KineticTrial(
            request=request,
            decision_vertex=decision_vertex,
            decision_time=decision_time,
            children=children,
            best_cost=completion - decision_time,
            best_nodes=tuple(best_nodes),
            expansions=self._expansions,
        )

    def reroot(self, decision_vertex: int, decision_time: float) -> KineticTrial | None:
        """Rebuild the tree from a new decision point without a new
        request (used by eager invalidation and by tests). Returns a
        trial whose commit moves the root."""
        self._expansions = 0
        if not self.children:
            return KineticTrial(
                request=None,
                decision_vertex=decision_vertex,
                decision_time=decision_time,
                children=[],
            )
        children = self._build(
            self.children,
            decision_vertex,
            decision_time,
            dict(self.onboard),
            len(self.onboard),
            (),
        )
        if children is None:
            return None
        completion, best_nodes = _best_leaf_path(children)
        return KineticTrial(
            request=None,
            decision_vertex=decision_vertex,
            decision_time=decision_time,
            children=children,
            best_cost=completion - decision_time,
            best_nodes=tuple(best_nodes),
            expansions=self._expansions,
        )

    def commit(self, trial: KineticTrial) -> None:
        """Adopt a trial produced by :meth:`try_insert` / :meth:`reroot`."""
        if trial.request is not None:
            self.active_requests[trial.request.request_id] = trial.request
        self.root_vertex = trial.decision_vertex
        self.root_time = trial.decision_time
        self.children = trial.children
        self.committed = list(trial.best_nodes)
        self._recompute_deltas()

    # ------------------------------------------------------------------
    # Movement (Lemma 1)
    # ------------------------------------------------------------------
    def advance(self) -> TreeNode:
        """The vehicle reached the next committed node: move the root
        there, apply pickups/dropoffs, and prune every schedule not
        sharing the executed prefix (Lemma 1)."""
        if not self.committed:
            raise ScheduleError("no committed schedule to advance along")
        node = self.committed.pop(0)
        if node not in self.children:
            raise ScheduleError("committed node is not a child of the root")
        for stop, arrival in zip(node.stops, node.arrivals):
            rid = stop.request_id
            if stop.is_pickup:
                self.onboard[rid] = arrival
            else:
                self.onboard.pop(rid, None)
                self.active_requests.pop(rid, None)
        self.root_vertex = node.last_vertex
        self.root_time = node.last_arrival
        self.children = node.children
        if self.eager_invalidation:
            self.prune_stale(self.root_vertex, self.root_time)
        return node

    def prune_stale(self, vertex: int, time: float) -> int:
        """Eagerly drop branches invalidated by vehicle movement,
        refreshing stored arrivals and ∆ along the way. Returns the
        number of subtrees removed."""
        removed = self._prune_in_place(
            self.children, vertex, time, dict(self.onboard), len(self.onboard)
        )
        if removed:
            self._recompute_deltas()
        return removed

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _build(
        self,
        old_children: Sequence[TreeNode],
        loc: int,
        time: float,
        pickup_arrivals: dict[int, float],
        load: int,
        remaining: tuple[Stop, ...],
    ) -> list[TreeNode] | None:
        """All valid continuations from prefix-end ``(loc, time)``.

        ``old_children`` are the existing subtree options;
        ``remaining`` the new request's stops still to place, in order.
        Returns fresh nodes (copy-on-write), or ``None`` when no valid
        completion exists.
        """
        if (
            self.expansion_budget is not None
            and self._expansions > self.expansion_budget
        ):
            from repro.exceptions import TreeBudgetExceeded

            raise TreeBudgetExceeded(
                f"insertion exceeded {self.expansion_budget} node expansions"
            )
        # Futility cutoff (Lemma 2 generalized): time only grows below, so
        # if the next new stop's latest arrival has passed, stop here.
        if remaining:
            nxt = remaining[0]
            if nxt.is_pickup:
                if time > nxt.request.pickup_deadline + EPSILON:
                    return None
            else:
                picked = pickup_arrivals.get(nxt.request_id)
                if (
                    picked is not None
                    and time > picked + nxt.request.max_ride_cost + EPSILON
                ):
                    return None

        out: list[TreeNode] = []

        if remaining and self.hotspot_theta is not None:
            for child in old_children:
                merged = self._try_merge(
                    child, loc, time, pickup_arrivals, load, remaining
                )
                if merged is not None:
                    # Shed load (Section V): the merged placement stands in
                    # for all near-duplicate permutations at this level.
                    return [merged]

        if remaining:
            placed = self._place_new(
                old_children, loc, time, pickup_arrivals, load, remaining
            )
            if placed is not None:
                out.append(placed)

        for child in old_children:
            advanced = self._advance_old(
                child, loc, time, pickup_arrivals, load, remaining
            )
            if advanced is not None:
                out.append(advanced)

        return out or None

    def _place_new(
        self,
        old_children: Sequence[TreeNode],
        loc: int,
        time: float,
        pickup_arrivals: dict[int, float],
        load: int,
        remaining: tuple[Stop, ...],
    ) -> TreeNode | None:
        """Option A: visit the next new stop right now."""
        self._expansions += 1
        stop = remaining[0]
        rest = remaining[1:]
        arrival = time + self._leg(loc, stop.vertex)
        outcome = self._admit(stop, arrival, pickup_arrivals, load)
        if outcome is None:
            return None
        new_load, added = outcome
        try:
            if not old_children and not rest:
                return TreeNode((stop,), (arrival,))
            sub = self._build(
                old_children, stop.vertex, arrival, pickup_arrivals, new_load, rest
            )
            if sub is None:
                return None
            return TreeNode((stop,), (arrival,), sub)
        finally:
            if added:
                del pickup_arrivals[stop.request_id]

    def _advance_old(
        self,
        child: TreeNode,
        loc: int,
        time: float,
        pickup_arrivals: dict[int, float],
        load: int,
        remaining: tuple[Stop, ...],
    ) -> TreeNode | None:
        """Option B: continue with an existing child node. The expansion
        is counted before the slack filter fires."""
        self._expansions += 1
        first = time + self._leg(loc, child.first_vertex)
        if self.mode == "slack":
            # Theorem 1(b): O(1) rejection when the delay pushed onto the
            # subtree exceeds its most lenient route's slack.
            new_last = first + child.internal_cost
            if new_last - child.last_arrival > child.delta + EPSILON:
                return None
        walked = self._walk_group(child.stops, first, pickup_arrivals, load)
        if walked is None:
            return None
        arrivals, new_load, added = walked
        try:
            last_vertex = child.last_vertex
            last_time = arrivals[-1]
            if child.is_leaf and not remaining:
                return TreeNode(child.stops, arrivals, internal_cost=child.internal_cost)
            sub = self._build(
                child.children, last_vertex, last_time, pickup_arrivals, new_load, remaining
            )
            if sub is None:
                return None
            return TreeNode(child.stops, arrivals, sub, internal_cost=child.internal_cost)
        finally:
            for rid in added:
                del pickup_arrivals[rid]

    def _try_merge(
        self,
        child: TreeNode,
        loc: int,
        time: float,
        pickup_arrivals: dict[int, float],
        load: int,
        remaining: tuple[Stop, ...],
    ) -> TreeNode | None:
        """Hotspot merge: absorb the next new stop into ``child``'s group
        when it lies within θ of every stop already in the group (the
        network is undirected, so ``d(stop, existing)`` is
        ``d(existing, stop)``)."""
        stop = remaining[0]
        for existing in child.stops:
            if self._leg(stop.vertex, existing.vertex) > self.hotspot_theta:
                return None
        self._expansions += 1
        stops = child.stops + (stop,)
        walked = self._walk_group(
            stops, time + self._leg(loc, child.first_vertex), pickup_arrivals, load
        )
        if walked is None:
            return None
        arrivals, new_load, added = walked
        try:
            rest = remaining[1:]
            if child.is_leaf and not rest:
                return TreeNode(stops, arrivals)
            sub = self._build(
                child.children, stop.vertex, arrivals[-1], pickup_arrivals, new_load, rest
            )
            if sub is None:
                return None
            return TreeNode(stops, arrivals, sub)
        finally:
            for rid in added:
                del pickup_arrivals[rid]

    def _walk_group(
        self,
        stops: tuple[Stop, ...],
        arrival: float,
        pickup_arrivals: dict[int, float],
        load: int,
    ) -> tuple[list[float], int, list[int]] | None:
        """Visit a node's stops consecutively, validating each exactly.

        ``arrival`` is the time the first stop is reached. On success
        returns ``(arrivals, load after, pickups added)`` with
        ``pickup_arrivals`` updated (caller must undo the additions on
        backtrack); on any violation undoes its own additions and returns
        ``None``.
        """
        arrivals: list[float] = []
        added: list[int] = []
        t = arrival
        prev = None
        for stop in stops:
            if prev is not None:
                t += self._leg(prev, stop.vertex)
            prev = stop.vertex
            outcome = self._admit(stop, t, pickup_arrivals, load)
            if outcome is None:
                for rid in added:
                    del pickup_arrivals[rid]
                return None
            load, did_add = outcome
            if did_add:
                added.append(stop.request_id)
            arrivals.append(t)
        return arrivals, load, added

    def _leg(self, source: int, target: int) -> float:
        """``d(source, target)``, or ``inf`` when ``target`` is
        unreachable: an ``inf`` arrival misses every (finite) deadline,
        so :meth:`_admit` and the slack filter reject the placement."""
        try:
            return self.engine.distance(source, target)
        except DisconnectedError:
            return inf

    def _admit(
        self,
        stop: Stop,
        arrival: float,
        pickup_arrivals: dict[int, float],
        load: int,
    ) -> tuple[int, bool] | None:
        """Exact single-stop feasibility: waiting time, service constraint
        and capacity. Returns ``(new load, pickup recorded?)`` or ``None``."""
        request = stop.request
        if stop.is_pickup:
            if arrival > request.pickup_deadline + EPSILON:
                return None
            if self.capacity is not None and load + 1 > self.capacity:
                return None
            pickup_arrivals[request.request_id] = arrival
            return load + 1, True
        picked = pickup_arrivals.get(request.request_id)
        if picked is None:
            return None
        if arrival - picked > request.max_ride_cost + EPSILON:
            return None
        return load - 1, False

    def _prune_in_place(
        self,
        children: list[TreeNode],
        loc: int,
        time: float,
        pickup_arrivals: dict[int, float],
        load: int,
    ) -> int:
        """Eager invalidation: refresh arrivals from the live position,
        drop violated subtrees, and refresh ∆ post-order."""
        removed = 0
        keep: list[TreeNode] = []
        for child in children:
            walked = self._walk_group(
                child.stops,
                time + self._leg(loc, child.first_vertex),
                pickup_arrivals,
                load,
            )
            if walked is None:
                removed += child.count_nodes()
                continue
            arrivals, new_load, added = walked
            was_leaf = child.is_leaf
            removed += self._prune_in_place(
                child.children, child.last_vertex, arrivals[-1], pickup_arrivals, new_load
            )
            for rid in added:
                del pickup_arrivals[rid]
            if not was_leaf and not child.children:
                # Every completion below died -> this prefix carries no
                # schedule anymore.
                removed += 1
                continue
            child.arrivals = arrivals
            keep.append(child)
        children[:] = keep
        return removed

    # ------------------------------------------------------------------
    # ∆ maintenance
    # ------------------------------------------------------------------
    def _recompute_deltas(self) -> None:
        """One post-order sweep refreshing ∆ on the committed tree."""
        self._refresh_deltas(self.children)

    def _refresh_deltas(self, children: Sequence[TreeNode]) -> None:
        for child in children:
            self._delta_of(child)

    def _delta_of(self, node: TreeNode) -> float:
        own = min(
            stop_latest_arrival(stop, self.onboard) - arrival
            for stop, arrival in zip(node.stops, node.arrivals)
        )
        if node.children:
            best_child = max(self._delta_of(c) for c in node.children)
            node.delta = min(own, best_child)
        else:
            node.delta = own
        return node.delta

    # ------------------------------------------------------------------
    # Debug / test support
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Assert every materialized schedule is valid per the reference
        validator (:func:`repro.core.schedule.evaluate_schedule`). Raises
        :class:`ScheduleError` on any violation. Test/debug helper."""
        from repro.core.schedule import evaluate_schedule

        for stops, arrivals in self.all_schedules():
            evaluation = evaluate_schedule(
                self.engine,
                self.root_vertex,
                self.root_time,
                stops,
                dict(self.onboard),
                capacity=self.capacity,
                initial_load=len(self.onboard),
            )
            if evaluation is None:
                raise ScheduleError(f"invalid schedule materialized: {stops}")
            for stored, recomputed in zip(arrivals, evaluation.arrivals):
                if abs(stored - recomputed) > 1e-5:
                    raise ScheduleError(
                        f"stored arrival {stored} != recomputed {recomputed} "
                        f"in {stops}"
                    )

    def __repr__(self) -> str:
        return (
            f"KineticTree(vertex={self.root_vertex}, t={self.root_time:.0f}, "
            f"trips={self.num_active_trips}, nodes={self.size()}, "
            f"schedules={self.num_schedules()}, mode={self.mode!r})"
        )


def _keep_best_schedules(
    children: list[TreeNode], cap: int
) -> list[TreeNode]:
    """Prune the forest to the ``cap`` cheapest complete schedules.

    Collects every leaf's completion time, marks the node-paths of the
    ``cap`` best, and drops all branches not on a kept path. Node objects
    are reused (they are freshly built by the caller).
    """
    leaves: list[tuple[float, tuple[TreeNode, ...]]] = []

    def collect(node: TreeNode, path: tuple[TreeNode, ...]) -> None:
        path = path + (node,)
        if node.is_leaf:
            leaves.append((node.last_arrival, path))
            return
        for child in node.children:
            collect(child, path)

    for child in children:
        collect(child, ())
    if len(leaves) <= cap:
        return children
    leaves.sort(key=lambda item: item[0])
    keep: set[int] = set()
    for _, path in leaves[:cap]:
        for node in path:
            keep.add(id(node))

    def rebuild(nodes: list[TreeNode]) -> list[TreeNode]:
        kept = [n for n in nodes if id(n) in keep]
        for node in kept:
            node.children = rebuild(node.children)
        return kept

    return rebuild(children)


def render_tree(tree: "KineticTree") -> str:
    """Human-readable dump of a kinetic tree (debugging aid).

    One line per node: stops, stored arrivals, and ∆; committed-path
    nodes are marked with ``*`` (the paper's "darkened path").
    """
    committed = {id(node) for node in tree.committed}
    lines = [
        f"root @v{tree.root_vertex} t={tree.root_time:.1f} "
        f"(trips={tree.num_active_trips}, onboard={sorted(tree.onboard)})"
    ]

    def walk(node: TreeNode, depth: int) -> None:
        marker = "*" if id(node) in committed else " "
        stops = "+".join(repr(s) for s in node.stops)
        arrivals = ",".join(f"{a:.0f}" for a in node.arrivals)
        delta = "inf" if node.delta == float("inf") else f"{node.delta:.0f}"
        lines.append(f"{'  ' * depth}{marker} {stops} t=[{arrivals}] Δ={delta}")
        for child in node.children:
            walk(child, depth + 1)

    for child in tree.children:
        walk(child, 1)
    return "\n".join(lines)


def _best_leaf_path(children: Sequence[TreeNode]) -> tuple[float, list[TreeNode]]:
    """Minimum completion time over all leaves, with its node path."""
    best_time = float("inf")
    best_path: list[TreeNode] = []
    for child in children:
        if child.is_leaf:
            t, path = child.last_arrival, [child]
        else:
            t, sub = _best_leaf_path(child.children)
            path = [child] + sub
        if t < best_time:
            best_time, best_path = t, path
    return best_time, best_path
