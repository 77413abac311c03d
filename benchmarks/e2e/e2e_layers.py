"""Outside-in layer trace for the end-to-end benchmark.

The traced run wraps the public entry points of each layer *from here*
(``setattr`` on classes; module-level functions in every ``repro``
module that imported them by name) and restores them afterwards — the
program's own tracer (``repro.obs``) stays off.

Calls at or above ``core.matching`` / ``dispatch.*`` become full span
records; the millions of ``core.kinetic`` / ``roadnet`` / ``spatial`` /
``core.vehicle`` calls are *folded* into per-parent aggregates
``name -> [calls, self_s, inclusive_s]`` on the span that was open when
they ran. A call's self time is its duration minus the part its wrapped
children cover, so the self times of every wrapped call plus the root
span's own (``sim.loop``) sum to the traced wall time.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter as clock

import numpy as np

# Span record slots.
NAME, START, END, PARENT, KEY, FOLDED, SELF = range(7)

# _state slots: time covered by wrapped children of the open span, the
# open span's folded-call table, the open span's index.
_COVERED, _TABLE, _OPEN = range(3)


class Patches:
    """Attributes rebound for one run, and put back after it."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner, attr, make) -> None:
        """Rebind ``owner.attr`` to ``make(original)``. A module-level
        function is rebound in every loaded ``repro`` module that
        imported it by name, not only in its home module."""
        original = vars(owner)[attr]
        wrapper = make(original)
        holders = [owner]
        if inspect.ismodule(owner):
            holders = [
                module
                for module in list(sys.modules.values())
                if getattr(module, "__name__", "").startswith("repro")
                and vars(module).get(attr) is original
            ]
        for holder in holders:
            self._undo.append((holder, attr, original))
            setattr(holder, attr, wrapper)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class LayerTrace(Patches):
    """Span store + the wrappers that feed it. One per traced run."""

    def __init__(self):
        super().__init__()
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.tree_size_max = 0
        self._state = [0.0, {}, -1]
        self._carried: set[int] = set()
        self._flush = 0

    # -- wrappers ------------------------------------------------------
    def _folded(self, name, fn, probe=None):
        state = self._state

        def folded(*args, **kwargs):
            covered = state[_COVERED]
            state[_COVERED] = 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                table = state[_TABLE]
                cell = table.get(name)
                if cell is None:
                    cell = table[name] = [0, 0.0, 0.0]
                cell[0] += 1
                cell[1] += elapsed - state[_COVERED]
                cell[2] += elapsed
                state[_COVERED] = covered + elapsed
            if probe is not None:
                probe(args, result)
            return result

        return folded

    def _spanned(self, name, fn, key=None, probe=None):
        state = self._state
        spans = self.spans

        def spanned(*args, **kwargs):
            covered, table, parent = state
            if key is not None:
                span_key = key(args)
            else:
                span_key = spans[parent][KEY] if parent >= 0 else None
            record = [name, 0.0, 0.0, parent, span_key, {}, 0.0]
            state[:] = 0.0, record[FOLDED], len(spans)
            spans.append(record)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                record[START], record[END] = start, end
                record[SELF] = (end - start) - state[_COVERED]
                state[:] = covered + (end - start), table, parent
            if probe is not None:
                probe(record, args, result)
            return result

        return spanned

    def _counted(self, name, fn):
        counters = self.counters

        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def root(self):
        """The span around ``Simulation.run()``; its self time is the
        event loop's own — the explicit remainder."""
        state = self._state
        record = ["sim.loop", clock(), 0.0, -1, None, {}, 0.0]
        state[:] = 0.0, record[FOLDED], len(self.spans)
        self.spans.append(record)
        try:
            yield record
        finally:
            record[END] = clock()
            record[SELF] = (record[END] - record[START]) - state[_COVERED]
            state[:] = 0.0, {}, -1

    # -- patching ------------------------------------------------------
    def fold(self, owner, attr, name, probe=None) -> None:
        self.patch(owner, attr, lambda fn: self._folded(name, fn, probe))

    def span(self, owner, attr, name, key=None, probe=None) -> None:
        self.patch(owner, attr, lambda fn: self._spanned(name, fn, key, probe))

    def install(self, sim) -> None:
        """Wrap every layer's entry points for ``sim``'s run."""
        from repro.core.kinetic.tree import KineticTree
        from repro.core.matching import Dispatcher, KineticAgent
        from repro.core.vehicle import Vehicle
        from repro.dispatch import costs, solver
        from repro.dispatch.policies import GreedyPolicy, _AssignmentRoundsPolicy
        from repro.dispatch.quoting import PendingQuotes, QuoteService
        from repro.sim.events import EventQueue
        from repro.sim.metrics import SimulationReport
        from repro.spatial.grid_index import GridIndex

        counters = self.counters
        fold, span = self.fold, self.span

        # roadnet: the engine class actually serving this run.
        engine = type(sim.engine)

        def many_probe(args, result):
            counters["roadnet.distance_many.targets"] += len(args[2])

        fold(engine, "distance", "roadnet.distance")
        fold(engine, "distance_many", "roadnet.distance_many", many_probe)
        fold(engine, "path", "roadnet.path")

        # spatial
        def radius_probe(args, result):
            counters["spatial.ids_returned"] += len(result)

        fold(GridIndex, "query_radius", "spatial.query_radius", radius_probe)
        fold(GridIndex, "update", "spatial.update")

        # core.kinetic
        def insert_probe(args, result):
            counters["core.kinetic.feasible"] += result is not None
            counters["core.kinetic.active_trips"] += args[0].num_active_trips

        def tree_commit_probe(args, result):
            self.tree_size_max = max(self.tree_size_max, args[0].size())

        fold(KineticTree, "try_insert", "core.kinetic.try_insert", insert_probe)
        fold(KineticTree, "commit", "core.kinetic.commit", tree_commit_probe)
        fold(KineticTree, "advance", "core.kinetic.advance")

        # core.vehicle
        fold(Vehicle, "decision_point", "core.vehicle.decision_point")
        fold(Vehicle, "position_at", "core.vehicle.position_at")

        # core.matching
        def request_key(args):
            return "request", args[1].request_id

        def quote_key(args):
            return "request", args[1].request.request_id

        def screen_probe(record, args, result):
            descents = record[FOLDED].get("core.kinetic.try_insert", (0,))[0]
            counters["core.matching.offered"] += len(args[1])
            counters["core.matching.screened"] += len(args[1]) - descents

        span(Dispatcher, "submit", "core.matching.submit", request_key)
        span(Dispatcher, "candidates", "core.matching.candidates", request_key)
        span(
            KineticAgent, "quote_batch_at", "core.matching.quote_batch_at",
            probe=screen_probe,
        )
        span(KineticAgent, "commit", "core.matching.commit", quote_key)
        span(KineticAgent, "arrive_next", "core.matching.arrive_next")

        # dispatch.*: a top-level begin/collect/assign is keyed by the
        # flush it belongs to (assign closes the flush); nested ones —
        # a policy re-quoting inside assign — inherit that key.
        def flush_key(args):
            parent = self._state[_OPEN]
            if parent >= 0 and self.spans[parent][NAME].startswith("dispatch."):
                return self.spans[parent][KEY]
            return "flush", self._flush

        def matrix_probe(record, args, result):
            counters["dispatch.costs.matrix_cells"] += result.keys.size

        def collect_probe(record, args, result):
            counters["dispatch.quoting.requotes"] += result.requotes

        def solve_probe(record, args, result):
            counters["dispatch.solver.cells"] += np.size(args[0])

        def assign_probe(record, args, result):
            requests = args[2]
            counters["dispatch.policies.rows"] += len(requests)
            counters["dispatch.policies.carried_rows"] += sum(
                request.request_id in self._carried for request in requests
            )
            self._carried.update(c.request.request_id for c in result.carried)
            if record[KEY] == ("flush", self._flush):
                self._flush += 1

        span(costs, "plan_columns", "dispatch.costs.plan_columns")
        span(costs, "quote_column", "dispatch.costs.quote_column")
        span(
            costs, "assemble_matrix", "dispatch.costs.assemble_matrix",
            probe=matrix_probe,
        )
        span(QuoteService, "begin", "dispatch.quoting.begin", flush_key)
        span(
            PendingQuotes, "collect", "dispatch.quoting.collect",
            flush_key, collect_probe,
        )
        span(
            solver, "solve_assignment", "dispatch.solver.solve_assignment",
            probe=solve_probe,
        )
        for policy in (_AssignmentRoundsPolicy, GreedyPolicy):
            span(
                policy, "assign", "dispatch.policies.assign",
                flush_key, assign_probe,
            )

        # sim
        self.patch(
            EventQueue, "pop", lambda fn: self._counted("sim.events", fn)
        )
        for attr in list(vars(SimulationReport)):
            if attr.startswith("record_"):
                fold(SimulationReport, attr, "sim.report")

    # -- results -------------------------------------------------------
    def totals(self) -> dict[str, list]:
        """``name -> [calls, self_s, inclusive_s]`` over spans and
        folded calls alike."""
        out: dict[str, list] = {}
        for record in self.spans:
            cell = out.setdefault(record[NAME], [0, 0.0, 0.0])
            cell[0] += 1
            cell[1] += record[SELF]
            cell[2] += record[END] - record[START]
            for name, (calls, self_s, inclusive) in record[FOLDED].items():
                cell = out.setdefault(name, [0, 0.0, 0.0])
                cell[0] += calls
                cell[1] += self_s
                cell[2] += inclusive
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as out:
            for index, record in enumerate(self.spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": record[NAME],
                            "start": record[START],
                            "end": record[END],
                            "parent": record[PARENT],
                            "key": record[KEY],
                            "self_s": record[SELF],
                            "folded": {
                                name: cell[:2]
                                for name, cell in record[FOLDED].items()
                            },
                        }
                    )
                    + "\n"
                )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace: LayerTrace, sim, declared: list[str]) -> dict[str, float]:
    """The value of every declared per-layer metric except
    ``trace.overhead_share``, which takes an untraced run to compare
    with. ``<layer call>.calls`` / ``.self_s`` come straight from the
    span totals; a call that never ran reads 0."""
    totals = trace.totals()
    counters = trace.counters
    never = (0, 0.0, 0.0)
    values: dict[str, float] = {}
    for name in declared:
        stem, _, suffix = name.rpartition(".")
        if suffix == "calls":
            values[name] = totals.get(stem, never)[0]
        elif suffix == "self_s":
            values[name] = totals.get(stem, never)[1]

    inserts, _, inserts_inclusive_s = totals.get("core.kinetic.try_insert", never)
    # The matrix engine has no caches: both hit rates read 0 there.
    engine_stats = getattr(sim.engine, "stats", dict)()
    values.update(
        {
            "roadnet.row_hit_rate": engine_stats.get("row_hit_rate", 0.0),
            "roadnet.distance_hit_rate": engine_stats.get("distance_hit_rate", 0.0),
            "roadnet.distance_many.targets": counters["roadnet.distance_many.targets"],
            "spatial.candidate_share": _ratio(
                counters["spatial.ids_returned"],
                totals.get("spatial.query_radius", never)[0] * len(sim.agents),
            ),
            "core.kinetic.try_insert.incl_us_mean": _ratio(
                inserts_inclusive_s * 1e6, inserts
            ),
            "core.kinetic.try_insert.feasible_share": _ratio(
                counters["core.kinetic.feasible"], inserts
            ),
            "core.kinetic.active_trips_mean": _ratio(
                counters["core.kinetic.active_trips"], inserts
            ),
            "core.kinetic.tree_size_max": trace.tree_size_max,
            "core.matching.quote_batch_at.screened_share": _ratio(
                counters["core.matching.screened"], counters["core.matching.offered"]
            ),
            "dispatch.costs.matrix_cells": counters["dispatch.costs.matrix_cells"],
            "dispatch.quoting.requotes": counters["dispatch.quoting.requotes"],
            "dispatch.solver.cells": counters["dispatch.solver.cells"],
            "dispatch.policies.carried_row_share": _ratio(
                counters["dispatch.policies.carried_rows"],
                counters["dispatch.policies.rows"],
            ),
            "sim.events.calls": counters["sim.events"],
        }
    )
    return values
