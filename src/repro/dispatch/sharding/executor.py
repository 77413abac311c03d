"""Shard fan-out over ``concurrent.futures`` backends.

Two backends solve the per-shard assignment problems:

* ``serial`` — a plain loop in the calling thread: zero overhead, and
  the reference the parallel backend is tested against (with one
  shard it is bit-identical to today's global solve);
* ``process`` — a shared :class:`~concurrent.futures.ProcessPoolExecutor`
  for true multi-core solves. Only the numeric key submatrix crosses
  the process boundary — quotes, agents and trees stay in the parent —
  which is why the sharded plane splits *quoting* (parent, batched
  ``quote_batch`` sweeps) from *solving* (workers, pure numpy).

Whatever the backend or worker count, results are re-ordered by shard
id before anything downstream sees them, so completion order can never
leak into assignments.

Hardened execution (:mod:`repro.faults`): every shard attempt may carry
an :class:`~repro.faults.InjectedFault` directive drawn parent-side at
submit time; failures — injected or real — are retried under a
:class:`~repro.faults.RetryPolicy` (per-attempt timeout, capped
backoff), a broken pool (real ``BrokenProcessPool`` or an injected
:class:`~repro.faults.SimulatedPoolDeathError`) is transparently
recreated, and a task that exhausts its budget comes back as a
structured :class:`~repro.faults.TaskFailure` instead of killing the
flush — the sharded solver re-solves it serially in the parent.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)

import numpy as np

from repro.dispatch.solver import solve_assignment
from repro.exceptions import ShardSolveError
from repro.faults import (
    DEFAULT_RETRY,
    NULL_INJECTOR,
    SimulatedPoolDeathError,
    TaskFailure,
    run_with_fault,
)
from repro.obs.trace import NULL_TRACER, clock

#: Legal ``shard_backend`` values (also what ``SimulationConfig`` takes).
SHARD_BACKENDS = ("serial", "process")


class WorkerPool:
    """A lazily created, reusable ``concurrent.futures`` pool behind a
    backend name.

    The shared substrate of the dispatch subsystem's two fan-out planes:
    :class:`ShardExecutor` (per-shard assignment solves — serial/process)
    and :class:`~repro.dispatch.quoting.QuoteService` (async per-vehicle
    quoting — serial/thread only; agents never cross a process
    boundary). The underlying pool is created on first use and
    reused across flushes: a simulation performs thousands of flushes
    and pool spin-up dwarfs one unit of work.

    The ``serial`` backend runs submissions inline and returns
    already-resolved futures, so callers need no backend-specific code.

    :meth:`close` is idempotent and safe after pool breakage (the pool
    reference is detached before shutdown, so a second close — or the
    ``__del__`` interpreter-shutdown path — finds nothing to do), and
    :meth:`recreate` drops a broken pool so the next submission lazily
    builds a fresh one.
    """

    BACKENDS = ("serial", "thread", "process")

    def __init__(
        self,
        backend: str = "serial",
        max_workers: int | None = None,
        injector=NULL_INJECTOR,
    ):
        if backend not in self.BACKENDS:
            known = ", ".join(self.BACKENDS)
            raise ValueError(f"worker pool backend must be one of: {known}")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1 or None")
        self.backend = backend
        self.max_workers = max_workers
        self.injector = injector
        self._pool = None
        # In-flight submissions on the real (concurrent) pool — the
        # queue-depth signal the resource monitor samples. Serial and
        # injected-fault submissions resolve before submit() returns,
        # so they never count.
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    def __repr__(self) -> str:
        return (
            f"WorkerPool(backend={self.backend!r}, "
            f"max_workers={self.max_workers})"
        )

    def _get_pool(self):
        if self._pool is None:
            if self.backend == "thread":
                self._pool = ThreadPoolExecutor(max_workers=self.max_workers)
            else:
                self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Schedule ``fn(*args, **kwargs)``; on the serial backend it
        runs inline before this call returns. ``pool.submit`` faults
        (:mod:`repro.faults`) are drawn here: a ``crash`` loses the
        submission (failed future), a ``pool_death`` additionally kills
        the underlying pool — both surface as exceptions the hardened
        callers retry."""
        fault = self.injector.draw("pool.submit")
        if fault is not None:
            future: Future = Future()
            if fault.kind == "pool_death":
                self.recreate()
                future.set_exception(
                    SimulatedPoolDeathError(fault.site, fault.seq)
                )
            else:
                try:
                    run_with_fault(fault, False, None, lambda: None)
                except BaseException as error:  # noqa: BLE001 - mirrored
                    future.set_exception(error)
            return future
        if self.backend == "serial":
            future = Future()
            try:
                future.set_result(fn(*args, **kwargs))
            except BaseException as error:  # noqa: BLE001 - mirrored to caller
                future.set_exception(error)
            return future
        try:
            future = self._get_pool().submit(fn, *args, **kwargs)
        except BrokenExecutor as error:
            # The pool died before this submission (a worker was killed
            # out-of-band). Surface it as a failed future so hardened
            # callers take their normal recreate-and-retry path instead
            # of dying at submit time.
            future = Future()
            future.set_exception(error)
            return future
        with self._inflight_lock:
            self._inflight += 1
        future.add_done_callback(self._submission_done)
        return future

    def _submission_done(self, _future: Future) -> None:
        with self._inflight_lock:
            self._inflight -= 1

    def queue_depth(self) -> int:
        """Submissions currently in flight on the concurrent pool (0 on
        the serial backend, where everything resolves inline)."""
        with self._inflight_lock:
            return self._inflight

    def recreate(self) -> None:
        """Drop the current pool (broken or injected-dead) so the next
        submission lazily builds a fresh one; counted as
        ``pool.recreated`` in the metrics registry."""
        pool, self._pool = self._pool, None
        if pool is not None:
            # A broken executor's shutdown() is safe and returns quickly;
            # wait=False because its workers may already be gone.
            pool.shutdown(wait=False)
        self.injector.record_pool_recreated()

    def close(self) -> None:
        """Shut the pool down (no-op for the serial backend, idempotent
        everywhere — safe to call twice, after breakage, and from
        ``__del__`` at interpreter shutdown)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown path
        try:
            self.close()
        except Exception:
            # Interpreter teardown can have already reclaimed executor
            # internals; there is nothing useful to do about it here.
            pass


def solve_one_shard(
    shard_id: int, keys: np.ndarray
) -> tuple[int, list[tuple[int, int]], float]:
    """Solve one shard's submatrix; returns ``(shard_id, pairs, secs)``.

    Module-level so the process backend can pickle it; ``secs`` is the
    in-worker solve time (the per-shard sample the metrics report).
    """
    started = clock()
    pairs = solve_assignment(keys)
    return shard_id, pairs, clock() - started


def _solve_shard_task(fault, sleeping, timeout_s, shard_id, keys):
    """One worker-side shard solve, with its fault directive enacted
    in-worker. Module-level and primitives-only so the process backend
    can pickle it (``fault`` is a plain dataclass)."""
    return run_with_fault(
        fault, sleeping, timeout_s, solve_one_shard, shard_id, keys
    )


def _traced_solve_shard_task(
    fault, sleeping, timeout_s, shard_id, keys, tracer, parent
):
    """In-worker traced shard solve (serial backend — a tracer cannot
    cross the process boundary; see :meth:`ShardExecutor.run`)."""
    t0 = clock()
    result = _solve_shard_task(fault, sleeping, timeout_s, shard_id, keys)
    tracer.emit(
        "shard.solve",
        "solve",
        t0,
        clock(),
        parent=parent,
        shard=shard_id,
        rows=int(keys.shape[0]),
        cols=int(keys.shape[1]),
    )
    return result


class ShardExecutor:
    """Runs per-shard solves on a configurable :class:`WorkerPool`.

    Call :meth:`close` to release the pool early; otherwise it is torn
    down with the executor object. ``injector`` / ``retry`` wire in the
    fault-tolerance layer (:mod:`repro.faults`); the defaults — a
    disabled injector and :data:`~repro.faults.DEFAULT_RETRY` — keep the
    fault-free path bit-identical to the unhardened executor.
    """

    def __init__(
        self,
        backend: str = "serial",
        max_workers: int | None = None,
        injector=NULL_INJECTOR,
        retry=None,
    ):
        if backend not in SHARD_BACKENDS:
            known = ", ".join(SHARD_BACKENDS)
            raise ValueError(f"shard backend must be one of: {known}")
        self.injector = injector
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self.pool = WorkerPool(
            backend, max_workers=max_workers, injector=injector
        )

    @property
    def backend(self) -> str:
        return self.pool.backend

    @property
    def max_workers(self) -> int | None:
        return self.pool.max_workers

    def __repr__(self) -> str:
        return (
            f"ShardExecutor(backend={self.backend!r}, "
            f"max_workers={self.max_workers})"
        )

    # ------------------------------------------------------------------
    def run(
        self, tasks: list[tuple[int, np.ndarray]], tracer=NULL_TRACER
    ) -> list:
        """Solve every ``(shard_id, keys)`` task; results sorted by
        shard id regardless of completion order.

        Each entry is the shard's ``(shard_id, pairs, secs)`` tuple, or
        a :class:`~repro.faults.TaskFailure` when the task still failed
        after the retry budget (bounded attempts, per-attempt timeout,
        capped backoff; a broken pool is recreated between attempts).
        Callers — :func:`~repro.dispatch.sharding.solver.solve_sharded`
        — re-solve failed shards serially in the parent.

        With an enabled ``tracer``, each shard gets a ``shard.solve``
        span parented to the caller's open span (the policy's ``solve``
        span). The serial backend traces in the worker; the process
        backend cannot carry a tracer across pickling, so its spans are
        synthesized parent-side from the returned in-worker seconds
        (flagged ``synthetic`` — their end stamps share the join
        instant, so only durations, not offsets, are meaningful).
        """
        retry = self.retry
        injector = self.injector
        traced_inline = tracer.enabled and self.backend != "process"
        parent = tracer.current_id() if traced_inline else None
        sleeping = self.backend != "serial"
        timeout_s = retry.timeout_s

        def submit(sid: int, keys: np.ndarray) -> Future:
            fault = injector.draw("shard.solve")
            if traced_inline:
                return self.pool.submit(
                    _traced_solve_shard_task,
                    fault, sleeping, timeout_s, sid, keys, tracer, parent,
                )
            return self.pool.submit(
                _solve_shard_task, fault, sleeping, timeout_s, sid, keys
            )

        futures = [submit(sid, keys) for sid, keys in tasks]
        results: list = []
        for (sid, keys), future in zip(tasks, futures):
            attempt = 1
            while True:
                try:
                    if sleeping and timeout_s is not None:
                        results.append(future.result(timeout=timeout_s))
                    else:
                        results.append(future.result())
                    break
                except (KeyboardInterrupt, SystemExit):
                    raise
                except Exception as error:
                    if isinstance(error, BrokenExecutor):
                        self.pool.recreate()
                    if attempt >= retry.max_attempts:
                        results.append(
                            TaskFailure(
                                site="shard.solve",
                                task_id=sid,
                                attempts=attempt,
                                error=ShardSolveError(sid, attempt, error),
                            )
                        )
                        break
                    injector.record_retry("shard.solve")
                    attempt += 1
                    backoff = retry.backoff_for(attempt)
                    if sleeping and backoff > 0:
                        time.sleep(backoff)
                    future = submit(sid, keys)
        results.sort(
            key=lambda r: r.task_id if isinstance(r, TaskFailure) else r[0]
        )
        if tracer.enabled and self.backend == "process":
            joined = clock()
            for entry in results:
                if isinstance(entry, TaskFailure):
                    continue
                sid, _pairs, secs = entry
                tracer.emit(
                    "shard.solve",
                    "solve",
                    joined - secs,
                    joined,
                    shard=sid,
                    synthetic=True,
                )
        return results

    def close(self) -> None:
        """Shut the worker pool down (idempotent; no-op for the serial
        backend)."""
        self.pool.close()

    def __enter__(self) -> "ShardExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
