"""WorkerPool / ShardExecutor hardening: pool death, retries, teardown.

Covers the robustness satellite work: ``close()`` must be idempotent and
safe after pool breakage (including the ``__del__`` interpreter-shutdown
path), a broken process pool must be recreated transparently, and the
executor's retry loop must turn persistent task failure into a
structured :class:`~repro.faults.TaskFailure` instead of an escaped
exception.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.dispatch.sharding.executor import ShardExecutor, WorkerPool
from repro.exceptions import ShardSolveError
from repro.faults import (
    FaultInjector,
    RetryPolicy,
    TaskFailure,
    parse_fault_spec,
)
from repro.obs.metrics import MetricsRegistry

SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


def _keys(n=3):
    rng = np.random.default_rng(0)
    return rng.random((n, n))


def _die():  # pragma: no cover - runs in a worker process
    os._exit(1)


# ----------------------------------------------------------------------
# close() idempotence
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["serial", "process"])
def test_close_is_idempotent(backend):
    pool = WorkerPool(backend, max_workers=1)
    if backend != "serial":
        assert pool.submit(int, 3).result() == 3
    pool.close()
    pool.close()  # second close: nothing left to shut down
    assert pool._pool is None


def test_close_after_breakage_is_safe():
    from concurrent.futures.process import BrokenProcessPool

    pool = WorkerPool("process", max_workers=1)
    with pytest.raises(BrokenProcessPool):
        pool.submit(_die).result()
    pool.close()
    pool.close()


def test_close_never_resurrects_a_pool():
    pool = WorkerPool("process", max_workers=1)
    pool.submit(int, 1).result()
    pool.close()
    assert pool._pool is None
    # A fresh submission after close lazily builds a new pool.
    assert pool.submit(int, 2).result() == 2
    pool.close()


def test_del_interpreter_shutdown_path():
    """A WorkerPool alive at interpreter exit must not raise or hang:
    the ``__del__`` → ``close()`` path has to survive teardown order.
    Run in a subprocess so we exercise the real interpreter shutdown."""
    code = (
        "from repro.dispatch.sharding.executor import WorkerPool\n"
        "pool = WorkerPool('process', max_workers=1)\n"
        "pool.submit(int, 1).result()\n"
        "broken = WorkerPool('process', max_workers=1)\n"
        "broken.submit(int, 2).result()\n"
        "broken._pool.shutdown(wait=False)\n"
        "print('alive')\n"
        # pool and broken deliberately NOT closed: __del__ must cope.
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    assert "alive" in proc.stdout
    assert "Traceback" not in proc.stderr


# ----------------------------------------------------------------------
# Pool recreation
# ----------------------------------------------------------------------
def test_recreate_drops_the_pool_and_counts():
    registry = MetricsRegistry()
    injector = FaultInjector(registry=registry)
    pool = WorkerPool("process", max_workers=1, injector=injector)
    pool.submit(int, 1).result()
    first = pool._pool
    pool.recreate()
    assert pool._pool is None
    assert registry.counter("pool.recreated").value == 1
    assert pool.submit(int, 2).result() == 2
    assert pool._pool is not first
    pool.close()


def test_executor_recovers_from_real_broken_process_pool():
    """A genuinely dead worker process (os._exit) breaks the pool; the
    executor's retry loop recreates it and the re-submitted solve
    succeeds — the caller sees only correct results."""
    registry = MetricsRegistry()
    injector = FaultInjector(registry=registry)
    executor = ShardExecutor(
        "process",
        max_workers=1,
        injector=injector,
        retry=RetryPolicy(max_attempts=3, backoff_s=0.0, backoff_cap_s=0.0),
    )
    try:
        # Break the pool out-of-band, then ask for a real solve.
        with pytest.raises(Exception):
            executor.pool.submit(_die).result()
        keys = _keys()
        results = executor.run([(0, keys)])
        assert len(results) == 1
        assert not isinstance(results[0], TaskFailure)
        sid, pairs, _secs = results[0]
        assert sid == 0 and len(pairs) == keys.shape[0]
    finally:
        executor.close()


def test_injected_pool_death_takes_the_recovery_path():
    """``pool.submit:pool_death`` kills the pool under the submission;
    the executor retries on a fresh pool and the flush still completes,
    with the recreation counted."""
    registry = MetricsRegistry()
    injector = FaultInjector(
        parse_fault_spec("pool.submit:pool_death:@1"),
        seed=0,
        registry=registry,
    )
    executor = ShardExecutor(
        "process",
        max_workers=1,
        injector=injector,
        retry=RetryPolicy(max_attempts=3, backoff_s=0.0, backoff_cap_s=0.0),
    )
    try:
        keys = _keys()
        results = executor.run([(0, keys)])
        assert not isinstance(results[0], TaskFailure)
        assert registry.counter("pool.recreated").value >= 1
        assert registry.counter("retry.count").value >= 1
    finally:
        executor.close()


# ----------------------------------------------------------------------
# Retry exhaustion -> TaskFailure
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["serial", "process"])
def test_persistent_crash_becomes_task_failure(backend):
    """A shard whose every attempt crashes comes back as a structured
    TaskFailure wrapping ShardSolveError — never an escaped exception,
    never a silent swallow."""
    injector = FaultInjector(parse_fault_spec("shard.solve:crash:%1"), seed=0)
    retry = RetryPolicy(max_attempts=2, backoff_s=0.0, backoff_cap_s=0.0)
    executor = ShardExecutor(backend, max_workers=1, injector=injector, retry=retry)
    try:
        results = executor.run([(0, _keys()), (1, _keys())])
        assert all(isinstance(r, TaskFailure) for r in results)
        assert [r.task_id for r in results] == [0, 1]
        for failure in results:
            assert failure.site == "shard.solve"
            assert failure.attempts == 2
            assert isinstance(failure.error, ShardSolveError)
    finally:
        executor.close()


def test_transient_crash_is_retried_to_success():
    """A one-shot crash costs one retry and nothing else: the results
    are identical to a fault-free run's."""
    registry = MetricsRegistry()
    injector = FaultInjector(
        parse_fault_spec("shard.solve:crash:@1"), seed=0, registry=registry
    )
    retry = RetryPolicy(max_attempts=3, backoff_s=0.0, backoff_cap_s=0.0)
    executor = ShardExecutor("serial", injector=injector, retry=retry)
    clean = ShardExecutor("serial")
    keys = _keys(4)
    faulted = executor.run([(0, keys)])
    reference = clean.run([(0, keys)])
    assert faulted[0][0] == reference[0][0]
    assert faulted[0][1] == reference[0][1]
    assert registry.counter("retry.count").value == 1
    assert registry.counter("fault.injected").value == 1


def test_results_stay_sorted_with_mixed_failures():
    injector = FaultInjector(parse_fault_spec("shard.solve:crash:@2"), seed=0)
    retry = RetryPolicy(max_attempts=1)
    executor = ShardExecutor("serial", injector=injector, retry=retry)
    results = executor.run([(2, _keys()), (0, _keys()), (1, _keys())])
    ids = [r.task_id if isinstance(r, TaskFailure) else r[0] for r in results]
    assert ids == [0, 1, 2]
    assert sum(isinstance(r, TaskFailure) for r in results) == 1
