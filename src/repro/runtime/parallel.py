"""The batch scheduler's worker pool.

:func:`repro.runtime.scheduler.run_plan` fans its pending representative
solves out over a ``multiprocessing`` spawn pool.  Spawning a worker costs
hundreds of milliseconds, so pools are cached per worker count
(:func:`get_pool`) and torn down at interpreter exit (:func:`shutdown_pools`).
"""

from __future__ import annotations

import atexit
from typing import Dict

__all__ = ["ShardPool", "get_pool", "shutdown_pools"]


class ShardPool:
    """A persistent spawn-context worker pool for the batch scheduler.

    Spawn (not fork): the solver may run under numpy/BLAS threads and
    inside the supervised batch runtime, where forked children inherit
    undefined lock state.  The pool is reused across batches, so callers
    get it from :func:`get_pool` rather than constructing one per batch.
    The class keeps its historical name because the benchmark harness
    traces ``ShardPool.map`` as the pool-wait layer.
    """

    def __init__(self, workers: int):
        import multiprocessing

        self.workers = max(1, int(workers))
        self._pool = multiprocessing.get_context("spawn").Pool(processes=self.workers)

    def map(self, func, items):
        return self._pool.map(func, items)

    def close(self) -> None:
        try:
            self._pool.terminate()
            self._pool.join()
        except Exception:  # pragma: no cover
            pass


_POOLS: Dict[int, ShardPool] = {}


def get_pool(workers: int) -> ShardPool:
    """The cached process pool with ``workers`` processes (created on first use)."""
    workers = max(1, int(workers))
    pool = _POOLS.get(workers)
    if pool is None:
        pool = ShardPool(workers)
        _POOLS[workers] = pool
    return pool


def shutdown_pools() -> None:
    """Terminate every cached pool (atexit; also used by tests)."""
    for pool in list(_POOLS.values()):
        pool.close()
    _POOLS.clear()


atexit.register(shutdown_pools)
