"""Order-preserving map over forked worker processes, at most CBO_THREADS.

The function and the items sit in a module global that every forked
worker inherits, so closures are never pickled: a worker gets an item's
index and sends back its result or its error by pickle.  The pool module
is imported inside the map, so a route that maps nothing never loads it.
``thread_map`` keeps the name of the thread pool it replaced, which the
bench tracer looks up.
"""

from __future__ import annotations

import os
import threading

from .errors import ConfigError, WorkerLostError

# (fn, items) of the map in progress, which each forked worker inherits;
# the lock is held while a pool runs
_task = None
_forking = threading.Lock()


def worker_cap():
    env = os.environ.get("CBO_THREADS")
    if not env:
        # the CPUs this process may run on: a second worker on one CPU only forks and pickles
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if not (env.isascii() and env.isdigit() and int(env) > 0):
        raise ConfigError(f"CBO_THREADS: expected a positive integer, got {env!r}")
    return int(env)


def _run_item(index):
    fn, items = _task
    return fn(items[index])


def thread_map(fn, items):
    """Apply fn to each item in worker processes; results keep input order
    regardless of timing, and the first failing item in order raises its
    error.  A worker that dies raises ``WorkerLostError`` with the items
    whose results went with it.  With one worker the map runs in this
    process, and so does a map called in a worker, which never forks a pool
    of its own, or in a second thread while a pool runs."""
    global _task
    items = list(items)
    workers = min(len(items), worker_cap())
    if workers <= 1 or not _forking.acquire(blocking=False):  # a worker inherits it held
        return [fn(item) for item in items]
    try:
        import multiprocessing
        from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        _task = fn, items
        pool = ProcessPoolExecutor(workers, multiprocessing.get_context("fork"))
        try:
            # the first submit forks every worker before the pool starts its thread
            futures = [pool.submit(_run_item, i) for i in range(len(items))]
            wait(futures, return_when=FIRST_EXCEPTION)
        finally:
            pool.shutdown(cancel_futures=True)
    finally:
        _task = None
        _forking.release()
    try:
        return [future.result() for future in futures]
    except BrokenProcessPool:
        lost = [item for item, future in zip(items, futures)
                if not future.cancelled() and isinstance(future.exception(), BrokenProcessPool)]
        raise WorkerLostError(f"a worker process died before returning {len(lost)} "
                              f"of {len(items)} results", lost) from None
