"""Order-preserving map over forked worker processes, at most CBO_THREADS:
``ProcessPoolExecutor.map`` on a ``fork`` context.

The function and the items sit in a module global that every forked
worker inherits, so closures are never pickled: a worker gets an item's
index and sends back its result or its error by pickle.  Workers ignore
SIGINT, so an interrupt is the parent's alone: it cancels the items not yet
started and waits for the running ones, ignoring a further interrupt while
it waits.  The pool module is imported inside the map, so a route that
maps nothing never loads it.  ``thread_map`` keeps the name of the thread
pool it replaced, which the bench tracer looks up.
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
    """Apply fn to each item in worker processes, by ``Executor.map``:
    results keep input order regardless of timing, the first failing item
    in order raises its error, and the items not yet started are cancelled
    on the way out.  A worker that dies raises ``WorkerLostError`` with the
    items from the first result that did not come back.  Workers ignore
    SIGINT: an interrupt reaches the caller as ``KeyboardInterrupt`` once
    the running items finish, and a second one while they do is ignored.
    With one worker the map runs in this process, and so does a map called
    in a worker, which never forks a pool of its own, or in a second thread
    while a pool runs."""
    global _task
    items = list(items)
    workers = min(len(items), worker_cap())
    if workers <= 1 or not _forking.acquire(blocking=False):  # a worker inherits it held
        return [fn(item) for item in items]
    try:
        import multiprocessing
        import signal
        from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

        _task = fn, items
        results = []
        # the first submit forks every worker before the pool starts its thread
        with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                                 initializer=signal.signal,
                                 initargs=(signal.SIGINT, signal.SIG_IGN)) as pool:
            try:  # extend keeps the results that came back before an error
                results.extend(pool.map(_run_item, range(len(items))))
            except BrokenProcessPool:
                lost = items[len(results):]
                raise WorkerLostError(f"a worker process died before returning {len(lost)} "
                                      f"of {len(items)} results", lost) from None
            except KeyboardInterrupt:
                # a second interrupt would cut this wait short, and the
                # pool's shutdown would then never reach the workers, a
                # hang for good: ignore it while the running items finish
                handler = signal.signal(signal.SIGINT, signal.SIG_IGN)
                try:
                    pool.shutdown(cancel_futures=True)
                finally:
                    signal.signal(signal.SIGINT, handler)
                raise
        return results
    finally:
        _task = None
        _forking.release()
