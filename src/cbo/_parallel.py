"""Order-preserving thread map with a CBO_THREADS worker cap."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

from .errors import ConfigError


def worker_cap():
    env = os.environ.get("CBO_THREADS")
    if not env:
        return os.cpu_count() or 1
    if not (env.isascii() and env.isdigit() and int(env) > 0):
        raise ConfigError(f"CBO_THREADS: expected a positive integer, got {env!r}")
    return int(env)


def thread_map(fn, items):
    """Apply fn to each item; results keep input order regardless of timing."""
    items = list(items)
    workers = min(len(items), worker_cap())
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
