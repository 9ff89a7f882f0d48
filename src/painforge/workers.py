"""The one worker-count and fan-out rule, shared by dataset builds and inference."""

from __future__ import annotations

import os

from .errors import ConfigError


def worker_count() -> int:
    """``PAINFORGE_THREADS`` (at least 1) if set, else the CPUs this process may use."""
    raw = os.environ.get("PAINFORGE_THREADS")
    if raw is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ConfigError(f"PAINFORGE_THREADS must be an integer, got {raw!r}") from exc
    if workers < 1:
        raise ConfigError(
            f"the worker count (PAINFORGE_THREADS) must be >= 1, got {workers}")
    return workers


def map_in_order(fn, items, executor, workers: int) -> list:
    """``[fn(item) for item in items]`` on up to ``workers`` workers.

    The count is capped at the number of items. With one worker the items run
    in this thread; otherwise on ``executor(max_workers=count)``, a thread or
    process pool class. Results keep the items' order either way.
    """
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with executor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
