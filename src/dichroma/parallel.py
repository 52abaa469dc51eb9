"""Optional thread-based fan-out with deterministic reduction.

Work items carry their own derived random streams and results are folded
in item order, so outputs never depend on the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["default_threads", "parallel_map"]


def default_threads() -> int:
    """DICHROMA_THREADS when set to an integer, else 1: the work is pure
    Python under the GIL, and on a 2-core host 2 threads ran slower than 1."""
    env = os.environ.get("DICHROMA_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def parallel_map(fn: Callable[[T], R], items: Iterable[T], threads: int | None) -> list[R]:
    work: Sequence[T] = list(items)
    if threads is None:
        threads = default_threads()
    if threads <= 1 or len(work) <= 1:
        return [fn(x) for x in work]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, work))
