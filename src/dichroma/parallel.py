"""Optional process-based fan-out with deterministic reduction.

Work items carry their own derived random streams and results are
concatenated in item order, so outputs never depend on the worker count.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Sequence, TypeVar

from .errors import DichromaError

T = TypeVar("T")
R = TypeVar("R")

__all__ = ["parallel_map"]


def parallel_map(fn: Callable[[T], R], items: Sequence[T], threads: int) -> list[R]:
    """[fn(x) for x in items], computed by up to ``threads`` forked workers,
    each over one contiguous slice of the items, which are never copied:
    a range of any length costs nothing up front. Never more workers than
    items or CPUs, and serial where there is no fork. The parent computes
    the first chunk itself. A worker's exception is raised here with its
    type; a worker that ends without a result raises DichromaError. Rows
    come back whole and in item order, or not at all."""
    workers = min(threads, len(items), os.cpu_count() or 1)
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(x) for x in items]
    import pickle
    import signal

    cuts = [len(items) * c // workers for c in range(workers + 1)]
    sys.stdout.flush()
    sys.stderr.flush()
    pids: list[int] = []
    unread: list[int] = []
    try:
        for c in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _run_chunk(fn, items[cuts[c]:cuts[c + 1]], write_fd)
            os.close(write_fd)
            pids.append(pid)
            unread.append(read_fd)
        results = [fn(x) for x in items[:cuts[1]]]
        while unread:
            with os.fdopen(unread.pop(0), "rb") as pipe:
                data = pipe.read()
            try:
                ok, payload = pickle.loads(data)
            except Exception:
                raise DichromaError("a worker process ended without a result") from None
            if not ok:
                raise payload
            results.extend(payload)
        return results
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in unread:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)


def _run_chunk(fn, chunk, write_fd: int) -> None:
    """Body of a forked worker: pickles (True, rows) or (False, exception)
    to the pipe and leaves without running the parent's exit handlers; a
    payload that cannot be pickled leaves the pipe empty."""
    import pickle

    code = 1
    try:
        try:
            payload = (True, [fn(x) for x in chunk])
        except BaseException as exc:
            payload = (False, exc)
        data = pickle.dumps(payload)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        os._exit(code)
