import os

import pytest

from dichroma.errors import BudgetExceededError, DichromaError
from dichroma.parallel import parallel_map


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


@pytest.mark.parametrize("cpus, threads, n, forks", [
    (2, 8, 10, 1),  # capped at the CPU count
    (3, 3, 7, 2),
    (3, 3, 2, 1),  # and at the number of items
    (2, 2, 1, 0),
    (2, 2, 0, 0),
])
def test_workers_are_capped_and_rows_keep_item_order(monkeypatch, cpus, threads, n, forks):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    forked = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(1) or fork())
    assert parallel_map(lambda x: (x, -x), range(n), threads) == [(x, -x) for x in range(n)]
    assert len(forked) == forks


def test_no_fork_runs_serially(monkeypatch, two_cpus):
    monkeypatch.delattr(os, "fork")
    assert parallel_map(str, range(4), 2) == ["0", "1", "2", "3"]


def test_worker_exception_keeps_its_type(two_cpus):
    parent = os.getpid()

    def fn(x):
        if os.getpid() != parent and x == 8:
            raise BudgetExceededError("out of time in a worker")
        return x

    with pytest.raises(BudgetExceededError, match="in a worker"):
        parallel_map(fn, range(10), 2)


def test_worker_without_a_result_raises(two_cpus):
    parent = os.getpid()
    rows = []

    def fn(x):
        if os.getpid() != parent:
            os._exit(7)
        rows.append(x)
        return x

    with pytest.raises(DichromaError, match="without a result"):
        rows.append(parallel_map(fn, range(10), 2))
    assert rows == [0, 1, 2, 3, 4]
