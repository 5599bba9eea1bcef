import concurrent.futures
import multiprocessing
import os

import pytest

from asgc.parallel import parallel_map


def test_no_worker_outlives_parallel_map():
    assert parallel_map(lambda x: x * x, range(5), jobs=2) == [0, 1, 4, 9, 16]
    assert multiprocessing.active_children() == []


def test_an_item_error_reaches_the_caller_and_no_worker_outlives_it():
    def fn(x):
        if x == 3:
            raise ValueError("item 3")
        return x

    with pytest.raises(ValueError, match=r"^item 3$"):
        parallel_map(fn, range(5), jobs=2)
    assert multiprocessing.active_children() == []


def test_workers_are_capped_at_the_usable_cpus(monkeypatch):
    asked = []

    class SerialPool:  # records the worker count and maps in this process: no fork
        def __init__(self, workers, mp_context=None, initializer=None, initargs=()):
            asked.append(workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert parallel_map(lambda x: x * x, range(5), jobs=10**6) == [0, 1, 4, 9, 16]
    assert asked == [2]
    # one usable CPU leaves one worker: the items run here and no pool starts
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert parallel_map(lambda x: x * x, range(4), jobs=4) == [0, 1, 4, 9]
    assert asked == [2]
