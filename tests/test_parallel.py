import concurrent.futures
import multiprocessing
import os
import threading

import pytest

from asgc import fit_logistic, parallel
from asgc.numeric import softmax_objective
from asgc.parallel import parallel_map, usable_cpus
from conftest import split_size_problem


def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)


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
    monkeypatch.setattr(parallel, "_fn", None)  # SerialPool runs the worker initializer here
    two_cpus(monkeypatch)
    assert parallel_map(lambda x: x * x, range(5), jobs=10**6) == [0, 1, 4, 9, 16]
    assert asked == [2]
    # one usable CPU leaves one worker: the items run here and no pool starts
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    assert parallel_map(lambda x: x * x, range(4), jobs=4) == [0, 1, 4, 9]
    assert asked == [2]


def test_usable_cpus_reads_the_affinity_and_1_in_a_worker(monkeypatch):
    two_cpus(monkeypatch)
    assert usable_cpus() == 2
    assert parallel_map(lambda _: usable_cpus(), range(2), jobs=2) == [1, 1]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert usable_cpus() == 1


def spy_on_objective(monkeypatch, raise_on_call=None):
    """Record the ``pool`` argument of every objective call; optionally raise on one call."""
    pools = []

    def spy(*args):
        pools.append(args[-1])
        if len(pools) == raise_on_call:
            raise RuntimeError(f"objective call {raise_on_call}")
        return softmax_objective(*args)

    monkeypatch.setattr("asgc.numeric.softmax_objective", spy)
    return pools


def test_no_helper_thread_outlives_a_fit_that_returns_or_raises(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    x, y = split_size_problem()
    before = threading.active_count()
    pools = spy_on_objective(monkeypatch)
    fit_logistic(x, y)
    assert pools[0] is not None
    assert threading.active_count() == before
    spy_on_objective(monkeypatch, raise_on_call=3)
    with pytest.raises(RuntimeError, match="^objective call 3$"):
        fit_logistic(x, y)
    assert threading.active_count() == before


def test_a_fit_in_a_forked_worker_gets_no_helper_thread(monkeypatch):
    two_cpus(monkeypatch)
    x, y = split_size_problem()
    pools = spy_on_objective(monkeypatch)

    def fit(_):
        fit_logistic(x, y)
        return {pool is None for pool in pools}

    assert parallel_map(fit, range(2), jobs=2) == [{True}, {True}]


def test_workers_fork_cleanly_right_after_a_threaded_fit(monkeypatch):
    # pyproject.toml makes a DeprecationWarning an error, so a fork beside a
    # live thread (which Python 3.12+ warns about) fails here
    two_cpus(monkeypatch)
    x, y = split_size_problem()
    pools = spy_on_objective(monkeypatch)
    fit_logistic(x, y)
    assert pools[0] is not None
    assert parallel_map(lambda v: v + 1, range(2), jobs=2) == [1, 2]
    assert multiprocessing.active_children() == []
