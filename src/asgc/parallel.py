"""Order-preserving map with optional process parallelism, and per-item seeds.

With ``jobs > 1`` the items run on a process pool, so a work item that holds
the GIL still gets its own core. The workers fork after ``fn`` and everything
it closes over exist, so ``fn`` reaches them without pickling; items and
results are pickled. Forking, not spawning, spares each worker a fresh import
of asgc (~0.3 s, most of what a second core saves on ``synth``). A work
item's writes to shared state stay in its worker and are lost, so items must
return everything they produce. Every experiment item derives its own RNG
stream with :func:`spawn_seed`, so results are identical for any ``jobs``.

:func:`usable_cpus` is the one CPU budget: ``parallel_map`` caps its workers
with it, and ``fit_logistic`` starts its helper thread only where it reads 2
or more. A forked worker reads 1, so ``--jobs 2`` never runs two threads in
each of two workers on two cores.
"""

from __future__ import annotations

import os

import numpy as np

_fn = None  # the mapped function, set in each worker by _init


def spawn_seed(seed: int, *key: int) -> int:
    """Seed of the work item at spawn ``key`` (a trial, or a grid point and trial).

    Spawn keys, not arithmetic on the seed, keep the items' streams independent.
    """
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def usable_cpus() -> int:
    """The CPUs this process may run on; 1 inside a :func:`parallel_map` worker."""
    if _fn is not None:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return cpus or 1


def _init(fn) -> None:
    global _fn
    _fn = fn


def _call(item):
    return _fn(item)


def parallel_map(fn, items, jobs: int = 1) -> list:
    """``[fn(item) for item in items]``, on forked processes when ``jobs > 1``.

    There are at most ``jobs`` workers, one per item at most, and never more
    than the CPUs this process may run on. Where that leaves one worker, the
    items run in this process and no pool is started.

    A new pool starts for each call and every worker is joined before this
    returns, also when an item raises; the caller gets that item's exception.
    """
    items = list(items)
    workers = min(jobs, len(items), usable_cpus())
    if workers <= 1:
        return [fn(item) for item in items]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        workers, mp_context=multiprocessing.get_context("fork"),
        initializer=_init, initargs=(fn,),
    ) as pool:
        return list(pool.map(_call, items, chunksize=max(1, len(items) // (4 * workers))))
