"""Order-preserving map with optional thread parallelism, and per-item seeds.

Work items must not share mutable state; every experiment item derives its
own RNG stream with :func:`spawn_seed`, so results are identical for any
``jobs``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np


def spawn_seed(seed: int, *key: int) -> int:
    """Seed of the work item at spawn ``key`` (a trial, or a grid point and trial).

    Spawn keys, not arithmetic on the seed, keep the items' streams independent.
    """
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def parallel_map(fn, items, jobs: int = 1) -> list:
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))
