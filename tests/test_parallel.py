import multiprocessing

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
