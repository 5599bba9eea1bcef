"""The dense objective's split products give the one-product bits.

Pre-registered before its first run: n and f drawn from [1024, 2200] (so
mostly not multiples of 8), 2-40 classes, 30 derandomized examples plus the
four shapes pinned with ``@example``. At each shape the objective with a
helper thread, without one, and the one-product reference must agree bit for
bit in the loss and the gradient.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from asgc import fit_logistic, parallel  # noqa: E402
from asgc.numeric import SPLIT_MIN, softmax_objective  # noqa: E402
from conftest import reference_softmax_objective, split_size_problem  # noqa: E402

SIZES = st.integers(SPLIT_MIN, 2200)


@settings(max_examples=30)
@given(n=SIZES, f=SIZES, n_classes=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
@example(n=2166, f=1433, n_classes=7, seed=0)  # the het-sweep training block
@example(n=1024, f=1024, n_classes=2, seed=1)
@example(n=2200, f=2200, n_classes=40, seed=2)
@example(n=1031, f=2199, n_classes=3, seed=3)
def test_split_products_give_the_one_product_bits(n, f, n_classes, seed):
    rng = np.random.default_rng(seed)
    x = np.where(rng.random((n, f)) < 0.1, rng.standard_normal((n, f)), 0.0)
    params = 0.1 * rng.standard_normal(f * n_classes + n_classes)
    y_index = rng.integers(0, n_classes, n)
    args = (params, x, y_index, n_classes, 1e-4)
    want_loss, want_grad = reference_softmax_objective(*args)
    with ThreadPoolExecutor(1) as pool:
        for loss, grad in (softmax_objective(*args, pool), softmax_objective(*args)):
            assert loss == want_loss
            assert np.array_equal(grad, want_grad)


def test_fit_is_bit_equal_with_and_without_the_helper_thread(monkeypatch):
    pools = []

    def spy(*args):
        pools.append(args[-1])
        return softmax_objective(*args)

    monkeypatch.setattr("asgc.numeric.softmax_objective", spy)
    x, y = split_size_problem()
    models = []
    for cpus in (1, 2):
        monkeypatch.setattr(parallel, "usable_cpus", lambda cpus=cpus: cpus)
        pools.clear()
        models.append(fit_logistic(x, y))
        assert {pool is None for pool in pools} == {cpus == 1}
    one, two = models
    assert np.array_equal(one.weights, two.weights)
    assert np.array_equal(one.bias, two.bias)
