"""Property tests: the in-place row reorder behind split-ordered fits equals a
row gather, and reordering back restores the bytes."""

import numpy as np
import pytest
import scipy.sparse as sp

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from asgc.experiments import _reorder_rows, _rows_in_order  # noqa: E402


@st.composite
def permuted_rows(draw):
    """0-64 rows and a permutation of them: random, the identity, or one n-cycle."""
    n = draw(st.integers(0, 64))
    kind = draw(st.sampled_from(["random", "identity", "cycle"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "identity":
        order = np.arange(n)
    elif kind == "cycle":
        order = np.roll(np.arange(n), 1)
    else:
        order = rng.permutation(n)
    return rng.standard_normal((n, draw(st.integers(1, 5)))), order


@settings(max_examples=200, deadline=None, derandomize=True)
@given(permuted_rows())
def test_reorder_equals_a_gather_and_reorders_back(case):
    x, order = case
    y = x.copy()
    _reorder_rows(y, order)
    assert y.tobytes() == x[order].tobytes()
    _reorder_rows(y, np.argsort(order))
    assert y.tobytes() == x.tobytes()


@settings(max_examples=50, deadline=None, derandomize=True)
@given(permuted_rows())
def test_rows_in_order_restores_the_array_it_reordered(case):
    x, order = case
    y = x.copy()
    with _rows_in_order(y, order) as inside:
        assert inside is y
        assert inside.tobytes() == x[order].tobytes()
    assert y.tobytes() == x.tobytes()
    with _rows_in_order(sp.csr_matrix(x), order) as inside:
        assert np.array_equal(inside.toarray(), x[order])
