"""Property test: dense and CSR features train the same classifier."""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from asgc import fit_logistic, numeric, predict  # noqa: E402


@st.composite
def sparse_problems(draw):
    """Sparse features at 0-30% density with an all-zero row and column, >= 2 classes."""
    n = draw(st.integers(4, 30))
    f = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.floats(0.0, 0.3))
    n_classes = draw(st.integers(2, 4))
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, f)) * (rng.random((n, f)) < density)
    x[draw(st.integers(0, n - 1))] = 0.0
    x[:, draw(st.integers(0, f - 1))] = 0.0
    y = rng.integers(0, n_classes, size=n)
    y[:2] = [0, 1]
    return x, y


# strongly convex and tightly solved, so both input forms reach one optimum
TIGHT_FIT = {"GRAD_TOL": 1e-9, "L2_STRENGTH": 0.1}


@settings(max_examples=60)
@given(sparse_problems(), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_sparse_and_dense_features_fit_the_same_model(problem, bad):
    x, y = problem
    with mock.patch.multiple(numeric, **TIGHT_FIT):
        dense = fit_logistic(x, y)
        sparse = fit_logistic(sp.csr_matrix(x), y)
    np.testing.assert_allclose(sparse.weights, dense.weights, rtol=0, atol=1e-6)
    np.testing.assert_allclose(sparse.bias, dense.bias, rtol=0, atol=1e-6)
    np.testing.assert_array_equal(predict(sparse, sp.csr_matrix(x)), predict(dense, x))
    x[0, 0] = bad  # non-finite values are stored in the CSR data
    with pytest.raises(ValueError) as dense_error:
        fit_logistic(x, y)
    with pytest.raises(ValueError) as sparse_error:
        fit_logistic(sp.csr_matrix(x), y)
    assert str(sparse_error.value) == str(dense_error.value)
