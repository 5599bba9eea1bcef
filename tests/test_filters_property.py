"""Property tests: the chunked adaptive filter equals its one-column-at-a-time
loop, sparse inputs filter to the bits of their dense form, and permuting or
repeating feature columns permutes or repeats both filters' outputs."""

import numpy as np
import pytest
import scipy.sparse as sp

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from asgc import asgc_filter, sgc_filter  # noqa: E402
from conftest import random_graph  # noqa: E402
from test_filters import assert_asgc_equals_per_column_loop  # noqa: E402


@st.composite
def filter_problems(draw):
    """2-30 nodes with isolated nodes allowed; features with a zero and a constant column."""
    n = draw(st.integers(2, 30))
    f = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    p = draw(st.floats(0.0, 0.5))
    rng = np.random.default_rng(seed)
    g = random_graph(n, p, rng, ensure_min_degree=False)
    x = rng.standard_normal((n, f))
    x[:, draw(st.integers(0, f - 1))] = 0.0
    x[:, draw(st.integers(0, f - 1))] = draw(st.floats(-3.0, 3.0))
    return g, x


@settings(max_examples=60, deadline=None, derandomize=True)
@given(filter_problems(), st.one_of(st.integers(1, 5), st.sampled_from([9, 10])))
def test_asgc_equals_per_column_loop(problem, k_hops):
    g, x = problem
    assert_asgc_equals_per_column_loop(g, x, k_hops)


@st.composite
def sparse_filter_problems(draw):
    """1-30 nodes with isolated nodes allowed; 1-40 sparse feature columns.

    About a fifth of the stored entries are explicit zeros; one column stores
    nothing and one (possibly the same) stores only zeros.
    """
    n = draw(st.integers(1, 30))
    f = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    p = draw(st.floats(0.0, 0.5))
    density = draw(st.floats(0.0, 0.5))
    rng = np.random.default_rng(seed)
    g = random_graph(n, p, rng, ensure_min_degree=False)
    x = rng.standard_normal((n, f)) * (rng.random((n, f)) < density)
    x[:, draw(st.integers(0, f - 1))] = 0.0
    x = sp.csc_matrix(x)
    x.data[rng.random(x.nnz) < 0.2] = 0.0
    j = draw(st.integers(0, f - 1))
    x.data[x.indptr[j] : x.indptr[j + 1]] = 0.0
    return g, x


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sparse_filter_problems(), st.integers(1, 5))
def test_sparse_and_dense_features_filter_to_the_same_bits(problem, k_hops):
    g, x = problem
    dense = x.toarray()
    want_sgc = sgc_filter(g, dense, k_hops)
    want = asgc_filter(g, dense, k_hops)
    for form in (x.tocsr(), x, dense):
        assert np.array_equal(sgc_filter(g, form, k_hops), want_sgc)
        got = asgc_filter(g, form, k_hops)
        for field in ("filtered", "coefficients", "residual_norms"):
            assert np.array_equal(getattr(got, field), getattr(want, field)), field


@st.composite
def column_maps(draw):
    """A filter problem and a column map: a permutation, or any repeats of columns."""
    g, x = draw(filter_problems())
    f = x.shape[1]
    repeats = st.lists(st.integers(0, f - 1), min_size=1, max_size=2 * f)
    cols = draw(st.one_of(st.permutations(range(f)), repeats))
    return g, x, np.asarray(cols, dtype=np.intp)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(column_maps(), st.integers(1, 10))
def test_column_maps_commute_with_both_filters_bit_for_bit(problem, k_hops):
    g, x, cols = problem
    want_sgc = sgc_filter(g, x, k_hops)[:, cols]
    want = asgc_filter(g, x, k_hops)
    for mapped in (x[:, cols], sp.csr_matrix(x)[:, cols]):
        assert np.array_equal(sgc_filter(g, mapped, k_hops), want_sgc)
        got = asgc_filter(g, mapped, k_hops)
        assert np.array_equal(got.filtered, want.filtered[:, cols])
        assert np.array_equal(got.coefficients, want.coefficients[cols])
        assert np.array_equal(got.residual_norms, want.residual_norms[cols])
