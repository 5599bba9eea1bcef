"""Property tests: the chunked adaptive filter equals its one-column-at-a-time
loop, sparse inputs filter to the bits of their dense form, and permuting or
repeating feature columns permutes or repeats both filters' outputs. Three
metamorphic properties on the nodes: disjoint components, appended isolated
nodes and node relabeling."""

import numpy as np
import pytest
import scipy.sparse as sp

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from asgc import Graph, LabeledDataset, asgc_filter, homophily, sgc_filter  # noqa: E402
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


def edge_pairs(g):
    """One (i, j) row per undirected edge of ``g``, i < j."""
    return np.column_stack(sp.triu(g.adjacency).nonzero())


def assert_close_to_largest(got, want, rtol):
    """Every entry of ``got`` within ``rtol`` times the largest magnitude in ``want``."""
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= rtol * np.abs(want).max(initial=0.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(filter_problems(), st.integers(2, 30), st.integers(0, 2**32 - 1), st.integers(1, 10))
def test_sgc_on_a_disjoint_union_is_each_components_output_bit_for_bit(problem, n2, seed, k_hops):
    # asgc has no such property: one coefficient vector per feature serves both components
    g1, x1 = problem
    rng = np.random.default_rng(seed)
    g2 = random_graph(n2, 0.2, rng, ensure_min_degree=False)
    x2 = rng.standard_normal((n2, x1.shape[1]))
    union = Graph.from_edges(g1.n + n2, np.vstack([edge_pairs(g1), edge_pairs(g2) + g1.n]))
    got = sgc_filter(union, np.vstack([x1, x2]), k_hops)
    assert np.array_equal(got[: g1.n], sgc_filter(g1, x1, k_hops))
    assert np.array_equal(got[g1.n :], sgc_filter(g2, x2, k_hops))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(filter_problems(), st.integers(1, 5), st.integers(1, 10))
def test_appended_isolated_nodes_change_no_asgc_fit(problem, extra, k_hops):
    # their basis rows are zero, and so are their features here, so each
    # least-squares problem only gains zero rows
    g, x = problem
    want = asgc_filter(g, x, k_hops)
    padded = Graph.from_edges(g.n + extra, edge_pairs(g))
    got = asgc_filter(padded, np.vstack([x, np.zeros((extra, x.shape[1]))]), k_hops)
    assert np.array_equal(got.filtered[g.n :], np.zeros((extra, x.shape[1])))
    assert_close_to_largest(got.filtered[: g.n], want.filtered, 1e-12)
    assert_close_to_largest(got.coefficients, want.coefficients, 1e-12)
    # an exact fit's residual is rounding noise, so it is bounded on its target's scale
    target_scale = np.linalg.norm(x, axis=0).max()
    assert np.abs(got.residual_norms - want.residual_norms).max() <= 1e-12 * target_scale


@settings(max_examples=40, deadline=None, derandomize=True)
@given(filter_problems(), st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_relabeling_nodes_permutes_both_filters_and_keeps_homophily(problem, seed, k_hops):
    # the summation order in each hop changes with the labels, so outputs agree
    # to a tolerance; homophily counts integers per node and must be exact
    g, x = problem
    rng = np.random.default_rng(seed)
    perm = rng.permutation(g.n)  # node i of the relabeled graph is node perm[i]
    new_id = np.argsort(perm)
    relabeled = Graph.from_edges(g.n, new_id[edge_pairs(g)])
    assert_close_to_largest(
        sgc_filter(relabeled, x[perm], k_hops), sgc_filter(g, x, k_hops)[perm], 1e-13
    )
    want = asgc_filter(g, x, k_hops)
    got = asgc_filter(relabeled, x[perm], k_hops)
    assert_close_to_largest(got.filtered, want.filtered[perm], 1e-10)
    assert_close_to_largest(got.coefficients, want.coefficients, 1e-10)
    assert_close_to_largest(got.residual_norms, want.residual_norms, 1e-10)
    if g.adjacency.nnz:
        labels = rng.integers(0, 3, g.n)
        before = LabeledDataset("g", g, x, labels)
        after = LabeledDataset("g", relabeled, x[perm], labels[perm])
        assert homophily(after) == homophily(before)
