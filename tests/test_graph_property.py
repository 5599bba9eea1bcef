"""Property tests: ``Graph.from_edges`` yields a clean symmetric 0/1 CSR, and
both graph constructors give the same bytes as plain scipy construction."""

import numpy as np
import pytest
import scipy.sparse as sp

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from asgc import Graph, SbmConfig, generate_sbm, normalized_adjacency  # noqa: E402
from conftest import reference_normalized_adjacency  # noqa: E402


@st.composite
def edge_lists(draw):
    """Pairs with duplicates, reversals and self-loops; nodes >= ``m`` stay isolated."""
    n = draw(st.integers(0, 30))
    m = draw(st.integers(0, n))
    if m == 0:
        return n, []
    node = st.integers(0, m - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=60))
    if pairs:
        pick = st.integers(0, len(pairs) - 1)
        pairs += [pairs[i] for i in draw(st.lists(pick, max_size=10))]
        pairs += [pairs[i][::-1] for i in draw(st.lists(pick, max_size=10))]
    pairs += [(i, i) for i in draw(st.lists(node, max_size=5))]
    return n, draw(st.permutations(pairs))


@settings(max_examples=100)
@given(edge_lists())
def test_from_edges_builds_a_symmetric_canonical_loop_free_0_1_csr(case):
    n, edges = case
    g = Graph.from_edges(n, edges)
    a = g.adjacency
    assert isinstance(a, sp.csr_matrix) and a.shape == (n, n)
    assert a.has_canonical_format
    for i in range(n):
        assert np.all(np.diff(a.indices[a.indptr[i] : a.indptr[i + 1]]) > 0)
    assert (a != a.T).nnz == 0
    assert not a.diagonal().any()
    assert np.all(a.data == 1.0)
    distinct = {frozenset(p) for p in edges if p[0] != p[1]}
    assert a.nnz // 2 == len(distinct)
    want = np.zeros((n, n))
    for i, j in map(tuple, distinct):
        want[i, j] = want[j, i] = 1.0
    np.testing.assert_array_equal(a.toarray(), want)
    before = [arr.copy() for arr in (a.data, a.indices, a.indptr)]
    for loops in (False, True):
        op = normalized_adjacency(g, loops).csr
        assert g.adjacency is a
        for old, new in zip(before, (a.data, a.indices, a.indptr)):
            np.testing.assert_array_equal(new, old)
        for mine in (op.data, op.indices, op.indptr):
            for theirs in (a.data, a.indices, a.indptr):
                assert not np.shares_memory(mine, theirs)


def coo_adjacency(n, edges):
    """The adjacency built through scipy's COO -> CSR conversion."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    e = e[e[:, 0] != e[:, 1]]
    rows, cols = np.concatenate([e[:, 0], e[:, 1]]), np.concatenate([e[:, 1], e[:, 0]])
    a = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n)).tocsr()
    a.data[:] = 1.0
    return a


def assert_same_csr_bytes(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert g.tobytes() == w.tobytes(), name


def assert_matches_reference(g, edges):
    want = coo_adjacency(g.n, edges)
    assert_same_csr_bytes(g.adjacency, want)
    for loops in (False, True):
        assert_same_csr_bytes(
            normalized_adjacency(g, loops).csr, reference_normalized_adjacency(want, loops)
        )


@settings(max_examples=200)
@given(edge_lists())
def test_graph_constructors_give_the_bytes_of_scipy_construction(case):
    n, edges = case
    assert_matches_reference(Graph.from_edges(n, edges), edges)


@pytest.mark.parametrize("seed", range(3))
def test_wide_key_graphs_give_the_bytes_of_scipy_construction(seed):
    n = 100_000  # edge keys row * n + col up to 1e10, past 2**32
    rng = np.random.default_rng(seed)
    edges = rng.integers(n - 2_000, n, size=(3_000, 2))
    edges = np.concatenate([edges, edges[:500, ::-1], edges[:100, [0, 0]], [[0, n - 1]]])
    assert_matches_reference(Graph.from_edges(n, edges), edges)


@pytest.mark.parametrize("log_ratio, seed", [(-3.0, 0), (-0.5, 7), (0.0, 1), (2.5, 42)])
def test_sbm_graphs_give_the_bytes_of_scipy_construction(log_ratio, seed):
    g, _, _ = generate_sbm(SbmConfig(log_ratio=log_ratio, seed=seed))
    edges = np.argwhere(sp.triu(g.adjacency).toarray())
    edges = np.random.default_rng(seed).permutation(edges)
    assert_matches_reference(g, edges)
    assert_same_csr_bytes(Graph.from_edges(g.n, edges).adjacency, g.adjacency)
