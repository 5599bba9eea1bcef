"""Property test: ``Graph.from_edges`` yields a clean symmetric 0/1 CSR."""

import numpy as np
import pytest
import scipy.sparse as sp

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from asgc import Graph, normalized_adjacency  # noqa: E402


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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(edge_lists())
def test_from_edges_builds_a_symmetric_canonical_loop_free_0_1_csr(case):
    n, edges = case
    g = Graph.from_edges(n, edges)
    a = g.adjacency
    assert isinstance(a, sp.csr_matrix) and a.shape == (n, n)
    assert a.has_canonical_format
    for i in range(n):
        assert np.all(np.diff(g.neighbors(i)) > 0)
    assert (a != a.T).nnz == 0
    assert not a.diagonal().any()
    assert np.all(a.data == 1.0)
    distinct = {frozenset(p) for p in edges if p[0] != p[1]}
    assert g.edge_count == len(distinct)
    want = np.zeros((n, n))
    for i, j in map(tuple, distinct):
        want[i, j] = want[j, i] = 1.0
    np.testing.assert_array_equal(a.toarray(), want)
    before = [arr.copy() for arr in (a.data, a.indices, a.indptr)]
    for loops in (False, True):
        normalized_adjacency(g, loops)
        assert g.adjacency is a
        for old, new in zip(before, (a.data, a.indices, a.indptr)):
            np.testing.assert_array_equal(new, old)
