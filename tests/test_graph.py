import dataclasses

import numpy as np
import pytest

from asgc import (
    Graph,
    GraphError,
    degrees,
    laplacian_quadratic_form,
    normalized_adjacency,
    propagate,
)
from conftest import (
    dense_normalized_adjacency,
    path_graph,
    random_graph,
    single_edge_graph,
    triangle_graph,
)


def test_degrees_single_edge():
    assert degrees(single_edge_graph()).tolist() == [1, 1]


def test_degrees_triangle():
    assert degrees(triangle_graph()).tolist() == [2, 2, 2]


def test_degrees_isolated_node():
    g = Graph.from_edges(3, [[0, 1]])
    assert degrees(g).tolist() == [1, 1, 0]


def test_from_edges_symmetrizes_dedupes_and_drops_loops():
    g = Graph.from_edges(3, [[0, 1], [1, 0], [1, 2], [1, 2], [2, 2]])
    assert g.edge_count == 2
    assert g.neighbors(1).tolist() == [0, 2]


def test_from_edges_rejects_out_of_range():
    with pytest.raises(GraphError):
        Graph.from_edges(2, [[0, 5]])


def test_from_edges_rejects_non_integer_endpoints():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [[0.5, 1.7]])


def test_from_edges_rejects_negative_node_count():
    with pytest.raises(GraphError):
        Graph.from_edges(-1, [])


def test_graph_is_its_one_adjacency_csr():
    g = path_graph(4)
    assert [f.name for f in dataclasses.fields(Graph)] == ["adjacency"]
    assert g.adjacency is g.adjacency
    assert not hasattr(Graph, "__post_init__")


def test_normalized_adjacency_single_edge():
    s = normalized_adjacency(single_edge_graph(), add_self_loops=False)
    assert np.array_equal(s.matrix().toarray(), [[0.0, 1.0], [1.0, 0.0]])
    assert not s.with_self_loops


def test_normalized_adjacency_single_edge_self_loops():
    s = normalized_adjacency(single_edge_graph(), add_self_loops=True)
    assert np.array_equal(s.matrix().toarray(), [[0.5, 0.5], [0.5, 0.5]])
    assert s.with_self_loops


def test_normalized_adjacency_path_matches_dense_oracle():
    g = path_graph(4)
    for loops in (False, True):
        got = normalized_adjacency(g, loops).matrix().toarray()
        want = dense_normalized_adjacency(g, loops)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


def test_normalized_adjacency_is_exactly_symmetric():
    rng = np.random.default_rng(7)
    for loops in (False, True):
        g = random_graph(40, 0.1, rng)
        d = normalized_adjacency(g, loops).matrix().toarray()
        assert np.array_equal(d, d.T)


def test_diagonal_conventions():
    rng = np.random.default_rng(8)
    g = random_graph(30, 0.15, rng)
    assert np.all(np.diag(normalized_adjacency(g, True).matrix().toarray()) > 0)
    assert np.all(np.diag(normalized_adjacency(g, False).matrix().toarray()) == 0)


def test_zero_degree_rows_are_zero_without_self_loops():
    g = Graph.from_edges(3, [[0, 1]])
    d = normalized_adjacency(g, add_self_loops=False).matrix().toarray()
    assert np.all(d[2] == 0) and np.all(d[:, 2] == 0)
    # with self-loops the isolated node keeps a unit diagonal entry
    d = normalized_adjacency(g, add_self_loops=True).matrix().toarray()
    assert d[2, 2] == 1.0


@pytest.mark.parametrize("loops", [False, True])
def test_eigenvalues_within_unit_interval(loops):
    rng = np.random.default_rng(11)
    for _ in range(5):
        g = random_graph(60, 0.08, rng)
        vals = np.linalg.eigvalsh(normalized_adjacency(g, loops).matrix().toarray())
        assert np.max(np.abs(vals)) <= 1 + 1e-9


def test_operator_holds_one_csr():
    op = normalized_adjacency(path_graph(5), True)
    assert [f.name for f in dataclasses.fields(op)] == ["csr", "with_self_loops"]
    assert op.matrix() is op.matrix()


def test_propagate_swaps_under_single_edge():
    op = normalized_adjacency(single_edge_graph(), False)
    np.testing.assert_array_equal(propagate(op, np.array([1.0, -1.0])), [-1.0, 1.0])


def test_propagate_self_loop_annihilates_odd_feature():
    op = normalized_adjacency(single_edge_graph(), True)
    np.testing.assert_array_equal(propagate(op, np.array([1.0, -1.0])), [0.0, 0.0])


def test_propagate_matches_dense_product():
    rng = np.random.default_rng(3)
    g = random_graph(50, 0.1, rng)
    x = rng.standard_normal((50, 4))
    for loops in (False, True):
        op = normalized_adjacency(g, loops)
        dense = dense_normalized_adjacency(g, loops)
        got = propagate(op, x)
        want = dense @ x
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


def test_propagate_rejects_wrong_length():
    op = normalized_adjacency(single_edge_graph(), False)
    with pytest.raises(GraphError):
        propagate(op, np.ones(3))


def test_propagate_rejection_names_the_shape_it_got():
    op = normalized_adjacency(triangle_graph(), False)
    with pytest.raises(GraphError, match=r"got \(3, 3, 1\)"):
        propagate(op, np.ones((3, 3, 1)))


def test_quadratic_form_single_edge():
    value = laplacian_quadratic_form(single_edge_graph(), np.array([1.0, -1.0]))
    assert value == pytest.approx(4.0, abs=1e-12)


def test_quadratic_form_null_vector():
    rng = np.random.default_rng(5)
    g = random_graph(25, 0.2, rng)
    x = np.sqrt(degrees(g).astype(float))
    assert laplacian_quadratic_form(g, x) == pytest.approx(0.0, abs=1e-9)


def test_quadratic_form_rejects_isolated_nodes():
    g = Graph.from_edges(3, [[0, 1]])
    with pytest.raises(GraphError):
        laplacian_quadratic_form(g, np.ones(3))


def edgewise_quadratic_form(g, x):
    # sum over ordered pairs of A_ij (x_i / sqrt(d_i) - x_j / sqrt(d_j))^2 / 2
    d = degrees(g).astype(float)
    total = 0.0
    for i in range(g.n):
        for j in g.neighbors(i):
            total += (x[i] / np.sqrt(d[i]) - x[j] / np.sqrt(d[j])) ** 2
    return total / 2.0


def test_quadratic_form_identity_on_random_instances():
    rng = np.random.default_rng(17)
    for _ in range(20):
        g = random_graph(30, 0.15, rng)
        x = rng.standard_normal(30)
        left = laplacian_quadratic_form(g, x)
        right = edgewise_quadratic_form(g, x)
        assert abs(left - right) <= 1e-10 * max(1.0, abs(left), abs(right))
