import numpy as np
import pytest
import scipy.sparse as sp

import asgc.filters
from asgc import (
    Graph,
    GraphError,
    asgc_filter,
    blend,
    least_squares,
    normalized_adjacency,
    propagate,
    sgc_filter,
    simplex_grid,
)
from conftest import dense_normalized_adjacency, random_graph, single_edge_graph, traced_peak


# --- fixed smoothing filter ----------------------------------------------------


def test_sgc_annihilates_odd_vector_on_single_edge():
    out = sgc_filter(single_edge_graph(), np.array([1.0, -1.0]), 1)
    np.testing.assert_array_equal(out, [0.0, 0.0])


@pytest.mark.parametrize("k", [1, 2, 5])
def test_sgc_fixes_unit_eigenvector(k):
    out = sgc_filter(single_edge_graph(), np.array([1.0, 1.0]), k)
    np.testing.assert_array_equal(out, [1.0, 1.0])


def test_sgc_matches_dense_power_oracle():
    rng = np.random.default_rng(10)
    g = random_graph(30, 0.15, rng)
    x = rng.standard_normal((30, 3))
    dense = dense_normalized_adjacency(g, add_self_loops=True)
    want = np.linalg.matrix_power(dense, 3) @ x
    got = sgc_filter(g, x, 3)
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


def test_sgc_k1_is_exactly_one_propagation():
    rng = np.random.default_rng(11)
    g = random_graph(20, 0.2, rng)
    x = rng.standard_normal((20, 2))
    op = normalized_adjacency(g, add_self_loops=True)
    assert np.array_equal(sgc_filter(g, x, 1), propagate(op, x))


def test_sgc_rejects_bad_hops():
    with pytest.raises(ValueError):
        sgc_filter(single_edge_graph(), np.ones(2), 0)


# --- adaptive filter ------------------------------------------------------------


def test_asgc_rejects_bad_hops():
    with pytest.raises(ValueError, match="^k_hops must be >= 1$"):
        asgc_filter(single_edge_graph(), np.ones(2), 0)


def test_asgc_exact_recovery_of_heterophilous_feature():
    res = asgc_filter(single_edge_graph(), np.array([1.0, -1.0]), 1)
    np.testing.assert_allclose(res.coefficients, [[-1.0]], atol=1e-12)
    np.testing.assert_allclose(res.filtered, [1.0, -1.0], atol=1e-12)
    assert res.residual_norms[0] == pytest.approx(0.0, abs=1e-12)


def test_asgc_exact_recovery_of_homophilous_feature():
    res = asgc_filter(single_edge_graph(), np.array([1.0, 1.0]), 1)
    np.testing.assert_allclose(res.coefficients, [[1.0]], atol=1e-12)
    np.testing.assert_allclose(res.filtered, [1.0, 1.0], atol=1e-12)


def test_asgc_reconstruction_identity():
    rng = np.random.default_rng(12)
    g = random_graph(40, 0.1, rng)
    x = rng.standard_normal((40, 5))
    res = asgc_filter(g, x, 4)
    op = normalized_adjacency(g, add_self_loops=False)
    for j in range(5):
        basis = np.empty((40, 4))
        t = x[:, j]
        for k in range(4):
            t = propagate(op, t)
            basis[:, k] = t
        np.testing.assert_allclose(
            res.filtered[:, j], basis @ res.coefficients[j], atol=1e-9
        )


def test_asgc_residual_monotone_in_k():
    rng = np.random.default_rng(13)
    g = random_graph(35, 0.12, rng)
    x = rng.standard_normal(35)
    prev = np.inf
    for k in range(1, 8):
        r = asgc_filter(g, x, k).residual_norms[0]
        assert r <= prev + 1e-12
        prev = r


def test_asgc_reconstructs_eigenvector_exactly():
    # scaled all-ones vector is an eigenvector of S with eigenvalue 1
    rng = np.random.default_rng(14)
    g = random_graph(30, 0.2, rng)
    from asgc import degrees

    x = np.sqrt(degrees(g).astype(float))
    for k in (1, 3):
        res = asgc_filter(g, x, k)
        assert res.residual_norms[0] <= 1e-8
        np.testing.assert_allclose(res.filtered, x, atol=1e-7)


def test_asgc_scale_equivariant():
    rng = np.random.default_rng(15)
    g = random_graph(30, 0.15, rng)
    x = rng.standard_normal(30)
    base = asgc_filter(g, x, 3)
    scaled = asgc_filter(g, 7.5 * x, 3)
    np.testing.assert_allclose(scaled.filtered, 7.5 * base.filtered, atol=1e-9)
    np.testing.assert_allclose(scaled.coefficients, base.coefficients, atol=1e-9)


def test_asgc_zero_column_yields_zero():
    rng = np.random.default_rng(16)
    g = random_graph(20, 0.2, rng)
    x = np.zeros((20, 2))
    x[:, 1] = rng.standard_normal(20)
    res = asgc_filter(g, x, 3)
    assert np.all(res.filtered[:, 0] == 0)
    assert np.all(res.coefficients[0] == 0)
    assert res.residual_norms[0] == 0.0


def test_asgc_rejection_names_the_shape_it_got():
    with pytest.raises(GraphError, match=r"got \(2, 2, 1\)"):
        asgc_filter(single_edge_graph(), np.ones((2, 2, 1)), 1)


def test_asgc_coefficient_count_excludes_power_zero():
    res = asgc_filter(single_edge_graph(), np.array([1.0, -1.0]), 4)
    assert res.coefficients.shape == (1, 4)


def per_column_asgc(g, x, k_hops):
    """One column at a time: K sparse-vector products, then least squares."""
    mat = normalized_adjacency(g).matrix()
    cols = x[:, None] if x.ndim == 1 else x
    filtered = np.zeros(cols.shape)
    coefficients = np.zeros((cols.shape[1], k_hops))
    residual_norms = np.zeros(cols.shape[1])
    for j in range(cols.shape[1]):
        xj = cols[:, j]
        if not xj.any():
            continue
        basis = np.empty((len(xj), k_hops))
        t = xj
        for k in range(k_hops):
            t = mat @ t
            basis[:, k] = t
        sol = least_squares(basis, xj)
        coefficients[j] = sol.coefficients
        residual_norms[j] = sol.residual_norm
        filtered[:, j] = basis @ sol.coefficients
    return filtered[:, 0] if x.ndim == 1 else filtered, coefficients, residual_norms


def block_test_case():
    """37 columns (chunks of 16 cross twice), one zero and one on an isolated node."""
    rng = np.random.default_rng(17)
    base = random_graph(40, 0.1, rng)
    rows = np.repeat(np.arange(40), np.diff(base.adjacency.indptr))
    g = Graph.from_edges(41, np.column_stack([rows, base.adjacency.indices]))  # node 40 is isolated
    x = rng.standard_normal((41, 37))
    x[:, 5] = 0.0
    x[:, 20] = 0.0
    x[40, 20] = 1.0
    return g, x


def full_width_sgc(g, x, k_hops):
    """K products of the whole dense input, one per hop."""
    op = normalized_adjacency(g, add_self_loops=True)
    out = np.asarray(x, dtype=np.float64)
    for _ in range(k_hops):
        out = propagate(op, out)
    return out


def assert_c_ordered_float64(out):
    # a trial copies any other layout before it reorders rows in place
    assert out.dtype == np.float64 and out.flags.c_contiguous and out.flags.writeable


def assert_asgc_equals_per_column_loop(g, x, k_hops):
    got = asgc_filter(g, x, k_hops)
    want = per_column_asgc(g, x, k_hops)
    assert got.filtered.shape == x.shape
    assert_c_ordered_float64(got.filtered)
    for field, value in zip(("filtered", "coefficients", "residual_norms"), want):
        assert np.array_equal(getattr(got, field), value), field


@pytest.mark.parametrize("chunk", [None, 1])
def test_asgc_chunked_propagation_equals_per_column_loop(monkeypatch, chunk):
    g, x = block_test_case()
    before = x.copy()
    if chunk is not None:
        monkeypatch.setattr(asgc.filters, "BLOCK_COLUMNS", chunk)
    for k in (1, 4, 9, 10):  # 9 and 10 are het-sweep's hop counts
        assert_asgc_equals_per_column_loop(g, x, k)
        for got, want in [
            (sgc_filter(g, x, k), full_width_sgc(g, x, k)),
            (sgc_filter(g, sp.csr_matrix(x), k), full_width_sgc(g, x, k)),
            (sgc_filter(g, x[:, 3], k), full_width_sgc(g, x[:, 3], k)),
            (sgc_filter(g, x[:, 20], k), full_width_sgc(g, x[:, 20], k)),
            (sgc_filter(g, sp.coo_array(x[:, 3]), k), full_width_sgc(g, x[:, 3], k)),
        ]:
            assert got.shape == want.shape and np.array_equal(got, want)
            assert_c_ordered_float64(got)
        assert np.all(sgc_filter(g, sp.csr_matrix(x), k)[:, 5] == 0)  # a zero column stays 0
    assert np.array_equal(x, before)  # the filters write into copies of their input only
    # a feature seen only at an isolated node has an all-zero basis
    assert np.all(asgc_filter(g, x, 4).coefficients[20] == 0)


def test_asgc_hops_are_propagate_calls(monkeypatch):
    g, x = block_test_case()  # 36 live columns: chunks of 16, 16 and 4
    shapes = []
    real = asgc.filters.propagate

    def counting(op, t):
        shapes.append(t.shape)
        return real(op, t)

    monkeypatch.setattr(asgc.filters, "propagate", counting)
    asgc_filter(g, x, 4)
    assert shapes == [(41, 16)] * 8 + [(41, 4)] * 4


def test_asgc_reads_sparse_input_by_chunk_and_skips_stored_zero_columns(monkeypatch):
    g, x = block_test_case()
    csc = sp.csc_matrix(x)
    csc.data[csc.indptr[7] : csc.indptr[8]] = 0.0  # column 7 holds only stored zeros
    shapes, lstsq_calls = [], []
    real_propagate, real_lstsq = asgc.filters.propagate, asgc.filters.least_squares

    def counting(op, t):
        shapes.append(t.shape)
        return real_propagate(op, t)

    def counting_lstsq(basis, target):
        lstsq_calls.append(basis.shape)
        return real_lstsq(basis, target)

    monkeypatch.setattr(asgc.filters, "propagate", counting)
    monkeypatch.setattr(asgc.filters, "least_squares", counting_lstsq)
    asgc_filter(g, csc.tocsr(), 4)
    assert shapes == [(41, 16)] * 8 + [(41, 3)] * 4  # 35 live columns
    assert lstsq_calls == [(41, 4)] * 35


@pytest.mark.parametrize(
    "filt", [sgc_filter, lambda g, x, k: asgc_filter(g, x, k).filtered], ids=["sgc", "asgc"]
)
def test_asgc_on_sparse_features_allocates_no_dense_copy_of_them(filt):
    rng = np.random.default_rng(3)
    n, f = 2000, 1000
    g = Graph.from_edges(n, rng.integers(0, n, size=(4 * n, 2)))
    x = sp.random(n, f, density=0.01, format="csr", random_state=rng)
    filtered, peak = traced_peak(lambda: filt(g, x, 2))
    dense_bytes = n * f * 8
    assert peak < filtered.nbytes + dense_bytes / 2


def test_asgc_reuses_one_chunk_workspace_per_call():
    rng = np.random.default_rng(5)
    n, f, k = 2000, 64, 10  # four full chunks
    g = Graph.from_edges(n, rng.integers(0, n, size=(4 * n, 2)))
    x = rng.standard_normal((n, f))
    result, peak = traced_peak(lambda: asgc_filter(g, x, k))
    hop_block = asgc.filters.BLOCK_COLUMNS * k * n * 8
    # a new hop block per chunk keeps the last one alive too: 2.39 blocks here
    assert peak - result.filtered.nbytes < 2 * hop_block


@pytest.mark.parametrize("form", [np.asarray, sp.csr_matrix])
def test_asgc_rejects_a_nan_feature(form):
    g, x = block_test_case()
    x[3, 18] = np.nan  # in the second chunk
    with pytest.raises(ValueError, match="^features must be finite$"):
        asgc_filter(g, form(x), 10)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("form", [np.asarray, sp.csr_matrix])
@pytest.mark.parametrize("filt", [sgc_filter, asgc_filter], ids=["sgc", "asgc"])
def test_filters_reject_a_non_finite_feature_before_the_first_hop(monkeypatch, filt, form, value):
    def no_hop(*args, **kwargs):
        pytest.fail("a hop ran before the features were checked")

    monkeypatch.setattr(asgc.filters, "propagate", no_hop)
    g, x = block_test_case()
    x[3, 18] = value
    with pytest.raises(ValueError, match="^features must be finite$"):
        filt(g, form(x), 10)


def test_asgc_chunked_propagation_equals_loop_when_rank_deficient():
    # on a single edge S^2 = I, so K=4 spans only two directions; 1-D input
    assert_asgc_equals_per_column_loop(single_edge_graph(), np.array([2.0, -0.5]), 4)


# --- blending -------------------------------------------------------------------


def grid_corner(index, resolution=3):
    nums = [0, 0, 0]
    nums[index] = resolution
    return tuple(v / resolution for v in nums)


def numerators(grid, resolution):
    """Each weight triple of ``grid`` as integer numerators over ``resolution``."""
    return [tuple(round(v * resolution) for v in w) for w in grid]


def test_blend_corners_return_inputs_exactly():
    rng = np.random.default_rng(17)
    mats = [rng.standard_normal((6, 4)) for _ in range(3)]
    for i in range(3):
        out = blend(*mats, grid_corner(i))
        assert np.array_equal(out, mats[i])


def test_blend_equal_weights_is_mean():
    a = np.array([[0.0, 3.0], [6.0, 9.0]])
    b = np.array([[3.0, 6.0], [9.0, 0.0]])
    c = np.array([[6.0, 9.0], [0.0, 3.0]])
    out = blend(a, b, c, (1 / 3, 1 / 3, 1 / 3))
    np.testing.assert_allclose(out, (a + b + c) / 3.0, atol=1e-12)


def test_blend_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        blend(np.ones((2, 2)), np.ones((2, 2)), np.ones((3, 2)), (1 / 3, 1 / 3, 1 / 3))


def test_simplex_grid_counts_and_membership():
    assert len(simplex_grid(1)) == 3
    assert len(simplex_grid(2)) == 6
    grid3 = simplex_grid(3)
    assert len(grid3) == 10
    triples = numerators(grid3, 3)
    assert (1, 1, 1) in triples
    for corner in ((3, 0, 0), (0, 3, 0), (0, 0, 3)):
        assert corner in triples
    assert (1, 1, 0) in numerators(simplex_grid(2), 2)


def test_simplex_grid_order_is_lexicographic():
    triples = numerators(simplex_grid(2), 2)
    assert triples == sorted(triples)
    assert triples[0] == (0, 0, 2)


def test_weights_sum_to_one_exactly():
    grid = simplex_grid(7)
    assert grid == [tuple(v / 7 for v in t) for t in numerators(grid, 7)]
    for t in numerators(grid, 7):
        assert sum(t) == 7 and min(t) >= 0
    for w in grid:
        assert sum(w) == pytest.approx(1.0, abs=1e-15)


def test_only_the_corners_carry_a_unit_weight():
    # blend returns an input unchanged exactly when its weight is 1.0
    for resolution in range(1, 100):
        corners = [w for w in simplex_grid(resolution) if 1.0 in w]
        assert corners == [(0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]


def test_invalid_weights_rejected():
    with pytest.raises(ValueError):
        simplex_grid(0)
    with pytest.raises(ValueError):
        simplex_grid(-2)
