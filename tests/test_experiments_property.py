"""Property tests: the in-place row reorder behind split-ordered fits equals a
row gather, and reordering back restores the bytes. One metamorphic property
of the protocol: relabeling the nodes leaves every method's test accuracy."""

import numpy as np
import pytest
import scipy.sparse as sp

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from asgc import METHODS, Graph, LabeledDataset, make_splits  # noqa: E402
from asgc.data import SplitSpec  # noqa: E402
from asgc.experiments import _reorder_rows, _rows_in_order, method_features, run_method  # noqa: E402
from conftest import toy_dataset  # noqa: E402


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


@settings(max_examples=200)
@given(permuted_rows())
def test_reorder_equals_a_gather_and_reorders_back(case):
    x, order = case
    y = x.copy()
    _reorder_rows(y, order)
    assert y.tobytes() == x[order].tobytes()
    _reorder_rows(y, np.argsort(order))
    assert y.tobytes() == x.tobytes()


@settings(max_examples=50)
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


def test_relabeling_nodes_and_splits_keeps_each_methods_test_accuracy():
    # Fixed before the first run: seeds 0-29, 80 nodes, 6 features, K=2,
    # resolution 2, and at most one test node's worth of accuracy per method.
    # The relabeled run sums in other orders, so filters and fits agree only to
    # rounding and a prediction may flip at a near tie.
    k_hops, resolution = 2, 2
    for seed in range(30):
        log_ratio = 2.0 if seed % 2 else -2.0
        ds = toy_dataset(n_per_block=40, n_features=6, log_ratio=log_ratio, seed=seed)
        perm = np.random.default_rng(seed + 2000).permutation(ds.n)  # new node i is old node perm[i]
        new_id = np.argsort(perm)
        edges = np.column_stack(sp.triu(ds.graph.adjacency).nonzero())
        relabeled = LabeledDataset(
            ds.name, Graph.from_edges(ds.n, new_id[edges]), ds.features[perm], ds.labels[perm]
        )
        split = make_splits(ds.n, seed)
        moved = SplitSpec(
            *(np.sort(new_id[part]) for part in (split.train, split.validation, split.test)), seed=seed
        )
        before = method_features(ds, METHODS, k_hops)
        after = method_features(relabeled, METHODS, k_hops)
        for method in METHODS:
            want = run_method(ds, split, method, k_hops, resolution, before).test_accuracy
            got = run_method(relabeled, moved, method, k_hops, resolution, after).test_accuracy
            assert abs(got - want) * len(split.test) <= 1 + 1e-9, (seed, method, got, want)
