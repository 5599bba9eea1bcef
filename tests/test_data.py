import os
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from asgc import (
    DatasetError,
    Graph,
    LabeledDataset,
    homophily,
    load_dataset,
    load_from_manifest,
    load_manifest,
    make_splits,
)
from asgc import data
from conftest import traced_peak, write_dataset

# (nodes, undirected edges, features, classes) for the reference benchmarks
KNOWN_SHAPES = {
    "cora": (2702, 5278, 1433, 7),
    "chameleon": (2277, 31421, 2325, 5),
}


def test_load_symmetrizes_and_dedupes(tmp_path):
    paths = write_dataset(
        tmp_path,
        edges=[(0, 1), (1, 0), (1, 2)],
        features=[[1.0], [2.0], [3.0]],
        labels=[0, 1, 1],
    )
    ds = load_dataset(*paths)
    assert ds.graph.adjacency.nnz // 2 == 2
    assert ds.n == 3
    assert int(ds.labels.max()) + 1 == 2


def test_load_returns_features_as_csr_of_the_file_nonzeros(tmp_path):
    rows = [[0.0, 1.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [2.0, 0.0, -0.0, 3.0]]
    paths = write_dataset(tmp_path, edges=[(0, 1)], features=rows, labels=[0, 1, 1])
    ds = load_dataset(*paths)
    assert isinstance(ds.features, sp.csr_matrix)
    assert ds.features.nnz == np.count_nonzero(rows) == 3
    assert np.array_equal(ds.features.toarray(), rows)


def test_load_rejects_label_gap(tmp_path):
    paths = write_dataset(
        tmp_path, edges=[(0, 1)], features=[[1.0], [2.0], [3.0]], labels=[0, 2, 2]
    )
    with pytest.raises(DatasetError, match="label gap"):
        load_dataset(*paths)


def test_load_rejects_negative_labels(tmp_path):
    paths = write_dataset(
        tmp_path, edges=[(0, 1)], features=[[1.0], [2.0], [3.0]], labels=[0, 1, -1]
    )
    with pytest.raises(DatasetError, match="^labels must be nonnegative$"):
        load_dataset(*paths)


def test_load_rejects_out_of_range_edges(tmp_path):
    paths = write_dataset(tmp_path, edges=[(0, 9)], features=[[1.0], [2.0]], labels=[0, 1])
    with pytest.raises(DatasetError):
        load_dataset(*paths)


def test_load_rejects_ragged_features(tmp_path):
    e, f, l = write_dataset(tmp_path, edges=[(0, 1)], features=[[1.0], [2.0]], labels=[0, 1])
    f.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(DatasetError, match="ragged"):
        load_dataset(e, f, l)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
def test_load_rejects_non_finite_features(tmp_path, value):
    e, f, l = write_dataset(tmp_path, edges=[(0, 1)], features=[[1.0], [2.0]], labels=[0, 1])
    f.write_text(f"1.0,2.0\n3.0,{value}\n")
    with pytest.raises(DatasetError, match=r"toy\.features: features must be finite$"):
        load_dataset(e, f, l)


def test_feature_parse_holds_no_copy_of_the_file_text(tmp_path):
    rows = np.random.default_rng(0).integers(0, 2, (2000, 500))
    path = tmp_path / "x.features"
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows.tolist()))
    out, peak = traced_peak(lambda: data._read_features(path))
    np.testing.assert_array_equal(out, rows)
    # the file's text and its list of lines would each add a quarter of the array
    assert peak < 1.3 * out.nbytes


def test_edge_parse_holds_no_copy_of_the_file_text(tmp_path):
    pairs = np.random.default_rng(0).integers(0, 169_343, (200_000, 2))
    path = tmp_path / "x.edges"
    path.write_text("".join(f"{u}\t{v}\n" for u, v in pairs.tolist()))
    out, peak = traced_peak(lambda: data._read_table(path, "edge", int, width=2))
    np.testing.assert_array_equal(out, pairs)
    # a line loop holding the text, its lines and Python int pairs peaked near 12x the array
    assert peak < 1.3 * out.nbytes


def test_fallback_parse_holds_no_copy_of_the_file_text(tmp_path):
    pairs = np.random.default_rng(0).integers(0, 169_343, (50_000, 2))
    path = tmp_path / "x.edges"
    path.write_text("".join(f"{u}\t{v}\n" for u, v in pairs.tolist()) + "\x0c\n")
    assert not data._loadtxt_agrees(path)  # so the line loop parses it
    out, peak = traced_peak(lambda: data._read_table(path, "edge", int, width=2))
    np.testing.assert_array_equal(out, pairs)
    # the file's text and its list of lines, held next to the array, would peak near 5.4x it
    assert peak < 1.3 * out.nbytes


@pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
def test_plain_feature_file_with_a_compressed_suffix_parses_as_text(tmp_path, suffix):
    path = tmp_path / f"x.features{suffix}"  # numpy's loadtxt would try to decompress it
    path.write_text("1,2\n3,4\n")
    assert data._read_features(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_load_rejects_unparseable_edges(tmp_path):
    e, f, l = write_dataset(tmp_path, edges=[(0, 1)], features=[[1.0], [2.0]], labels=[0, 1])
    e.write_text("0\tx\n")
    with pytest.raises(DatasetError):
        load_dataset(e, f, l)


@pytest.mark.parametrize(
    "kind, text",
    [
        ("edges", "0 1\n\n\n1 q\n"),
        ("features", "1.0,2.0\n\n3.0,4.0\n5.0,x\n"),
        ("labels", "0\n\n1\nz\n"),
    ],
    ids=["edges", "features", "labels"],
)
def test_error_names_the_file_line_after_blank_lines(tmp_path, kind, text):
    paths = write_dataset(
        tmp_path, edges=[(0, 1)], features=[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], labels=[0, 1, 1]
    )
    by_kind = dict(zip(("edges", "features", "labels"), paths))
    by_kind[kind].write_text(text)  # the bad row is line 4, after a blank line
    with pytest.raises(DatasetError, match=rf"toy\.{kind}:4: "):
        load_dataset(*paths)


def test_load_rejects_label_count_mismatch(tmp_path):
    paths = write_dataset(tmp_path, edges=[(0, 1)], features=[[1.0], [2.0]], labels=[0, 1, 1])
    with pytest.raises(DatasetError, match="label count"):
        load_dataset(*paths)


def test_missing_file_raises_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_dataset(tmp_path / "nope.edges", tmp_path / "nope.features", tmp_path / "nope.labels")


def make_labeled(edges, labels, n=None):
    n = n if n is not None else len(labels)
    return LabeledDataset(
        name="t",
        graph=Graph.from_edges(n, edges),
        features=np.zeros((n, 1)),
        labels=np.asarray(labels),
    )


def test_homophily_triangle():
    ds = make_labeled([(0, 1), (1, 2), (0, 2)], [0, 0, 1])
    assert homophily(ds) == pytest.approx(1 / 3)


def test_homophily_uniform_labels():
    ds = make_labeled([(0, 1), (1, 2)], [0, 0, 0])
    assert homophily(ds) == 1.0


def test_homophily_bipartite_two_coloring_is_zero():
    edges = [(0, 2), (0, 3), (1, 2), (1, 3)]
    ds = make_labeled(edges, [0, 0, 1, 1])
    assert homophily(ds) == 0.0


def test_homophily_skips_isolated_nodes():
    ds = make_labeled([(0, 1)], [0, 0, 1], n=3)
    assert homophily(ds) == 1.0


def test_homophily_rejects_fully_isolated_graph():
    ds = make_labeled([], [0, 1], n=2)
    with pytest.raises(DatasetError):
        homophily(ds)


def test_split_sizes_follow_rounding_rule():
    s = make_splits(10, seed=0)
    assert (len(s.test), len(s.validation), len(s.train)) == (2, 2, 6)
    s = make_splits(100, seed=0)
    assert (len(s.test), len(s.validation), len(s.train)) == (20, 26, 54)


def test_splits_partition_everything():
    s = make_splits(57, seed=3)
    together = np.concatenate([s.train, s.validation, s.test])
    assert np.array_equal(np.sort(together), np.arange(57))


def test_splits_deterministic_and_seed_sensitive():
    a = make_splits(100, seed=5)
    b = make_splits(100, seed=5)
    c = make_splits(100, seed=6)
    assert np.array_equal(a.test, b.test) and np.array_equal(a.train, b.train)
    assert not (
        np.array_equal(a.test, c.test)
        and np.array_equal(a.validation, c.validation)
        and np.array_equal(a.train, c.train)
    )


def test_splits_reject_tiny_n():
    with pytest.raises(ValueError):
        make_splits(9, seed=0)


def test_manifest_round_trip(tmp_path):
    paths = write_dataset(
        tmp_path, edges=[(0, 1), (1, 2)], features=[[1.0], [2.0], [3.0]], labels=[0, 1, 1]
    )
    manifest = tmp_path / "data.manifest"
    manifest.write_text(
        "# toy datasets\n"
        f"toy.edges = {paths[0].name}\n"
        f"toy.features = {paths[1].name}\n"
        f"toy.labels = {paths[2].name}\n"
        "toy.nodes = 3\n"
    )
    entries = load_manifest(manifest)
    assert set(entries) == {"toy"}
    assert entries["toy"].expected_nodes == 3
    ds = load_from_manifest(manifest, "toy")
    assert ds.name == "toy" and ds.n == 3


def test_readme_manifest_example_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("A manifest binds names to files")[1].split("```")[1]
    manifest = tmp_path / "data.manifest"
    manifest.write_text(block)
    assert load_manifest(manifest)["cora"].expected_nodes == 2702


def test_manifest_warns_on_node_count_mismatch(tmp_path):
    paths = write_dataset(
        tmp_path, edges=[(0, 1)], features=[[1.0], [2.0]], labels=[0, 1]
    )
    manifest = tmp_path / "data.manifest"
    manifest.write_text(
        f"toy.edges = {paths[0].name}\n"
        f"toy.features = {paths[1].name}\n"
        f"toy.labels = {paths[2].name}\n"
        "toy.nodes = 99\n"
    )
    with pytest.warns(UserWarning, match="manifest expected 99"):
        load_from_manifest(manifest, "toy")


def test_manifest_unknown_dataset(tmp_path):
    manifest = tmp_path / "data.manifest"
    manifest.write_text("a.edges = e\na.features = f\na.labels = l\n")
    with pytest.raises(DatasetError, match="not in manifest"):
        load_from_manifest(manifest, "b")


def test_manifest_rejects_incomplete_entries(tmp_path):
    manifest = tmp_path / "data.manifest"
    manifest.write_text("a.edges = e\na.features = f\n")
    with pytest.raises(DatasetError, match="missing fields"):
        load_manifest(manifest)


def test_manifest_rejects_empty_value(tmp_path):
    manifest = tmp_path / "data.manifest"
    manifest.write_text("a.edges =\na.features = f\na.labels = l\n")
    with pytest.raises(DatasetError, match=r"data\.manifest:1: empty value for 'a\.edges'"):
        load_manifest(manifest)


def test_manifest_rejects_repeated_key(tmp_path):
    manifest = tmp_path / "data.manifest"
    manifest.write_text("a.edges = e\na.features = f\n\na.edges = g\na.labels = l\n")
    with pytest.raises(DatasetError, match=r"data\.manifest:4: repeated key 'a\.edges'"):
        load_manifest(manifest)


@pytest.mark.parametrize(
    "text, message",
    [
        ("edges = e\n", r"data\.manifest:1: key 'edges' must look like 'name\.field'"),
        ("a.edges = e\na.colour = red\n", r"data\.manifest:2: unknown field 'colour'"),
        ("a.edges = e\na.features = f\na.labels = l\na.nodes = many\n",
         r"data\.manifest: dataset 'a' has non-integer node count"),
    ],
    ids=["key_without_dot", "unknown_field", "non_integer_nodes"],
)
def test_manifest_rejects_malformed_keys_and_values(tmp_path, text, message):
    manifest = tmp_path / "data.manifest"
    manifest.write_text(text)
    with pytest.raises(DatasetError, match=f"{message}$"):
        load_manifest(manifest)


@pytest.mark.parametrize("name", sorted(KNOWN_SHAPES))
def test_reference_dataset_shapes(name):
    manifest = os.environ.get("ASGC_DATASETS")
    if not manifest or not os.path.exists(manifest):
        pytest.skip("set ASGC_DATASETS to a dataset manifest to run real-data checks")
    try:
        ds = load_from_manifest(manifest, name)
    except Exception:
        pytest.skip(f"dataset {name!r} not available in the manifest")
    n, edges, f, classes = KNOWN_SHAPES[name]
    assert ds.n == n
    assert ds.graph.adjacency.nnz // 2 == edges
    assert ds.features.shape[1] == f
    assert int(ds.labels.max()) + 1 == classes
