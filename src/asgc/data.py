"""Plain-text dataset ingestion, split generation, and the homophily statistic.

File formats (all plain text, documented in the README):

* edges: one ``u<TAB>v`` pair of 0-based node ids per line (any whitespace
  accepted on input); the graph is symmetrized and deduplicated on load.
* features: one node per line, comma-separated values; row i is node i.
* labels: one integer per line; classes must be exactly 0..L-1.
* manifest: ``<name>.edges = <path>`` style key-value lines binding a dataset
  name to its three files, with an optional ``<name>.nodes`` expected count.

Edges, features and labels go through one reader, ``_read_table``: numpy's C
``loadtxt`` where a streamed scan shows it parses the file as the line loop
would, and otherwise that loop, which names the first bad line as
``<path>:<line>:``.
"""

from __future__ import annotations

import array
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from .graph import Graph, GraphError, degrees


class DatasetError(ValueError):
    """Malformed dataset files or inconsistent contents."""


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """A graph with one feature row and one integer label per node.

    ``features`` is an n x f dense array or scipy CSR matrix; the filters and
    the classifier take either form. :func:`load_dataset` returns CSR, which
    stays CSR from load to fit, so mostly-zero bag-of-words features cost
    memory in their nonzeros (a fully dense file costs 12 bytes per value
    instead of 8). ``combo`` densifies it once per search.
    """

    name: str
    graph: Graph
    features: np.ndarray | sp.csr_matrix
    labels: np.ndarray

    @property
    def n(self) -> int:
        return self.graph.n


@dataclass(frozen=True, eq=False)
class SplitSpec:
    """Disjoint train/validation/test node index sets.

    Test is floor(n / 5) nodes, validation a third (floored) of the rest, and
    train the remainder, drawn from a seeded uniform permutation.
    """

    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray
    seed: int


def _read_lines(path) -> Iterator[tuple[int, str]]:
    """Yield each non-blank line with its 1-based line number in the file."""
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if line.strip():
            yield lineno, line


# characters on which numpy's parser and the line loop part ways: the
# str.splitlines separators beyond "\n" and "\r", which a file's own newline
# handling keeps inside a line, and "\x1f", which numpy strips as whitespace
_LOOP_ONLY = "\x0b\x0c\x1c\x1d\x1e\x1f\x85\u2028\u2029"


def _loadtxt_agrees(path) -> bool:
    """True unless ``np.loadtxt`` given the path could parse it unlike the line loop.

    Ruled out here: a file with one of ``_LOOP_ONLY`` and a name numpy would
    open as compressed. One streamed pass over the text, held one chunk at a
    time.
    """
    if Path(path).suffix in (".bz2", ".gz", ".xz", ".lzma"):
        return False
    with open(path) as fh:
        for chunk in iter(lambda: fh.read(1 << 16), ""):
            # nine substring scans: ~1 ms on a 7.8 MB file, where a regex took 37
            if any(c in chunk for c in _LOOP_ONLY):
                return False
    return True


def _read_table(path, what: str, parse: type, sep=None, width=None) -> np.ndarray:
    """Parse rows of ``sep``-separated ``parse`` values (``int`` or ``float``).

    Every row has ``width`` values, or the first row's count if that is None.
    numpy's C ``loadtxt`` reads the file where ``_loadtxt_agrees``. Where it
    does not, or where ``loadtxt`` rejects the file, warns (an all-blank file;
    on older numpy, an integer written as a float) or gives another width, a
    line loop parses it with ``parse`` and names the first bad line.
    """
    dtype, typecode = (np.int64, "q") if parse is int else (np.float64, "d")
    if _loadtxt_agrees(path):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = np.loadtxt(path, dtype=dtype, delimiter=sep, ndmin=2, comments=None)
            if width in (None, out.shape[1]):
                return out
        except (ValueError, Warning):
            pass
    # one flat buffer: an object per row would outweigh an edge's 16 bytes
    values = array.array(typecode)
    for lineno, line in _read_lines(path):
        try:
            row = array.array(typecode, map(parse, line.split(sep)))
        except (ValueError, OverflowError):
            raise DatasetError(f"{path}:{lineno}: unparseable {what} row")
        width = width or len(row)
        if len(row) != width:
            raise DatasetError(f"{path}:{lineno}: ragged {what} row ({len(row)} != {width})")
        values += row
    # only an empty feature file leaves the width unknown
    return np.frombuffer(values, dtype).reshape(-1, width or 1)


def _read_features(path) -> np.ndarray:
    out = _read_table(path, "feature", float, sep=",")
    if not out.size:
        raise DatasetError(f"{path}: empty feature file")
    # a NaN spreads to both extremes, so no n x f mask is needed
    if not (np.isfinite(out.min()) and np.isfinite(out.max())):
        raise DatasetError(f"{path}: features must be finite")
    return out


def load_dataset(edge_path, feature_path, label_path, name: str | None = None) -> LabeledDataset:
    """Load and validate a dataset from its three text files.

    The edge list is symmetrized (both directions included), duplicates are
    collapsed, and self-loops dropped. Labels must use every class in
    0..L-1 at least once. Features are returned as a scipy CSR matrix.
    """
    features = sp.csr_matrix(_read_features(feature_path))
    labels = _read_table(label_path, "label", int, width=1).ravel()
    n = features.shape[0]
    if labels.shape[0] != n:
        raise DatasetError(
            f"label count ({labels.shape[0]}) does not match feature rows ({n})"
        )
    if labels.min() < 0:
        raise DatasetError("labels must be nonnegative")
    present = np.unique(labels)
    expected = np.arange(labels.max() + 1)
    if len(present) != len(expected):
        missing = sorted(set(expected.tolist()) - set(present.tolist()))
        raise DatasetError(f"label gap: classes {missing} absent (labels must be 0..L-1)")
    edges = _read_table(edge_path, "edge", int, width=2)
    try:
        graph = Graph.from_edges(n, edges)
    except GraphError as exc:
        raise DatasetError(f"{edge_path}: {exc}")
    return LabeledDataset(
        name=name or Path(edge_path).stem,
        graph=graph,
        features=features,
        labels=labels,
    )


@dataclass(frozen=True)
class ManifestEntry:
    name: str
    edges: Path
    features: Path
    labels: Path
    expected_nodes: int | None = None


def load_manifest(path) -> dict[str, ManifestEntry]:
    """Parse a manifest of ``<name>.<field> = <value>`` lines.

    Fields: ``edges``, ``features``, ``labels`` (paths, resolved relative to
    the manifest's directory) and optional ``nodes`` (expected node count).
    Every value must be non-empty and no key may repeat. Blank lines and
    lines starting with ``#`` are skipped.
    """
    path = Path(path)
    base = path.parent
    raw: dict[str, dict[str, str]] = {}
    for lineno, line in _read_lines(path):
        line = line.strip()
        if line.startswith("#"):
            continue
        if "=" not in line:
            raise DatasetError(f"{path}:{lineno}: expected 'name.field = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if "." not in key:
            raise DatasetError(f"{path}:{lineno}: key {key!r} must look like 'name.field'")
        name, field = key.rsplit(".", 1)
        if field not in ("edges", "features", "labels", "nodes"):
            raise DatasetError(f"{path}:{lineno}: unknown field {field!r}")
        if not value:
            raise DatasetError(f"{path}:{lineno}: empty value for {key!r}")
        fields = raw.setdefault(name, {})
        if field in fields:
            raise DatasetError(f"{path}:{lineno}: repeated key {key!r}")
        fields[field] = value
    entries = {}
    for name, fields in raw.items():
        missing = [f for f in ("edges", "features", "labels") if f not in fields]
        if missing:
            raise DatasetError(f"{path}: dataset {name!r} missing fields {missing}")
        expected = None
        if "nodes" in fields:
            try:
                expected = int(fields["nodes"])
            except ValueError:
                raise DatasetError(f"{path}: dataset {name!r} has non-integer node count")
        entries[name] = ManifestEntry(
            name=name,
            edges=base / fields["edges"],
            features=base / fields["features"],
            labels=base / fields["labels"],
            expected_nodes=expected,
        )
    return entries


def load_from_manifest(manifest_path, name: str) -> LabeledDataset:
    """Load one named dataset listed in a manifest file."""
    entries = load_manifest(manifest_path)
    if name not in entries:
        known = ", ".join(sorted(entries)) or "none"
        raise DatasetError(f"dataset {name!r} not in manifest (known: {known})")
    entry = entries[name]
    ds = load_dataset(entry.edges, entry.features, entry.labels, name=name)
    if entry.expected_nodes is not None and ds.n != entry.expected_nodes:
        warnings.warn(
            f"dataset {name!r} has {ds.n} nodes, manifest expected {entry.expected_nodes}",
            stacklevel=2,
        )
    return ds


def homophily(ds: LabeledDataset) -> float:
    """Mean over nodes of the fraction of neighbors sharing the node's label.

    Isolated nodes are excluded from the average (their fraction is
    undefined); a graph where every node is isolated is rejected.
    """
    g = ds.graph
    d = degrees(g)
    active = d > 0
    if not active.any():
        raise DatasetError("homophily undefined: all nodes are isolated")
    row = np.repeat(np.arange(g.n), d)
    same = (ds.labels[row] == ds.labels[g.adjacency.indices]).astype(np.float64)
    same_counts = np.bincount(row, weights=same, minlength=g.n)
    fractions = same_counts[active] / d[active]
    return float(fractions.mean())


def make_splits(n: int, seed: int) -> SplitSpec:
    """Seeded random 20% test split, with a third of the rest for validation."""
    if n < 10:
        raise ValueError("need at least 10 nodes to split")
    perm = np.random.default_rng(seed).permutation(n)
    n_test = n // 5
    n_val = (n - n_test) // 3
    return SplitSpec(
        train=np.sort(perm[n_test + n_val :]),
        validation=np.sort(perm[n_test : n_test + n_val]),
        test=np.sort(perm[:n_test]),
        seed=seed,
    )
