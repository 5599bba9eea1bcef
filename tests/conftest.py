"""Shared test scaffolds, graph builders and independent dense-math oracles.

New tests use the scaffolds here instead of writing their own:
:func:`write_dataset` writes a loadable dataset, :func:`traced_peak` bounds
a memory peak, :func:`fresh_python` runs a new interpreter, and the ``asgc``
Hypothesis profile, loaded below, holds the settings every property test
shares, so a ``@settings`` there states only its example count.

The oracle helpers here deliberately avoid the package's sparse code paths:
they build dense matrices straight from edge lists so tests compare two
independent routes to the same quantity.
"""

from __future__ import annotations

# BLAS reads its thread count when numpy loads, so the `asgc` entry's pin
# (one thread unless the environment sets a count) comes before numpy
import asgc.__main__  # noqa: F401

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from asgc import Graph, LabeledDataset, SbmConfig, generate_sbm

try:
    from hypothesis import settings
except ImportError:  # the property modules skip themselves without hypothesis
    pass
else:
    # derandomized: each property test draws the same examples on every run
    settings.register_profile("asgc", deadline=None, derandomize=True)
    settings.load_profile("asgc")


def write_dataset(root: Path, edges, features, labels, name: str = "toy"):
    """Write ``<name>.edges``, ``.features`` and ``.labels`` and a ``data.manifest`` under ``root``.

    Edges are tab-separated pairs, features comma-separated rows (each value
    as ``str`` of its Python number, so a float keeps every bit) and labels
    one per line. The manifest binds ``name`` to the three files. Returns
    their three paths.
    """
    fields = ("edges", "features", "labels")
    edges, features, labels = (np.asarray(a).tolist() for a in (edges, features, labels))
    paths = tuple(root / f"{name}.{field}" for field in fields)
    paths[0].write_text("".join(f"{i}\t{j}\n" for i, j in edges))
    paths[1].write_text("".join(",".join(map(str, row)) + "\n" for row in features))
    paths[2].write_text("".join(f"{v}\n" for v in labels))
    (root / "data.manifest").write_text("".join(f"{name}.{f} = {name}.{f}\n" for f in fields))
    return paths


def traced_peak(fn):
    """Return ``fn()`` and the peak of the memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fresh_python(args, unset=(), cwd=None, timeout=120, **env) -> subprocess.CompletedProcess:
    """Run ``python args`` in a new interpreter that imports asgc from this checkout.

    The interpreter's environment lacks the variables named in ``unset``;
    ``env`` adds or overrides variables. Output is captured as text.
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    inherited = {name: value for name, value in os.environ.items() if name not in unset}
    return subprocess.run(
        [sys.executable, *args], env=dict(inherited, PYTHONPATH=src, **env),
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


def single_edge_graph() -> Graph:
    return Graph.from_edges(2, [[0, 1]])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [[i, i + 1] for i in range(n - 1)])


def triangle_graph() -> Graph:
    return Graph.from_edges(3, [[0, 1], [1, 2], [0, 2]])


def random_graph(n: int, p: float, rng: np.random.Generator, ensure_min_degree: bool = True) -> Graph:
    """Erdos-Renyi graph; optionally wires isolated nodes into a cycle edge."""
    upper = np.triu(rng.random((n, n)) < p, k=1)
    edges = list(zip(*np.nonzero(upper)))
    if ensure_min_degree:
        deg = np.zeros(n, dtype=int)
        for i, j in edges:
            deg[i] += 1
            deg[j] += 1
        for i in np.nonzero(deg == 0)[0]:
            edges.append((int(i), int((i + 1) % n)))
    return Graph.from_edges(n, edges)


def dense_adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for i in range(g.n):
        for j in g.adjacency[i].indices:
            a[i, j] = 1.0
    return a


def dense_normalized_adjacency(g: Graph, add_self_loops: bool) -> np.ndarray:
    """Dense brute-force construction of the normalized adjacency."""
    a = dense_adjacency(g)
    if add_self_loops:
        a = a + np.eye(g.n)
    d = a.sum(axis=1)
    inv = np.zeros(g.n)
    inv[d > 0] = 1.0 / np.sqrt(d[d > 0])
    return a * inv[:, None] * inv[None, :]


def reference_normalized_adjacency(a: sp.csr_matrix, add_self_loops: bool) -> sp.csr_matrix:
    """The normalized adjacency built the plain scipy way, for byte-level comparison.

    Copy the 0/1 adjacency, add the identity with self-loops, sort the
    indices, then divide each stored one by sqrt(d_i d_j).
    """
    d = np.diff(a.indptr).astype(np.float64)
    a = a.copy()
    if add_self_loops:
        a = a + sp.identity(a.shape[0], format="csr")
        d += 1.0
    a.sort_indices()
    row = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    a.data = a.data / np.sqrt(d[row] * d[a.indices])
    return a


def svd_least_squares(basis: np.ndarray, target: np.ndarray, rel_tol: float = 1e-10) -> np.ndarray:
    """Independent minimum-norm solve via an explicit SVD pseudoinverse."""
    u, s, vt = np.linalg.svd(basis, full_matrices=False)
    keep = s > rel_tol * s.max() if s.size and s.max() > 0 else np.zeros_like(s, dtype=bool)
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return vt.T @ (inv_s * (u.T @ target))


def reference_softmax_objective(params, x, y_index, n_classes, l2_strength):
    """The classifier objective written with ``scipy.special.logsumexp``, for bit comparison."""
    from scipy.special import logsumexp

    n, f = x.shape
    w = params[: f * n_classes].reshape(f, n_classes)
    b = params[f * n_classes :]
    z = np.ascontiguousarray((w.T @ x.T).T) + b
    log_p = z - logsumexp(z, axis=1, keepdims=True)
    loss = -log_p[np.arange(n), y_index].mean() + 0.5 * l2_strength * float(np.sum(w * w))
    p = np.exp(log_p)
    p[np.arange(n), y_index] -= 1.0
    p /= n
    grad_w = (p.T @ x).T + l2_strength * w
    grad_b = p.sum(axis=0)
    return loss, np.concatenate([grad_w.ravel(), grad_b])


def split_size_problem(n=1100, f=1100, n_classes=7, seed=1100):
    """Seeded dense ``n`` x ``f`` 0/1 features (2% ones) and labels of ``n_classes`` classes.

    At the default size both dimensions reach ``asgc.numeric.SPLIT_MIN``, so
    a fit on it cuts each dense product in two.
    """
    rng = np.random.default_rng(seed)
    x = (rng.random((n, f)) < 0.02).astype(np.float64)
    y = np.argmax(x @ rng.standard_normal((f, n_classes)) + rng.standard_normal((n, n_classes)), axis=1)
    return x, y


def toy_dataset(n_per_block=60, n_features=6, log_ratio=2.0, seed=0, name="toy") -> LabeledDataset:
    """Two-block SBM with block-informative noisy features, for protocol tests."""
    g, _, block = generate_sbm(SbmConfig(n_per_block, 8.0, log_ratio, seed))
    rng = np.random.default_rng(seed + 1000)
    y = (block > 0).astype(int)
    centers = np.array([[-1.0] * n_features, [1.0] * n_features])
    x = centers[y] + rng.standard_normal((2 * n_per_block, n_features)) * 1.5
    return LabeledDataset(name, g, x, y)
