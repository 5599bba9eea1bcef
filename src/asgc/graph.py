"""Sparse undirected graphs and their normalized propagation operators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


# largest n whose edge keys row * n + col (at most n * n - 1) fit in int64
_MAX_NODES = 3_037_000_499


class GraphError(ValueError):
    """Structurally invalid graph, operator, or mismatched operands."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected, unweighted graph held as its one 0/1 scipy CSR adjacency.

    The matrix is symmetric, in canonical format (each row's column indices
    sorted ascending without duplicates), free of self-loops, and stores only
    ones. :meth:`from_edges` builds it so from arbitrary input, and every
    graph in the package comes from there.
    """

    adjacency: sp.csr_matrix

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from (i, j) pairs.

        The pair list is symmetrized (union of both directions), duplicate
        entries collapse to a single edge, and self-loops are dropped. Each
        directed entry is packed into one int64 key ``row * n + col``; one
        O(m log m) sort of the keys puts them in CSR order, and equal
        neighbours mark the duplicates. The keys must fit in int64, so ``n``
        may be at most 3,037,000,499.
        """
        if n < 0:
            raise GraphError(f"node count must be >= 0, got {n}")
        if n > _MAX_NODES:
            raise GraphError(f"node count must be <= {_MAX_NODES} (int64 edge keys), got {n}")
        try:
            given = np.asarray(edges)
        except ValueError:  # ragged pair list
            raise GraphError("edges must be an m x 2 array of node ids") from None
        if given.dtype.kind not in "biuf":
            raise GraphError(f"edges must be numeric node ids, got dtype {given.dtype}")
        with np.errstate(invalid="ignore"):  # NaN/inf/overflow then fail the check below
            edges = given.astype(np.int64)
        if np.any(edges != given):
            raise GraphError("edge endpoints must be integer node ids")
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise GraphError("edges must be an m x 2 array of node ids")
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise GraphError(f"edge endpoint out of range [0, {n})")
        i, j = np.compress(edges[:, 0] != edges[:, 1], edges, axis=0).T
        keys = np.concatenate([i * n + j, j * n + i])
        # sort + neighbour mask, not np.unique: on 10k wide-range int64 keys
        # np.unique took 1.4 ms against ~0.1 ms for this (numpy 2.4)
        keys.sort()
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        keys = keys[first]
        rows = keys // max(n, 1)  # n = 0 has no keys
        # the index dtype scipy's coo -> csr conversion picks for these entries
        idx = sp.get_index_dtype(maxval=max(2 * len(i), n))
        indptr = np.zeros(n + 1, dtype=idx)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        cols = (keys - rows * n).astype(idx)
        a = sp.csr_matrix((np.ones(len(keys)), cols, indptr), shape=(n, n))
        a.has_canonical_format = True
        return cls(a)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def indices(self) -> np.ndarray:
        # read only by the benchmark's generate_sbm hook; ROADMAP item 2 deletes it
        return self.adjacency.indices


@dataclass(frozen=True, eq=False)
class PropagationOperator:
    """A symmetric normalized adjacency, held as the one scipy CSR built for it.

    All eigenvalues lie in [-1, 1].
    """

    csr: sp.csr_matrix

    def matrix(self) -> sp.csr_matrix:
        return self.csr


def degrees(g: Graph) -> np.ndarray:
    """Per-node neighbor counts (self-loops are never stored, so these are plain degrees)."""
    return np.diff(g.adjacency.indptr)


def normalized_adjacency(g: Graph, add_self_loops: bool = False) -> PropagationOperator:
    """Degree-normalized adjacency: entries A'_ij / sqrt(d'_i d'_j).

    With ``add_self_loops`` the identity is added to the adjacency first and
    every degree is incremented by one. Zero-degree nodes get an all-zero row
    and column (their inverse square-root degree is taken as 0), which keeps
    the operator total on graphs with isolated nodes.
    """
    a = g.adjacency + sp.identity(g.n, format="csr") if add_self_loops else g.adjacency.copy()
    counts = np.diff(a.indptr)  # one entry per neighbour (and self-loop): the degrees d'
    d = counts.astype(np.float64)
    # every stored entry touches two nodes of effective degree >= 1, so the
    # zero-degree convention (all-zero row/column) never divides by zero here.
    # a.data is a's own new array, so each step writes into it; take makes no
    # int32 -> intp copy of the indices
    np.multiply(np.repeat(d, counts), d.take(a.indices), out=a.data)
    np.sqrt(a.data, out=a.data)
    np.divide(1.0, a.data, out=a.data)
    return PropagationOperator(csr=a)


def propagate(op: PropagationOperator, x: np.ndarray) -> np.ndarray:
    """Apply the operator to a feature vector (n,) or feature matrix (n, f)."""
    x = np.asarray(x, dtype=np.float64)
    n = op.csr.shape[0]
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise GraphError(f"features must have shape (n,) or (n, f) with n = {n}, got {x.shape}")
    return op.csr @ x


def laplacian_quadratic_form(g: Graph, x: np.ndarray) -> float:
    """x^T (I - S) x for the no-self-loop operator S.

    Equals half the degree-weighted sum of squared feature differences across
    edges; both forms are compared in the test suite. Graphs with isolated
    nodes are rejected, since the edgewise form divides by degree.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.shape[0] != g.n:
        raise GraphError("x must be a length-n feature vector")
    d = degrees(g)
    if np.any(d == 0):
        raise GraphError("quadratic form requires all degrees >= 1")
    s = normalized_adjacency(g, add_self_loops=False)
    return float(x @ x - x @ propagate(s, x))
