"""Sparse undirected graphs and their normalized propagation operators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


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
        entries collapse to a single edge, and self-loops are dropped.
        """
        if n < 0:
            raise GraphError(f"node count must be >= 0, got {n}")
        given = np.asarray(edges)
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
        keep = edges[:, 0] != edges[:, 1]
        rows = np.concatenate([edges[keep, 0], edges[keep, 1]])
        cols = np.concatenate([edges[keep, 1], edges[keep, 0]])
        a = sp.coo_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(n, n)
        ).tocsr()
        a.data[:] = 1.0
        return cls(a)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    @property
    def indptr(self) -> np.ndarray:
        return self.adjacency.indptr

    @property
    def indices(self) -> np.ndarray:
        return self.adjacency.indices

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return self.adjacency.nnz // 2

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i] : self.indptr[i + 1]]


@dataclass(frozen=True, eq=False)
class PropagationOperator:
    """A symmetric normalized adjacency, held as the one scipy CSR built for it.

    ``with_self_loops`` records whether the diagonal was augmented before
    normalization. All eigenvalues lie in [-1, 1].
    """

    csr: sp.csr_matrix
    with_self_loops: bool

    def matrix(self) -> sp.csr_matrix:
        return self.csr


def degrees(g: Graph) -> np.ndarray:
    """Per-node neighbor counts (self-loops are never stored, so these are plain degrees)."""
    return np.diff(g.indptr)


def normalized_adjacency(g: Graph, add_self_loops: bool = False) -> PropagationOperator:
    """Degree-normalized adjacency: entries A'_ij / sqrt(d'_i d'_j).

    With ``add_self_loops`` the identity is added to the adjacency first and
    every degree is incremented by one. Zero-degree nodes get an all-zero row
    and column (their inverse square-root degree is taken as 0), which keeps
    the operator total on graphs with isolated nodes.
    """
    d = degrees(g).astype(np.float64)
    a = g.adjacency.copy()  # a.data is rebound below
    if add_self_loops:
        a = a + sp.identity(g.n, format="csr")
        d += 1.0
    a.sort_indices()
    row = np.repeat(np.arange(g.n), np.diff(a.indptr))
    # every stored entry touches two nodes of effective degree >= 1, so the
    # zero-degree convention (all-zero row/column) never divides by zero here
    a.data = a.data / np.sqrt(d[row] * d[a.indices])
    return PropagationOperator(csr=a, with_self_loops=add_self_loops)


def propagate(op: PropagationOperator, x: np.ndarray) -> np.ndarray:
    """Apply the operator to a feature vector (n,) or feature matrix (n, f)."""
    x = np.asarray(x, dtype=np.float64)
    n = op.csr.shape[0]
    if x.ndim not in (1, 2) or x.shape[0] != n:
        raise GraphError(f"features must have shape (n,) or (n, f) with n = {n}, got {x.shape}")
    return op.matrix() @ x


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
