"""Polynomial feature filters: fixed smoothing, adaptive least-squares fit, and blends.

``sgc_filter`` smooths features with K applications of the self-loop
normalized adjacency. ``asgc_filter`` instead fits, per feature, the best
linear combination of the feature's 1..K-step propagations under the
no-self-loop operator, which lets the filter be non-smoothing when the graph
calls for it. ``blend`` and ``simplex_grid`` support searching over convex
combinations of raw / smoothed / adaptively-filtered feature matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graph import Graph, GraphError, normalized_adjacency, propagate
from .numeric import least_squares, require_finite

# feature columns propagated together by asgc_filter. Each call allocates one
# ASGC_CHUNK x K x n hop block (3.5 MB at K=10 on 2,708 nodes) and reuses it for
# every chunk; a (column, hop) pair is one contiguous n-row of it
ASGC_CHUNK = 16


def sgc_filter(g: Graph, x, k_hops: int = 6) -> np.ndarray:
    """Apply the self-loop propagation operator ``k_hops`` times.

    The K-th operator power is never materialized; the features are propagated
    repeatedly. Accepts a vector (n,) or matrix (n, f), dense or scipy sparse,
    and returns a dense array of the same shape. A NaN or infinite feature
    raises ``ValueError``.
    """
    if k_hops < 1:
        raise ValueError("k_hops must be >= 1")
    out = np.asarray(x.toarray() if sp.issparse(x) else x, dtype=np.float64)
    require_finite(out, "features must be finite")
    op = normalized_adjacency(g, add_self_loops=True)
    for _ in range(k_hops):
        out = propagate(op, out)
    return out


@dataclass(frozen=True, eq=False)
class AsgcResult:
    """Adaptive filter output.

    ``coefficients[j]`` holds the K polynomial coefficients of feature j for
    operator powers 1..K (there is no power-0 term), and ``filtered[:, j]``
    equals the propagated basis times that coefficient vector.
    """

    filtered: np.ndarray
    coefficients: np.ndarray
    residual_norms: np.ndarray


def asgc_filter(g: Graph, x, k_hops: int = 6) -> AsgcResult:
    """Fit each feature as a combination of its 1..K-step propagations.

    For each feature column x_j independently: build the columns
    S x_j, S^2 x_j, ..., S^K x_j by repeated propagation with the
    no-self-loop operator S, solve least squares against x_j, and return the
    reconstruction. An identically-zero feature column yields zero
    coefficients and zero output (the minimum-norm solution of the degenerate
    problem).

    Nonzero columns are propagated :data:`ASGC_CHUNK` at a time, one
    :func:`propagate` call per hop; each column of that product equals its
    own sparse-vector product bit for bit, so the chunk size never changes
    the output. A scipy sparse ``x`` is read in CSC form, one dense
    n x chunk slice at a time, and gives the bits of its dense form. A NaN
    or infinite feature raises ``ValueError`` before the first hop.
    """
    if k_hops < 1:
        raise ValueError("k_hops must be >= 1")
    x = sp.csc_matrix(x, dtype=np.float64) if sp.issparse(x) else np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    cols = x[:, None] if single else x
    if cols.ndim != 2 or cols.shape[0] != g.n:
        raise GraphError(f"features must have shape (n,) or (n, f) with n = {g.n}, got {x.shape}")
    require_finite(x, "features must be finite")
    op = normalized_adjacency(g, add_self_loops=False)
    n, f = cols.shape
    filtered = np.zeros((n, f))
    coefficients = np.zeros((f, k_hops))
    residual_norms = np.zeros(f)
    live = np.flatnonzero(np.asarray((cols != 0).sum(axis=0)))  # a stored zero is a zero
    # one workspace per call, reused by every chunk: hops[c, k] is S^(k+1)
    # applied to the chunk's column c, out[c] its reconstruction
    chunk = min(ASGC_CHUNK, len(live))
    hops = np.empty((chunk, k_hops, n))
    out = np.empty((chunk, n))
    # a C-ordered n x K basis: an F-ordered one takes another gemv kernel in
    # basis @ coefficients and moves the last bits
    basis = np.empty((n, k_hops))
    for start in range(0, len(live), ASGC_CHUNK):
        idx = live[start : start + ASGC_CHUNK]
        m = len(idx)
        t = cols[:, idx].toarray() if sp.issparse(cols) else cols[:, idx]
        targets = t.T.copy()
        for k in range(k_hops):
            t = propagate(op, t)
            hops[:m, k, :] = t.T
        for c, j in enumerate(idx):
            np.copyto(basis, hops[c].T)
            sol = least_squares(basis, targets[c])
            coefficients[j] = sol.coefficients
            residual_norms[j] = sol.residual_norm
            out[c] = sol.fitted
        filtered[:, idx] = out[:m].T
    return AsgcResult(
        filtered=filtered[:, 0] if single else filtered,
        coefficients=coefficients,
        residual_norms=residual_norms,
    )


def simplex_grid(resolution: int) -> list[tuple[float, float, float]]:
    """All (raw, smoothed, adaptive) weights (i, j, R - i - j) / R, lexicographic in (i, j)."""
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    r = resolution
    return [(i / r, j / r, (r - i - j) / r) for i in range(r + 1) for j in range(r + 1 - i)]


def blend(x_raw, x_sgc, x_asgc, weights: tuple[float, float, float]) -> np.ndarray:
    """Elementwise convex combination of three equally-shaped feature matrices.

    At a simplex corner (a weight of exactly 1) the corresponding input is
    returned exactly (a copy), avoiding any floating-point perturbation from
    the zero-weight terms.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in (x_raw, x_sgc, x_asgc)]
    if not (arrays[0].shape == arrays[1].shape == arrays[2].shape):
        raise ValueError("blend inputs must share one shape")
    for w, arr in zip(weights, arrays):
        if w == 1.0:
            return arr.copy()
    return weights[0] * arrays[0] + weights[1] * arrays[1] + weights[2] * arrays[2]
