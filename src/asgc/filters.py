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

# feature columns per block of both filters' hop loop; asgc's hops: 3.5 MB at K=10, n=2,708
BLOCK_COLUMNS = 16


def _hop_blocks(g: Graph, x, k_hops: int, add_self_loops: bool, kept: int):
    """Check ``x`` once, yield its 2-D view, then ``(idx, block, hops)`` per block.

    A block is up to :data:`BLOCK_COLUMNS` nonzero columns ``idx`` (a sparse ``x`` is read
    as CSC; a stored zero is a zero): ``block`` is a new dense n x m copy of them and
    ``hops[c, -i]`` hop K + 1 - i of column c, for i up to ``kept``. One :func:`propagate`
    call per hop fills a workspace reused by every block; each column of a product equals
    its own sparse-vector product bit for bit.
    """
    if k_hops < 1:
        raise ValueError("k_hops must be >= 1")
    sparse = sp.issparse(x)
    x = x if sparse else np.asarray(x, dtype=np.float64)
    cols = x.reshape(-1, 1) if x.ndim == 1 else x
    if cols.ndim != 2 or cols.shape[0] != g.n:
        raise GraphError(f"features must have shape (n,) or (n, f) with n = {g.n}, got {x.shape}")
    cols = sp.csc_matrix(cols, dtype=np.float64) if sparse else cols
    require_finite(cols, "features must be finite")
    yield cols
    op = normalized_adjacency(g, add_self_loops=add_self_loops)
    # cols != 0 drops stored zeros; np.any builds no n x f mask
    live = np.flatnonzero(np.asarray((cols != 0).sum(axis=0)) if sparse else np.any(cols, axis=0))
    hops = np.empty((min(BLOCK_COLUMNS, len(live)), kept, g.n))
    for start in range(0, len(live), BLOCK_COLUMNS):
        idx = live[start : start + BLOCK_COLUMNS]
        t = block = cols[:, idx].toarray() if sparse else cols[:, idx]
        for k in range(k_hops):
            t = propagate(op, t)
            if k >= k_hops - kept:
                hops[: len(idx), k - k_hops] = t.T
        yield idx, block, hops[: len(idx)]


def sgc_filter(g: Graph, x, k_hops: int = 6) -> np.ndarray:
    """Apply the self-loop propagation operator ``k_hops`` times.

    Takes a vector (n,) or matrix (n, f), dense or scipy sparse, and returns a
    C-ordered dense array of the same shape, the last hop of each column block.
    No operator power and no dense copy of the input is built. A NaN or infinite
    feature raises ``ValueError``.
    """
    blocks = _hop_blocks(g, x, k_hops, add_self_loops=True, kept=1)
    out = np.zeros(next(blocks).shape)
    for idx, _, hops in blocks:
        out[:, idx] = hops[:, -1].T
    return out[:, 0] if np.ndim(x) == 1 else out


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
    problem). The hops come from the same block loop as ``sgc_filter``'s, so
    a sparse ``x`` gives the bits of its dense form and a NaN or infinite
    feature raises ``ValueError`` before the first hop.
    """
    blocks = _hop_blocks(g, x, k_hops, add_self_loops=False, kept=k_hops)
    f = next(blocks).shape[1]
    filtered = np.zeros((g.n, f))
    coefficients = np.zeros((f, k_hops))
    residual_norms = np.zeros(f)
    # a C-ordered n x K basis: an F-ordered one takes another gemv kernel in
    # basis @ coefficients and moves the last bits
    basis = np.empty((g.n, k_hops))
    for idx, block, hops in blocks:
        for c, j in enumerate(idx):
            np.copyto(basis, hops[c].T)
            sol = least_squares(basis, block[:, c])
            coefficients[j] = sol.coefficients
            residual_norms[j] = sol.residual_norm
            block[:, c] = sol.fitted  # the target is read, so its block column takes the output
        filtered[:, idx] = block
    return AsgcResult(filtered[:, 0] if np.ndim(x) == 1 else filtered, coefficients, residual_norms)


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
