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

from .graph import Graph, GraphError, normalized_adjacency, propagate
from .numeric import least_squares

# feature columns propagated together by asgc_filter; its basis block holds
# K * n * ASGC_CHUNK floats (3.5 MB at K=10 on 2,708 nodes)
ASGC_CHUNK = 16


def sgc_filter(g: Graph, x, k_hops: int = 6) -> np.ndarray:
    """Apply the self-loop propagation operator ``k_hops`` times.

    The K-th operator power is never materialized; the features are propagated
    repeatedly. Accepts a vector (n,) or matrix (n, f) and preserves the shape.
    """
    if k_hops < 1:
        raise ValueError("k_hops must be >= 1")
    op = normalized_adjacency(g, add_self_loops=True)
    out = np.asarray(x, dtype=np.float64)
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
    the output.
    """
    if k_hops < 1:
        raise ValueError("k_hops must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    cols = x[:, None] if single else x
    if cols.ndim != 2 or cols.shape[0] != g.n:
        raise GraphError(f"features must have shape (n,) or (n, f) with n = {g.n}, got {x.shape}")
    op = normalized_adjacency(g, add_self_loops=False)
    n, f = cols.shape
    filtered = np.zeros((n, f))
    coefficients = np.zeros((f, k_hops))
    residual_norms = np.zeros(f)
    live = np.flatnonzero(cols.any(axis=0))
    for start in range(0, len(live), ASGC_CHUNK):
        idx = live[start : start + ASGC_CHUNK]
        t = cols[:, idx]
        targets = t.T.copy()
        # bases[c] is column idx[c]'s C-ordered n x K Krylov basis
        bases = np.empty((len(idx), n, k_hops))
        for k in range(k_hops):
            t = propagate(op, t)
            bases[:, :, k] = t.T
        out = np.empty((len(idx), n))
        for c, j in enumerate(idx):
            sol = least_squares(bases[c], targets[c])
            coefficients[j] = sol.coefficients
            residual_norms[j] = sol.residual_norm
            out[c] = bases[c] @ sol.coefficients
        filtered[:, idx] = out.T
    return AsgcResult(
        filtered=filtered[:, 0] if single else filtered,
        coefficients=coefficients,
        residual_norms=residual_norms,
    )


@dataclass(frozen=True)
class ComboWeights:
    """A convex-combination weight triple on the resolution-R simplex lattice.

    Stored as integer numerators (raw, smoothed, adaptive) over ``resolution``
    so the weights sum to 1 exactly.
    """

    numerators: tuple[int, int, int]
    resolution: int

    def __post_init__(self):
        if self.resolution < 1:
            raise ValueError("resolution must be >= 1")
        if len(self.numerators) != 3 or any(v < 0 for v in self.numerators):
            raise ValueError("numerators must be three nonnegative integers")
        if sum(self.numerators) != self.resolution:
            raise ValueError("numerators must sum to the resolution")

    def as_floats(self) -> tuple[float, float, float]:
        """(raw, smoothed, adaptive) weights, each numerator over the resolution."""
        return tuple(v / self.resolution for v in self.numerators)


def simplex_grid(resolution: int) -> list[ComboWeights]:
    """All lattice triples (i, j, k)/R with i + j + k = R, lexicographic order."""
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    return [
        ComboWeights((i, j, resolution - i - j), resolution)
        for i in range(resolution + 1)
        for j in range(resolution + 1 - i)
    ]


def blend(x_raw, x_sgc, x_asgc, weights: ComboWeights) -> np.ndarray:
    """Elementwise convex combination of three equally-shaped feature matrices.

    At a simplex corner the corresponding input is returned exactly (a copy),
    avoiding any floating-point perturbation from the zero-weight terms.
    """
    arrays = [np.asarray(a, dtype=np.float64) for a in (x_raw, x_sgc, x_asgc)]
    if not (arrays[0].shape == arrays[1].shape == arrays[2].shape):
        raise ValueError("blend inputs must share one shape")
    for numerator, arr in zip(weights.numerators, arrays):
        if numerator == weights.resolution:
            return arr.copy()
    w = weights.as_floats()
    return w[0] * arrays[0] + w[1] * arrays[1] + w[2] * arrays[2]
