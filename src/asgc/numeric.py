"""Dense minimum-norm least squares and a multinomial logistic-regression trainer.

These are the two generic numerical engines behind the adaptive filter and the
classification experiments. Both are deterministic: the least-squares routine
is a direct SVD-backed solve, and the classifier always starts from zero
parameters and uses a full-batch quasi-Newton optimizer. Classifier features
may be a dense array or a scipy CSR matrix; a sparse matrix stays sparse, so
training and scoring cost scales with its nonzeros. A fit that stops before
the optimizer reports convergence emits a ``RuntimeWarning``.

The objective forms its two dense products as ``(W^T X^T)^T`` and
``(P^T X)^T``. With OpenBLAS (0.3.31) these give the bits of ``X W`` and
``X^T P`` on a faster GEMM path; for CSR features scipy computes the same
products as before. The scores are made C-ordered before the log-sum-exp,
whose reduction order follows the memory layout, so dense and CSR scores are
reduced in the same order. That log-sum-exp is a private row-wise copy of the
float operations ``scipy.special.logsumexp`` (scipy 1.17) does on finite
input, bit for bit, without its second, unshifted pass over the scores or its
array-API dispatch; a row with a non-finite maximum goes to scipy's function.

On a dense ``X`` with at least :data:`SPLIT_MIN` rows and columns, each of the
two products is cut in two: ``W^T X^T`` at a row of ``X`` and ``P^T X`` at a
column, each time at ``size // 2`` rounded down to a multiple of 8, and the
halves are written into one preallocated C-ordered output. The partition
depends on the shape alone, never on the CPU count, so the bytes do not
either. With OpenBLAS 0.3.31 these halves gave the bits of the one-product
form on every shape tried (n 1,024-5,201, f 1,024-3,703, 2-64 classes),
while cuts that were not multiples of 8 moved bits on 94 of 280 shapes, and
cuts made while the other dimension was under 1,024 on 6 of 185; hence both
limits. :func:`fit_logistic` runs one half of each product on a helper
thread, its only one, while the calling thread runs the other; BLAS releases
the GIL, so the two use both cores. The thread exists only during a dense
fit at split size where :func:`asgc.parallel.usable_cpus` reads at least 2,
so never in a forked ``--jobs`` worker; elsewhere the halves run one after
the other. CSR features, :func:`predict` and :func:`least_squares` are never
split.

``scipy.optimize`` takes ~0.3 s and ~28 MB to load, so only code that fits
loads it: :func:`fit_logistic`, and :func:`asgc.experiments.k_sweep` once
before its first trial, so forked workers inherit it and no fit's time holds
the import. The objective imports scipy only for an inf or a NaN score.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import parallel

# singular values below RANK_TOL times the largest count as zero in least_squares
RANK_TOL = 1e-10
# fit_logistic's iteration limit, gradient max-norm bound and ridge on the weights
MAX_ITER = 1000
GRAD_TOL = 1e-5
L2_STRENGTH = 1e-4
# a dense product is cut in two halves only when X has this many rows and columns
SPLIT_MIN = 1024


@dataclass(frozen=True, eq=False)
class LeastSquaresSolution:
    """Coefficients minimizing ||basis @ c - target||_2, with diagnostics.

    When the basis is rank-deficient at :data:`RANK_TOL`, ``coefficients``
    is the minimum-norm minimizer (pseudoinverse semantics). ``fitted`` is
    ``basis @ coefficients``.
    """

    coefficients: np.ndarray
    fitted: np.ndarray
    residual_norm: float
    effective_rank: int


def least_squares(basis, target) -> LeastSquaresSolution:
    """Minimum-norm least squares solve of ``basis @ c ~= target``.

    Args:
        basis: dense n x k matrix.
        target: length-n vector.

    Returns:
        A :class:`LeastSquaresSolution`. The residual norm is recomputed
        explicitly from the fitted vector.
    """
    basis = np.asarray(basis, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if basis.ndim != 2 or target.ndim != 1 or basis.shape[0] != target.shape[0]:
        raise ValueError("basis must be n x k and target a length-n vector")
    if basis.shape[1] < 1:
        raise ValueError("basis needs at least one column")
    if not (np.isfinite(basis).all() and np.isfinite(target).all()):
        raise ValueError("least_squares requires finite inputs")
    coefficients, _, rank, _ = np.linalg.lstsq(basis, target, rcond=RANK_TOL)
    fitted = basis @ coefficients
    return LeastSquaresSolution(
        coefficients=coefficients,
        fitted=fitted,
        residual_norm=float(np.linalg.norm(target - fitted)),
        effective_rank=int(rank),
    )


@dataclass(frozen=True, eq=False)
class LogisticModel:
    """Multinomial softmax classifier: weights (f x L), bias (L), class values."""

    weights: np.ndarray
    bias: np.ndarray
    classes: np.ndarray


def _as_features(x):
    """Float64 features: a sparse input becomes CSR, anything else a dense array."""
    if scipy.sparse.issparse(x):
        return scipy.sparse.csr_matrix(x, dtype=np.float64)
    return np.asarray(x, dtype=np.float64)


def require_finite(x, message: str) -> None:
    """Raise ``ValueError(message)`` unless every value of ``x``, dense or CSR/CSC, is finite."""
    # a NaN spreads to both extremes and an inf is one of them, so two
    # reductions check every value without an n x f mask
    values = x.data if scipy.sparse.issparse(x) else x
    if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise ValueError(message)


def _logsumexp_rows(z: np.ndarray) -> np.ndarray:
    """``scipy.special.logsumexp(z, axis=1, keepdims=True)`` for a 2-D float64 ``z``.

    Where every row maximum is finite this does scipy's float operations in
    scipy's order: the maxima are taken out of the shifted sum and counted
    (``m``), and the result is ``log1p(s) + log(m) + max``. So the bits are
    scipy's, and the reduction order follows ``z``'s memory layout as scipy's
    does. An inf or NaN maximum is left to scipy, which keeps its semantics.

    The maxima and the tie counts are exact in any order, so they are taken
    one column at a time, which is faster than a reduction over short rows.
    """
    columns = range(z.shape[1])
    z_max = z[:, :1].copy()
    for j in columns[1:]:
        np.maximum(z_max, z[:, j : j + 1], out=z_max)
    if not np.isfinite(z_max).all():
        from scipy.special import logsumexp

        return logsumexp(z, axis=1, keepdims=True)
    at_max = z == z_max
    m = np.zeros_like(z_max)
    for j in columns:
        m += at_max[:, j : j + 1]
    e = np.exp(z - z_max)
    e[at_max] = 0.0
    s = e.sum(axis=1, keepdims=True)
    s = np.where(s == 0, s, s / m)
    return np.log1p(s) + np.log(m) + z_max


def _splits(x) -> bool:
    """Whether products with ``x`` or ``x.T`` are cut in two: dense, SPLIT_MIN or more each way."""
    return isinstance(x, np.ndarray) and min(x.shape) >= SPLIT_MIN


def _matmul(a, b, pool=None):
    """``a @ b``, in two column halves where :func:`_splits` holds for ``b``.

    The halves meet at ``b``'s middle column rounded down to a multiple of 8
    and are written into one C-ordered output (module docstring). With a
    ``pool``, its thread computes the first half while this one computes the
    second.
    """
    if not _splits(b):
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]))
    cut = b.shape[1] // 2 // 8 * 8

    def half(cols):
        np.matmul(a, b[:, cols], out=out[:, cols])

    if pool is None:
        half(slice(None, cut))
        half(slice(cut, None))
    else:
        first = pool.submit(half, slice(None, cut))
        try:
            half(slice(cut, None))
        finally:
            first.result()  # nothing writes into out after this returns or raises
    return out


def softmax_objective(params, x, y_index, n_classes, l2_strength, pool=None):
    """Mean cross-entropy plus 0.5 * l2 * ||W||^2; returns (loss, gradient).

    The cross-entropy term is averaged per sample, so duplicating every row
    of the training set leaves the objective (and the fitted model) unchanged.
    ``pool``, a one-thread executor or None, shares the two dense products
    (module docstring); it moves no bit of the result.
    """
    n, f = x.shape
    w = params[: f * n_classes].reshape(f, n_classes)
    b = params[f * n_classes :]
    # reoriented x @ w and x.T @ p (module docstring); z must be C-ordered,
    # since the log-sum-exp's reduction order follows the memory layout
    z = np.ascontiguousarray(_matmul(w.T, x.T, pool).T) + b
    log_p = z - _logsumexp_rows(z)
    loss = -log_p[np.arange(n), y_index].mean() + 0.5 * l2_strength * float(np.sum(w * w))
    p = np.exp(log_p)
    p[np.arange(n), y_index] -= 1.0
    p /= n
    grad_w = _matmul(p.T, x, pool).T + l2_strength * w
    grad_b = p.sum(axis=0)
    return loss, np.concatenate([grad_w.ravel(), grad_b])


def fit_logistic(x, y) -> LogisticModel:
    """Train a multinomial softmax classifier by full-batch L-BFGS.

    Args:
        x: n x f feature matrix (finite values), dense or scipy sparse; a
            sparse matrix is trained on in CSR form without densifying.
        y: length-n integer labels with at least two distinct values.

    The optimizer starts from zero parameters, so results are deterministic.
    A dense fit at split size may run a helper thread (module docstring),
    which is joined before this returns or raises; it moves no bit.
    If it stops without converging (for instance at :data:`MAX_ITER`), a
    ``RuntimeWarning`` carrying the optimizer's message is emitted and the
    last iterate is returned.
    """
    import scipy.optimize

    x = _as_features(x)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("x must be n x f with one label per row")
    require_finite(x, "fit_logistic requires finite features")
    classes, y_index = np.unique(y, return_inverse=True)
    if len(classes) < 2:
        raise ValueError("single-class training set: need at least two distinct labels")
    n, f = x.shape
    n_classes = len(classes)
    pool = None
    if _splits(x) and parallel.usable_cpus() >= 2:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(1)
    try:
        result = scipy.optimize.minimize(
            softmax_objective,
            np.zeros(f * n_classes + n_classes),
            args=(x, y_index, n_classes, L2_STRENGTH, pool),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": MAX_ITER, "gtol": GRAD_TOL, "ftol": 1e-15},
        )
    finally:
        if pool is not None:
            pool.shutdown()
    if not result.success:
        warnings.warn(
            f"fit_logistic did not converge after {result.nit} iterations: {result.message}",
            RuntimeWarning,
            stacklevel=2,
        )
    weights = result.x[: f * n_classes].reshape(f, n_classes)
    bias = result.x[f * n_classes :]
    return LogisticModel(weights=weights, bias=bias, classes=classes)


def predict(model: LogisticModel, x) -> np.ndarray:
    """Most probable class per row; ties break toward the lower class index."""
    x = _as_features(x)
    if x.ndim != 2 or x.shape[1] != model.weights.shape[0]:
        raise ValueError(
            f"feature width {x.shape[1] if x.ndim == 2 else '?'} does not match model "
            f"({model.weights.shape[0]})"
        )
    scores = x @ model.weights + model.bias
    return model.classes[np.argmax(scores, axis=1)]


def accuracy(predicted, truth) -> float:
    """Fraction of positions where the two label sequences agree."""
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape:
        raise ValueError("prediction/truth length mismatch")
    if predicted.size == 0:
        raise ValueError("cannot score an empty prediction")
    return float(np.mean(predicted == truth))
