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
reduced in the same order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.optimize
import scipy.sparse
from scipy.special import logsumexp


@dataclass(frozen=True, eq=False)
class LeastSquaresSolution:
    """Coefficients minimizing ||basis @ c - target||_2, with diagnostics.

    When the basis is rank-deficient at the chosen tolerance, ``coefficients``
    is the minimum-norm minimizer (pseudoinverse semantics).
    """

    coefficients: np.ndarray
    residual_norm: float
    effective_rank: int


def least_squares(basis, target, rank_tol: float = 1e-10) -> LeastSquaresSolution:
    """Minimum-norm least squares solve of ``basis @ c ~= target``.

    Args:
        basis: dense n x k matrix.
        target: length-n vector.
        rank_tol: singular values below ``rank_tol`` times the largest are
            treated as zero when determining the effective rank.

    Returns:
        A :class:`LeastSquaresSolution`. The residual norm is recomputed
        explicitly from the returned coefficients.
    """
    basis = np.asarray(basis, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if basis.ndim != 2 or target.ndim != 1 or basis.shape[0] != target.shape[0]:
        raise ValueError("basis must be n x k and target a length-n vector")
    if basis.shape[1] < 1:
        raise ValueError("basis needs at least one column")
    if not (np.isfinite(basis).all() and np.isfinite(target).all()):
        raise ValueError("least_squares requires finite inputs")
    coefficients, _, rank, _ = np.linalg.lstsq(basis, target, rcond=rank_tol)
    residual = target - basis @ coefficients
    return LeastSquaresSolution(
        coefficients=coefficients,
        residual_norm=float(np.linalg.norm(residual)),
        effective_rank=int(rank),
    )


@dataclass(frozen=True)
class LogisticConfig:
    """Training knobs for :func:`fit_logistic`.

    ``tol`` bounds the max-norm of the objective gradient at the solution;
    ``l2_strength`` scales a ridge penalty on the weights (never the bias).
    """

    max_iter: int = 1000
    tol: float = 1e-5
    l2_strength: float = 1e-4


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


def softmax_objective(params, x, y_index, n_classes, l2_strength):
    """Mean cross-entropy plus 0.5 * l2 * ||W||^2; returns (loss, gradient).

    The cross-entropy term is averaged per sample, so duplicating every row
    of the training set leaves the objective (and the fitted model) unchanged.
    """
    n, f = x.shape
    w = params[: f * n_classes].reshape(f, n_classes)
    b = params[f * n_classes :]
    # reoriented x @ w and x.T @ p (module docstring); z must be C-ordered,
    # since logsumexp's reduction order follows the memory layout
    z = np.ascontiguousarray((w.T @ x.T).T) + b
    log_p = z - logsumexp(z, axis=1, keepdims=True)
    loss = -log_p[np.arange(n), y_index].mean() + 0.5 * l2_strength * float(np.sum(w * w))
    p = np.exp(log_p)
    p[np.arange(n), y_index] -= 1.0
    p /= n
    grad_w = (p.T @ x).T + l2_strength * w
    grad_b = p.sum(axis=0)
    return loss, np.concatenate([grad_w.ravel(), grad_b])


def fit_logistic(x, y, config: LogisticConfig | None = None) -> LogisticModel:
    """Train a multinomial softmax classifier by full-batch L-BFGS.

    Args:
        x: n x f feature matrix (finite values), dense or scipy sparse; a
            sparse matrix is trained on in CSR form without densifying.
        y: length-n integer labels with at least two distinct values.
        config: optional :class:`LogisticConfig`.

    The optimizer starts from zero parameters, so results are deterministic.
    If it stops without converging (for instance at ``config.max_iter``), a
    ``RuntimeWarning`` carrying the optimizer's message is emitted and the
    last iterate is returned.
    """
    config = config or LogisticConfig()
    x = _as_features(x)
    y = np.asarray(y)
    if x.ndim != 2 or x.shape[0] != y.shape[0]:
        raise ValueError("x must be n x f with one label per row")
    if not np.isfinite(x.data if scipy.sparse.issparse(x) else x).all():
        raise ValueError("fit_logistic requires finite features")
    classes, y_index = np.unique(y, return_inverse=True)
    if len(classes) < 2:
        raise ValueError("single-class training set: need at least two distinct labels")
    n, f = x.shape
    n_classes = len(classes)
    result = scipy.optimize.minimize(
        softmax_objective,
        np.zeros(f * n_classes + n_classes),
        args=(x, y_index, n_classes, config.l2_strength),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": config.max_iter, "gtol": config.tol, "ftol": 1e-15},
    )
    if not result.success:
        warnings.warn(
            f"fit_logistic did not converge after {result.nit} iterations: {result.message}",
            RuntimeWarning,
            stacklevel=2,
        )
    weights = result.x[: f * n_classes].reshape(f, n_classes)
    bias = result.x[f * n_classes :]
    return LogisticModel(weights=weights, bias=bias, classes=classes)


def decision_scores(model: LogisticModel, x) -> np.ndarray:
    """Linear scores ``x @ W + b`` for a dense or sparse feature matrix."""
    x = _as_features(x)
    if x.ndim != 2 or x.shape[1] != model.weights.shape[0]:
        raise ValueError(
            f"feature width {x.shape[1] if x.ndim == 2 else '?'} does not match model "
            f"({model.weights.shape[0]})"
        )
    return x @ model.weights + model.bias


def predict_proba(model: LogisticModel, x) -> np.ndarray:
    """Class probabilities; each row sums to 1."""
    z = decision_scores(model, x)
    z -= z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    return p


def predict(model: LogisticModel, x) -> np.ndarray:
    """Most probable class per row; ties break toward the lower class index."""
    scores = decision_scores(model, x)
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
