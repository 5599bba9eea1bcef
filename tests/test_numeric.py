import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from asgc import (
    accuracy,
    numeric,
    fit_logistic,
    least_squares,
    predict,
)
from asgc.numeric import LogisticModel, softmax_objective
from conftest import reference_softmax_objective, svd_least_squares, traced_peak


# --- least squares -----------------------------------------------------------


def test_collinear_single_column():
    sol = least_squares(np.array([[-1.0], [1.0]]), np.array([1.0, -1.0]))
    np.testing.assert_allclose(sol.coefficients, [-1.0], atol=1e-14)
    assert sol.residual_norm == pytest.approx(0.0, abs=1e-14)
    assert sol.effective_rank == 1


def test_duplicated_columns_get_minimum_norm_split():
    basis = np.array([[1.0, 1.0], [0.0, 0.0]])
    sol = least_squares(basis, np.array([1.0, 0.0]))
    np.testing.assert_allclose(sol.coefficients, [0.5, 0.5], atol=1e-12)
    assert sol.residual_norm == pytest.approx(0.0, abs=1e-12)
    assert sol.effective_rank == 1


def test_matches_svd_oracle():
    rng = np.random.default_rng(0)
    for _ in range(10):
        basis = rng.standard_normal((40, 5))
        target = rng.standard_normal(40)
        sol = least_squares(basis, target)
        want = svd_least_squares(basis, target)
        np.testing.assert_allclose(sol.coefficients, want, atol=1e-8)


def test_residual_orthogonal_to_basis():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n, k = rng.integers(5, 60), rng.integers(1, 8)
        basis = rng.standard_normal((n, k))
        if rng.random() < 0.3 and k >= 2:
            basis[:, -1] = basis[:, 0]  # force rank deficiency
        target = rng.standard_normal(n)
        sol = least_squares(basis, target)
        residual = target - basis @ sol.coefficients
        bound = 1e-8 * np.linalg.norm(basis) * np.linalg.norm(target)
        assert np.max(np.abs(basis.T @ residual)) <= max(bound, 1e-12)


def test_fitted_is_basis_times_coefficients_bit_for_bit():
    rng = np.random.default_rng(2)
    for order in ("C", "F"):
        basis = np.asarray(rng.standard_normal((50, 10)), order=order)
        basis[:, 7] = basis[:, 2]  # rank-deficient
        target = rng.standard_normal(50)
        sol = least_squares(basis, target)
        assert sol.fitted.tobytes() == (basis @ sol.coefficients).tobytes()
        assert sol.residual_norm == float(np.linalg.norm(target - basis @ sol.coefficients))


def test_residual_monotone_under_nested_bases():
    rng = np.random.default_rng(2)
    for _ in range(10):
        basis = rng.standard_normal((30, 6))
        target = rng.standard_normal(30)
        prev = np.inf
        for k in range(1, 7):
            r = least_squares(basis[:, :k], target).residual_norm
            assert r <= prev + 1e-12
            prev = r


def test_rank_tol_controls_effective_rank():
    basis = np.array([[1.0, 1.0 + 1e-13], [1.0, 1.0]])
    assert least_squares(basis, np.array([1.0, 2.0])).effective_rank == 1
    basis[0, 1] = 1.0 + 1e-6  # smallest singular value ~2.5e-7 of the largest: above RANK_TOL
    assert least_squares(basis, np.array([1.0, 2.0])).effective_rank == 2


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        least_squares(np.array([[np.nan], [1.0]]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        least_squares(np.ones((2, 1)), np.array([np.inf, 0.0]))


# --- logistic regression ------------------------------------------------------


def two_blobs(rng, n_per=50, spread=0.5):
    x = np.vstack(
        [
            rng.standard_normal((n_per, 2)) * spread + [3.0, 3.0],
            rng.standard_normal((n_per, 2)) * spread - [3.0, 3.0],
        ]
    )
    y = np.repeat([1, 0], n_per)
    return x, y


def test_separable_blobs_train_accurately():
    rng = np.random.default_rng(4)
    x, y = two_blobs(rng)
    model = fit_logistic(x, y)
    assert accuracy(predict(model, x), y) >= 0.98


def test_single_class_rejected():
    with pytest.raises(ValueError, match="single-class"):
        fit_logistic(np.ones((5, 2)), np.zeros(5, dtype=int))


@pytest.mark.parametrize("form", [np.asarray, sp.csr_matrix])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_fit_rejects_non_finite_features(form, value):
    x = np.eye(4)
    x[2, 1] = value
    with pytest.raises(ValueError, match="^fit_logistic requires finite features$"):
        fit_logistic(form(x), [0, 1, 0, 1])


def test_all_zero_sparse_features_still_train():
    x = sp.csr_matrix((4, 3))  # no stored values at all
    model = fit_logistic(x, [0, 1, 1, 1])
    np.testing.assert_array_equal(model.weights, 0.0)
    np.testing.assert_array_equal(predict(model, x), [1, 1, 1, 1])


def test_fit_checks_finiteness_without_a_mask_of_the_features(monkeypatch):
    import scipy.optimize  # noqa: F401  (the first fit imports it; not traced here)

    monkeypatch.setattr(numeric, "MAX_ITER", 3)

    rng = np.random.default_rng(6)
    n, f = 2000, 1000
    x = rng.standard_normal((n, f))
    with pytest.warns(RuntimeWarning, match="did not converge"):
        _, peak = traced_peak(lambda: fit_logistic(x, (x[:, 0] > 0).astype(int)))
    # an n x f boolean mask alone is n * f bytes; the optimizer's state is ~0.4 of it
    assert peak < 0.6 * n * f


def test_duplicating_rows_gives_identical_model():
    rng = np.random.default_rng(5)
    x, y = two_blobs(rng, n_per=20, spread=2.0)
    base = fit_logistic(x, y)
    doubled = fit_logistic(np.vstack([x, x]), np.concatenate([y, y]))
    np.testing.assert_allclose(doubled.weights, base.weights, atol=1e-6)
    np.testing.assert_allclose(doubled.bias, base.bias, atol=1e-6)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((10, 4))
    y = rng.integers(0, 3, size=10)
    model = fit_logistic(x, y)
    params = np.concatenate([model.weights.ravel(), model.bias])
    classes, y_index = np.unique(y, return_inverse=True)
    _, grad = softmax_objective(params, x, y_index, len(classes), 1e-4)
    fd = np.zeros_like(params)
    eps = 1e-6
    for i in range(len(params)):
        up, down = params.copy(), params.copy()
        up[i] += eps
        down[i] -= eps
        fd[i] = (
            softmax_objective(up, x, y_index, len(classes), 1e-4)[0]
            - softmax_objective(down, x, y_index, len(classes), 1e-4)[0]
        ) / (2 * eps)
    scale = max(np.linalg.norm(fd), 1e-12)
    assert np.linalg.norm(grad - fd) / scale <= 1e-4


@pytest.mark.parametrize("form", ["dense", "csr"])
@pytest.mark.parametrize("scale", [0.0, 1e-3, 1.0, 30.0])
def test_objective_equals_the_scipy_logsumexp_objective_bit_for_bit(form, scale):
    # scale 0 is every fit's starting point: all scores tie at the maximum;
    # rounded parameters give ties elsewhere
    rng = np.random.default_rng(13)
    n, f, n_classes = 37, 9, 4
    x = rng.standard_normal((n, f)) * (rng.random((n, f)) < 0.4)
    x = sp.csr_matrix(x) if form == "csr" else x
    y_index = rng.integers(0, n_classes, size=n)
    for rounded in (False, True, False, True):
        params = rng.standard_normal(f * n_classes + n_classes) * scale
        params = np.round(params, 1) if rounded else params
        loss, grad = softmax_objective(params, x, y_index, n_classes, 1e-4)
        want_loss, want_grad = reference_softmax_objective(params, x, y_index, n_classes, 1e-4)
        assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
        assert grad.tobytes() == want_grad.tobytes()


def test_gradient_small_at_convergence():
    rng = np.random.default_rng(7)
    x, y = two_blobs(rng, n_per=30, spread=2.0)
    model = fit_logistic(x, y)
    classes, y_index = np.unique(y, return_inverse=True)
    params = np.concatenate([model.weights.ravel(), model.bias])
    _, grad = softmax_objective(params, x, y_index, len(classes), 1e-4)
    assert np.max(np.abs(grad)) <= 1e-5 * 10  # L-BFGS reports the projected gradient


def test_zero_model_predicts_lowest_class():
    model = LogisticModel(weights=np.zeros((2, 3)), bias=np.zeros(3), classes=np.arange(3))
    assert predict(model, np.random.default_rng(0).standard_normal((5, 2))).tolist() == [0] * 5


def test_predict_rejects_width_mismatch():
    model = LogisticModel(weights=np.zeros((3, 2)), bias=np.zeros(2), classes=np.arange(2))
    with pytest.raises(ValueError):
        predict(model, np.ones((4, 5)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: least_squares(np.ones((3, 2)), np.ones(4)),
         "basis must be n x k and target a length-n vector"),
        (lambda: least_squares(np.ones((3, 0)), np.ones(3)), "basis needs at least one column"),
        (lambda: fit_logistic(np.ones((4, 2)), [0, 1, 0]),
         "x must be n x f with one label per row"),
        (lambda: accuracy([], []), "cannot score an empty prediction"),
    ],
    ids=["lstsq_length", "lstsq_no_columns", "fit_row_count", "accuracy_empty"],
)
def test_rejects_mismatched_or_empty_shapes(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_accuracy_counts():
    assert accuracy([1, 1, 0], [1, 0, 0]) == pytest.approx(2 / 3)
    assert accuracy([2, 0, 1], [2, 0, 1]) == 1.0


def test_accuracy_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        accuracy([1, 2], [1, 2, 3])


def test_config_knob_changes_regularization(monkeypatch):
    rng = np.random.default_rng(9)
    x, y = two_blobs(rng, n_per=20)
    monkeypatch.setattr(numeric, "L2_STRENGTH", 10.0)
    strong = fit_logistic(x, y)
    monkeypatch.setattr(numeric, "L2_STRENGTH", 1e-6)
    weak = fit_logistic(x, y)
    assert np.linalg.norm(strong.weights) < np.linalg.norm(weak.weights)


def test_unconverged_fit_warns_with_optimizer_message(monkeypatch):
    rng = np.random.default_rng(10)
    x, y = two_blobs(rng, n_per=20, spread=2.0)
    monkeypatch.setattr(numeric, "MAX_ITER", 1)
    with pytest.warns(RuntimeWarning, match="(?i)did not converge.*iterations reached limit"):
        fit_logistic(x, y)


def test_converged_fits_do_not_warn():
    rng = np.random.default_rng(11)
    x, y = two_blobs(rng, n_per=20, spread=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit_logistic(x, y)
        fit_logistic(sp.csr_matrix(x), y)


def test_scores_accept_sparse_features():
    rng = np.random.default_rng(12)
    model = LogisticModel(
        weights=rng.standard_normal((4, 3)), bias=rng.standard_normal(3), classes=np.arange(3)
    )
    x = rng.standard_normal((6, 4)) * (rng.random((6, 4)) < 0.4)
    want = model.classes[np.argmax(x @ model.weights + model.bias, axis=1)]
    np.testing.assert_array_equal(predict(model, sp.csr_matrix(x)), want)
    np.testing.assert_array_equal(predict(model, sp.coo_matrix(x)), predict(model, x))
    with pytest.raises(ValueError, match="feature width"):
        predict(model, sp.csr_matrix(np.ones((2, 5))))


def test_dense_and_csr_fits_break_an_exact_tie_alike(monkeypatch):
    # all-zero features leave only the bias, which ties classes 1 and 3 (three
    # labels each); the dense scores must reduce in the CSR path's order, or
    # the last bit of the bias decides the tie the other way
    x = np.zeros((10, 4))
    y = np.array([0, 1, 1, 2, 0, 3, 1, 2, 3, 3])
    monkeypatch.setattr(numeric, "GRAD_TOL", 1e-9)
    monkeypatch.setattr(numeric, "L2_STRENGTH", 0.1)
    dense = fit_logistic(x, y)
    sparse = fit_logistic(sp.csr_matrix(x), y)
    assert predict(dense, x).tolist() == [1] * 10
    np.testing.assert_array_equal(predict(sparse, sp.csr_matrix(x)), predict(dense, x))
