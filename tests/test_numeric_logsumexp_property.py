"""Property tests: the objective's row log-sum-exp gives the bits of
``scipy.special.logsumexp(z, axis=1, keepdims=True)``."""

import numpy as np
import pytest
import scipy.special

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from asgc.numeric import _logsumexp_rows  # noqa: E402


@st.composite
def score_matrices(draw):
    """1-5 rows, 2-40 columns, magnitudes 1e-300..1e300, ties at the row maximum
    and rounded values, and -inf entries that never fill a whole row."""
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(2, 40))
    scale = 10.0 ** draw(st.integers(-300, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((rows, cols))
    if draw(st.booleans()):
        z = np.round(z, draw(st.integers(0, 2)))  # repeated values, ties included
    z *= scale
    ties = rng.random((rows, cols)) < draw(st.floats(0.0, 0.5))
    z[ties] = np.broadcast_to(z.max(axis=1, keepdims=True), z.shape)[ties]
    minus_inf = rng.random((rows, cols)) < draw(st.floats(0.0, 0.5))
    minus_inf[np.arange(rows), z.argmax(axis=1)] = False
    z[minus_inf] = -np.inf
    return z


@settings(max_examples=300)
@given(score_matrices())
def test_row_logsumexp_equals_scipy_bit_for_bit(z):
    got = _logsumexp_rows(z)
    want = scipy.special.logsumexp(z, axis=1, keepdims=True)
    assert got.shape == want.shape == (z.shape[0], 1)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [np.inf, np.nan, "all -inf"])
def test_non_finite_row_maxima_take_scipys_path(monkeypatch, bad):
    z = np.array([[0.5, -1.0, 0.5], [2.0, -np.inf, 3.0]])
    if bad == "all -inf":
        z[1] = -np.inf
    else:
        z[1, 0] = bad
    calls = []
    real = scipy.special.logsumexp

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.special, "logsumexp", counting)
    got = _logsumexp_rows(z)
    assert calls == [1]
    assert got.tobytes() == real(z, axis=1, keepdims=True).tobytes()
    _logsumexp_rows(z[:1])
    assert calls == [1]  # a finite maximum stays on the private path
