"""Property test: the chunked adaptive filter equals its one-column-at-a-time loop."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import random_graph  # noqa: E402
from test_filters import assert_asgc_equals_per_column_loop  # noqa: E402


@st.composite
def filter_problems(draw):
    """2-30 nodes with isolated nodes allowed; features with a zero and a constant column."""
    n = draw(st.integers(2, 30))
    f = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    p = draw(st.floats(0.0, 0.5))
    rng = np.random.default_rng(seed)
    g = random_graph(n, p, rng, ensure_min_degree=False)
    x = rng.standard_normal((n, f))
    x[:, draw(st.integers(0, f - 1))] = 0.0
    x[:, draw(st.integers(0, f - 1))] = draw(st.floats(-3.0, 3.0))
    return g, x


@settings(max_examples=60, deadline=None, derandomize=True)
@given(filter_problems(), st.integers(1, 5))
def test_asgc_equals_per_column_loop(problem, k_hops):
    g, x = problem
    assert_asgc_equals_per_column_loop(g, x, k_hops)
