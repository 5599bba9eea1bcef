import numpy as np
import pytest

from asgc import (
    SbmConfig,
    degrees,
    denoise_metrics,
    denoise_trial,
    generate_sbm,
    run_sweep,
)


def test_edge_probabilities_balanced_at_zero_log_ratio():
    p, q = SbmConfig(n_per_block=500, expected_degree=10.0, log_ratio=0.0).edge_probabilities()
    assert p == pytest.approx(0.01, abs=1e-15)
    assert q == pytest.approx(0.01, abs=1e-15)


def test_edge_probabilities_vanishing_q_in_homophilous_limit():
    p, q = SbmConfig(log_ratio=30.0).edge_probabilities()
    assert q < 1e-12
    assert p == pytest.approx(10.0 / 500, rel=1e-6)


def test_edge_probabilities_out_of_range_rejected():
    with pytest.raises(ValueError):
        SbmConfig(n_per_block=100, expected_degree=300.0).edge_probabilities()


def test_generation_reproducible_from_seed():
    cfg = SbmConfig(n_per_block=100, log_ratio=-1.0, seed=42)
    g1, x1, y1 = generate_sbm(cfg)
    g2, x2, y2 = generate_sbm(cfg)
    assert np.array_equal(g1.indptr, g2.indptr)
    assert np.array_equal(g1.indices, g2.indices)
    assert np.array_equal(x1, x2)
    assert np.array_equal(y1, y2)


def test_generation_block_structure():
    cfg = SbmConfig(n_per_block=100, log_ratio=0.0, seed=1)
    g, x, y = generate_sbm(cfg)
    assert g.n == 200
    assert y[:100].tolist() == [-1] * 100
    assert y[100:].tolist() == [1] * 100
    assert x.shape == (200,)


def test_mean_degree_matches_target():
    means = []
    for seed in range(10):
        g, _, _ = generate_sbm(SbmConfig(log_ratio=-2.0, seed=seed))
        means.append(degrees(g).mean())
    assert abs(np.mean(means) - 10.0) <= 1.0


def test_denoise_metrics_perfect():
    labels = np.array([-1, -1, 1, 1])
    assert denoise_metrics(labels.astype(float), labels) == (0.0, 0.0)


def test_denoise_metrics_fully_wrong():
    labels = np.array([-1, 1, -1, 1])
    rms, sign = denoise_metrics(-labels.astype(float), labels)
    assert rms == pytest.approx(2.0)
    assert sign == 1.0


def test_denoise_metrics_zeros_count_as_errors():
    labels = np.array([-1, 1])
    rms, sign = denoise_metrics(np.zeros(2), labels)
    assert rms == pytest.approx(1.0)
    assert sign == 1.0


def test_uninformative_graph_no_filter_beats_raw():
    # at log-ratio zero the graph carries no community signal
    raw_errors, sgc_errors, asgc_errors = [], [], []
    for seed in range(3):
        out = denoise_trial(SbmConfig(log_ratio=0.0, seed=seed), k_hops=2)
        raw_errors.append(out["raw"].sign_error)
        sgc_errors.append(out["sgc"].sign_error)
        asgc_errors.append(out["asgc"].sign_error)
    raw_mean = np.mean(raw_errors)
    assert raw_mean == pytest.approx(0.1587, abs=0.05)
    assert np.mean(sgc_errors) >= raw_mean - 0.05
    assert np.mean(asgc_errors) >= raw_mean - 0.05


def test_homophilous_extreme_smoothing_wins_rms():
    reports = run_sweep([5.0], trials=3, k_hops=2, seed=7)
    r = reports[0]
    assert r.rms_deviation["sgc"] <= r.rms_deviation["asgc"] + 0.05


def test_adaptive_filter_rms_symmetric_in_log_ratio():
    reports = run_sweep([-5.0, 5.0], trials=3, k_hops=2, seed=3)
    lo, hi = reports[0].rms_deviation["asgc"], reports[1].rms_deviation["asgc"]
    assert abs(lo - hi) <= 0.25 * max(lo, hi)


def test_adaptive_filter_preserves_community_means_when_heterophilous():
    out = denoise_trial(SbmConfig(log_ratio=-5.0, seed=11), k_hops=2)
    assert abs(out["asgc"].minus_mean - (-1.0)) <= 0.2
    assert abs(out["asgc"].plus_mean - 1.0) <= 0.2


def test_run_sweep_shapes_and_determinism():
    grid = [-1.0, 0.0, 1.0]
    a = run_sweep(grid, trials=2, k_hops=2, n_per_block=50, seed=5)
    b = run_sweep(grid, trials=2, k_hops=2, n_per_block=50, seed=5)
    assert [r.log_ratio for r in a] == grid
    for ra, rb in zip(a, b):
        assert ra == rb


def test_run_sweep_parallel_matches_sequential():
    grid = [-2.0, 2.0]
    seq = run_sweep(grid, trials=3, k_hops=2, n_per_block=50, seed=9, jobs=1)
    par = run_sweep(grid, trials=3, k_hops=2, n_per_block=50, seed=9, jobs=4)
    assert seq == par


def test_run_sweep_validates_arguments():
    with pytest.raises(ValueError):
        run_sweep([], trials=2)
    with pytest.raises(ValueError):
        run_sweep([0.0], trials=0)
