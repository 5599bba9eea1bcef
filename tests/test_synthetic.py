import dataclasses
import functools
import math

import numpy as np
import pytest
from scipy.stats import chi2

from asgc import synthetic
from asgc import (
    SbmConfig,
    degrees,
    denoise_metrics,
    denoise_trial,
    generate_sbm,
    run_sweep,
)
from conftest import traced_peak


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
    # a config no trial can draw cannot be built at all
    with pytest.raises(ValueError, match="^derived edge probabilities out of range: p=1.5, q=1.5$"):
        SbmConfig(n_per_block=100, expected_degree=300.0)
    for log_ratio, shown in ((710.0, "710"), (math.inf, "inf"), (math.nan, "nan")):
        with pytest.raises(ValueError, match=f"^exp\\(log_ratio\\) is not finite: log_ratio={shown}$"):
            SbmConfig(log_ratio=log_ratio)
    # exp(705) is finite, but 500 times it is not
    with pytest.raises(
        ValueError,
        match=r"^n_per_block \* \(1 \+ exp\(log_ratio\)\) overflows: n_per_block=500, log_ratio=705$",
    ):
        SbmConfig(log_ratio=705.0)
    for n_per_block in (0, 50.5):
        with pytest.raises(ValueError, match=f"^n_per_block must be an integer >= 1: n_per_block={n_per_block}$"):
            SbmConfig(n_per_block=n_per_block)


def test_generation_reproducible_from_seed():
    cfg = SbmConfig(n_per_block=100, log_ratio=-1.0, seed=42)
    g1, x1, y1 = generate_sbm(cfg)
    g2, x2, y2 = generate_sbm(cfg)
    assert np.array_equal(g1.adjacency.indptr, g2.adjacency.indptr)
    assert np.array_equal(g1.adjacency.indices, g2.adjacency.indices)
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


def block_pair_counts(g, b):
    """Undirected edge counts (within A, within B, across) of a two-block graph."""
    i, j = np.nonzero(np.triu(g.adjacency.toarray(), k=1))
    return (
        int(np.sum(j < b)),
        int(np.sum(i >= b)),
        int(np.sum((i < b) & (j >= b))),
    )


@pytest.mark.parametrize("log_ratio", [-2.0, 2.0])
def test_block_pair_edge_counts_match_binomial_means(log_ratio):
    b = 200
    cfg = SbmConfig(n_per_block=b, log_ratio=log_ratio)
    p, q = cfg.edge_probabilities()
    trials = (math.comb(b, 2), p), (math.comb(b, 2), p), (b * b, q)
    seeds = range(20)
    totals = np.zeros(3)
    for seed in seeds:
        g, _, _ = generate_sbm(SbmConfig(n_per_block=b, log_ratio=log_ratio, seed=seed))
        counts = block_pair_counts(g, b)
        totals += counts
        for count, (cells, prob) in zip(counts, trials):
            assert abs(count - cells * prob) <= 4 * math.sqrt(cells * prob * (1 - prob))
    for total, (cells, prob) in zip(totals, trials):
        cells *= len(seeds)
        assert abs(total - cells * prob) <= 4 * math.sqrt(cells * prob * (1 - prob))


def test_every_pair_of_a_tiny_sbm_has_its_bernoulli_frequency():
    # b = 3, p = 1/3, q = 1/6: 6 within-block and 9 cross-block unordered pairs,
    # each independently Binomial(trials, p or q) under the exact law.
    cfg = SbmConfig(n_per_block=3, expected_degree=1.5, log_ratio=math.log(2.0))
    p, q = cfg.edge_probabilities()
    trials = 2000
    hits = np.zeros((6, 6))
    for seed in range(trials):
        g, _, _ = generate_sbm(dataclasses.replace(cfg, seed=seed))
        hits += g.adjacency.toarray()
    i, j = np.triu_indices(6, k=1)
    prob = np.where((i < 3) == (j < 3), p, q)
    expected = trials * prob
    statistic = np.sum((hits[i, j] - expected) ** 2 / (expected * (1 - prob)))
    assert statistic <= chi2.ppf(0.999, df=len(i))


def test_sampler_emits_no_self_loops_or_duplicate_pairs(monkeypatch):
    # from_edges would silently drop loops and merge duplicates, so check what
    # the sampler hands it.
    emitted = []
    build = synthetic.Graph.from_edges

    def recording(n, edges):
        emitted.append(np.asarray(edges))
        return build(n, edges)

    monkeypatch.setattr(synthetic.Graph, "from_edges", staticmethod(recording))
    for seed in range(5):
        g, _, _ = generate_sbm(SbmConfig(n_per_block=100, log_ratio=1.0, seed=seed))
        edges = emitted[-1]
        assert np.all(edges[:, 0] != edges[:, 1])
        unordered = np.sort(edges, axis=1)
        assert len(np.unique(unordered, axis=0)) == len(edges) == g.adjacency.nnz // 2


def test_generation_at_vanishing_q_and_unit_p():
    g, _, _ = generate_sbm(SbmConfig(log_ratio=30.0, seed=3))
    assert block_pair_counts(g, 500)[2] == 0
    cfg = SbmConfig(n_per_block=4, expected_degree=4.0, log_ratio=40.0, seed=1)
    assert cfg.edge_probabilities()[0] == 1.0
    g, _, _ = generate_sbm(cfg)
    assert block_pair_counts(g, 4) == (6, 6, 0)


def test_hundred_thousand_node_sbm_is_sparse_in_time_and_memory():
    # A dense n x n draw would need n^2 = 1e10 cells; 256 MB is far below.
    (g, x, _), peak = traced_peak(lambda: generate_sbm(SbmConfig(n_per_block=50_000, seed=0)))
    assert g.n == x.shape[0] == 100_000
    assert abs(degrees(g).mean() - 10.0) <= 0.01 * 10.0
    assert peak < 256 * 2**20


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


def test_denoise_metrics_rejects_a_length_mismatch():
    with pytest.raises(ValueError, match="^filtered feature and labels must have equal length$"):
        denoise_metrics(np.zeros(3), np.array([-1, 1]))


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


def test_run_sweep_shapes_and_determinism(monkeypatch):
    monkeypatch.setattr(synthetic, "SbmConfig", functools.partial(SbmConfig, n_per_block=50))
    grid = [-1.0, 0.0, 1.0]
    a = run_sweep(grid, trials=2, k_hops=2, seed=5)
    b = run_sweep(grid, trials=2, k_hops=2, seed=5)
    assert [r.log_ratio for r in a] == grid
    for ra, rb in zip(a, b):
        assert ra == rb


def test_run_sweep_parallel_matches_sequential(monkeypatch):
    monkeypatch.setattr(synthetic, "SbmConfig", functools.partial(SbmConfig, n_per_block=50))
    grid = [-2.0, 2.0]
    seq = run_sweep(grid, trials=3, k_hops=2, seed=9, jobs=1)
    par = run_sweep(grid, trials=3, k_hops=2, seed=9, jobs=4)
    assert seq == par


def test_run_sweep_validates_arguments(monkeypatch):
    with pytest.raises(ValueError):
        run_sweep([], trials=2)
    with pytest.raises(ValueError):
        run_sweep([0.0], trials=0)

    def no_trial(*args, **kwargs):
        pytest.fail("a trial ran before the grid was checked")

    # the bad grid point fails before the k_hops check and before any trial
    monkeypatch.setattr(synthetic, "denoise_trial", no_trial)
    with pytest.raises(ValueError, match="^derived edge probabilities out of range: p=0, q=0.02$"):
        run_sweep([0.0, -800.0], trials=2, k_hops=0)
