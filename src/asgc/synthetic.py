"""Two-block stochastic block models and the single-feature denoising benchmark.

A graph of 2 * n_per_block nodes is drawn with intra-block edge probability p
and inter-block probability q, parameterized by a fixed expected degree and
the log-ratio ln(p/q): negative log-ratios give heterophilous (near-bipartite)
graphs, positive ones homophilous graphs. Each node carries one feature,
-1 or +1 by block, plus standard normal noise; the benchmark measures how well
the smoothing and adaptive filters pull the feature back toward the block
means.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .filters import asgc_filter, sgc_filter
from .graph import Graph
from .parallel import parallel_map, spawn_seed

METHODS = ("raw", "sgc", "asgc")


@dataclass(frozen=True)
class SbmConfig:
    """Two-block SBM parameters.

    ``expected_degree`` and ``log_ratio`` determine the edge probabilities via
    p + q = expected_degree / n_per_block and p / q = exp(log_ratio), so the
    expected node degree stays fixed while the mixing varies.
    """

    n_per_block: int = 500
    expected_degree: float = 10.0
    log_ratio: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (isinstance(self.n_per_block, (int, np.integer)) and self.n_per_block >= 1):
            raise ValueError(f"n_per_block must be an integer >= 1: n_per_block={self.n_per_block}")
        self.edge_probabilities()  # a config no trial can draw is never built

    def edge_probabilities(self) -> tuple[float, float]:
        with np.errstate(over="ignore"):
            ratio = float(np.exp(self.log_ratio))
            scale = self.n_per_block * (1.0 + ratio)
        if not np.isfinite(ratio):
            raise ValueError(f"exp(log_ratio) is not finite: log_ratio={self.log_ratio:g}")
        if not np.isfinite(scale):
            raise ValueError(
                f"n_per_block * (1 + exp(log_ratio)) overflows: "
                f"n_per_block={self.n_per_block}, log_ratio={self.log_ratio:g}"
            )
        q = self.expected_degree / scale
        p = q * ratio
        if not (0.0 < p <= 1.0 and 0.0 < q <= 1.0):
            raise ValueError(f"derived edge probabilities out of range: p={p:g}, q={q:g}")
        return p, q


def generate_sbm(cfg: SbmConfig) -> tuple[Graph, np.ndarray, np.ndarray]:
    """Draw (graph, noisy feature, block labels) reproducibly from cfg.seed.

    Labels are -1 for the first block and +1 for the second; the feature is
    the label plus standard normal noise. Each block pair's edges are drawn in
    O(n + m): a Binomial count of its b * b cells, then a uniform subset of
    that many cells, which is one independent Bernoulli draw per cell. Within
    a block only the cells with i < j are kept, one per unordered pair.
    """
    p, q = cfg.edge_probabilities()
    b = cfg.n_per_block
    labels = np.repeat([-1, 1], b)
    rng = np.random.default_rng(cfg.seed)
    pairs = []
    for prob, row0, col0 in ((p, 0, 0), (p, b, b), (q, 0, b)):
        m = rng.binomial(b * b, prob)
        cells = rng.choice(b * b, m, replace=False, shuffle=False)
        i, j = np.divmod(cells, b)
        if row0 == col0:
            keep = i < j
            i, j = i[keep], j[keep]
        pairs.append(np.column_stack([i + row0, j + col0]))
    graph = Graph.from_edges(2 * b, np.concatenate(pairs))
    feature = labels + rng.standard_normal(2 * b)
    return graph, feature, labels


def denoise_metrics(filtered, labels) -> tuple[float, float]:
    """(rms deviation from the +-1 block means, sign-error fraction).

    A filtered value of exactly zero counts as a sign error.
    """
    filtered = np.asarray(filtered, dtype=np.float64)
    labels = np.asarray(labels)
    if filtered.shape != labels.shape:
        raise ValueError("filtered feature and labels must have equal length")
    rms = float(np.sqrt(np.mean((filtered - labels) ** 2)))
    matched = ((filtered > 0) & (labels > 0)) | ((filtered < 0) & (labels < 0))
    return rms, float(1.0 - np.mean(matched))


@dataclass(frozen=True)
class MethodDenoise:
    """Per-method outcome of a single denoising trial."""

    rms_deviation: float
    sign_error: float
    minus_mean: float
    plus_mean: float


def denoise_trial(cfg: SbmConfig, k_hops: int = 2) -> dict[str, MethodDenoise]:
    """Run one trial: generate a graph and score raw/sgc/asgc denoising."""
    graph, feature, labels = generate_sbm(cfg)
    outputs = {
        "raw": feature,
        "sgc": sgc_filter(graph, feature, k_hops),
        "asgc": asgc_filter(graph, feature, k_hops).filtered,
    }
    result = {}
    for method, values in outputs.items():
        rms, sign_error = denoise_metrics(values, labels)
        result[method] = MethodDenoise(
            rms_deviation=rms,
            sign_error=sign_error,
            minus_mean=float(values[labels < 0].mean()),
            plus_mean=float(values[labels > 0].mean()),
        )
    return result


@dataclass(frozen=True)
class DenoiseReport:
    """Trial-averaged metrics at one log-ratio grid point, keyed by method."""

    log_ratio: float
    rms_deviation: dict[str, float]
    sign_error: dict[str, float]


def run_sweep(
    log_ratios: Sequence[float],
    trials: int = 10,
    k_hops: int = 2,
    seed: int = 0,
    jobs: int = 1,
) -> list[DenoiseReport]:
    """Average denoising metrics over trials for each log-ratio grid point.

    Trials and grid points are independent work items; with ``jobs > 1`` they
    run on a process pool, and results are identical to the sequential order
    because every item derives its own RNG stream from (seed, grid, trial).
    """
    if len(log_ratios) == 0:
        raise ValueError("log_ratio grid must be nonempty")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    grid = [SbmConfig(log_ratio=float(rho)) for rho in log_ratios]
    if k_hops < 1:
        raise ValueError("k_hops must be >= 1")
    outcomes = parallel_map(
        lambda item: denoise_trial(replace(grid[item[0]], seed=spawn_seed(seed, *item)), k_hops),
        [(gi, ti) for gi in range(len(grid)) for ti in range(trials)],
        jobs,
    )
    reports = []
    for gi, cfg in enumerate(grid):
        block = outcomes[gi * trials:(gi + 1) * trials]
        rms_deviation, sign_error = {}, {}
        for m in METHODS:
            rms_deviation[m] = float(np.mean([o[m].rms_deviation for o in block]))
            sign_error[m] = float(np.mean([o[m].sign_error for o in block]))
        reports.append(DenoiseReport(cfg.log_ratio, rms_deviation, sign_error))
    return reports
