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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .filters import asgc_filter, sgc_filter
from .graph import Graph
from .parallel import parallel_map

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

    def edge_probabilities(self) -> tuple[float, float]:
        ratio = float(np.exp(self.log_ratio))
        q = self.expected_degree / (self.n_per_block * (1.0 + ratio))
        p = q * ratio
        if not (0.0 < p <= 1.0 and 0.0 < q <= 1.0):
            raise ValueError(f"derived edge probabilities out of range: p={p:g}, q={q:g}")
        return p, q


def generate_sbm(cfg: SbmConfig) -> tuple[Graph, np.ndarray, np.ndarray]:
    """Draw (graph, noisy feature, block labels) reproducibly from cfg.seed.

    Labels are -1 for the first block and +1 for the second; the feature is
    the label plus standard normal noise. Pair sampling is dense, so this is
    intended for block sizes up to a few thousand.
    """
    p, q = cfg.edge_probabilities()
    n = 2 * cfg.n_per_block
    labels = np.repeat([-1, 1], cfg.n_per_block)
    rng = np.random.default_rng(cfg.seed)
    prob = np.where(labels[:, None] == labels[None, :], p, q)
    upper = np.triu(rng.random((n, n)) < prob, k=1)
    ii, jj = np.nonzero(upper)
    graph = Graph.from_edges(n, np.column_stack([ii, jj]))
    feature = labels + rng.standard_normal(n)
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


def denoise_trial(cfg: SbmConfig, k_hops: int = 2, rank_tol: float = 1e-10) -> dict[str, MethodDenoise]:
    """Run one trial: generate a graph and score raw/sgc/asgc denoising."""
    graph, feature, labels = generate_sbm(cfg)
    outputs = {
        "raw": feature,
        "sgc": sgc_filter(graph, feature, k_hops),
        "asgc": asgc_filter(graph, feature, k_hops, rank_tol).filtered,
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


def trial_seed(seed: int, grid_index: int, trial_index: int) -> int:
    """Derive the RNG seed for one (grid point, trial) work item.

    Uses a spawn key rather than arithmetic on the seed, so streams stay
    independent regardless of execution order or parallel scheduling.
    """
    ss = np.random.SeedSequence(seed, spawn_key=(grid_index, trial_index))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def run_sweep(
    log_ratios: Sequence[float],
    trials: int = 10,
    k_hops: int = 2,
    n_per_block: int = 500,
    expected_degree: float = 10.0,
    seed: int = 0,
    jobs: int = 1,
) -> list[DenoiseReport]:
    """Average denoising metrics over trials for each log-ratio grid point.

    Trials and grid points are independent work items; with ``jobs > 1`` they
    run on a thread pool, and results are identical to the sequential order
    because every item derives its own RNG stream from (seed, grid, trial).
    """
    if len(log_ratios) == 0:
        raise ValueError("log_ratio grid must be nonempty")
    if trials < 1:
        raise ValueError("trials must be >= 1")

    def one(item):
        gi, ti = item
        cfg = SbmConfig(
            n_per_block=n_per_block,
            expected_degree=expected_degree,
            log_ratio=float(log_ratios[gi]),
            seed=trial_seed(seed, gi, ti),
        )
        return denoise_trial(cfg, k_hops)

    items = [(gi, ti) for gi in range(len(log_ratios)) for ti in range(trials)]
    outcomes = parallel_map(one, items, jobs)
    reports = []
    for gi, rho in enumerate(log_ratios):
        block = outcomes[gi * trials:(gi + 1) * trials]
        rms_deviation, sign_error = {}, {}
        for m in METHODS:
            rms_deviation[m] = float(np.mean([o[m].rms_deviation for o in block]))
            sign_error[m] = float(np.mean([o[m].sign_error for o in block]))
        reports.append(DenoiseReport(float(rho), rms_deviation, sign_error))
    return reports
