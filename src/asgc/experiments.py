"""Benchmark protocol: per-split method runs, the convex-combination search,
hop sweeps, and proportional-accuracy aggregation.

Methods:

* ``raw``   - logistic regression on the unfiltered features.
* ``sgc``   - logistic regression on the K-hop smoothed features.
* ``sgc1``  - the same with the hop count forced to 1.
* ``asgc``  - logistic regression on the adaptively filtered features.
* ``combo`` - validation-selected convex blend of raw/sgc/asgc features.

Non-combo methods have no validation-dependent hyperparameters, so they train
on train + validation; the combo search selects its blend on validation and
then retrains the winner on train + validation, putting every method on the
same 80% of labels before testing.

There is one trial loop, :func:`k_sweep`; :func:`classification_trials` is a
sweep of one hop count. ``jobs`` spreads each hop count's trials over a
thread pool without changing any result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

from .data import LabeledDataset, SplitSpec, make_splits
from .filters import asgc_filter, blend, sgc_filter, simplex_grid
from .numeric import accuracy, fit_logistic, predict
from .parallel import parallel_map, spawn_seed

METHODS = ("raw", "sgc", "sgc1", "asgc", "combo")
K_FREE_METHODS = ("raw", "sgc1")  # their features, and so their results, ignore k_hops


@dataclass(frozen=True)
class TrialResult:
    """One (dataset, method, split) outcome; ``trial`` is the split's index."""

    dataset: str
    method: str
    k_hops: int
    seed: int
    test_accuracy: float
    validation_accuracy: float | None = None
    chosen_weights: tuple[float, float, float] | None = None
    trial: int = 0


def method_features(ds: LabeledDataset, method: str, k_hops: int) -> np.ndarray | sp.csr_matrix:
    """The feature matrix a non-combo method trains on at hop count ``k_hops``.

    ``raw`` is a scipy CSR matrix, so the classifier's cost follows the
    nonzeros; CSR ``ds.features`` are used as they are, without a copy.
    ``combo`` blends a dense form of ``ds.features`` with the ``sgc`` and
    ``asgc`` matrices and has no matrix of its own.
    """
    if method == "raw":
        return sp.csr_matrix(ds.features)
    if method == "sgc":
        return sgc_filter(ds.graph, ds.features, k_hops)
    if method == "sgc1":
        return sgc_filter(ds.graph, ds.features, 1)
    if method == "asgc":
        return asgc_filter(ds.graph, ds.features, k_hops).filtered
    raise ValueError(f"unknown method {method!r}")


def _features(ds, methods, k_hops) -> dict[str, np.ndarray | sp.csr_matrix]:
    """Every matrix the given methods train on at one hop count, each built once.

    Filtering is unsupervised, so the matrices depend only on (dataset, k) and
    are shared across methods and splits.
    """
    need = {n for m in methods for n in (("sgc", "asgc") if m == "combo" else (m,))}
    return {m: method_features(ds, m, k_hops) for m in METHODS if m in need}


def run_method(
    ds: LabeledDataset,
    split: SplitSpec,
    method: str,
    k_hops: int = 6,
    resolution: int = 3,
    features: Mapping[str, np.ndarray | sp.csr_matrix] | None = None,
) -> TrialResult:
    """Train one method on one split and score it on the test nodes.

    ``features`` maps each method name to its matrix at ``k_hops`` (see
    :func:`method_features`); when omitted, the matrices are computed here.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if features is None:
        features = _features(ds, [method], k_hops)
    if method == "combo":
        return combo_search(
            ds, split, ds.features, features["sgc"], features["asgc"],
            resolution=resolution, k_hops=k_hops,
        )
    x = features[method]
    fit_idx = np.concatenate([split.train, split.validation])
    model = fit_logistic(x[fit_idx], ds.labels[fit_idx])
    test_accuracy = accuracy(predict(model, x[split.test]), ds.labels[split.test])
    return TrialResult(
        dataset=ds.name,
        method=method,
        k_hops=k_hops,
        seed=split.seed,
        test_accuracy=test_accuracy,
    )


def combo_search(
    ds: LabeledDataset,
    split: SplitSpec,
    x_raw: np.ndarray | sp.csr_matrix,
    x_sgc: np.ndarray,
    x_asgc: np.ndarray,
    resolution: int = 3,
    k_hops: int = 6,
) -> TrialResult:
    """Grid-search convex blend weights by validation accuracy, then retrain.

    Every simplex lattice triple is tried in deterministic grid order; a
    strictly better validation accuracy is required to displace the incumbent,
    so ties resolve to the first maximum seen. The winning blend is retrained
    on train + validation and scored on test. A sparse ``x_raw`` is densified
    once, here, for every blend of the search.
    """
    if sp.issparse(x_raw):
        x_raw = x_raw.toarray()
    y = ds.labels
    best_weights: tuple[float, float, float] | None = None
    best_val = -np.inf
    for weights in simplex_grid(resolution):
        blended = blend(x_raw, x_sgc, x_asgc, weights)
        model = fit_logistic(blended[split.train], y[split.train])
        val_acc = accuracy(predict(model, blended[split.validation]), y[split.validation])
        if val_acc > best_val:
            best_val = val_acc
            best_weights = weights
    assert best_weights is not None
    blended = blend(x_raw, x_sgc, x_asgc, best_weights)
    fit_idx = np.concatenate([split.train, split.validation])
    final = fit_logistic(blended[fit_idx], y[fit_idx])
    test_accuracy = accuracy(predict(final, blended[split.test]), y[split.test])
    return TrialResult(
        dataset=ds.name,
        method="combo",
        k_hops=k_hops,
        seed=split.seed,
        test_accuracy=test_accuracy,
        validation_accuracy=float(best_val),
        chosen_weights=best_weights,
    )


def classification_trials(
    ds: LabeledDataset,
    method: str,
    k_hops: int = 6,
    trials: int = 10,
    seed: int = 0,
    resolution: int = 3,
    jobs: int = 1,
) -> list[TrialResult]:
    """Run one method over ``trials`` random splits: a sweep of one hop count."""
    return k_sweep(ds, [method], [k_hops], trials, seed, resolution, jobs)


def k_sweep(
    ds: LabeledDataset,
    methods: Sequence[str] = METHODS,
    k_values: Iterable[int] = range(1, 11),
    trials: int = 10,
    seed: int = 0,
    resolution: int = 3,
    jobs: int = 1,
) -> list[TrialResult]:
    """Cross-product of hop counts, trials, and methods.

    For a fixed (k, trial) every method sees the identical split, so method
    comparisons are paired. Filter matrices are computed once per hop count.
    The k-independent methods (:data:`K_FREE_METHODS`) are trained once per
    trial, and that result is repeated under every hop count.

    Each hop count's trials run through :func:`parallel_map`. Splits derive
    from (seed, trial index) and a trial's k-free results are written only by
    that trial's work item, so the results do not depend on ``jobs``.
    """
    methods = list(methods)
    k_values = list(k_values)
    if not methods or not k_values:
        raise ValueError("methods and k_values must be nonempty")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if min(k_values) < 1:
        raise ValueError("k_hops must be >= 1")
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}")
    if len(set(methods)) != len(methods):
        raise ValueError(f"methods must not repeat: {methods}")
    splits = [make_splits(ds.n, spawn_seed(seed, t)) for t in range(trials)]
    k_free: dict[tuple[int, str], TrialResult] = {}

    def one_trial(t, k, features) -> list[TrialResult]:
        row = []
        for m in methods:
            result = k_free.get((t, m))
            if result is None:
                result = replace(run_method(ds, splits[t], m, k, resolution, features), trial=t)
                if m in K_FREE_METHODS:
                    k_free[t, m] = result
            row.append(replace(result, k_hops=k))
        return row

    results = []
    for i, k in enumerate(k_values):
        need = methods if i == 0 else [m for m in methods if m not in K_FREE_METHODS]
        features = None  # free the previous hop count's matrices before building the next
        features = _features(ds, need, k)
        rows = parallel_map(lambda t: one_trial(t, k, features), range(trials), jobs)
        results.extend(r for row in rows for r in row)
    return results


@dataclass(frozen=True, eq=False)
class AggregateReport:
    """Per-dataset accuracy statistics and cross-dataset proportional summary.

    ``proportion[(method, dataset)]`` is that method's mean accuracy divided
    by the best method's mean accuracy on the dataset, so the per-dataset
    winner scores exactly 1. External reference methods (reported numbers,
    never trained here) carry source ``"reported"``.
    """

    datasets: tuple[str, ...]
    methods: tuple[str, ...]
    sources: dict[str, str]
    accuracy_mean: dict[tuple[str, str], float]
    accuracy_std: dict[tuple[str, str], float]
    proportion: dict[tuple[str, str], float]
    mean_proportion: dict[str, float]
    min_proportion: dict[str, float]


def aggregate(
    results: Sequence[TrialResult],
    external_baselines: Mapping[str, Mapping[str, float]] | None = None,
) -> AggregateReport:
    """Aggregate trial results into proportional accuracies per method.

    Every measured method must cover every dataset present; external baseline
    tables must cover the same datasets. Proportions are scale-free per
    dataset: rescaling all accuracies on one dataset leaves them unchanged.
    """
    if not results:
        raise ValueError("no results to aggregate")
    datasets = tuple(sorted({r.dataset for r in results}))
    measured = tuple(sorted({r.method for r in results}))
    by_key: dict[tuple[str, str], list[float]] = {}
    for r in results:
        by_key.setdefault((r.method, r.dataset), []).append(r.test_accuracy)
    accuracy_mean: dict[tuple[str, str], float] = {}
    accuracy_std: dict[tuple[str, str], float] = {}
    for m in measured:
        for d in datasets:
            if (m, d) not in by_key:
                raise ValueError(f"method {m!r} has no results on dataset {d!r}")
            vals = np.asarray(by_key[(m, d)])
            accuracy_mean[(m, d)] = float(vals.mean())
            accuracy_std[(m, d)] = float(vals.std())
    sources = {m: "measured" for m in measured}
    external_baselines = external_baselines or {}
    for name, table in external_baselines.items():
        if name in sources:
            raise ValueError(f"external baseline {name!r} collides with a measured method")
        missing = [d for d in datasets if d not in table]
        if missing:
            raise ValueError(f"external baseline {name!r} missing datasets {missing}")
        sources[name] = "reported"
        for d in datasets:
            accuracy_mean[(name, d)] = float(table[d])
            accuracy_std[(name, d)] = 0.0
    methods = tuple(list(measured) + sorted(external_baselines))
    proportion: dict[tuple[str, str], float] = {}
    for d in datasets:
        best = max(accuracy_mean[(m, d)] for m in methods)
        if best <= 0:
            raise ValueError(f"no method has positive accuracy on dataset {d!r}")
        for m in methods:
            proportion[(m, d)] = accuracy_mean[(m, d)] / best
    mean_proportion = {
        m: float(np.mean([proportion[(m, d)] for d in datasets])) for m in methods
    }
    min_proportion = {
        m: float(min(proportion[(m, d)] for d in datasets)) for m in methods
    }
    return AggregateReport(
        datasets=datasets,
        methods=methods,
        sources=sources,
        accuracy_mean=accuracy_mean,
        accuracy_std=accuracy_std,
        proportion=proportion,
        mean_proportion=mean_proportion,
        min_proportion=min_proportion,
    )
