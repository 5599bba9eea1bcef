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
process pool without changing any result.

Fits and scores read contiguous row blocks: a trial lays out the rows of a
dense matrix in its split's order (train, validation, test), so the
classifier gets views, never row-gathered copies, and the same bits.
"""

from __future__ import annotations

from contextlib import contextmanager
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


def method_features(
    ds: LabeledDataset, methods: Iterable[str], k_hops: int
) -> dict[str, np.ndarray | sp.csr_matrix]:
    """Every matrix the given methods train on at hop count ``k_hops``, each built once.

    Keys come in :data:`METHODS` order. ``raw`` is a scipy CSR matrix, so the
    classifier's cost follows the nonzeros; CSR ``ds.features`` are used as
    they are, without a copy. ``combo`` has no matrix of its own: it needs
    ``sgc`` and ``asgc``, which it blends with a dense form of ``ds.features``.
    Filtering is unsupervised, so the matrices depend only on (dataset, k) and
    are shared across methods and splits.
    """
    need = set()
    for m in methods:
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; expected one of {METHODS}")
        need.update(("sgc", "asgc") if m == "combo" else (m,))
    builds = {  # the filters are looked up when called, so patches of this module apply
        "raw": lambda: sp.csr_matrix(ds.features),
        "sgc": lambda: sgc_filter(ds.graph, ds.features, k_hops),
        "sgc1": lambda: sgc_filter(ds.graph, ds.features, 1),
        "asgc": lambda: asgc_filter(ds.graph, ds.features, k_hops).filtered,
    }
    return {m: build() for m, build in builds.items() if m in need}


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
    A dense matrix is reordered in place for the fit and put back before
    this returns, also if the fit raises.
    """
    if features is None:
        features = method_features(ds, [method], k_hops)
    if method == "combo":
        return combo_search(
            ds, split, ds.features, features["sgc"], features["asgc"],
            resolution=resolution, k_hops=k_hops,
        )
    order = _split_order(split)
    n_fit = len(split.train) + len(split.validation)
    with _rows_in_order(features[method], order) as x:
        test_accuracy = _fit_score(x, ds.labels[order], slice(None, n_fit), slice(n_fit, None))
    return TrialResult(
        dataset=ds.name,
        method=method,
        k_hops=k_hops,
        seed=split.seed,
        test_accuracy=test_accuracy,
    )


def _fit_score(x, y, fit_rows, score_rows) -> float:
    """Fit the classifier on rows ``fit_rows`` of ``x`` and score it on ``score_rows``."""
    model = fit_logistic(x[fit_rows], y[fit_rows])
    return accuracy(predict(model, x[score_rows]), y[score_rows])


def _split_order(split: SplitSpec) -> np.ndarray:
    """Every node once: train, then validation, then test.

    Each set is sorted, so its block holds the rows a gather by the set would.
    """
    return np.concatenate([split.train, split.validation, split.test])


def _reorder_rows(x: np.ndarray, order) -> None:
    """Make ``x`` equal ``x[order]`` in place, for a permutation ``order`` of its rows.

    Each cycle of the permutation is walked with one row held aside, so no
    copy of ``x`` is made.
    """
    order = np.asarray(order).tolist()
    done = [False] * len(order)
    for start, target in enumerate(order):
        if done[start] or target == start:
            continue
        held = x[start].copy()
        i = start
        while order[i] != start:
            done[i] = True
            x[i] = x[order[i]]
            i = order[i]
        done[i] = True
        x[i] = held


@contextmanager
def _rows_in_order(x, order):
    """``x`` with its rows in ``order``, for the duration of the ``with`` block.

    A C-ordered, writable array is reordered in place and put back on exit,
    also when the block raises, so the caller's bytes are left as they were.
    Any other dense array is first copied to C order, the layout a row gather
    gives. A sparse matrix is gathered as CSR: its rows cost only their
    nonzeros.
    """
    if sp.issparse(x):
        yield sp.csr_matrix(x)[order]
        return
    x = np.asarray(x)
    if not (x.flags.c_contiguous and x.flags.writeable):
        x = np.array(x, order="C")
    _reorder_rows(x, order)
    try:
        yield x
    finally:
        _reorder_rows(x, np.argsort(order))


def _blend_in_order(x_raw, x_sgc, x_asgc, weights, order) -> np.ndarray:
    """A new array: the blend at ``weights``, its rows in ``order``."""
    blended = np.ascontiguousarray(blend(x_raw, x_sgc, x_asgc, weights))
    _reorder_rows(blended, order)
    return blended


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
    once, here, for every blend of the search. Each blend is a new array,
    laid out in split order; the three inputs are never written.
    """
    if sp.issparse(x_raw):
        x_raw = x_raw.toarray()
    order = _split_order(split)
    y = ds.labels[order]
    n_train = len(split.train)
    n_fit = n_train + len(split.validation)
    best_weights: tuple[float, float, float] | None = None
    best_val = -np.inf
    for weights in simplex_grid(resolution):
        # each blend is passed, not named, so it is freed before the next is built
        val_acc = _fit_score(
            _blend_in_order(x_raw, x_sgc, x_asgc, weights, order), y,
            slice(None, n_train), slice(n_train, n_fit),
        )
        if val_acc > best_val:
            best_val = val_acc
            best_weights = weights
    assert best_weights is not None
    test_accuracy = _fit_score(
        _blend_in_order(x_raw, x_sgc, x_asgc, best_weights, order), y,
        slice(None, n_fit), slice(n_fit, None),
    )
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


def check_sweep(
    methods: Sequence[str], k_values: Sequence[int], trials: int, resolution: int
) -> None:
    """Raise ``ValueError`` for arguments :func:`k_sweep` cannot run, before any work.

    Method names are checked where they are looked up, by :func:`method_features`.
    """
    if not methods or not k_values:
        raise ValueError("methods and k_values must be nonempty")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if min(k_values) < 1:
        raise ValueError("k_hops must be >= 1")
    if "combo" in methods and resolution < 1:
        raise ValueError("resolution must be >= 1")
    if len(set(methods)) != len(methods):
        raise ValueError(f"methods must not repeat: {methods}")


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
    The k-independent methods (:data:`K_FREE_METHODS`) are trained only at the
    first hop count; every later hop count reuses those rows, restamped with
    its own ``k_hops``.

    Each hop count's trials run through :func:`parallel_map` and return their
    results; no work item writes shared state. Splits derive from (seed, trial
    index), so the results do not depend on ``jobs``. Rows come out in
    (k, trial, method) order, the methods in the order given.
    """
    methods = list(methods)
    k_values = list(k_values)
    check_sweep(methods, k_values, trials, resolution)
    if jobs > 1:
        import scipy.optimize  # noqa: F401  # once here, not again in every forked worker
    splits = [make_splits(ds.n, spawn_seed(seed, t)) for t in range(trials)]
    results = []
    first = None  # the first hop count's results, one {method: result} per trial
    for k in k_values:
        run = methods if first is None else [m for m in methods if m not in K_FREE_METHODS]
        rows = [{}] * trials  # nothing left to train at this k, so no worker pool either
        if run:
            features = None  # free the previous hop count's matrices before building the next
            features = method_features(ds, run, k)
            rows = parallel_map(
                lambda t: {m: run_method(ds, splits[t], m, k, resolution, features) for m in run},
                range(trials), jobs,
            )
        first = first or rows
        results.extend(replace(rows[t].get(m) or first[t][m], k_hops=k, trial=t)
                       for t in range(trials) for m in methods)
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
