import multiprocessing
import os
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.optimize  # noqa: F401  # the first fit imports it; here it stays out of traced peaks
import scipy.sparse as sp

import asgc.experiments as experiments
from asgc import (
    Graph,
    LabeledDataset,
    TrialResult,
    accuracy,
    aggregate,
    classification_trials,
    combo_search,
    fit_logistic,
    k_sweep,
    load_from_manifest,
    make_splits,
    predict,
    run_method,
    spawn_seed,
)
from conftest import toy_dataset


def test_raw_method_equals_plain_logistic():
    ds = toy_dataset()
    split = make_splits(ds.n, seed=1)
    got = run_method(ds, split, "raw", k_hops=3)
    fit_idx = np.concatenate([split.train, split.validation])
    model = fit_logistic(ds.features[fit_idx], ds.labels[fit_idx])
    want = accuracy(predict(model, ds.features[split.test]), ds.labels[split.test])
    assert got.test_accuracy == want
    assert got.method == "raw" and got.seed == 1


def test_sgc1_identical_to_sgc_with_one_hop():
    ds = toy_dataset(seed=3)
    split = make_splits(ds.n, seed=7)
    a = run_method(ds, split, "sgc1", k_hops=6)
    b = run_method(ds, split, "sgc", k_hops=1)
    assert a.test_accuracy == b.test_accuracy


def test_unknown_method_rejected():
    ds = toy_dataset()
    split = make_splits(ds.n, seed=0)
    with pytest.raises(ValueError, match="unknown method"):
        run_method(ds, split, "mystery")


def test_method_features_rejects_an_unknown_name_before_filtering(monkeypatch):
    def no_filtering(*args, **kwargs):
        pytest.fail("features were filtered before the method names were checked")

    monkeypatch.setattr(experiments, "sgc_filter", no_filtering)
    with pytest.raises(ValueError, match="unknown method 'mystery'; expected one of"):
        experiments.method_features(toy_dataset(), ["sgc", "mystery"], 2)


def test_method_features_builds_each_needed_matrix_once_in_methods_order(monkeypatch):
    ds = toy_dataset(n_per_block=20)
    calls = []
    for name in ("sgc_filter", "asgc_filter"):
        real = getattr(experiments, name)

        def counting(g, x, k_hops, real=real, name=name):
            calls.append((name, k_hops))
            return real(g, x, k_hops)

        monkeypatch.setattr(experiments, name, counting)
    got = experiments.method_features(ds, ["combo", "asgc", "sgc1", "raw", "sgc"], 3)
    assert list(got) == ["raw", "sgc", "sgc1", "asgc"]
    assert calls == [("sgc_filter", 3), ("sgc_filter", 1), ("asgc_filter", 3)]
    assert list(experiments.method_features(ds, ["combo"], 3)) == ["sgc", "asgc"]


def test_combo_collapses_to_winning_corner():
    ds = toy_dataset(seed=5)
    split = make_splits(ds.n, seed=2)
    rng = np.random.default_rng(9)
    x_noise_a = rng.standard_normal(ds.features.shape)
    x_noise_b = rng.standard_normal(ds.features.shape)
    x_strong = np.eye(2)[ds.labels] * 4 + rng.standard_normal((ds.n, 2)) * 0.05
    x_strong = np.hstack([x_strong, np.zeros((ds.n, ds.features.shape[1] - 2))])
    trial = combo_search(ds, split, x_noise_a, x_noise_b, x_strong, resolution=3)
    weights = trial.chosen_weights
    assert weights == (0.0, 0.0, 1.0)
    fit_idx = np.concatenate([split.train, split.validation])
    manual = fit_logistic(x_strong[fit_idx], ds.labels[fit_idx])
    want = accuracy(predict(manual, x_strong[split.test]), ds.labels[split.test])
    assert trial.test_accuracy == want
    selected = fit_logistic(x_strong[split.train], ds.labels[split.train])
    want = accuracy(predict(selected, x_strong[split.validation]), ds.labels[split.validation])
    assert trial.validation_accuracy == want


def test_combo_trains_grid_count_plus_final(monkeypatch):
    ds = toy_dataset(n_per_block=30)
    split = make_splits(ds.n, seed=4)
    calls = []
    real = experiments.fit_logistic

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "fit_logistic", counting)
    combo_search(ds, split, ds.features, ds.features, ds.features, resolution=3)
    assert len(calls) == 10 + 1  # ten grid triples, then the final retrain


def test_combo_validation_dominates_corners():
    ds = toy_dataset(seed=8)
    x_sgc, x_asgc = experiments.method_features(ds, ["sgc", "asgc"], 3).values()
    for seed in (0, 1, 2):
        split = make_splits(ds.n, seed=seed)
        trial = combo_search(ds, split, ds.features, x_sgc, x_asgc, resolution=3, k_hops=3)
        y = ds.labels
        for corner in (ds.features, x_sgc, x_asgc):
            model = fit_logistic(corner[split.train], y[split.train])
            corner_val = accuracy(predict(model, corner[split.validation]), y[split.validation])
            assert trial.validation_accuracy >= corner_val


def test_classification_trials_deterministic_and_parallel_safe():
    ds = toy_dataset(n_per_block=40)
    seq = classification_trials(ds, "raw", k_hops=2, trials=3, seed=10)
    par = classification_trials(ds, "raw", k_hops=2, trials=3, seed=10, jobs=3)
    assert seq == par
    assert [r.trial for r in seq] == [r.trial for r in par] == [0, 1, 2]
    again = classification_trials(ds, "raw", k_hops=2, trials=3, seed=10)
    assert seq == again


def test_k_sweep_cardinality_and_pairing():
    ds = toy_dataset(n_per_block=40)
    single = k_sweep(ds, ["raw"], k_values=[2], trials=1, seed=0)
    assert len(single) == 1

    results = k_sweep(ds, ["raw", "sgc1"], k_values=[1, 2], trials=2, seed=0)
    assert len(results) == 2 * 2 * 2
    by_kt = {}
    for r in results:
        by_kt.setdefault((r.k_hops, r.seed), []).append(r.method)
    for methods in by_kt.values():
        assert sorted(methods) == ["raw", "sgc1"]
    assert [r.trial for r in results] == [t for _k in (1, 2) for t in (0, 1) for _m in ("raw", "sgc1")]


def test_k_sweep_fits_k_free_methods_once_per_trial(monkeypatch):
    ds = toy_dataset(n_per_block=30)
    calls = []
    real = experiments.fit_logistic

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(experiments, "fit_logistic", counting)
    results = k_sweep(ds, ["raw", "sgc1", "asgc"], k_values=[1, 2, 3], trials=2, seed=0)
    assert len(results) == 3 * 2 * 3
    assert len(calls) == 2 + 2 + 3 * 2  # raw and sgc1 once per trial, asgc per (k, trial)
    for method in ("raw", "sgc1"):
        for seed in {r.seed for r in results}:
            same = [r for r in results if r.method == method and r.seed == seed]
            assert sorted(r.k_hops for r in same) == [1, 2, 3]
            assert len({r.test_accuracy for r in same}) == 1


def test_k_sweep_trains_k_free_methods_once_per_trial_at_two_jobs(monkeypatch, tmp_path):
    ds = toy_dataset(n_per_block=30)
    log = tmp_path / "calls.txt"
    real = experiments.run_method

    def logged(ds, split, method, *args, **kwargs):
        with open(log, "a") as fh:  # forked workers inherit this wrapper; a file sees their calls
            fh.write(method + "\n")
        return real(ds, split, method, *args, **kwargs)

    monkeypatch.setattr(experiments, "run_method", logged)
    args = (ds, ["raw", "sgc1", "asgc"], [1, 2, 3])
    par = k_sweep(*args, trials=3, jobs=2)
    counts = Counter(log.read_text().split())
    assert counts == {"raw": 3, "sgc1": 3, "asgc": 9}
    log.unlink()
    assert k_sweep(*args, trials=3, jobs=1) == par
    assert Counter(log.read_text().split()) == counts


def test_k_sweep_maps_no_work_at_hop_counts_with_nothing_to_train(monkeypatch):
    ds = toy_dataset(n_per_block=30)
    calls = []
    real = experiments.parallel_map

    def counting(fn, items, jobs):
        calls.append(jobs)
        return real(fn, items, jobs)

    monkeypatch.setattr(experiments, "parallel_map", counting)
    results = k_sweep(ds, ["raw", "sgc1"], range(1, 5), trials=2, jobs=2)
    assert calls == [2]
    assert multiprocessing.active_children() == []
    first = results[:4]
    assert [(r.k_hops, r.trial, r.method) for r in results] == [
        (k, t, m) for k in range(1, 5) for t in range(2) for m in ("raw", "sgc1")
    ]
    for i, r in enumerate(results):
        assert r == replace(first[i % 4], k_hops=r.k_hops)
    monkeypatch.setattr(experiments, "parallel_map", real)
    assert k_sweep(ds, ["raw", "sgc1"], range(1, 5), trials=2, jobs=1) == results


def test_k_sweep_repeats_the_per_k_result_of_k_free_methods():
    ds = toy_dataset(n_per_block=30)
    split = make_splits(ds.n, spawn_seed(0, 0))
    results = k_sweep(ds, ["sgc1"], k_values=[4, 5], trials=1, seed=0)
    assert [r.k_hops for r in results] == [4, 5]
    for r in results:
        assert r == run_method(ds, split, "sgc1", k_hops=r.k_hops)


def test_raw_bundle_is_csr_of_the_features(monkeypatch):
    ds = toy_dataset(n_per_block=20)
    raw = experiments.method_features(ds, ["raw"], 2)["raw"]
    assert isinstance(raw, sp.csr_matrix)
    assert np.array_equal(raw.toarray(), ds.features)
    seen = []
    real = experiments.combo_search

    def capturing(ds, split, x_raw, *args, **kwargs):
        seen.append(x_raw)
        return real(ds, split, x_raw, *args, **kwargs)

    monkeypatch.setattr(experiments, "combo_search", capturing)
    classification_trials(ds, "combo", k_hops=2, trials=1, resolution=1)
    assert len(seen) == 1 and seen[0] is ds.features


@pytest.mark.parametrize(
    "methods",
    [["raw", "sgc1", "asgc", "combo"], ["asgc", "raw", "combo", "sgc1"]],
    ids=["k_free_first", "k_free_after"],
)
def test_k_sweep_is_the_same_for_any_jobs(methods):
    ds = toy_dataset(n_per_block=30)
    seq = k_sweep(ds, methods, [1, 2], trials=3, seed=4, resolution=1, jobs=1)
    par = k_sweep(ds, methods, [1, 2], trials=3, seed=4, resolution=1, jobs=2)
    assert seq == par
    assert [(r.k_hops, r.trial, r.method) for r in seq] == [
        (k, t, m) for k in (1, 2) for t in range(3) for m in methods
    ]


@pytest.mark.parametrize("method", experiments.METHODS)
def test_classification_trials_is_a_one_k_sweep(method):
    ds = toy_dataset(n_per_block=30)
    got = classification_trials(ds, method, 2, trials=2, seed=3, resolution=1)
    assert got == k_sweep(ds, [method], [2], trials=2, seed=3, resolution=1)
    assert [r.trial for r in got] == [0, 1]


def dense_case(n=2000, f=300, seed=0):
    """A two-class set with an n x f dense feature matrix; the graph is a path."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, n)
    x = rng.standard_normal((n, f))
    x[:, 0] += 3.0 * y
    g = Graph.from_edges(n, [[i, i + 1] for i in range(n - 1)])
    return LabeledDataset("dense", g, x, y), x


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_run_method_fits_without_a_gathered_copy_of_the_features():
    ds, x = dense_case()
    split = make_splits(ds.n, seed=0)
    peak = traced_peak(lambda: run_method(ds, split, "sgc", features={"sgc": x}))
    # a copy of the train + validation rows alone would be 0.8 of the matrix
    assert peak < x.nbytes / 2


def test_combo_search_holds_one_blend_and_no_gathered_copy():
    ds, x = dense_case()
    split = make_splits(ds.n, seed=0)
    x_sgc, x_asgc = x[::-1].copy(), -x
    peak = traced_peak(lambda: combo_search(ds, split, x, x_sgc, x_asgc, resolution=1))
    assert peak < 1.5 * x.nbytes  # one blend, and less than one gathered copy besides


def test_dense_method_scores_the_bits_of_a_row_gathered_fit():
    ds = toy_dataset(seed=2)
    x = experiments.method_features(ds, ["asgc"], 3)["asgc"]
    split = make_splits(ds.n, seed=5)
    fit_idx = np.concatenate([split.train, split.validation])
    model = fit_logistic(x[fit_idx], ds.labels[fit_idx])
    want = accuracy(predict(model, x[split.test]), ds.labels[split.test])
    assert run_method(ds, split, "asgc", k_hops=3, features={"asgc": x}).test_accuracy == want


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "fit_raises"])
def test_callers_arrays_keep_their_bytes(monkeypatch, fails):
    ds = toy_dataset(seed=4)
    split = make_splits(ds.n, seed=1)
    features = experiments.method_features(ds, ["sgc", "asgc", "combo"], 2)
    arrays = [ds.features, features["sgc"], features["asgc"]]
    before = [a.tobytes() for a in arrays]
    if fails:
        def failing(*args, **kwargs):
            raise RuntimeError("fit failed")

        monkeypatch.setattr(experiments, "fit_logistic", failing)
    calls = [
        lambda: run_method(ds, split, "sgc", 2, features=features),
        lambda: run_method(ds, split, "asgc", 2, features=features),
        lambda: run_method(ds, split, "combo", 2, resolution=2, features=features),
        lambda: combo_search(ds, split, *arrays, resolution=2),
    ]
    for call in calls:
        if fails:
            with pytest.raises(RuntimeError, match="fit failed"):
                call()
        else:
            call()
        assert [a.tobytes() for a in arrays] == before


def test_read_only_fortran_ordered_features_fit_as_their_c_ordered_form():
    ds = toy_dataset(seed=6)
    split = make_splits(ds.n, seed=3)
    features = experiments.method_features(ds, ["sgc", "asgc", "combo"], 2)
    odd = {m: np.asfortranarray(x) for m, x in features.items()}
    for x in odd.values():
        x.flags.writeable = False
    for method in ("sgc", "asgc", "combo"):
        want = run_method(ds, split, method, 2, resolution=2, features=features)
        assert run_method(ds, split, method, 2, resolution=2, features=odd) == want
    want = combo_search(ds, split, ds.features, features["sgc"], features["asgc"], resolution=2)
    got = combo_search(ds, split, np.asfortranarray(ds.features), odd["sgc"], odd["asgc"], resolution=2)
    assert got == want


def test_k_sweep_rejects_empty_inputs():
    ds = toy_dataset(n_per_block=40)
    with pytest.raises(ValueError):
        k_sweep(ds, [], k_values=[1])
    with pytest.raises(ValueError):
        k_sweep(ds, ["raw"], k_values=[])
    with pytest.raises(ValueError):
        k_sweep(ds, ["raw", "raw"], k_values=[1])
    with pytest.raises(ValueError):
        k_sweep(ds, ["bogus"], k_values=[1])
    with pytest.raises(ValueError, match="unknown method 'mystery'; expected one of"):
        k_sweep(ds, ["mystery"], k_values=[1])


def tr(dataset, method, acc, k=6, seed=0):
    return TrialResult(dataset=dataset, method=method, k_hops=k, seed=seed, test_accuracy=acc)


def test_aggregate_hand_example():
    results = [
        tr("d1", "A", 0.8),
        tr("d2", "A", 0.9),
        tr("d1", "B", 0.8),
        tr("d2", "B", 0.6),
    ]
    report = aggregate(results)
    assert report.proportion[("A", "d1")] == pytest.approx(1.0)
    assert report.proportion[("A", "d2")] == pytest.approx(1.0)
    assert report.proportion[("B", "d1")] == pytest.approx(1.0)
    assert report.proportion[("B", "d2")] == pytest.approx(2 / 3)
    assert report.mean_proportion["A"] == pytest.approx(1.0)
    assert report.mean_proportion["B"] == pytest.approx(5 / 6)
    assert report.min_proportion["B"] == pytest.approx(2 / 3)


def test_aggregate_single_method_all_ones():
    report = aggregate([tr("d1", "A", 0.4), tr("d2", "A", 0.7)])
    assert all(v == 1.0 for v in report.proportion.values())


def test_aggregate_best_method_min_can_be_below_one():
    results = [
        tr("d1", "A", 0.9),
        tr("d2", "A", 0.6),
        tr("d1", "B", 0.8),
        tr("d2", "B", 0.7),
    ]
    report = aggregate(results)
    best = max(report.mean_proportion, key=report.mean_proportion.get)
    assert report.min_proportion[best] < 1.0


def test_aggregate_is_scale_free_per_dataset():
    base = [tr("d1", "A", 0.8), tr("d2", "A", 0.9), tr("d1", "B", 0.4), tr("d2", "B", 0.6)]
    scaled = [
        tr("d1", "A", 0.8 * 0.5),
        tr("d2", "A", 0.9),
        tr("d1", "B", 0.4 * 0.5),
        tr("d2", "B", 0.6),
    ]
    a, b = aggregate(base), aggregate(scaled)
    for key, value in a.proportion.items():
        assert b.proportion[key] == pytest.approx(value)


def test_aggregate_mean_and_std_over_trials():
    results = [tr("d1", "A", 0.5, seed=0), tr("d1", "A", 0.7, seed=1)]
    report = aggregate(results)
    assert report.accuracy_mean[("A", "d1")] == pytest.approx(0.6)
    assert report.accuracy_std[("A", "d1")] == pytest.approx(0.1)


@pytest.mark.parametrize(
    "results, message",
    [
        ([], "no results to aggregate"),
        ([tr("d1", "A", 0.0), tr("d1", "B", 0.0), tr("d2", "A", 0.5), tr("d2", "B", 0.0)],
         "no method has positive accuracy on dataset 'd1'"),
    ],
    ids=["empty", "all_zero_on_one_dataset"],
)
def test_aggregate_rejects_results_it_cannot_scale(results, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        aggregate(results)


def test_aggregate_rejects_missing_coverage():
    with pytest.raises(ValueError, match="no results"):
        aggregate([tr("d1", "A", 0.8), tr("d2", "A", 0.9), tr("d1", "B", 0.7)])


def _real_dataset_or_skip(name):
    manifest = os.environ.get("ASGC_DATASETS")
    if not manifest or not os.path.exists(manifest):
        pytest.skip("set ASGC_DATASETS to a dataset manifest to run real-data checks")
    try:
        return load_from_manifest(manifest, name)
    except Exception:
        pytest.skip(f"dataset {name!r} not available in the manifest")


def test_smoothing_accuracy_drops_with_hops_on_chameleon():
    ds = _real_dataset_or_skip("chameleon")
    results = k_sweep(ds, ["sgc"], k_values=[1, 10], trials=10, seed=0)
    at = lambda k: np.mean([r.test_accuracy for r in results if r.k_hops == k])
    assert at(10) < at(1)


def test_adaptive_accuracy_stable_with_hops_on_squirrel():
    ds = _real_dataset_or_skip("squirrel")
    results = k_sweep(ds, ["asgc"], k_values=[2, 10], trials=10, seed=0)
    at = lambda k: np.mean([r.test_accuracy for r in results if r.k_hops == k])
    assert at(10) >= at(2) - 0.02


def test_aggregate_external_baselines():
    results = [tr("d1", "A", 0.5), tr("d2", "A", 0.8)]
    report = aggregate(results, {"deep": {"d1": 1.0, "d2": 0.4}})
    assert report.sources["deep"] == "reported"
    assert report.proportion[("A", "d1")] == pytest.approx(0.5)
    assert report.proportion[("deep", "d2")] == pytest.approx(0.5)
    with pytest.raises(ValueError, match="missing datasets"):
        aggregate(results, {"deep": {"d1": 1.0}})
    with pytest.raises(ValueError, match="collides"):
        aggregate(results, {"A": {"d1": 1.0, "d2": 1.0}})
