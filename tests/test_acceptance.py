"""Acceptance gate: one printed PASS/FAIL line per criterion.

Run ``pytest tests/test_acceptance.py -v -rA`` to see every line. Criteria
that need locally provided real datasets are skipped unless the environment
variable ``ASGC_DATASETS`` points at a manifest file (see README for the
expected file formats and reference statistics).

The smoothing checks (1a and 3b) follow from the filter's definition, K powers
of S~ = D~^{-1/2} (A + I) D~^{-1/2}. On a near-bipartite d-regular graph (the
two-block SBM at ln(p/q) = -5, mean degree d = 10) every edge crosses the
blocks, so the block indicator u satisfies (A + I) u = (1 - d) u and

    S~ u = ((1 - d) / (1 + d)) u,    S~^K u = (-1)^K ((d - 1) / (d + 1))^K u.

At even K the smoothing filter keeps every block sign and only contracts the
block-mean gap, by ((d - 1) / (d + 1))^2 ~ 0.67 at K=2 (3b); on the
homophilous side (ln(p/q) = +5) the indicator is nearly a fixed point and the
gap is kept. At odd K the smoothed block means change sign, so smoothing gets
nearly every sign wrong while the adaptive filter, free to pick a negative
coefficient, does not (1a).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from asgc import (
    Graph,
    SbmConfig,
    asgc_filter,
    classification_trials,
    combo_search,
    degrees,
    denoise_trial,
    fit_logistic,
    homophily,
    laplacian_quadratic_form,
    least_squares,
    load_from_manifest,
    make_splits,
    predict,
    run_method,
    sgc_filter,
)
from asgc.experiments import method_features
from asgc.numeric import accuracy
from asgc.synthetic import trial_seed
from conftest import random_graph, single_edge_graph, svd_least_squares, toy_dataset

TRIALS = 10


def check(criterion: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def extreme_sweep():
    """Ten denoising trials at each extreme log-ratio, with wall time."""
    t0 = time.monotonic()
    per_rho = {}
    for gi, rho in enumerate((-5.0, 5.0)):
        per_rho[rho] = [
            denoise_trial(SbmConfig(log_ratio=rho, seed=trial_seed(0, gi, ti)), k_hops=2)
            for ti in range(TRIALS)
        ]
    return per_rho, time.monotonic() - t0


@pytest.fixture(scope="module")
def odd_hop_sweep():
    """Ten denoising trials at ln(p/q)=-5 for each odd hop count K=1 and K=3.

    The seeds are those of ``extreme_sweep``'s ln(p/q)=-5 trials, so the graphs
    and features are the same; only the hop count differs.
    """
    return {
        k: [
            denoise_trial(SbmConfig(log_ratio=-5.0, seed=trial_seed(0, 0, ti)), k_hops=k)
            for ti in range(TRIALS)
        ]
        for k in (1, 3)
    }


def mean_of(outcomes, method, field):
    return float(np.mean([getattr(o[method], field) for o in outcomes]))


def test_criterion_1a_heterophilous_sign_error_ratio(odd_hop_sweep):
    # At odd K smoothing flips the block signs (negative indicator factor);
    # at even K both filters sit at the noise floor, so the ratio says nothing.
    d = SbmConfig().expected_degree
    ok = True
    parts = []
    for k, outcomes in odd_hop_sweep.items():
        asgc_err = mean_of(outcomes, "asgc", "sign_error")
        sgc_err = mean_of(outcomes, "sgc", "sign_error")
        ok = ok and asgc_err <= 0.5 * sgc_err
        parts.append(
            f"K={k}: adaptive {asgc_err:.4f} vs 0.5 x smoothing {0.5 * sgc_err:.4f} "
            f"(closed-form indicator factor ((1-d)/(1+d))^K = {((1 - d) / (1 + d)) ** k:+.3f})"
        )
    check(
        "1a",
        ok,
        "at ln(p/q)=-5, mean sign error " + "; ".join(parts)
        + "; a negative factor flips smoothing's block signs",
    )


def test_criterion_1b_homophilous_rms_margin(extreme_sweep):
    per_rho, _ = extreme_sweep
    sgc_rms = mean_of(per_rho[5.0], "sgc", "rms_deviation")
    asgc_rms = mean_of(per_rho[5.0], "asgc", "rms_deviation")
    check(
        "1b",
        sgc_rms <= asgc_rms + 0.05,
        f"at ln(p/q)=+5, K=2: smoothing rms {sgc_rms:.4f} <= adaptive rms "
        f"{asgc_rms:.4f} + 0.05",
    )


def test_criterion_1_runtime(extreme_sweep):
    _, elapsed = extreme_sweep
    check("1-runtime", elapsed < 120.0, f"20-trial extreme sweep took {elapsed:.1f}s (< 120s)")


def test_criterion_2_adaptive_rms_symmetry(extreme_sweep):
    per_rho, _ = extreme_sweep
    lo = mean_of(per_rho[-5.0], "asgc", "rms_deviation")
    hi = mean_of(per_rho[5.0], "asgc", "rms_deviation")
    rel = abs(lo - hi) / max(lo, hi)
    check(
        "2",
        rel <= 0.25,
        f"adaptive rms at ln(p/q)=-5 is {lo:.4f}, at +5 is {hi:.4f} "
        f"({100 * rel:.1f}% relative difference, limit 25%)",
    )


def test_criterion_3a_adaptive_community_means(extreme_sweep):
    per_rho, _ = extreme_sweep
    minus = mean_of(per_rho[-5.0], "asgc", "minus_mean")
    plus = mean_of(per_rho[-5.0], "asgc", "plus_mean")
    check(
        "3a",
        abs(minus + 1.0) <= 0.2 and abs(plus - 1.0) <= 0.2,
        f"adaptive community means at ln(p/q)=-5 are ({minus:+.3f}, {plus:+.3f}), "
        f"within 0.2 of -1/+1",
    )


def test_criterion_3b_smoothing_merges_communities(extreme_sweep):
    # Signed gaps: a smoother that flips the heterophilous block signs gives
    # a negative ratio and fails too.
    per_rho, _ = extreme_sweep
    gaps = {
        rho: mean_of(per_rho[rho], "sgc", "plus_mean") - mean_of(per_rho[rho], "sgc", "minus_mean")
        for rho in (-5.0, 5.0)
    }
    ratio = gaps[-5.0] / gaps[5.0]
    d = SbmConfig().expected_degree
    expected = ((d - 1.0) / (d + 1.0)) ** 2
    check(
        "3b",
        abs(ratio - expected) <= 0.1,
        f"smoothing block-mean gap at ln(p/q)=-5 is {gaps[-5.0]:+.3f}, at +5 is "
        f"{gaps[5.0]:+.3f}, K=2: ratio {ratio:+.3f} vs closed form "
        f"((d-1)/(d+1))^2 = {expected:.3f} at d={d:g} (tolerance 0.1)",
    )


def test_criterion_4_two_node_exact_oracles():
    g = single_edge_graph()
    odd = np.array([1.0, -1.0])
    smoothed = sgc_filter(g, odd, 1)
    result = asgc_filter(g, odd, 1)
    ok = (
        np.max(np.abs(smoothed)) <= 1e-12
        and abs(result.coefficients[0, 0] + 1.0) <= 1e-12
        and np.max(np.abs(result.filtered - odd)) <= 1e-12
    )
    check(
        "4",
        ok,
        f"single edge: |S~x| max {np.max(np.abs(smoothed)):.2e}, adaptive c1 "
        f"{result.coefficients[0, 0]:+.15f}, reconstruction error "
        f"{np.max(np.abs(result.filtered - odd)):.2e} (all within 1e-12)",
    )


def test_criterion_5_quadratic_form_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 201))
        g = random_graph(n, min(0.5, 6.0 / n), rng)
        x = rng.standard_normal(n)
        left = laplacian_quadratic_form(g, x)
        d = degrees(g).astype(float)
        right = 0.0
        for i in range(n):
            for j in g.neighbors(i):
                right += (x[i] / np.sqrt(d[i]) - x[j] / np.sqrt(d[j])) ** 2
        right /= 2.0
        worst = max(worst, abs(left - right) / max(1.0, abs(left), abs(right)))
    check("5", worst <= 1e-10, f"100 instances (n <= 200): worst relative gap {worst:.2e}")


def test_criterion_6_least_squares_properties():
    rng = np.random.default_rng(77)
    worst_orth = 0.0
    for _ in range(40):
        n, k = int(rng.integers(5, 80)), int(rng.integers(1, 9))
        basis = rng.standard_normal((n, k))
        if k >= 2 and rng.random() < 0.4:
            basis[:, -1] = basis[:, 0]
        target = rng.standard_normal(n)
        sol = least_squares(basis, target)
        residual = target - basis @ sol.coefficients
        scale = np.linalg.norm(basis) * np.linalg.norm(target)
        worst_orth = max(worst_orth, np.max(np.abs(basis.T @ residual)) / max(scale, 1e-300))
    monotone = True
    for _ in range(10):
        basis = rng.standard_normal((40, 6))
        target = rng.standard_normal(40)
        prev = np.inf
        for k in range(1, 7):
            r = least_squares(basis[:, :k], target).residual_norm
            monotone = monotone and r <= prev + 1e-12
            prev = r
    min_norm_ok = True
    for _ in range(10):
        col = rng.standard_normal(30)
        basis = np.column_stack([col, col])
        target = rng.standard_normal(30)
        sol = least_squares(basis, target)
        min_norm_ok = min_norm_ok and abs(sol.coefficients[0] - sol.coefficients[1]) <= 1e-8
        oracle = svd_least_squares(basis, target)
        min_norm_ok = min_norm_ok and np.max(np.abs(sol.coefficients - oracle)) <= 1e-8
    check(
        "6",
        worst_orth <= 1e-8 and monotone and min_norm_ok,
        f"orthogonality worst {worst_orth:.2e} (<= 1e-8), nested-basis residuals "
        f"monotone: {monotone}, duplicated-column minimum-norm split: {min_norm_ok}",
    )


def test_criterion_7_combo_validation_dominance():
    failures = []
    for ds in (toy_dataset(seed=1, log_ratio=2.0, name="homo"),
               toy_dataset(seed=2, log_ratio=-2.0, name="hetero")):
        x_sgc, x_asgc = method_features(ds, "sgc", 3), method_features(ds, "asgc", 3)
        for split_seed_value in (0, 1, 2):
            split = make_splits(ds.n, seed=split_seed_value)
            trial = combo_search(ds, split, ds.features, x_sgc, x_asgc, resolution=3, k_hops=3)
            for corner_name, corner in (("raw", ds.features), ("sgc", x_sgc), ("asgc", x_asgc)):
                model = fit_logistic(corner[split.train], ds.labels[split.train])
                corner_val = accuracy(
                    predict(model, corner[split.validation]), ds.labels[split.validation]
                )
                if trial.validation_accuracy < corner_val:
                    failures.append((ds.name, split_seed_value, corner_name))
    check(
        "7",
        not failures,
        "combo validation accuracy >= every corner's validation accuracy on "
        f"2 datasets x 3 splits (violations: {failures or 'none'})",
    )


def test_criterion_10_sgc1_equals_one_hop_sgc():
    ds = toy_dataset(seed=4)
    exact = True
    for seed in (0, 1, 2):
        split = make_splits(ds.n, seed=seed)
        a = run_method(ds, split, "sgc1", k_hops=6)
        b = run_method(ds, split, "sgc", k_hops=1)
        exact = exact and a.test_accuracy == b.test_accuracy
    check("10", exact, "sgc1 and one-hop sgc accuracies identical on 3 shared splits")


# --- conditional real-dataset criteria ----------------------------------------

REFERENCE_HOMOPHILY = {
    "cora": 0.83,
    "citeseer": 0.71,
    "pubmed": 0.79,
    "chameleon": 0.25,
    "squirrel": 0.22,
    "actor": 0.25,
}


def _manifest_or_skip():
    path = os.environ.get("ASGC_DATASETS")
    if not path or not os.path.exists(path):
        pytest.skip("set ASGC_DATASETS to a dataset manifest to run real-data criteria")
    return path


def _load_available(manifest, names):
    out = {}
    for name in names:
        try:
            out[name] = load_from_manifest(manifest, name)
        except Exception:
            continue
    return out


def test_criterion_8_real_dataset_orderings():
    manifest = _manifest_or_skip()
    datasets = _load_available(manifest, ("chameleon", "squirrel", "cora", "actor"))
    if not datasets:
        pytest.skip("none of chameleon/squirrel/cora/actor found in the manifest")
    means = {}
    for name, ds in datasets.items():
        for method in ("raw", "sgc", "asgc"):
            trials = classification_trials(ds, method, k_hops=6, trials=TRIALS, seed=0)
            means[(name, method)] = float(np.mean([t.test_accuracy for t in trials]))
    problems = []
    for name in ("chameleon", "squirrel"):
        if name in datasets and not means[(name, "asgc")] > means[(name, "sgc")]:
            problems.append(f"{name}: adaptive {means[(name, 'asgc')]:.4f} !> "
                            f"smoothing {means[(name, 'sgc')]:.4f}")
    if "cora" in datasets and not means[("cora", "sgc")] > means[("cora", "asgc")]:
        problems.append(f"cora: smoothing {means[('cora', 'sgc')]:.4f} !> "
                        f"adaptive {means[('cora', 'asgc')]:.4f}")
    if "actor" in datasets:
        raw = means[("actor", "raw")]
        if not (raw >= means[("actor", "sgc")] and raw >= means[("actor", "asgc")]):
            problems.append(f"actor: raw {raw:.4f} not >= both filters")
    check("8", not problems, f"mean-accuracy orderings at K=6 over {TRIALS} trials "
                             f"({sorted(datasets)}): {problems or 'all hold'}")


def test_criterion_9_homophily_reference_values():
    manifest = _manifest_or_skip()
    datasets = _load_available(manifest, tuple(REFERENCE_HOMOPHILY))
    if not datasets:
        pytest.skip("no reference dataset found in the manifest")
    gaps = {}
    for name, ds in datasets.items():
        gaps[name] = abs(homophily(ds) - REFERENCE_HOMOPHILY[name])
    worst = max(gaps.values())
    check("9", worst <= 0.02, f"homophily gaps vs reference table: "
                              f"{ {k: round(v, 4) for k, v in sorted(gaps.items())} } (limit 0.02)")
