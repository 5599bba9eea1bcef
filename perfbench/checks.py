"""Output checks for each workload's CLI invocation.

Every check reads the files one pass wrote and raises :class:`CheckError` on
the first problem; a pass that raises counts as failed. On success it returns
the workload's named quality value (``test_acc``, ``lsq_residual`` or
``denoise_rms``) together with ``quality``, the higher-is-better form that
the benchmark reports on every workload: test accuracy, the share of feature
energy the ASGC filter reproduces, or the raw-over-ASGC RMS ratio.

The ASGC residual check is an independent oracle: it rebuilds the Krylov
basis of each feature from the fixture files with scipy.sparse and solves the
least-squares problems with a batched SVD, then requires the written residual
norms to lie between the optimum at a tighter and at a looser rank cut-off.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np
import scipy.sparse as sp

ROUND = 1.5e-6  # CSV floats carry 6 decimals
LSQ_TOL = 1e-5


class CheckError(Exception):
    """An output file that is missing, malformed or numerically wrong."""


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    if not path.is_file():
        raise CheckError(f"missing output {path.name}")
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CheckError(f"{path.name} is empty")
    return rows[0], rows[1:]


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def number(text: str, what: str, lo: float = -math.inf, hi: float = math.inf) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckError(f"{what}: {text!r} is not a number") from None
    expect(math.isfinite(value) and lo <= value <= hi, f"{what}: {value} outside [{lo}, {hi}]")
    return value


def csv_digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


def check_classify(out: Path, dataset: str, method: str, k: int, trials: int, resolution: int) -> dict:
    header, rows = read_csv(out / f"classify_{dataset}_{method}.csv")
    expect(header == ["dataset", "method", "k_hops", "trial", "seed", "test_accuracy",
                      "validation_accuracy", "w_raw", "w_sgc", "w_asgc"], f"classify header {header}")
    expect(len(rows) == trials + 1, f"classify: {len(rows)} rows, expected {trials} trials + mean")
    expect([r[3] for r in rows] == [str(t) for t in range(trials)] + ["mean"], "classify: trial column")
    columns = {"test": [], "val": [], "w": []}
    for r in rows:
        expect(r[:3] == [dataset, method, str(k)], f"classify: row key {r[:3]}")
        columns["test"].append(number(r[5], "test_accuracy", 0, 1))
        columns["val"].append(number(r[6], "validation_accuracy", 0, 1))
        weights = [number(v, "combo weight", 0, 1) for v in r[7:10]]
        expect(abs(sum(weights) - 1) <= 3 * ROUND, f"combo weights {weights} do not sum to 1")
        expect(r[3] == "mean" or all(abs(w * resolution - round(w * resolution)) <= resolution * ROUND
                                     for w in weights),
               f"combo weights {weights} off the resolution-{resolution} lattice")
        columns["w"].append(weights)
    expect(len({r[4] for r in rows[:-1]}) == trials, "classify: trial seeds repeat")
    means = (columns["test"], columns["val"]) + tuple(list(c) for c in zip(*columns["w"]))
    for values in means:
        expect(abs(values[-1] - float(np.mean(values[:-1]))) <= ROUND,
               f"classify: mean row {values[-1]} != mean of trials {np.mean(values[:-1])}")
    return {"test_acc": columns["test"][-1], "quality": columns["test"][-1]}


def check_sweep(out: Path, dataset: str, methods: tuple, k_values: range, trials: int) -> dict:
    header, rows = read_csv(out / f"sweep_{dataset}.csv")
    expect((out / f"sweep_{dataset}.svg").is_file(), "sweep: missing SVG")
    expect(header == ["dataset", "method", "k_hops", "trial", "seed", "test_accuracy",
                      "w_raw", "w_sgc", "w_asgc"], f"sweep header {header}")
    keys = [(r[1], int(r[2]), int(r[3])) for r in rows]
    expected = [(m, k, t) for k in k_values for t in range(trials) for m in methods]
    expect(keys == expected, f"sweep: {len(keys)} (method, k, trial) rows do not match the "
                             f"{len(expected)} expected in order")
    seeds: dict[int, str] = {}
    raw_acc: dict[int, float] = {}
    asgc = []
    for r, (m, k, t) in zip(rows, keys):
        expect(r[0] == dataset, f"sweep: dataset {r[0]}")
        expect(seeds.setdefault(t, r[4]) == r[4], f"sweep: trial {t} split seed differs across rows")
        acc = number(r[5], "test_accuracy", 0, 1)
        if m == "raw":  # raw features do not depend on k
            expect(raw_acc.setdefault(t, acc) == acc, f"sweep: raw accuracy changes with k at trial {t}")
        if m == "asgc":
            asgc.append(acc)
        if m != "combo":
            expect(r[6:9] == ["", "", ""], f"sweep: {m} row carries combo weights")
    test_acc = float(np.mean(asgc))
    return {"test_acc": test_acc, "quality": test_acc}


def normalized_adjacency(edges: np.ndarray, n: int) -> sp.csr_matrix:
    a = sp.coo_matrix((np.ones(2 * len(edges)), (np.r_[edges[:, 0], edges[:, 1]],
                                                   np.r_[edges[:, 1], edges[:, 0]])), shape=(n, n)).tocsr()
    a.data[:] = 1.0
    d = np.asarray(a.sum(axis=1)).ravel()
    inv = np.where(d > 0, 1.0 / np.sqrt(np.maximum(d, 1)), 0.0)
    return sp.diags(inv) @ a @ sp.diags(inv)


def krylov_oracle(s: sp.csr_matrix, x: np.ndarray, k: int, filtered: np.ndarray, chunk: int = 128):
    """Per feature j, with B_j = [S x_j, ..., S^k x_j]: the least-squares residual
    min_c ||B_j c - x_j|| at rank cut-offs 1e-12 and 1e-8 (relative to the largest
    singular value), and the distance of ``filtered[:, j]`` from the span of B_j."""
    tight, loose, off_span = (np.zeros(x.shape[1]) for _ in range(3))
    for lo in range(0, x.shape[1], chunk):
        cols = slice(lo, lo + chunk)
        xc = x[:, cols]
        basis = np.empty((xc.shape[1], x.shape[0], k))
        t = xc
        for hop in range(k):
            t = s @ t
            basis[:, :, hop] = t.T
        u, sv, _ = np.linalg.svd(basis, full_matrices=False)
        coords = np.einsum("fnk,fn->fk", u, xc.T)
        for out, tol in ((tight, 1e-12), (loose, 1e-8)):
            fitted = np.einsum("fnk,fk->fn", u, coords * (sv > tol * sv[:, :1]))
            out[cols] = np.linalg.norm(xc.T - fitted, axis=1)
        yc = filtered[:, cols].T
        span = np.einsum("fnk,fk->fn", u * (sv > 1e-12 * sv[:, :1])[:, None, :],
                         np.einsum("fnk,fn->fk", u, yc))
        off_span[cols] = np.linalg.norm(yc - span, axis=1)
    return tight, loose, off_span


def check_filter(out: Path, dataset: str, k: int, edges: np.ndarray, x: np.ndarray) -> dict:
    n, f = x.shape
    stem = f"{dataset}_asgc_k{k}"
    header, coef_rows = read_csv(out / f"{stem}_coefficients.csv")
    expect(header == ["feature"] + [f"c{i}" for i in range(1, k + 1)], "coefficients header")
    expect(len(coef_rows) == f and all(len(r) == k + 1 for r in coef_rows), "coefficients shape")
    header, res_rows = read_csv(out / f"{stem}_residuals.csv")
    expect(header == ["feature", "residual_norm"] and len(res_rows) == f, "residuals shape")
    expect([r[0] for r in res_rows] == [str(j) for j in range(f)], "residuals feature column")
    residuals = np.array([number(r[1], "residual_norm", 0) for r in res_rows])
    path = out / f"{stem}_features.csv"
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    expect(header == ["node"] + [f"f{i}" for i in range(f)], "features header")
    try:
        filtered = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise CheckError(f"features file does not parse: {exc}") from None
    expect(filtered.shape == (n, f + 1), f"features shape {filtered.shape}, expected {(n, f + 1)}")
    expect(np.array_equal(filtered[:, 0], np.arange(n)), "features node column")
    filtered = filtered[:, 1:]
    implied = np.linalg.norm(x - filtered, axis=0)
    bad = np.abs(implied - residuals) > 1e-4 * (1 + residuals)
    expect(not bad.any(), f"{bad.sum()} features: ||x - filtered|| disagrees with residuals.csv")
    tight, loose, off_span = krylov_oracle(normalized_adjacency(edges, n), x, k, filtered)
    bad = (residuals < tight - LSQ_TOL * (1 + tight)) | (residuals > loose + LSQ_TOL * (1 + loose))
    expect(not bad.any(), f"{bad.sum()} features: residual outside the oracle's least-squares bracket")
    bad = off_span > 1e-4 * (1 + np.linalg.norm(filtered, axis=0))
    expect(not bad.any(), f"{bad.sum()} filtered features lie outside their Krylov span")
    explained = 1.0 - float(np.sum(residuals**2) / np.sum(x**2))
    return {"lsq_residual": float(residuals.mean()), "quality": explained}


def check_synth(out: Path, steps: int) -> dict:
    header, rows = read_csv(out / "synth.csv")
    for name in ("synth_rms_deviation.svg", "synth_sign_error.svg"):
        expect((out / name).is_file(), f"synth: missing {name}")
    expect(header == ["log_ratio", "method", "metric", "value"], f"synth header {header}")
    expected = [(m, metric) for _ in range(steps) for m in ("raw", "sgc", "asgc")
                for metric in ("rms_deviation", "sign_error")]
    expect([(r[1], r[2]) for r in rows] == expected, f"synth: {len(rows)} rows not in grid order")
    ratios = np.repeat(np.linspace(-5.0, 5.0, steps), 6)
    expect(all(abs(number(r[0], "log_ratio") - v) <= ROUND for r, v in zip(rows, ratios)),
           "synth: log-ratio column is not the default grid")
    raw_rms, asgc_rms = [], []
    for r in rows:
        value = number(r[3], r[2], 0, math.inf if r[2] == "rms_deviation" else 1)
        if r[1] == "raw" and r[2] == "rms_deviation":  # noise is N(0, 1)
            expect(abs(value - 1) <= 0.05, f"synth: raw rms {value} is not ~1")
            raw_rms.append(value)
        if r[1] == "raw" and r[2] == "sign_error":  # P(N(0, 1) > 1) = 0.1587
            expect(abs(value - 0.1587) <= 0.04, f"synth: raw sign error {value} is not ~0.159")
        if r[1] == "asgc" and r[2] == "rms_deviation":
            asgc_rms.append(value)
    denoise_rms = float(np.mean(asgc_rms))
    return {"denoise_rms": denoise_rms, "quality": float(np.mean(raw_rms)) / denoise_rms}
