"""asgc benchmark: four CLI workloads on seeded Cora-scale fixtures.

Usage (from the repository root):

    python3 perfbench/run.py --workload het-sweep --seed 1 --seconds 60 --trace 0

Each pass is one fresh worker process (``worker.py``) that imports asgc from
``src/`` and runs one ``asgc`` CLI invocation, so every pass pays the cold
first call as a CLI user does. Passes run one at a time, with BLAS pinned to
one thread, until another pass would overrun ``--seconds`` (at least one
pass), each followed by an import-only set-up probe. Every pass's outputs
are checked; all passes of a run must write byte-identical CSVs.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones plus ``trace.overhead_s`` (traced minus untraced median wall time).
Human-readable lines come first; the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md for the
metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy

import checks
import fixtures
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
MIN_SETUPS = 5
BLAS_THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
DEADLINE_S = 165  # a run must end within 180 s, checks included
COLD_FIRST_CALL = (
    "included in wall_s: each pass is a fresh process, so first-call costs (lazy imports inside "
    "asgc and scipy, BLAS start-up, page faults on first use) land in wall_s as they do for a CLI "
    "user; interpreter start-up and `import asgc.cli` are setup_s, measured separately"
)

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "cells_per_s": "1/s", "peak_rss_mb": "MB", "quality": "1",
}
PER_LAYER_UNITS = {
    "data.load_s": "s", "data.load_calls": "count", "data.parse_mb_per_s": "MB/s",
    "graph.build_s": "s", "graph.build_calls": "count", "graph.normalize_s": "s",
    "graph.normalize_calls": "count", "graph.propagate_s": "s", "graph.csr_rebuilds": "count",
    "graph.spmv_cols_computed": "count",
    "filters.sgc_s": "s", "filters.sgc_calls": "count", "filters.asgc_s": "s",
    "filters.asgc_calls": "count", "filters.asgc_cols_per_s": "1/s",
    "filters.asgc_rank_deficient": "count", "filters.spmv_useful_ratio": "ratio",
    "filters.blend_s": "s", "filters.blend_calls": "count",
    "numeric.fit_calls": "count", "numeric.fit_s": "s", "numeric.fit_p50_s": "s",
    "numeric.fit_max_s": "s", "numeric.objective_evals": "count", "numeric.objective_s": "s",
    "numeric.optimizer_overhead_s": "s", "numeric.fit_nonconverged": "count",
    "numeric.fit_grad_max": "1", "numeric.lstsq_calls": "count", "numeric.lstsq_s": "s",
    "numeric.predict_s": "s",
    "experiments.combo_s": "s", "experiments.combo_fits": "count",
    "experiments.unique_fit_ratio": "ratio", "experiments.default_sweep_projection_s": "s",
    "synthetic.generate_s": "s", "synthetic.generate_calls": "count",
    "synthetic.generate_p50_s": "s", "synthetic.edges_per_s": "1/s", "synthetic.trial_s": "s",
    "parallel.items": "count", "parallel.busy_s": "s", "parallel.utilization": "ratio",
    "parallel.item_max_s": "s",
    "cli.write_s": "s", "cli.write_mb": "MB", "cli.write_mb_per_s": "MB/s", "cli.svg_s": "s",
    **{f"{layer}.self_s": "s" for layer in tracing.LAYERS},
    "trace.oracle_s": "s", "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    dataset: str | None
    args: tuple[str, ...]  # CLI arguments after --manifest/--out/--seed are added
    seeded: bool  # whether the subcommand takes --seed
    cells: int  # output cells per pass, for cells_per_s
    check: Callable  # (out_dir, edges, features) -> quality values
    intent: str
    meets_intent: Callable  # (metrics, wall_s) -> bool


def _top_layer(metrics: dict) -> str:
    return max(tracing.LAYERS, key=lambda layer: metrics[f"{layer}.self_s"])


SWEEP_K = range(9, 11)
WORKLOADS = {
    "cora-combo": Workload(
        "cora-h",
        ("classify", "--dataset", "cora-h", "--method", "combo", "--k", "6", "--resolution", "3",
         "--trials", "1"),
        True, 1,
        lambda out, edges, x: checks.check_classify(out, "cora-h", "combo", 6, 1, 3),
        "numeric (the classifier) has the largest self time",
        lambda m, wall: _top_layer(m) == "numeric",
    ),
    "het-sweep": Workload(
        "cora-x",
        ("sweep", "--dataset", "cora-x", "--method", "raw", "--method", "asgc",
         "--k-min", str(SWEEP_K[0]), "--k-max", str(SWEEP_K[-1]), "--trials", "1"),
        True, 2 * len(SWEEP_K),
        lambda out, edges, x: checks.check_sweep(out, "cora-x", ("raw", "asgc"), SWEEP_K, 1),
        "filters.asgc_s and numeric.fit_s each take at least 20% of the pass",
        lambda m, wall: min(m["filters.asgc_s"], m["numeric.fit_s"]) >= 0.2 * wall,
    ),
    "het-export": Workload(
        "cora-x",
        ("filter", "--dataset", "cora-x", "--method", "asgc", "--k", "10"),
        False, fixtures.N_FEATURES * 10,
        lambda out, edges, x: checks.check_filter(out, "cora-x", 10, edges, x),
        "cli (writing) has the largest self time and no classifier runs",
        lambda m, wall: _top_layer(m) == "cli" and m["numeric.fit_calls"] == 0,
    ),
    "synth-sbm": Workload(
        None,
        ("synth", "--k", "6", "--trials", "20", "--jobs", "2"),
        True, 21 * 20,
        lambda out, edges, x: checks.check_synth(out, 21),
        "synthetic (SBM generation) has the largest self time and no classifier runs",
        lambda m, wall: _top_layer(m) == "synthetic" and m["numeric.fit_calls"] == 0,
    ),
}


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(spec: dict, deadline: float) -> dict:
    """Start one worker, wait for it, and return its report (or an ``error``)."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
            env=worker_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        return {"error": "worker timed out"}
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("PERFBENCH ")]
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    report = json.loads(lines[-1][len("PERFBENCH "):])
    report["setup_s"] = report["ready"] - start
    return report


def run_pass(wl: Workload, index: int, traced: bool, manifest, seed: int, load_bytes: int,
             deadline: float) -> tuple[dict, Path]:
    out = CACHE / "passes" / f"{os.getpid()}-{index}"
    shutil.rmtree(out, ignore_errors=True)
    argv = list(wl.args) + ["--out", str(out)]
    if manifest is not None:
        argv += ["--manifest", str(manifest)]
    if wl.seeded:
        argv += ["--seed", str(seed)]
    spec = {"src": str(SRC), "argv": argv, "trace": traced, "pass_id": index, "load_bytes": load_bytes}
    report = run_worker(spec, deadline)
    report["traced"] = traced
    return report, out


def measure(wl: Workload, seed: int, seconds: float, trace: bool, manifest, arrays,
            load_bytes: int, started: float) -> tuple[list[dict], list[float], dict]:
    """Run passes until another would overrun ``seconds``; check each one."""
    passes: list[dict] = []
    setups: list[float] = []  # one import-only probe per cycle spreads set-ups over the run
    quality: dict = {}
    digests = None
    deadline = started + DEADLINE_S
    begin = time.monotonic()
    while True:
        cycle_start = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            report, out = run_pass(wl, len(passes), traced, manifest, seed, load_bytes, deadline)
            try:
                checks.expect("error" not in report, report.get("error", ""))
                checks.expect(report["exit_code"] == 0, f"asgc exit code {report['exit_code']}")
                got = checks.csv_digests(out)
                if digests is None:
                    quality = wl.check(out, *arrays)
                    digests = got
                else:
                    checks.expect(got == digests, "CSV bytes differ from the run's first checked pass")
                report["ok"] = True
            except (checks.CheckError, ValueError, IndexError, OSError) as exc:  # malformed output
                report["ok"], report["why"] = False, f"{type(exc).__name__}: {exc}"
            finally:
                shutil.rmtree(out, ignore_errors=True)
            passes.append(report)
            print(f"pass {len(passes) - 1} {'traced' if traced else 'plain '} "
                  f"{'ok' if report['ok'] else 'FAILED: ' + report['why']} "
                  f"wall_s={report.get('wall_s', float('nan')):.3f} "
                  f"cpu_s={report.get('cpu_s', float('nan')):.3f} "
                  f"setup_s={report.get('setup_s', float('nan')):.3f} "
                  f"peak_rss_mb={report.get('peak_rss_mb', float('nan')):.1f}", flush=True)
        probe = run_worker({"src": str(SRC), "argv": None}, deadline)
        if "setup_s" in probe:
            setups.append(probe["setup_s"])
        now = time.monotonic()
        cycle = now - cycle_start
        if now + cycle > min(begin + seconds, deadline):
            break
    setups += [p["setup_s"] for p in passes if "setup_s" in p]
    while len(setups) < MIN_SETUPS and time.monotonic() + 5 < deadline:
        probe = run_worker({"src": str(SRC), "argv": None}, deadline)
        if "setup_s" not in probe:
            break
        setups.append(probe["setup_s"])
    return passes, setups, quality


def environment(seed: int, props: dict, hashes: dict) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "git_commit": commit or "unknown (not a git checkout)",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_pin": "env " + ",".join(THREAD_VARS) + " set before the worker imports numpy",
        "workload_seed": seed,
        "fixture_properties": props,
        "fixture_sha256": hashes,
        "cold_first_call": COLD_FIRST_CALL,
    }


def median_of(passes: list[dict], key: str) -> float:
    values = [p[key] for p in passes if key in p]
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "asgc" / "cli.py").is_file():
        print(f"error: no asgc source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    manifest, props, hashes, arrays, load_bytes = None, {}, {}, (None, None), 0
    if wl.dataset is not None:
        manifest, props, hashes = fixtures.ensure(CACHE / "fixtures", wl.dataset, args.seed)
        edges, x, _ = fixtures.read(manifest.parent, wl.dataset)
        arrays = (edges, x.astype(np.float64))
        load_bytes = sum(p.stat().st_size for p in manifest.parent.glob(f"{wl.dataset}.*"))
    env = environment(args.seed, props, hashes)
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))

    passes, setups, quality = measure(wl, args.seed, args.seconds, bool(args.trace), manifest,
                                      arrays, load_bytes, started)
    failed = sum(not p["ok"] for p in passes)
    ok = [p for p in passes if p["ok"]]
    plain = [p for p in ok if not p["traced"]]
    wall = median_of(plain, "wall_s")
    print(f"passes attempted={len(passes)} failed={failed} fail_ratio={failed / len(passes):g}")
    print(f"wall_s median of n={len(plain)} untraced passes (too few for a tail percentile); "
          f"setup_s median of n={len(setups)} set-ups")
    for name, value in quality.items():
        print(f"quality {name}={value!r}")

    if args.trace:
        traced = [p for p in ok if p["traced"]]
        metrics = {name: median_of([p["metrics"] for p in traced], name)
                   for name in PER_LAYER_UNITS if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = median_of(traced, "wall_s") - wall if traced and plain else 0.0
        absent = sorted({a for p in traced for a in p.get("absent", [])})
        print("absent targets (their metrics read 0): " + (", ".join(absent) or "none"))
        busy = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
        if busy:
            print("self-time share: " + ", ".join(
                f"{layer}={metrics[f'{layer}.self_s'] / busy:.1%}" for layer in tracing.LAYERS))
            print(f"intended load ({wl.intent}): "
                  f"{'met' if wl.meets_intent(metrics, median_of(traced, 'wall_s')) else 'NOT MET'}")
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": statistics.median(setups) if setups else 0.0,
            "wall_s": wall,
            "cells_per_s": wl.cells / wall if wall else 0.0,
            "peak_rss_mb": median_of(plain, "peak_rss_mb"),
            "quality": quality.get("quality", 0.0),
        }
        units = END_TO_END_UNITS
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    result = {
        "correct": failed == 0 and bool(ok),
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
