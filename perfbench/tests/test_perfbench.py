"""Tests of the benchmark's own code: fixtures, output checks and span arithmetic.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import fixtures  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


# --- fixtures -----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(fixtures.DATASETS))
def test_fixture_is_deterministic_per_seed(name, tmp_path):
    first = fixtures.generate(name, 7)
    again = fixtures.generate(name, 7)
    other = fixtures.generate(name, 8)
    for a, b in zip(first, again):
        assert np.array_equal(a, b)
    assert not np.array_equal(first[1], other[1])
    fixtures.write(tmp_path / "a", name, *first)
    fixtures.write(tmp_path / "b", name, *again)
    for field in fixtures.FILES:
        assert fixtures.sha256(tmp_path / "a" / f"{name}.{field}") == \
            fixtures.sha256(tmp_path / "b" / f"{name}.{field}")


@pytest.mark.parametrize("name", sorted(fixtures.DATASETS))
def test_fixture_properties_are_in_band(name, tmp_path):
    manifest, props, hashes = fixtures.ensure(tmp_path, name, 3)
    assert props["nodes"] == fixtures.N_NODES and props["features"] == fixtures.N_FEATURES
    assert set(hashes) == {f"{name}.{field}" for field in fixtures.FILES}
    edges, x, labels = fixtures.read(manifest.parent, name)
    assert np.array_equal(x, fixtures.generate(name, 3)[1])


def test_out_of_band_fixture_is_rejected():
    with pytest.raises(fixtures.FixtureError):
        fixtures.check({"homophily:cora-h": 0.5})


def test_corrupted_cached_fixture_is_regenerated(tmp_path):
    manifest, _, hashes = fixtures.ensure(tmp_path, "cora-h", 4)
    path = manifest.parent / "cora-h.features"
    data = bytearray(path.read_bytes())
    data[0] = ord("7")
    path.write_bytes(bytes(data))
    _, _, again = fixtures.ensure(tmp_path, "cora-h", 4)
    assert again == hashes


# --- output checks ------------------------------------------------------------

CLASSIFY_HEADER = "dataset,method,k_hops,trial,seed,test_accuracy,validation_accuracy,w_raw,w_sgc,w_asgc\n"


def write_classify(out: Path, rows: list[str]) -> None:
    out.mkdir(parents=True, exist_ok=True)
    (out / "classify_d_combo.csv").write_text(CLASSIFY_HEADER + "".join(r + "\n" for r in rows))


GOOD_CLASSIFY = [
    "d,combo,6,0,11,0.800000,0.750000,0.000000,0.666667,0.333333",
    "d,combo,6,1,12,0.900000,0.850000,0.333333,0.666667,0.000000",
    "d,combo,6,mean,,0.850000,0.800000,0.166667,0.666667,0.166667",
]


def test_classify_check_accepts_consistent_output(tmp_path):
    write_classify(tmp_path, GOOD_CLASSIFY)
    assert checks.check_classify(tmp_path, "d", "combo", 6, 2, 3)["test_acc"] == 0.85


@pytest.mark.parametrize("row, bad", [
    (0, "d,combo,6,0,11,0.800000,0.750000,0.000000,0.500000,0.500000"),  # off the 1/3 lattice
    (0, "d,combo,6,0,11,0.800000,0.750000,0.000000,0.666667,0.666667"),  # sums to 4/3
    (2, "d,combo,6,mean,,0.860000,0.800000,0.166667,0.666667,0.166667"),  # mean row is wrong
    (1, "d,combo,6,1,11,0.900000,0.850000,0.333333,0.666667,0.000000"),  # repeated seed
    (1, "d,combo,6,1,12,1.200000,0.850000,0.333333,0.666667,0.000000"),  # accuracy above 1
])
def test_classify_check_catches_corruption(tmp_path, row, bad):
    rows = list(GOOD_CLASSIFY)
    rows[row] = bad
    write_classify(tmp_path, rows)
    with pytest.raises(checks.CheckError):
        checks.check_classify(tmp_path, "d", "combo", 6, 2, 3)


def test_sweep_check_requires_full_coverage_and_k_free_raw(tmp_path):
    header = "dataset,method,k_hops,trial,seed,test_accuracy,w_raw,w_sgc,w_asgc\n"
    rows = [f"d,{m},{k},0,5,{0.7 if m == 'raw' else 0.6 + k / 100:.6f},,,"
            for k in (1, 2) for m in ("raw", "asgc")]
    (tmp_path / "sweep_d.svg").write_text("<svg/>")
    (tmp_path / "sweep_d.csv").write_text(header + "\n".join(rows) + "\n")
    result = checks.check_sweep(tmp_path, "d", ("raw", "asgc"), range(1, 3), 1)
    assert result["test_acc"] == pytest.approx(0.615)
    (tmp_path / "sweep_d.csv").write_text(header + "\n".join(rows[:-1]) + "\n")
    with pytest.raises(checks.CheckError, match="rows"):
        checks.check_sweep(tmp_path, "d", ("raw", "asgc"), range(1, 3), 1)
    rows[2] = "d,raw,2,0,5,0.710000,,,"
    (tmp_path / "sweep_d.csv").write_text(header + "\n".join(rows) + "\n")
    with pytest.raises(checks.CheckError, match="raw accuracy"):
        checks.check_sweep(tmp_path, "d", ("raw", "asgc"), range(1, 3), 1)


def test_synth_check_requires_unit_noise(tmp_path):
    for name in ("synth_rms_deviation.svg", "synth_sign_error.svg"):
        (tmp_path / name).write_text("<svg/>")

    def write(raw_rms):
        lines = ["log_ratio,method,metric,value"]
        for rho in np.linspace(-5, 5, 3):
            for m, rms in (("raw", raw_rms), ("sgc", 0.9), ("asgc", 0.8)):
                lines += [f"{rho:.6f},{m},rms_deviation,{rms:.6f}", f"{rho:.6f},{m},sign_error,0.160000"]
        (tmp_path / "synth.csv").write_text("\n".join(lines) + "\n")

    write(1.01)
    assert checks.check_synth(tmp_path, 3)["quality"] == pytest.approx(1.01 / 0.8)
    write(1.3)
    with pytest.raises(checks.CheckError, match="raw rms"):
        checks.check_synth(tmp_path, 3)


def small_dataset(tmp_path: Path):
    rng = np.random.default_rng(0)
    n, f = 40, 6
    edges = np.array(sorted({tuple(sorted(rng.choice(n, 2, replace=False))) for _ in range(90)}))
    x = (rng.random((n, f)) < 0.3).astype(np.uint8)
    x[:, 0] = 0  # an all-zero feature column
    labels = np.arange(n) % 3
    fixtures.write(tmp_path / "data", "tiny", edges, x, labels)
    return tmp_path / "data" / "fixture.manifest", edges, x.astype(float)


def asgc_cli(argv):
    code = subprocess.run([sys.executable, "-m", "asgc", *argv], env={"PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=120)
    assert code.returncode == 0, code.stderr


def test_filter_oracle_accepts_asgc_and_catches_a_wrong_residual(tmp_path):
    manifest, edges, x = small_dataset(tmp_path)
    out = tmp_path / "out"
    asgc_cli(["filter", "--manifest", str(manifest), "--dataset", "tiny", "--method", "asgc", "--k", "3",
              "--out", str(out)])
    result = checks.check_filter(out, "tiny", 3, edges, x)
    assert 0 < result["quality"] <= 1
    residuals = out / "tiny_asgc_k3_residuals.csv"
    original = residuals.read_text()
    lines = original.splitlines()
    lines[2] = f"1,{float(lines[2].split(',')[1]) + 0.01:.6f}"
    residuals.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError, match="disagrees with residuals"):
        checks.check_filter(out, "tiny", 3, edges, x)

    # halve feature 1's filtered column and make the residual file agree:
    # consistent files, but no longer the least-squares optimum
    residuals.write_text(original)
    features = out / "tiny_asgc_k3_features.csv"
    header = features.read_text().splitlines()[0]
    table = np.loadtxt(features, delimiter=",", skiprows=1)
    table[:, 2] *= 0.5
    lines[2] = f"1,{np.linalg.norm(x[:, 1] - table[:, 2]):.6f}"
    residuals.write_text("\n".join(lines) + "\n")
    np.savetxt(features, table, fmt=["%d"] + ["%.6f"] * x.shape[1], delimiter=",", header=header, comments="")
    with pytest.raises(checks.CheckError, match="least-squares bracket"):
        checks.check_filter(out, "tiny", 3, edges, x)


def test_digests_change_with_one_byte(tmp_path):
    (tmp_path / "a.csv").write_text("x\n1.000000\n")
    before = checks.csv_digests(tmp_path)
    (tmp_path / "a.csv").write_text("x\n1.000001\n")
    assert checks.csv_digests(tmp_path) != before


# --- spans --------------------------------------------------------------------

def span(sid, name, start, end, parent=None):
    return tracing.Span(sid, name, start, end, parent, 0)


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([(1, 3), (2, 5), (7, 8)], 0, 10) == pytest.approx(5)
    assert tracing.covered([(1, 3), (2, 5)], 2.5, 4) == pytest.approx(1.5)
    assert tracing.covered([], 0, 1) == 0


def test_self_time_subtracts_child_coverage():
    spans = [
        span(1, "cli.main", 0, 10),
        span(2, "numeric.fit", 1, 6, parent=1),
        span(3, "numeric.objective", 2, 5, parent=2),
        span(4, "cli.write", 7, 9, parent=1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({1: 3, 2: 2, 3: 3, 4: 2})
    assert tracing.layer_self_times(spans) == pytest.approx({"cli": 5, "numeric": 5})


def test_parallel_children_overlap_counts_once_for_the_parent():
    spans = [
        span(1, "parallel.map", 0, 4),
        span(2, "parallel.item", 0, 3, parent=1),
        span(3, "parallel.item", 1, 4, parent=1),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == 0 and selfs[2] == 3 and selfs[3] == 3


def test_missing_target_is_reported_absent():
    class Module:
        pass

    tracer = tracing.Tracer()
    tracer.wrap(Module, "fit_logistic", "numeric.fit")
    assert tracer.absent and "fit_logistic" in tracer.absent[0]
    assert tracing.layer_metrics(tracer)["numeric.fit_calls"] == 0


def test_failing_hook_is_reported_and_the_call_still_returns():
    class Module:
        @staticmethod
        def generate_sbm(cfg):
            return "changed result type"

    tracer = tracing.Tracer()
    tracer.wrap(Module, "generate_sbm", "synthetic.generate", tracing.AFTER["synthetic.generate"])
    assert Module.generate_sbm(None) == "changed result type"
    assert len(tracer.broken) == 1 and tracing.layer_metrics(tracer)["synthetic.generate_calls"] == 1


def test_softmax_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(12, 3)), rng.integers(0, 3, 12)
    w, b = rng.normal(size=(3, 3)), rng.normal(size=3)

    def loss(params):
        wm, bm = params[:9].reshape(3, 3), params[9:]
        z = x @ wm + bm
        z = z - z.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        return -logp[np.arange(12), y].mean() + 0.5 * 0.1 * np.sum(wm * wm)

    params = np.concatenate([w.ravel(), b])
    numeric = [(loss(params + e) - loss(params - e)) / 2e-6 for e in np.eye(12) * 1e-6]
    assert np.allclose(tracing.softmax_gradient(x, y, w, b, 0.1), numeric, atol=1e-6)


def test_traced_worker_counts_fits_and_matches_untraced_bytes(tmp_path):
    manifest, _, _ = small_dataset(tmp_path)
    reports = {}
    for traced in (False, True):
        out = tmp_path / f"out{int(traced)}"
        argv = ["classify", "--manifest", str(manifest), "--dataset", "tiny", "--method", "combo",
                "--k", "2", "--resolution", "1", "--trials", "2", "--out", str(out)]
        reports[traced] = run.run_worker(
            {"src": str(ROOT / "src"), "argv": argv, "trace": traced, "pass_id": 0, "load_bytes": 1},
            deadline=time.monotonic() + 120,
        )
        assert reports[traced]["exit_code"] == 0
    assert checks.csv_digests(tmp_path / "out0") == checks.csv_digests(tmp_path / "out1")
    metrics = reports[True]["metrics"]
    assert reports[True]["absent"] == []
    assert metrics["numeric.fit_calls"] == 2 * (3 + 1)  # resolution 1: 3 grid fits + refit per trial
    assert metrics["experiments.combo_fits"] == metrics["numeric.fit_calls"]
    assert metrics["numeric.fit_nonconverged"] == 0
    assert metrics["filters.asgc_calls"] == 1 and metrics["data.load_calls"] == 1
    assert set(metrics) | {"trace.overhead_s"} == set(run.PER_LAYER_UNITS)


# --- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
