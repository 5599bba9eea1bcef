"""Pinned output digests: every subcommand's files, and the filters' and
classifier's full-precision arrays, hashed and compared with a committed table.

Each case runs the CLI (or the library, for the ``api`` case) on a small
seeded dataset and takes the SHA-256 of every file it writes. The table in
``golden_digests.json`` was made by the code it pins; a change that moves
any output byte, or any bit of an ``api`` array that the CSVs round to six
decimals, fails here. The subcommands that take ``--jobs`` run at 1 and 2
against the same digests.

Classifier bits depend on the numpy/scipy/BLAS build, so the table stores
those versions; a mismatch names them next to the running ones. After an
intended output change, regenerate the table with

    PYTHONPATH=src python tests/test_golden_digests.py

and list every changed digest, with the reason it moved, in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.sparse as sp

from asgc import asgc_filter, fit_logistic, load_from_manifest, sgc_filter
from asgc.cli import main
from asgc.experiments import METHODS
from asgc.numeric import softmax_objective
import conftest

TABLE = Path(__file__).with_name("golden_digests.json")
WORKFLOW = Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml"
REGENERATE = "PYTHONPATH=src python tests/test_golden_digests.py"


def build_versions() -> dict[str, str]:
    def blas(config):
        info = config["Build Dependencies"]["blas"]
        return f"{info['name']} {info['version']}"

    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
    }


def write_dataset(root: Path) -> Path:
    """300 nodes, 3 classes, 20 sparse noisy features (two ASGC chunks), mean degree ~5."""
    rng = np.random.default_rng(2024)
    n, f = 300, 20
    labels = np.arange(n) % 3
    same = labels[:, None] == labels[None, :]
    upper = np.triu(rng.random((n, n)) < np.where(same, 0.032, 0.0096), k=1)
    edges = np.column_stack(np.nonzero(upper))
    centers = rng.standard_normal((3, f))
    mask = rng.random((n, f)) < 0.5
    features = np.where(mask, centers[labels] + 3.0 * rng.standard_normal((n, f)), 0.0)
    conftest.write_dataset(root, edges, features, labels)
    return root / "data.manifest"


AGGREGATE_RESULTS = """dataset,method,k_hops,trial,seed,test_accuracy
a,raw,2,0,1,0.500000
a,raw,2,1,2,0.700000
a,sgc,2,0,1,0.800000
a,sgc,2,1,2,0.650000
b,raw,2,0,1,0.300000
b,sgc,2,0,1,0.900000
b,sgc,3,0,1,0.100000
"""

AGGREGATE_EXTERNAL = "method,dataset,accuracy\npaper,a,0.750000\npaper,b,0.600000\n"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv) -> str:
    """Run one CLI invocation that must succeed; return what it printed."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([str(a) for a in argv])
    assert code == 0, f"{argv} exited {code}"
    return stdout.getvalue()


def file_digests(case: str, out: Path) -> dict[str, str]:
    return {f"{case}/{p.name}": digest(p.read_bytes()) for p in sorted(out.iterdir())}


def array_digests(case: str, arrays: dict[str, np.ndarray]) -> dict[str, str]:
    return {f"{case}/{name}": digest(a.tobytes()) for name, a in arrays.items()}


def case_synth(root: Path, jobs: int) -> dict[str, str]:
    out = root / f"synth_j{jobs}"
    run_cli([
        "synth", "--k", 2, "--trials", 2, "--seed", 3, "--log-ratio-min", -2,
        "--log-ratio-max", 2, "--log-ratio-steps", 3, "--jobs", jobs, "--out", out,
    ])
    return file_digests("synth", out)


def case_filter(root: Path, manifest: Path) -> dict[str, str]:
    out = root / "filter"
    for method in ("sgc", "asgc"):
        run_cli(["filter", "--manifest", manifest, "--dataset", "toy", "--method", method,
                 "--k", 3, "--out", out])
    return file_digests("filter", out)


def case_classify(root: Path, manifest: Path, jobs: int) -> dict[str, str]:
    out = root / f"classify_j{jobs}"
    for method in METHODS:
        run_cli(["classify", "--manifest", manifest, "--dataset", "toy", "--method", method,
                 "--k", 2, "--resolution", 1, "--trials", 2, "--seed", 7, "--jobs", jobs,
                 "--out", out])
    return file_digests("classify", out)


def case_sweep(root: Path, manifest: Path, jobs: int) -> dict[str, str]:
    out = root / f"sweep_j{jobs}"
    run_cli(["sweep", "--manifest", manifest, "--dataset", "toy", "--method", "raw",
             "--method", "asgc", "--k-min", 1, "--k-max", 2, "--trials", 2, "--seed", 4,
             "--jobs", jobs, "--out", out])
    return file_digests("sweep", out)


def case_sweep_all(root: Path, manifest: Path) -> dict[str, str]:
    """Every method, combo's lattice included, through the whole sweep path."""
    out = root / "sweep_all"
    run_cli(["sweep", "--manifest", manifest, "--dataset", "toy", "--k-min", 1, "--k-max", 2,
             "--trials", 2, "--resolution", 2, "--seed", 4, "--jobs", 1, "--out", out])
    return file_digests("sweep_all", out)


def case_aggregate(root: Path) -> dict[str, str]:
    results, external = root / "results.csv", root / "external.csv"
    results.write_text(AGGREGATE_RESULTS)
    external.write_text(AGGREGATE_EXTERNAL)
    out = root / "aggregate"
    run_cli(["aggregate", "--results", results, "--external", external, "--k", 2, "--out", out])
    return file_digests("aggregate", out)


def case_homophily(manifest: Path) -> dict[str, str]:
    stdout = run_cli(["homophily", "--manifest", manifest, "--dataset", "toy"])
    return {"homophily/stdout": digest(stdout.encode())}


def case_api(manifest: Path) -> dict[str, str]:
    """Full-precision bits of the filters at het-sweep's hop counts and of the objective."""
    ds = load_from_manifest(manifest, "toy")
    dense = ds.features.toarray()
    arrays = {"sgc_k3": sgc_filter(ds.graph, dense, 3)}
    for k in (9, 10):
        res = asgc_filter(ds.graph, dense, k)
        arrays.update({f"asgc_k{k}_{field}": getattr(res, field)
                       for field in ("filtered", "coefficients", "residual_norms")})
    f = dense.shape[1]
    params = np.random.default_rng(11).standard_normal(f * 3 + 3)
    for form, x in (("dense", dense), ("csr", sp.csr_matrix(dense))):
        loss, grad = softmax_objective(params, x, ds.labels, 3, 1e-4)
        arrays[f"objective_{form}_loss"] = np.array([loss])
        arrays[f"objective_{form}_grad"] = grad
    model = fit_logistic(ds.features, ds.labels)
    arrays.update({"fit_weights": model.weights, "fit_bias": model.bias})
    return array_digests("api", arrays)


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text())


@pytest.fixture(scope="module")
def manifest(tmp_path_factory):
    return write_dataset(tmp_path_factory.mktemp("golden_data"))


def assert_pinned(got: dict[str, str], table) -> None:
    want = {name: table["digests"].get(name) for name in got}
    changed = sorted(name for name in got if got[name] != want[name])
    if changed:
        versions = build_versions()
        lines = [f"{len(changed)} output(s) differ from {TABLE.name}: {', '.join(changed)}"]
        for key, pinned in table["versions"].items():
            note = "" if versions.get(key) == pinned else "  <- differs"
            lines.append(f"  {key}: pinned {pinned}, running {versions.get(key)}{note}")
        lines.append(f"If the change is intended, regenerate with: {REGENERATE}")
        pytest.fail("\n".join(lines), pytrace=False)


@pytest.mark.parametrize("jobs", [1, 2])
def test_synth_matches_pinned_digests(tmp_path, table, jobs):
    got = case_synth(tmp_path, jobs)
    assert len(got) == 3
    assert_pinned(got, table)


def test_filter_matches_pinned_digests(tmp_path, table, manifest):
    got = case_filter(tmp_path, manifest)
    assert len(got) == 4  # sgc features; asgc features, coefficients, residuals
    assert_pinned(got, table)


@pytest.mark.parametrize("jobs", [1, 2])
def test_classify_matches_pinned_digests(tmp_path, table, manifest, jobs):
    got = case_classify(tmp_path, manifest, jobs)
    assert len(got) == len(METHODS)
    assert_pinned(got, table)


@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_matches_pinned_digests(tmp_path, table, manifest, jobs):
    got = case_sweep(tmp_path, manifest, jobs)
    assert sorted(got) == ["sweep/sweep_toy.csv", "sweep/sweep_toy.svg"]
    assert_pinned(got, table)


def test_sweep_over_every_method_matches_pinned_digests(tmp_path, table, manifest):
    got = case_sweep_all(tmp_path, manifest)
    assert sorted(got) == ["sweep_all/sweep_toy.csv", "sweep_all/sweep_toy.svg"]
    assert_pinned(got, table)


def test_aggregate_matches_pinned_digests(tmp_path, table):
    got = case_aggregate(tmp_path)
    assert len(got) == 2
    assert_pinned(got, table)


def test_homophily_matches_pinned_digest(table, manifest):
    assert_pinned(case_homophily(manifest), table)


def test_filter_and_objective_bits_match_pinned_digests(table, manifest):
    assert_pinned(case_api(manifest), table)


def test_ci_installs_the_numpy_and_scipy_the_table_was_made_with(table):
    """A CI pin bump without a regenerated table fails here, offline."""
    (install,) = re.findall(r"pip install (.*==.*)", WORKFLOW.read_text())
    pins = dict(re.findall(r"\b(numpy|scipy)==(\S+)", install))
    assert pins == {name: table["versions"][name] for name in ("numpy", "scipy")}


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        manifest = write_dataset(root)
        digests = {
            **case_synth(root, 1),
            **case_filter(root, manifest),
            **case_classify(root, manifest, 1),
            **case_sweep(root, manifest, 1),
            **case_sweep_all(root, manifest),
            **case_aggregate(root),
            **case_homophily(manifest),
            **case_api(manifest),
        }
    table = {"regenerate": REGENERATE, "versions": build_versions(), "digests": dict(sorted(digests.items()))}
    TABLE.write_text(json.dumps(table, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {TABLE}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
