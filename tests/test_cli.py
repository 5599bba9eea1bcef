import xml.etree.ElementTree as ET

import numpy as np
import pytest

from asgc.cli import main
from asgc.experiments import METHODS


@pytest.fixture
def toy_manifest(tmp_path):
    rng = np.random.default_rng(0)
    n = 40
    upper = np.triu(rng.random((n, n)) < 0.15, k=1)
    edges = np.column_stack(np.nonzero(upper))
    labels = (np.arange(n) >= n // 2).astype(int)
    features = np.eye(2)[labels] * 2 + rng.standard_normal((n, 2))
    (tmp_path / "toy.edges").write_text("".join(f"{i}\t{j}\n" for i, j in edges))
    (tmp_path / "toy.features").write_text(
        "".join(",".join(repr(float(v)) for v in row) + "\n" for row in features)
    )
    (tmp_path / "toy.labels").write_text("".join(f"{v}\n" for v in labels))
    manifest = tmp_path / "data.manifest"
    manifest.write_text(
        "toy.edges = toy.edges\ntoy.features = toy.features\ntoy.labels = toy.labels\n"
    )
    return manifest


def test_synth_writes_expected_grid(tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "synth", "--k", "1", "--trials", "1", "--seed", "1",
            "--log-ratio-min", "-1", "--log-ratio-max", "1", "--log-ratio-steps", "3",
            "--out", str(out),
        ]
    )
    assert code == 0
    lines = (out / "synth.csv").read_text().splitlines()
    assert lines[0] == "log_ratio,method,metric,value"
    assert len(lines) == 1 + 3 * 3 * 2  # grid x methods x metrics
    assert (out / "synth_rms_deviation.svg").exists()
    assert (out / "synth_sign_error.svg").exists()


def test_synth_output_is_byte_identical_across_runs(tmp_path):
    args = [
        "synth", "--k", "1", "--trials", "2", "--seed", "3",
        "--log-ratio-min", "-2", "--log-ratio-max", "2", "--log-ratio-steps", "2",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b"), "--jobs", "2"]) == 0
    a = (tmp_path / "a" / "synth.csv").read_bytes()
    b = (tmp_path / "b" / "synth.csv").read_bytes()
    assert a == b


@pytest.mark.parametrize("jobs", ["0", "-1"])
@pytest.mark.parametrize("subcommand", ["synth", "classify"])
def test_jobs_below_one_is_a_usage_error(toy_manifest, tmp_path, capsys, subcommand, jobs):
    out = tmp_path / "out"
    args = [subcommand, "--jobs", jobs, "--out", str(out)]
    if subcommand == "classify":
        args += ["--manifest", str(toy_manifest), "--dataset", "toy", "--method", "raw"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert f"argument --jobs: must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_homophily_prints_value(toy_manifest, capsys):
    code = main(["homophily", "--manifest", str(toy_manifest), "--dataset", "toy"])
    assert code == 0
    name, value = capsys.readouterr().out.strip().split("\t")
    assert name == "toy"
    assert 0.0 <= float(value) <= 1.0


def test_classify_rows_and_summary(toy_manifest, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "classify", "--manifest", str(toy_manifest), "--dataset", "toy",
            "--method", "combo", "--k", "2", "--resolution", "1",
            "--trials", "2", "--seed", "0", "--out", str(out),
        ]
    )
    assert code == 0
    lines = (out / "classify_toy_combo.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:6] == ["dataset", "method", "k_hops", "trial", "seed", "test_accuracy"]
    assert len(lines) == 1 + 2 + 1  # header + trials + summary
    assert lines[-1].split(",")[3] == "mean"


@pytest.mark.parametrize("method", METHODS)
def test_classify_deterministic(toy_manifest, tmp_path, method):
    args = [
        "classify", "--manifest", str(toy_manifest), "--dataset", "toy",
        "--method", method, "--resolution", "1", "--trials", "2", "--seed", "5",
    ]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    assert main(args + ["--out", str(tmp_path / "b"), "--jobs", "2"]) == 0
    assert (tmp_path / "a" / f"classify_toy_{method}.csv").read_bytes() == (
        tmp_path / "b" / f"classify_toy_{method}.csv"
    ).read_bytes()


@pytest.mark.parametrize("subcommand", ["classify", "sweep"])
def test_zero_trials_gives_bad_data_code(toy_manifest, tmp_path, subcommand):
    out = tmp_path / "out"
    args = [subcommand, "--manifest", str(toy_manifest), "--dataset", "toy", "--trials", "0"]
    if subcommand == "classify":
        args += ["--method", "raw"]
    assert main(args + ["--out", str(out)]) == 4
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize(
    "subcommand, hops", [("classify", ["--k", "0"]), ("sweep", ["--k-min", "0", "--k-max", "1"])]
)
def test_zero_hops_gives_bad_data_code_for_k_free_method(toy_manifest, tmp_path, subcommand, hops):
    out = tmp_path / "out"
    args = [subcommand, "--manifest", str(toy_manifest), "--dataset", "toy", "--method", "raw"]
    assert main(args + hops + ["--out", str(out)]) == 4
    assert not list(out.glob("*.csv"))


def test_filter_writes_feature_matrix(toy_manifest, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "filter", "--manifest", str(toy_manifest), "--dataset", "toy",
            "--method", "asgc", "--k", "2", "--out", str(out),
        ]
    )
    assert code == 0
    features = (out / "toy_asgc_k2_features.csv").read_text().splitlines()
    assert features[0] == "node,f0,f1"
    assert len(features) == 1 + 40
    coeffs = (out / "toy_asgc_k2_coefficients.csv").read_text().splitlines()
    assert coeffs[0] == "feature,c1,c2"
    assert (out / "toy_asgc_k2_residuals.csv").exists()


def test_sweep_and_aggregate_round_trip(toy_manifest, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "sweep", "--manifest", str(toy_manifest), "--dataset", "toy",
            "--method", "raw", "--method", "sgc1",
            "--k-min", "1", "--k-max", "2", "--trials", "2", "--out", str(out),
        ]
    )
    assert code == 0
    sweep_csv = out / "sweep_toy.csv"
    lines = sweep_csv.read_text().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2
    assert (out / "sweep_toy.svg").exists()

    code = main(
        ["aggregate", "--results", str(sweep_csv), "--k", "1", "--out", str(out)]
    )
    assert code == 0
    summary = (out / "aggregate_summary.csv").read_text().splitlines()
    assert summary[0] == "method,source,mean_proportion,min_proportion"
    assert len(summary) == 1 + 2
    datasets_csv = (out / "aggregate_datasets.csv").read_text().splitlines()
    assert datasets_csv[0] == "dataset,method,source,mean_accuracy,std_accuracy,proportion"


def test_sweep_svg_escapes_markup_in_dataset_name(toy_manifest, tmp_path):
    manifest = toy_manifest.parent / "amp.manifest"
    fields = ("edges", "features", "labels")
    manifest.write_text("".join(f"r&d.{field} = toy.{field}\n" for field in fields))
    out = tmp_path / "out"
    code = main(
        [
            "sweep", "--manifest", str(manifest), "--dataset", "r&d", "--method", "raw",
            "--k-min", "1", "--k-max", "1", "--trials", "1", "--out", str(out),
        ]
    )
    assert code == 0
    root = ET.parse(out / "sweep_r&d.svg").getroot()
    title = root.find("{http://www.w3.org/2000/svg}text")
    assert title.text == "Test accuracy vs hops: r&d"


def test_aggregate_with_external_reference(toy_manifest, tmp_path):
    out = tmp_path / "out"
    main(
        [
            "classify", "--manifest", str(toy_manifest), "--dataset", "toy",
            "--method", "raw", "--trials", "2", "--out", str(out),
        ]
    )
    external = tmp_path / "external.csv"
    external.write_text("method,dataset,accuracy\nbigmodel,toy,0.99\n")
    code = main(
        [
            "aggregate", "--results", str(out / "classify_toy_raw.csv"),
            "--external", str(external), "--out", str(out),
        ]
    )
    assert code == 0
    summary = (out / "aggregate_summary.csv").read_text()
    assert "bigmodel,reported" in summary


def test_aggregate_bad_value_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("dataset,method,k_hops,trial,seed,test_accuracy\ntoy,raw,x,0,1,0.5\n")
    code = main(["aggregate", "--results", str(bad), "--out", str(tmp_path / "out")])
    assert code == 4
    assert "bad.csv:2:" in capsys.readouterr().err


def test_unknown_flag_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["filter", "--method", "sgc"],
        ["classify", "--method", "raw"],
        ["sweep"],
        ["homophily"],
    ],
)
def test_dataset_subcommand_without_manifest_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--dataset", "toy"])
    assert exc.value.code == 2
    assert "--manifest" in capsys.readouterr().err


def test_empty_manifest_value_gives_bad_data_code(toy_manifest, capsys):
    toy_manifest.write_text("toy.edges =\ntoy.features = toy.features\ntoy.labels = toy.labels\n")
    code = main(["homophily", "--manifest", str(toy_manifest), "--dataset", "toy"])
    assert code == 4
    assert "data.manifest:1: empty value" in capsys.readouterr().err


def test_missing_manifest_gives_missing_file_code(tmp_path, capsys):
    code = main(["homophily", "--manifest", str(tmp_path / "nope"), "--dataset", "x"])
    assert code == 3
    assert "missing file" in capsys.readouterr().err


def test_malformed_manifest_gives_bad_data_code(tmp_path, capsys):
    bad = tmp_path / "bad.manifest"
    bad.write_text("not a manifest line\n")
    code = main(["homophily", "--manifest", str(bad), "--dataset", "x"])
    assert code == 4
    assert "error" in capsys.readouterr().err


def test_missing_dataset_name_gives_bad_data_code(toy_manifest):
    code = main(["homophily", "--manifest", str(toy_manifest), "--dataset", "missing"])
    assert code == 4


def test_help_available_for_every_subcommand(capsys):
    for sub in ("synth", "filter", "classify", "sweep", "aggregate", "homophily"):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: asgc {sub}")
