import argparse
import ast
import multiprocessing
import os
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from asgc.__main__ import THREAD_VARS
from asgc.cli import build_parser, main, svg_line_chart
from asgc.experiments import METHODS
from conftest import fresh_python, split_size_problem, traced_peak, write_dataset


@pytest.fixture
def toy_manifest(tmp_path):
    rng = np.random.default_rng(0)
    n = 40
    upper = np.triu(rng.random((n, n)) < 0.15, k=1)
    edges = np.column_stack(np.nonzero(upper))
    labels = (np.arange(n) >= n // 2).astype(int)
    features = np.eye(2)[labels] * 2 + rng.standard_normal((n, 2))
    write_dataset(tmp_path, edges, features, labels)
    return tmp_path / "data.manifest"


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


def test_failing_synth_item_exits_4_and_leaves_no_worker(tmp_path, monkeypatch, capsys):
    def broken(cfg, k_hops):
        raise ValueError("broken trial")

    monkeypatch.setattr("asgc.synthetic.denoise_trial", broken)
    args = ["synth", "--k", "1", "--trials", "2", "--log-ratio-steps", "2", "--jobs", "2"]
    assert main(args + ["--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err == "error: broken trial\n"
    assert multiprocessing.active_children() == []


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


@pytest.mark.parametrize("jobs", ["0", "-1", "abc"])
@pytest.mark.parametrize("subcommand", ["synth", "classify", "sweep"])
def test_jobs_below_one_is_a_usage_error(toy_manifest, tmp_path, capsys, subcommand, jobs):
    out = tmp_path / "out"
    args = [subcommand, "--jobs", jobs, "--out", str(out)]
    if subcommand != "synth":
        args += ["--manifest", str(toy_manifest), "--dataset", "toy", "--method", "raw"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    want = "invalid int value: 'abc'" if jobs == "abc" else f"must be >= 1, got {jobs}"
    assert f"argument --jobs: {want}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("subcommand", ["synth", "classify", "sweep"])
def test_negative_seed_is_a_usage_error(tmp_path, monkeypatch, capsys, subcommand):
    def no_load(*args, **kwargs):
        pytest.fail("the dataset was loaded before --seed was checked")

    monkeypatch.setattr("asgc.cli.load_from_manifest", no_load)
    out = tmp_path / "out"
    args = [subcommand, "--seed", "-1", "--out", str(out)]
    if subcommand != "synth":
        args += ["--manifest", str(tmp_path / "data.manifest"), "--dataset", "toy", "--method", "raw"]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2
    assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


LOAD = ["--manifest", "data.manifest", "--dataset", "toy"]
# subcommand: (the flags it requires, {count flag: its minimum}); --jobs and
# --seed have their own tests above
COUNT_FLAGS = {
    "synth": ([], {"--trials": 1, "--k": 1, "--log-ratio-steps": 1}),
    "filter": ([*LOAD, "--method", "asgc"], {"--k": 1}),
    "classify": ([*LOAD, "--method", "combo"], {"--trials": 1, "--k": 1, "--resolution": 1}),
    "sweep": (LOAD, {"--trials": 1, "--k-min": 1, "--k-max": 1, "--resolution": 1}),
    "aggregate": (["--results", "sweep_toy.csv"], {"--k": 1}),
}


@pytest.mark.parametrize(
    "subcommand, flag, value",
    [
        pytest.param(subcommand, flag, value, id=f"{subcommand} {flag} {value}")
        for subcommand, (_, minimums) in COUNT_FLAGS.items()
        for flag, minimum in minimums.items()
        for value in (str(minimum - 1), "abc")
    ],
)
def test_count_flag_out_of_range_is_a_usage_error(
    tmp_path, monkeypatch, capsys, subcommand, flag, value
):
    # argparse rejects the value before any load, filter or worker pool runs
    for target in ("asgc.cli.load_from_manifest", "asgc.synthetic.parallel_map",
                   "asgc.experiments.sgc_filter", "asgc.experiments.asgc_filter"):
        monkeypatch.setattr(target, lambda *a, target=target, **k: pytest.fail(f"{target} ran"))
    monkeypatch.chdir(tmp_path)
    required, minimums = COUNT_FLAGS[subcommand]
    with pytest.raises(SystemExit) as exc:
        main([subcommand, *required, flag, value, "--out", "out"])
    assert exc.value.code == 2
    want = "invalid int value: 'abc'" if value == "abc" else f"must be >= {minimums[flag]}, got {value}"
    assert f"argument {flag}: {want}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_unexpected_error_in_a_command_exits_1(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("out of luck")

    monkeypatch.setattr("asgc.cli.run_sweep", broken)
    assert main(["synth", "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == ("", "error: RuntimeError: out of luck\n")
    assert not (tmp_path / "out").exists()


def test_each_writing_subcommand_prints_the_one_path_it_names(toy_manifest, tmp_path, capsys):
    out = tmp_path / "out"
    dataset = ["--manifest", str(toy_manifest), "--dataset", "toy", "--out", str(out)]
    runs = [
        (["synth", "--k", "1", "--trials", "1", "--log-ratio-steps", "2", "--out", str(out)],
         "synth.csv"),
        (["filter", "--method", "asgc", "--k", "2", *dataset], "toy_asgc_k2_features.csv"),
        (["classify", "--method", "raw", "--trials", "1", *dataset], "classify_toy_raw.csv"),
        (["sweep", "--method", "raw", "--k-max", "1", "--trials", "1", *dataset],
         "sweep_toy.csv"),
        (["aggregate", "--results", str(out / "sweep_toy.csv"), "--out", str(out)],
         "aggregate_summary.csv"),
    ]
    for argv, name in runs:
        assert main(argv) == 0
        assert capsys.readouterr() == (f"wrote {out / name}\n", "")
        assert (out / name).is_file()


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


def assert_usage_error(argv, capsys, flag, value, minimum=1):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be >= {minimum}, got {value}" in capsys.readouterr().err


# --trials 0 was a bad-data error (exit 4) when the command checked it; argparse
# now refuses it as a usage error (exit 2), with a real dataset in place
@pytest.mark.parametrize("subcommand", ["classify", "sweep"])
def test_zero_trials_gives_bad_data_code(toy_manifest, tmp_path, capsys, subcommand):
    out = tmp_path / "out"
    args = [subcommand, "--manifest", str(toy_manifest), "--dataset", "toy", "--trials", "0"]
    if subcommand == "classify":
        args += ["--method", "raw"]
    assert_usage_error(args + ["--out", str(out)], capsys, "--trials", 0)
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("subcommand", ["classify", "sweep"])
def test_single_class_dataset_fails_cleanly(toy_manifest, tmp_path, capsys, subcommand, jobs):
    labels = toy_manifest.parent / "toy.labels"
    labels.write_text("0\n" * len(labels.read_text().splitlines()))
    out = tmp_path / "out"
    args = [subcommand, "--manifest", str(toy_manifest), "--dataset", "toy", "--trials", "2"]
    args += ["--method", "raw"] if subcommand == "classify" else ["--k-min", "1", "--k-max", "1"]
    assert main(args + ["--jobs", jobs, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err == "error: single-class training set: need at least two distinct labels\n"
    assert not list(out.glob("*.csv"))


@pytest.mark.parametrize(
    "subcommand, methods",
    [("classify", ["--method", "combo"]), ("sweep", ["--method", "raw", "--method", "combo"])],
)
def test_combo_resolution_below_one_fails_before_filtering(
    toy_manifest, tmp_path, monkeypatch, capsys, subcommand, methods
):
    def no_filtering(*args, **kwargs):
        pytest.fail("features were filtered before --resolution was checked")

    monkeypatch.setattr("asgc.experiments.sgc_filter", no_filtering)
    monkeypatch.setattr("asgc.experiments.asgc_filter", no_filtering)
    out = tmp_path / "out"
    args = [subcommand, "--manifest", str(toy_manifest), "--dataset", "toy", "--resolution", "0"]
    assert_usage_error(args + methods + ["--out", str(out)], capsys, "--resolution", 0)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--k-min", "3", "--k-max", "2"], "k_values must be nonempty, got range(3, 3)"),
        (["sweep", "--method", "raw", "--method", "raw"], "methods must not repeat: ['raw', 'raw']"),
    ],
)
def test_bad_protocol_arguments_fail_before_the_dataset_loads(
    tmp_path, monkeypatch, capsys, argv, message
):
    def no_load(*args, **kwargs):
        pytest.fail("the dataset was loaded before the protocol arguments were checked")

    monkeypatch.setattr("asgc.cli.load_from_manifest", no_load)
    out = tmp_path / "out"
    dataset = ["--manifest", str(tmp_path / "data.manifest"), "--dataset", "toy"]
    assert main(argv + dataset + ["--out", str(out)]) == 4
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--log-ratio-min", "-800"], "derived edge probabilities out of range: p=0, q=0.02"),
        (["--log-ratio-max", "1000"], "exp(log_ratio) is not finite: log_ratio=748.75"),
        (
            ["--log-ratio-max", "705"],
            "n_per_block * (1 + exp(log_ratio)) overflows: n_per_block=500, log_ratio=705",
        ),
    ],
)
def test_bad_synth_arguments_fail_before_the_worker_pool(
    tmp_path, monkeypatch, capsys, argv, message
):
    def no_pool(*args, **kwargs):
        pytest.fail("synth reached the worker pool before its arguments were checked")

    monkeypatch.setattr("asgc.synthetic.parallel_map", no_pool)
    out = tmp_path / "out"
    assert main(["synth", *argv, "--jobs", "2", "--out", str(out)]) == 4
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# a hop count below one is refused even for raw, which never filters
@pytest.mark.parametrize(
    "subcommand, hops", [("classify", ["--k", "0"]), ("sweep", ["--k-min", "0", "--k-max", "1"])]
)
def test_zero_hops_gives_bad_data_code_for_k_free_method(
    toy_manifest, tmp_path, capsys, subcommand, hops
):
    out = tmp_path / "out"
    args = [subcommand, "--manifest", str(toy_manifest), "--dataset", "toy", "--method", "raw"]
    assert_usage_error(args + hops + ["--out", str(out)], capsys, hops[0], 0)
    assert not out.exists()


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


def test_filter_writes_rows_without_holding_them_all_as_python_floats(tmp_path):
    rng = np.random.default_rng(0)
    n, f = 2000, 200
    edges = rng.integers(0, n, size=(4 * n, 2))
    rows = (rng.random((n, f)) < 0.5).astype(int)
    write_dataset(tmp_path, edges[edges[:, 0] != edges[:, 1]], rows, rng.integers(0, 3, n), name="g")
    manifest = tmp_path / "data.manifest"
    argv = ["filter", "--manifest", str(manifest), "--dataset", "g", "--method", "sgc", "--k", "2"]
    code, peak = traced_peak(lambda: main(argv + ["--out", str(tmp_path / "out")]))
    assert code == 0
    # the filtered matrix is 3.2 MB; as n tuples of Python floats the rows took
    # another ~13 MB, for a 19.2 MB peak against 9.7 MB when written row by row
    assert peak < 14e6
    assert len((tmp_path / "out" / "g_sgc_k2_features.csv").read_text().splitlines()) == 1 + n


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


def test_sweep_output_is_byte_identical_across_jobs(toy_manifest, tmp_path):
    args = [
        "sweep", "--manifest", str(toy_manifest), "--dataset", "toy",
        "--k-min", "1", "--k-max", "2", "--resolution", "1", "--trials", "2", "--seed", "5",
    ]
    assert main(args + ["--out", str(tmp_path / "a"), "--jobs", "1"]) == 0
    assert main(args + ["--out", str(tmp_path / "b"), "--jobs", "2"]) == 0
    for name in ("sweep_toy.csv", "sweep_toy.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


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


RESULTS_HEADER = "dataset,method,k_hops,trial,seed,test_accuracy\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("dataset,method,trial,test_accuracy\ntoy,raw,0,0.5\n",
         "results.csv: missing columns ['k_hops']"),
        (RESULTS_HEADER + "toy,raw,1,mean,,0.5\n",
         "no trial rows found in the given result files"),
    ],
    ids=["missing_column", "only_mean_rows"],
)
def test_aggregate_rejects_results_without_trial_rows(tmp_path, capsys, text, message):
    results = tmp_path / "results.csv"
    results.write_text(text)
    out = tmp_path / "out"
    assert main(["aggregate", "--results", str(results), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith(f"{message}\n")
    assert not out.exists()


def test_svg_line_chart_rejects_empty_series(tmp_path):
    path = tmp_path / "empty.svg"
    with pytest.raises(ValueError, match="^cannot plot empty series$"):
        svg_line_chart(path, [("raw", [])], "title", "x", "y")
    assert not path.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "1.5"])
@pytest.mark.parametrize("source", ["results", "external"])
def test_aggregate_rejects_an_accuracy_outside_0_1(tmp_path, capsys, value, source):
    results = tmp_path / "results.csv"
    results.write_text(RESULTS_HEADER + f"toy,raw,1,0,1,{0.5 if source == 'external' else value}\n")
    external = tmp_path / "external.csv"
    external.write_text(f"method,dataset,accuracy\nbig,toy,{value}\n")
    argv = ["aggregate", "--results", str(results), "--out", str(tmp_path / "out")]
    if source == "external":
        argv += ["--external", str(external)]
    assert main(argv) == 4
    err = capsys.readouterr().err
    assert f"{source}.csv:2: accuracy must be a fraction in [0, 1], got {value}" in err
    assert not (tmp_path / "out").exists()


def test_aggregate_rejects_a_repeated_external_method_and_dataset(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text(RESULTS_HEADER + "toy,raw,1,0,1,0.5\n")
    external = tmp_path / "external.csv"
    external.write_text("method,dataset,accuracy\ndeep,toy,0.9\ndeep,big,0.8\ndeep,toy,0.4\n")
    argv = ["aggregate", "--results", str(results), "--external", str(external)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 4
    assert "external.csv:4: repeated method and dataset 'deep', 'toy'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_aggregate_reads_accuracies_of_0_and_1(tmp_path):
    results = tmp_path / "results.csv"
    results.write_text(RESULTS_HEADER + "toy,raw,1,0,1,0.0\ntoy,sgc,1,0,1,1.0\n")
    external = tmp_path / "external.csv"
    external.write_text("method,dataset,accuracy\nbig,toy,1.0\nsmall,toy,0.0\n")
    out = tmp_path / "out"
    argv = ["aggregate", "--results", str(results), "--external", str(external), "--out", str(out)]
    assert main(argv) == 0
    assert (out / "aggregate_summary.csv").read_text().splitlines()[1:] == [
        "raw,measured,0.000000,0.000000",
        "sgc,measured,1.000000,1.000000",
        "big,reported,1.000000,1.000000",
        "small,reported,0.000000,0.000000",
    ]


def test_unknown_flag_exits_with_usage_error():
    for argv in (
        ["synth", "--bogus"],
        ["classify", "--manifest", "m", "--dataset", "d", "--method", "mystery"],
        ["sweep", "--manifest", "m", "--dataset", "d", "--method", "mystery"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# option string: (default, type name, choices, required, action)
DATASET_FLAGS = {
    "--manifest": (None, None, None, True, "store"), "--dataset": (None, None, None, True, "store"),
}
TRIAL_FLAGS = {
    "--trials": (10, "at_least_1", None, False, "store"), "--seed": (0, "at_least_0", None, False, "store"),
    "--jobs": (1, "at_least_1", None, False, "store"),
}
OUT_FLAG = {"--out": (".", None, None, False, "store")}


@pytest.mark.parametrize(
    "subcommand, want",
    [
        ("synth", {
            "--k": (6, "at_least_1", None, False, "store"),
            "--log-ratio-min": (-5.0, "float", None, False, "store"),
            "--log-ratio-max": (5.0, "float", None, False, "store"),
            "--log-ratio-steps": (21, "at_least_1", None, False, "store"),
            **TRIAL_FLAGS, **OUT_FLAG,
        }),
        ("filter", {
            **DATASET_FLAGS,
            "--method": (None, None, ("sgc", "asgc"), True, "store"),
            "--k": (6, "at_least_1", None, False, "store"),
            **OUT_FLAG,
        }),
        ("classify", {
            **DATASET_FLAGS,
            "--method": (None, None, METHODS, True, "store"),
            "--k": (6, "at_least_1", None, False, "store"),
            "--resolution": (3, "at_least_1", None, False, "store"),
            **TRIAL_FLAGS, **OUT_FLAG,
        }),
        ("sweep", {
            **DATASET_FLAGS,
            "--method": (None, None, METHODS, False, "append"),
            "--k-min": (1, "at_least_1", None, False, "store"),
            "--k-max": (10, "at_least_1", None, False, "store"),
            "--resolution": (3, "at_least_1", None, False, "store"),
            **TRIAL_FLAGS, **OUT_FLAG,
        }),
        ("aggregate", {
            "--results": (None, None, None, True, "append"),
            "--external": (None, None, None, False, "store"),
            "--k": (None, "at_least_1", None, False, "store"),
            **OUT_FLAG,
        }),
        ("homophily", DATASET_FLAGS),
    ],
)
def test_each_subcommand_takes_exactly_its_flags(subcommand, want):
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(subparsers.choices) == ["synth", "filter", "classify", "sweep", "aggregate", "homophily"]
    got = {}
    for action in subparsers.choices[subcommand]._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        (option,) = action.option_strings
        assert action.dest == option[2:].replace("-", "_")
        kind = {argparse._StoreAction: "store", argparse._AppendAction: "append"}[type(action)]
        got[option] = (
            action.default, getattr(action.type, "__name__", None),
            action.choices and tuple(action.choices), action.required, kind,
        )
    assert got == want


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


@pytest.mark.parametrize(
    "kind, row, what",
    [("edges", "99999999999999999999999\t1", "edge"), ("labels", "99999999999999999999999", "label")],
)
def test_value_past_int64_gives_bad_data_code_and_the_line(toy_manifest, capsys, kind, row, what):
    path = toy_manifest.parent / f"toy.{kind}"
    lines = path.read_text().splitlines()
    path.write_text("\n".join([lines[0], row] + lines[2:]) + "\n")
    code = main(["homophily", "--manifest", str(toy_manifest), "--dataset", "toy"])
    err = capsys.readouterr().err
    assert code == 4
    assert f"{path}:2: unparseable {what} row" in err
    assert "Traceback" not in err and "OverflowError" not in err


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


@pytest.mark.skipif(
    sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
    reason="counts /proc/self/task, where BLAS starts threads only with 2+ usable CPUs",
)
def test_the_entry_starts_no_blas_thread():
    script = "import os, asgc.__main__; print(len(os.listdir('/proc/self/task')))"
    run = fresh_python(["-c", script], unset=THREAD_VARS)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "1"


@pytest.mark.parametrize(
    "preset, expected",
    [({}, ["1"] * 6), ({"OMP_NUM_THREADS": "2"}, [None, "2", None, None, None, None])],
)
def test_the_entry_sets_thread_counts_only_where_none_is_set(preset, expected):
    script = f"import os, asgc.__main__; print([os.environ.get(v) for v in {THREAD_VARS!r}])"
    run = fresh_python(["-c", script], unset=THREAD_VARS, **preset)
    assert run.returncode == 0, run.stderr
    assert ast.literal_eval(run.stdout) == expected


def test_only_a_fit_imports_the_optimizer(tmp_path):
    script = f"""
import sys
OUT = {str(tmp_path)!r}
import asgc.cli
from asgc.numeric import fit_logistic

def loaded():
    return [m for m in ("scipy.optimize", "scipy.special") if m in sys.modules]

states = [loaded()]
asgc.cli.main(["synth", "--k", "2", "--trials", "1", "--log-ratio-steps", "2", "--out", OUT])
states.append(loaded())
fit_logistic([[0.0], [1.0]], [0, 1])
states.append(loaded())
print(states)
"""
    run = fresh_python(["-c", script])
    assert run.returncode == 0, run.stderr
    after_import, after_synth, after_fit = ast.literal_eval(run.stdout.splitlines()[-1])
    assert after_import == []
    assert after_synth == []
    assert after_fit == ["scipy.optimize", "scipy.special"]


def test_concurrent_first_fits_in_a_fresh_process_match_one_job(toy_manifest, tmp_path):
    args = [
        "-m", "asgc", "classify", "--manifest", str(toy_manifest), "--dataset", "toy",
        "--method", "combo", "--resolution", "1", "--trials", "2", "--seed", "5",
    ]
    for jobs in ("1", "2"):
        run = fresh_python(args + ["--jobs", jobs, "--out", str(tmp_path / jobs)])
        assert run.returncode == 0, run.stderr
    assert (tmp_path / "1" / "classify_toy_combo.csv").read_bytes() == (
        tmp_path / "2" / "classify_toy_combo.csv"
    ).read_bytes()


@pytest.mark.parametrize("method", ["sgc", "asgc", "combo"])
def test_classify_bytes_do_not_depend_on_blas_threads(toy_manifest, tmp_path, method):
    args = [
        "-m", "asgc", "classify", "--manifest", str(toy_manifest), "--dataset", "toy",
        "--method", method, "--resolution", "1", "--trials", "2", "--seed", "5", "--jobs", "2",
    ]
    for threads in ("1", "2"):
        run = fresh_python(
            args + ["--out", str(tmp_path / threads)], unset=THREAD_VARS, OPENBLAS_NUM_THREADS=threads
        )
        assert run.returncode == 0, run.stderr
    name = f"classify_toy_{method}.csv"
    assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_sweep_at_split_size_writes_the_same_bytes_for_any_cpu_budget(tmp_path):
    # 1,400 nodes x 1,100 features: asgc's 1,120-row training block reaches
    # SPLIT_MIN, so its fits cut both dense products in two (raw's stay CSR).
    # The CLI as installed pins BLAS; its --jobs 1 fits run a helper thread
    # where 2 CPUs are usable, forked --jobs 2 workers and a 1-CPU budget none
    features, labels = split_size_problem(n=1400, f=1100, n_classes=5, seed=14)
    edges = np.random.default_rng(14).integers(0, 1400, (2800, 2))
    write_dataset(tmp_path, edges[edges[:, 0] != edges[:, 1]], features.astype(int), labels)
    args = [
        "sweep", "--manifest", str(tmp_path / "data.manifest"), "--dataset", "toy",
        "--method", "raw", "--method", "asgc", "--k-min", "2", "--k-max", "2",
        "--trials", "2", "--seed", "3",
    ]
    one_cpu = (
        "import sys, asgc.__main__ as entry\n"
        "from asgc import parallel\n"
        "parallel.usable_cpus = lambda: 1\n"
        "sys.exit(entry.main(sys.argv[1:]))\n"
    )
    runs = {
        "jobs1": ["-m", "asgc", *args, "--jobs", "1"],
        "jobs2": ["-m", "asgc", *args, "--jobs", "2"],
        "one_cpu": ["-c", one_cpu, *args, "--jobs", "1"],
    }
    for name, argv in runs.items():
        run = fresh_python(argv + ["--out", str(tmp_path / name)], unset=THREAD_VARS)
        assert run.returncode == 0, run.stderr
    csvs = {(tmp_path / name / "sweep_toy.csv").read_bytes() for name in runs}
    assert len(csvs) == 1
