"""Command-line interface binding all modules.

Subcommands: ``synth`` (SBM denoising sweep), ``filter`` (write filtered
features for a dataset), ``classify`` (multi-trial protocol for one method),
``sweep`` (hop-count sweep across methods), ``aggregate`` (proportional
accuracy report from result CSVs), ``homophily`` (dataset statistic).

All CSV output is deterministic: header row, fixed column order, floats with
6 decimal places, and rows in a fixed sort order. SVG line charts are emitted
next to the sweep CSVs as a convenience. Exit codes: 0 success, 2 usage error
(an unknown flag, or a flag value outside its own range, such as a count
below 1), 3 missing file, 4 malformed data or bad config (flags that are each
valid but conflict, or describe an invalid SBM), 1 anything else.
"""

from __future__ import annotations

import argparse
import csv
import sys
from html import escape
from pathlib import Path

import numpy as np

from .data import DatasetError, homophily, load_from_manifest
from .experiments import (
    METHODS,
    TrialResult,
    aggregate,
    check_sweep,
    classification_trials,
    k_sweep,
)
from .filters import asgc_filter, sgc_filter
from .synthetic import METHODS as SYNTH_METHODS, run_sweep

EXIT_MISSING_FILE = 3
EXIT_BAD_DATA = 4

_PALETTE = ("#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def write_csv(path: Path, header, rows) -> None:
    """Single-writer CSV emission with fixed float formatting."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def svg_line_chart(path: Path, series, title: str, x_label: str, y_label: str) -> None:
    """Write a minimal standalone SVG line chart (one polyline per series)."""
    width, height = 640, 420
    left, right, top, bottom = 70, 150, 40, 55
    xs = [p[0] for _, pts in series for p in pts]
    ys = [p[1] for _, pts in series for p in pts]
    if not xs:
        raise ValueError("cannot plot empty series")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad
    plot_w = width - left - right
    plot_h = height - top - bottom

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return top + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left + plot_w / 2:.2f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{escape(title, quote=False)}</text>',
        f'<rect x="{left}" y="{top}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black"/>',
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{escape(x_label, quote=False)}</text>',
        f'<text x="18" y="{top + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {top + plot_h / 2:.2f})">{escape(y_label, quote=False)}</text>',
    ]
    for i in range(5):
        frac = i / 4
        x_val = x_lo + frac * (x_hi - x_lo)
        y_val = y_lo + frac * (y_hi - y_lo)
        gx = sx(x_val)
        gy = sy(y_val)
        parts.append(
            f'<line x1="{gx:.2f}" y1="{top + plot_h}" x2="{gx:.2f}" '
            f'y2="{top + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{gx:.2f}" y="{top + plot_h + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{x_val:.3g}</text>'
        )
        parts.append(
            f'<line x1="{left - 5}" y1="{gy:.2f}" x2="{left}" y2="{gy:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{gy + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{y_val:.3g}</text>'
        )
    for idx, (name, pts) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>'
        )
        ly = top + 16 + 18 * idx
        lx = width - right + 12
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="1.8"/>'
        )
        parts.append(
            f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" font-size="12">'
            f"{escape(name, quote=False)}</text>"
        )
    parts.append("</svg>")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(parts) + "\n")


def cmd_synth(args) -> Path:
    ratios = np.linspace(args.log_ratio_min, args.log_ratio_max, args.log_ratio_steps)
    reports = run_sweep(
        ratios, trials=args.trials, k_hops=args.k, seed=args.seed, jobs=args.jobs
    )
    out = Path(args.out)
    rows = []
    for report in reports:
        for method in SYNTH_METHODS:
            rows.append((report.log_ratio, method, "rms_deviation", report.rms_deviation[method]))
            rows.append((report.log_ratio, method, "sign_error", report.sign_error[method]))
    csv_path = out / "synth.csv"
    write_csv(csv_path, ("log_ratio", "method", "metric", "value"), rows)
    for metric in ("rms_deviation", "sign_error"):
        series = [
            (method, [(r.log_ratio, getattr(r, metric)[method]) for r in reports])
            for method in SYNTH_METHODS
        ]
        svg_line_chart(
            out / f"synth_{metric}.svg",
            series,
            title=f"Synthetic denoising: {metric}",
            x_label="ln(p/q)",
            y_label=metric,
        )
    return csv_path


def cmd_filter(args) -> Path:
    ds = load_from_manifest(args.manifest, args.dataset)
    out = Path(args.out)
    stem = f"{ds.name}_{args.method}_k{args.k}"
    if args.method == "sgc":
        filtered = sgc_filter(ds.graph, ds.features, args.k)
    else:
        result = asgc_filter(ds.graph, ds.features, args.k)
        filtered = result.filtered
        write_csv(
            out / f"{stem}_coefficients.csv",
            ("feature",) + tuple(f"c{i}" for i in range(1, args.k + 1)),
            [(j, *map(float, result.coefficients[j])) for j in range(result.coefficients.shape[0])],
        )
        write_csv(
            out / f"{stem}_residuals.csv",
            ("feature", "residual_norm"),
            [(j, float(r)) for j, r in enumerate(result.residual_norms)],
        )
    f_count = filtered.shape[1]
    csv_path = out / f"{stem}_features.csv"
    write_csv(
        csv_path,
        ("node",) + tuple(f"f{i}" for i in range(f_count)),
        ((i, *filtered[i].tolist()) for i in range(filtered.shape[0])),
    )
    return csv_path


def _trial_fields(trial: TrialResult, *extra) -> tuple:
    """One result row: the trial's identity and test accuracy, ``extra``, the combo weights."""
    return (
        trial.dataset, trial.method, trial.k_hops, trial.trial, trial.seed,
        trial.test_accuracy, *extra, *(trial.chosen_weights or ("", "", "")),
    )


def _trial_header(*extra) -> tuple:
    """The column names of :func:`_trial_fields` rows, ``extra`` naming the extra values."""
    return (
        "dataset", "method", "k_hops", "trial", "seed",
        "test_accuracy", *extra, "w_raw", "w_sgc", "w_asgc",
    )


def cmd_classify(args) -> Path:
    ds = load_from_manifest(args.manifest, args.dataset)
    results = classification_trials(
        ds,
        args.method,
        k_hops=args.k,
        trials=args.trials,
        seed=args.seed,
        resolution=args.resolution,
        jobs=args.jobs,
    )
    rows = [_trial_fields(trial, trial.validation_accuracy) for trial in results]
    mean_acc = float(np.mean([r.test_accuracy for r in results]))
    val_accs = [r.validation_accuracy for r in results if r.validation_accuracy is not None]
    mean_val = float(np.mean(val_accs)) if val_accs else ""
    weight_triples = [r.chosen_weights for r in results if r.chosen_weights]
    mean_w = tuple(np.mean(weight_triples, axis=0)) if weight_triples else ("", "", "")
    rows.append((ds.name, args.method, args.k, "mean", "", mean_acc, mean_val, *mean_w))
    out = Path(args.out)
    csv_path = out / f"classify_{ds.name}_{args.method}.csv"
    write_csv(csv_path, _trial_header("validation_accuracy"), rows)
    return csv_path


def cmd_sweep(args) -> Path:
    methods = args.method or list(METHODS)
    k_values = range(args.k_min, args.k_max + 1)
    check_sweep(methods, k_values, args.trials, args.resolution)
    ds = load_from_manifest(args.manifest, args.dataset)
    results = k_sweep(
        ds,
        methods,
        k_values=k_values,
        trials=args.trials,
        seed=args.seed,
        resolution=args.resolution,
        jobs=args.jobs,
    )
    rows = [_trial_fields(trial) for trial in results]
    out = Path(args.out)
    csv_path = out / f"sweep_{ds.name}.csv"
    write_csv(csv_path, _trial_header(), rows)
    series = []
    for m in methods:
        pts = []
        for k in k_values:
            accs = [r.test_accuracy for r in results if r.method == m and r.k_hops == k]
            pts.append((k, float(np.mean(accs))))
        series.append((m, pts))
    svg_line_chart(
        out / f"sweep_{ds.name}.svg",
        series,
        title=f"Test accuracy vs hops: {ds.name}",
        x_label="hops",
        y_label="test accuracy",
    )
    return csv_path


def _csv_rows(path: Path, required: set[str], parse):
    """Yield ``parse(row)`` for each CSV row that it does not map to ``None``.

    The header must hold ``required``; a ``TypeError`` or ``ValueError`` from
    ``parse`` is raised as a :class:`DatasetError` naming ``<path>:<line>``.
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = required - set(reader.fieldnames or ())
        if missing:
            raise DatasetError(f"{path}: missing columns {sorted(missing)}")
        for row in reader:
            try:
                parsed = parse(row)
            except (TypeError, ValueError) as exc:
                raise DatasetError(f"{path}:{reader.line_num}: {exc}")
            if parsed is not None:
                yield parsed


def _fraction(text: str) -> float:
    """An accuracy read from a CSV: a float in [0, 1]."""
    value = float(text)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"accuracy must be a fraction in [0, 1], got {text}")
    return value


def _read_trial_rows(path: Path, k_filter: int | None) -> list[TrialResult]:
    def parse(row) -> TrialResult | None:
        if row["trial"] == "mean":
            return None
        k_hops = int(row["k_hops"])
        if k_filter is not None and k_hops != k_filter:
            return None
        return TrialResult(
            dataset=row["dataset"],
            method=row["method"],
            k_hops=k_hops,
            seed=int(row["seed"]) if row.get("seed") else 0,
            test_accuracy=_fraction(row["test_accuracy"]),
        )

    return list(_csv_rows(path, {"dataset", "method", "k_hops", "trial", "test_accuracy"}, parse))


def _read_external(path: Path) -> dict[str, dict[str, float]]:
    table: dict[str, dict[str, float]] = {}

    def parse(row) -> tuple[str, str, float]:
        # the loop below files each row before the next one is parsed
        if row["dataset"] in table.get(row["method"], {}):
            raise ValueError(f"repeated method and dataset {row['method']!r}, {row['dataset']!r}")
        return row["method"], row["dataset"], _fraction(row["accuracy"])

    for method, dataset, accuracy in _csv_rows(path, {"method", "dataset", "accuracy"}, parse):
        table.setdefault(method, {})[dataset] = accuracy
    return table


def cmd_aggregate(args) -> Path:
    results: list[TrialResult] = []
    for path in args.results:
        results.extend(_read_trial_rows(Path(path), args.k))
    if not results:
        raise DatasetError("no trial rows found in the given result files")
    external = _read_external(Path(args.external)) if args.external else None
    report = aggregate(results, external)
    out = Path(args.out)
    dataset_rows = [
        (
            d,
            m,
            report.sources[m],
            report.accuracy_mean[(m, d)],
            report.accuracy_std[(m, d)],
            report.proportion[(m, d)],
        )
        for d in report.datasets
        for m in report.methods
    ]
    write_csv(
        out / "aggregate_datasets.csv",
        ("dataset", "method", "source", "mean_accuracy", "std_accuracy", "proportion"),
        dataset_rows,
    )
    summary_rows = [
        (m, report.sources[m], report.mean_proportion[m], report.min_proportion[m])
        for m in report.methods
    ]
    write_csv(
        out / "aggregate_summary.csv",
        ("method", "source", "mean_proportion", "min_proportion"),
        summary_rows,
    )
    return out / "aggregate_summary.csv"


def cmd_homophily(args) -> None:
    ds = load_from_manifest(args.manifest, args.dataset)
    print(f"{ds.name}\t{homophily(ds):.6f}")


def _at_least(minimum: int):
    """An argparse type: an int of at least ``minimum``, else a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = f"at_least_{minimum}"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asgc",
        description="Graph feature filtering and node-classification benchmark toolkit",
    )
    add = parser.add_subparsers(dest="subcommand", required=True).add_parser
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=".", help="output directory")
    dataset = argparse.ArgumentParser(add_help=False)
    dataset.add_argument("--manifest", required=True, help="path to a dataset manifest file")
    dataset.add_argument("--dataset", required=True, help="dataset name from the manifest")
    trials = argparse.ArgumentParser(add_help=False)
    trials.add_argument("--trials", type=_at_least(1), default=10)
    trials.add_argument("--seed", type=_at_least(0), default=0)
    trials.add_argument("--jobs", type=_at_least(1), default=1, help="worker processes")
    protocol = argparse.ArgumentParser(add_help=False, parents=[dataset, trials, out])
    protocol.add_argument("--resolution", type=_at_least(1), default=3)
    hops = argparse.ArgumentParser(add_help=False)
    hops.add_argument("--k", type=_at_least(1), default=6, help="filter hop count")

    synth = add("synth", parents=[trials, out, hops], help="run the synthetic SBM denoising sweep")
    synth.add_argument("--log-ratio-min", type=float, default=-5.0)
    synth.add_argument("--log-ratio-max", type=float, default=5.0)
    synth.add_argument("--log-ratio-steps", type=_at_least(1), default=21)
    synth.set_defaults(func=cmd_synth)

    filt = add("filter", parents=[dataset, out, hops], help="write filtered features for a dataset")
    filt.add_argument("--method", choices=("sgc", "asgc"), required=True)
    filt.set_defaults(func=cmd_filter)

    classify = add("classify", parents=[protocol, hops], help="multi-trial protocol for one method")
    classify.add_argument("--method", choices=METHODS, required=True)
    classify.set_defaults(func=cmd_classify)

    sweep = add("sweep", parents=[protocol], help="hop-count sweep across methods")
    sweep.add_argument(
        "--method", choices=METHODS, action="append",
        help="method to include (repeatable; default: all)",
    )
    sweep.add_argument("--k-min", type=_at_least(1), default=1)
    sweep.add_argument("--k-max", type=_at_least(1), default=10)
    sweep.set_defaults(func=cmd_sweep)

    agg = add("aggregate", parents=[out], help="proportional-accuracy report from result CSVs")
    agg.add_argument("--results", action="append", required=True, help="classify/sweep CSV (repeatable)")
    agg.add_argument("--external", help="CSV of reported reference accuracies (method,dataset,accuracy)")
    agg.add_argument("--k", type=_at_least(1), default=None, help="only aggregate rows with this hop count")
    agg.set_defaults(func=cmd_aggregate)

    hom = add("homophily", parents=[dataset], help="print the same-label neighbor statistic")
    hom.set_defaults(func=cmd_homophily)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        written = args.func(args)
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc}", file=sys.stderr)
        return EXIT_MISSING_FILE
    except ValueError as exc:  # DatasetError and GraphError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_DATA
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if written is not None:
        print(f"wrote {written}")
    return 0

