"""The node-classification protocol end to end on generated toy datasets.

Each dataset is a two-block SBM whose features carry a noisy class signal.
For every method we run a few random 80/20 splits (a third of the non-test
nodes held out for validation), train the softmax classifier, and report test
accuracy. The combo method grid-searches a convex blend of raw / smoothed /
adaptively-filtered features by validation accuracy.

Real datasets use exactly the same entry points: write the three text files
plus a manifest (formats in the README) and call
``load_from_manifest(manifest, name)`` or the CLI.

Run with:  python demos/03_classification_benchmark.py
"""

import numpy as np

from asgc import (
    LabeledDataset,
    SbmConfig,
    aggregate,
    classification_trials,
    generate_sbm,
    homophily,
)


def make_toy(name, log_ratio, seed):
    g, _, block = generate_sbm(SbmConfig(n_per_block=80, expected_degree=8.0,
                                         log_ratio=log_ratio, seed=seed))
    rng = np.random.default_rng(seed + 99)
    y = (block > 0).astype(int)
    centers = np.array([[-1.0] * 5, [1.0] * 5])
    x = centers[y] + rng.standard_normal((g.n, 5)) * 2.0
    return LabeledDataset(name, g, x, y)


datasets = [make_toy("homophilous", 3.0, seed=1), make_toy("heterophilous", -3.0, seed=2)]
for ds in datasets:
    print(f"{ds.name}: n={ds.n}, f={ds.features.shape[1]}, "
          f"classes={ds.labels.max() + 1}, homophily={homophily(ds):.2f}")

methods = ("raw", "sgc", "sgc1", "asgc", "combo")
trials = 3
results = []
print(f"\nmean test accuracy over {trials} splits (K=2, resolution 3):")
print(f"  {'dataset':14s} " + " ".join(f"{m:>6s}" for m in methods))
for ds in datasets:
    row = []
    for m in methods:
        trial_results = classification_trials(ds, m, k_hops=2, trials=trials, seed=0)
        results.extend(trial_results)
        row.append(np.mean([t.test_accuracy for t in trial_results]))
    print(f"  {ds.name:14s} " + " ".join(f"{v:6.3f}" for v in row))

# Chosen blend weights tell you which feature set the combo search trusted.
combo = [r for r in results if r.method == "combo"]
print("\ncombo blend weights (raw, smoothed, adaptive) per dataset, averaged:")
for ds in datasets:
    picks = [r.chosen_weights for r in combo if r.dataset == ds.name]
    w = np.mean(picks, axis=0)
    print(f"  {ds.name:14s} ({w[0]:.2f}, {w[1]:.2f}, {w[2]:.2f})")

# Cross-dataset summary: each method's accuracy as a proportion of the best
# method on that dataset, then mean/min across datasets.
report = aggregate(results)
print("\nproportional accuracy (mean / min across datasets):")
for m in report.methods:
    print(f"  {m:6s} {report.mean_proportion[m]:.3f} / {report.min_proportion[m]:.3f}")
