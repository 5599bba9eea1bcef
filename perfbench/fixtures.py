"""Seeded Cora-scale datasets written as asgc text files plus a manifest.

Two fixtures share Cora's shape (2,708 nodes, 1,433 binary features at about
1.3% density, 7 classes with Cora's class sizes, 5,278 undirected edges) and
differ in wiring:

* ``cora-h``: homophilous, about 80% of edges join same-class nodes.
* ``cora-x``: heterophilous, about 15% same-class edges; the rest join each
  class to one partner class (near-multipartite), so sign-flipping filters
  help.

Features are bag-of-words draws: each word comes from the node's class topic
with probability ``TOPIC_SHARE`` and from a shared Zipf background otherwise,
so a node's own words carry a weak class signal that its neighbourhood
sharpens. Degrees follow a heavy-tailed propensity and every node has at
least one edge.

The generator is plain numpy and never calls asgc. :func:`measure` re-reads
the written files with its own parser and :func:`check` holds the properties
to the bands in ``BANDS``; a fixture outside them is an error, not a warning.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import zlib
from pathlib import Path

import numpy as np

N_FEATURES = 1433
CLASS_SIZES = (351, 217, 418, 818, 426, 298, 180)  # Cora's label counts
N_NODES = sum(CLASS_SIZES)
N_EDGES = 5278
WORDS_PER_NODE = 21.5  # Poisson mean before de-duplication
TOPIC_WORDS = 120
TOPIC_SHARE = 0.10
DATASETS = {
    # name: (target edge homophily, partner class of each class for the rest)
    "cora-h": (0.80, None),
    "cora-x": (0.15, (1, 0, 3, 2, 5, 4, 0)),
}
BANDS = {
    "nodes": (N_NODES, N_NODES),
    "edges": (5000, 5600),
    "features": (N_FEATURES, N_FEATURES),
    "classes": (7, 7),
    "density": (0.011, 0.015),
    "min_degree": (1, N_NODES),
    "homophily:cora-h": (0.75, 0.85),
    "homophily:cora-x": (0.10, 0.20),
}
FILES = ("edges", "features", "labels")
CACHE_KEEP = 8


class FixtureError(RuntimeError):
    """A fixture whose measured properties fall outside the stated bands."""


def _generator_key() -> str:
    """Digest of this file, so that any change to the generator or its
    parameters invalidates cached fixtures."""
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(name.encode())]))


def _weighted_pick(rng, pool: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    cdf = np.cumsum(weights[pool])
    return pool[np.searchsorted(cdf, rng.random(size) * cdf[-1], side="right").clip(max=len(pool) - 1)]


def generate(name: str, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (edges m x 2 with i < j, binary features n x f, labels n)."""
    homophily, partner = DATASETS[name]
    rng = _rng(name, seed)
    n, c = N_NODES, len(CLASS_SIZES)
    labels = rng.permutation(np.repeat(np.arange(c), CLASS_SIZES))
    members = [np.flatnonzero(labels == k) for k in range(c)]
    propensity = np.minimum(rng.pareto(2.0, n) + 1.0, 60.0)

    def targets(sources: np.ndarray) -> np.ndarray:
        src_class = labels[sources]
        same = rng.random(len(sources)) < homophily
        if partner is None:
            other = (src_class + rng.integers(1, c, len(sources))) % c
        else:
            other = np.asarray(partner)[src_class]
        dest_class = np.where(same, src_class, other)
        out = np.empty(len(sources), dtype=np.int64)
        for k in range(c):
            sel = np.flatnonzero(dest_class == k)
            out[sel] = _weighted_pick(rng, members[k], propensity, len(sel))
        return out

    # one edge per node first (no isolated nodes), then propensity-weighted edges
    attach = targets(np.arange(n))
    while np.any(loops := np.flatnonzero(attach == np.arange(n))):
        attach[loops] = targets(loops)
    sources = _weighted_pick(rng, np.arange(n), propensity, 2 * N_EDGES)
    pairs = np.column_stack([
        np.concatenate([np.arange(n), sources]), np.concatenate([attach, targets(sources)]),
    ])
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    pairs.sort(axis=1)
    _, first = np.unique(pairs[:, 0] * n + pairs[:, 1], return_index=True)
    first.sort()
    edges = pairs[first[:N_EDGES]]

    background = rng.permutation(N_FEATURES)
    zipf = 1.0 / np.arange(1, N_FEATURES + 1)
    topics = [rng.choice(N_FEATURES, TOPIC_WORDS, replace=False) for _ in range(c)]
    topic_w = 1.0 / np.arange(1, TOPIC_WORDS + 1)
    counts = np.maximum(rng.poisson(WORDS_PER_NODE, n), 1)
    node_of_word = np.repeat(np.arange(n), counts)
    from_topic = rng.random(len(node_of_word)) < TOPIC_SHARE
    words = background[_weighted_pick(rng, np.arange(N_FEATURES), zipf, len(node_of_word))]
    topic_rank = _weighted_pick(rng, np.arange(TOPIC_WORDS), topic_w, len(node_of_word))
    topic_table = np.stack(topics)
    words = np.where(from_topic, topic_table[labels[node_of_word], topic_rank], words)
    features = np.zeros((n, N_FEATURES), dtype=np.uint8)
    features[node_of_word, words] = 1
    return edges, features, labels


def write(directory: Path, name: str, edges, features, labels) -> None:
    """Write the three asgc text files and a one-dataset manifest."""
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{name}.edges").write_text("".join(f"{i}\t{j}\n" for i, j in edges.tolist()))
    # fixed-width rows "d,d,...,d\n": one byte per digit, so no per-value formatting
    rows = np.full((features.shape[0], 2 * features.shape[1]), ord(","), dtype=np.uint8)
    rows[:, 0::2] = ord("0") + features
    rows[:, -1] = ord("\n")
    (directory / f"{name}.features").write_bytes(rows.tobytes())
    (directory / f"{name}.labels").write_text("".join(f"{v}\n" for v in labels.tolist()))
    (directory / "fixture.manifest").write_text(
        "".join(f"{name}.{field} = {name}.{field}\n" for field in FILES) + f"{name}.nodes = {len(labels)}\n"
    )


def read(directory: Path, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Parse the written files back into (edges, 0/1 features, labels)."""
    labels = np.array((directory / f"{name}.labels").read_text().split(), dtype=np.int64)
    n = len(labels)
    raw = np.frombuffer((directory / f"{name}.features").read_bytes(), dtype=np.uint8)
    if n == 0 or raw.size % n:
        raise FixtureError(f"{name}: feature file does not split into {n} rows")
    rows = raw.reshape(n, -1)
    digits = rows[:, 0::2]
    if not (np.all(rows[:, 1:-1:2] == ord(",")) and np.all(rows[:, -1] == ord("\n"))
            and np.all((digits == ord("0")) | (digits == ord("1")))):
        raise FixtureError(f"{name}: feature file is not comma-separated 0/1 rows")
    edges = np.array((directory / f"{name}.edges").read_text().split(), dtype=np.int64).reshape(-1, 2)
    return edges, (digits - ord("0")).astype(np.uint8), labels


def measure(directory: Path, name: str) -> dict:
    """Compute, from the written files, the properties the bands cover."""
    edges, features, labels = read(directory, name)
    degree = np.bincount(edges.ravel(), minlength=len(labels))
    return {
        "nodes": len(labels),
        "edges": len(np.unique(np.sort(edges, axis=1), axis=0)),
        "features": features.shape[1],
        "classes": len(np.unique(labels)),
        "density": float(features.mean()),
        "min_degree": int(degree.min()),
        f"homophily:{name}": float(np.mean(labels[edges[:, 0]] == labels[edges[:, 1]])),
    }


def check(props: dict) -> None:
    """Raise :class:`FixtureError` if any measured property leaves its band."""
    for key, value in props.items():
        lo, hi = BANDS[key]
        if not lo <= value <= hi:
            raise FixtureError(f"fixture property {key}={value} outside [{lo}, {hi}]")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def ensure(cache_root: Path, name: str, seed: int) -> tuple[Path, dict, dict]:
    """Return (manifest path, measured properties, file SHA-256s) for one fixture.

    Fixtures are cached under ``cache_root`` by name, seed and a digest of
    the generator's source. A cached copy is measured and checked like a fresh one, and
    one that fails is regenerated.
    """
    directory = cache_root / f"{name}-s{seed}-{_generator_key()}"
    for attempt in (1, 2):
        if not (directory / "fixture.manifest").exists():
            tmp = directory.with_name(f"{directory.name}.tmp{os.getpid()}")
            shutil.rmtree(tmp, ignore_errors=True)
            write(tmp, name, *generate(name, seed))
            shutil.rmtree(directory, ignore_errors=True)
            os.replace(tmp, directory)
        try:
            props = measure(directory, name)
            check(props)
            break
        except (FixtureError, ValueError, OSError):
            if attempt == 2:
                raise
            shutil.rmtree(directory)
    hashes = {f"{name}.{field}": sha256(directory / f"{name}.{field}") for field in FILES}
    os.utime(directory)
    # about 8 MB each; keep the most recently used ones
    for stale in sorted(cache_root.iterdir(), key=lambda p: p.stat().st_mtime)[:-CACHE_KEEP]:
        shutil.rmtree(stale, ignore_errors=True)
    return directory / "fixture.manifest", props, hashes
