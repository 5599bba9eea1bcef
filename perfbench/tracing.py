"""In-memory spans around asgc's public functions, patched from outside.

:func:`install` replaces the module attributes that asgc's own callers look
up (``asgc.experiments.fit_logistic``, ``asgc.filters.least_squares``, ...)
with wrappers that record a span per call: name, start, end, parent span and
pass id. Spans stay in memory; :func:`layer_metrics` turns them into the
per-layer metrics after the pass. A target that no longer exists is listed in
``Tracer.absent`` and its metrics read 0, so the tracer survives refactors
that delete or rename functions.

The span name's first dotted part is its layer. A span's self time is its
duration minus the part of it that its child spans cover; summed per layer,
self times partition the traced busy time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import itertools
import os
import statistics
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

LAYERS = ("data", "graph", "filters", "numeric", "experiments", "synthetic", "parallel", "cli")

# (module, attribute path, span name); each entry patches the name a caller looks up
TARGETS = (
    ("asgc.cli", "load_from_manifest", "data.load"),
    ("asgc.graph", "Graph.from_edges", "graph.build"),
    ("asgc.filters", "normalized_adjacency", "graph.normalize"),
    ("asgc.filters", "propagate", "graph.propagate"),
    ("asgc.cli", "sgc_filter", "filters.sgc"),
    ("asgc.experiments", "sgc_filter", "filters.sgc"),
    ("asgc.synthetic", "sgc_filter", "filters.sgc"),
    ("asgc.cli", "asgc_filter", "filters.asgc"),
    ("asgc.experiments", "asgc_filter", "filters.asgc"),
    ("asgc.synthetic", "asgc_filter", "filters.asgc"),
    ("asgc.experiments", "blend", "filters.blend"),
    ("asgc.filters", "least_squares", "numeric.lstsq"),
    ("asgc.experiments", "fit_logistic", "numeric.fit"),
    ("asgc.numeric", "softmax_objective", "numeric.objective"),
    ("asgc.experiments", "predict", "numeric.predict"),
    ("asgc.cli", "classification_trials", "experiments.protocol"),
    ("asgc.cli", "k_sweep", "experiments.protocol"),
    ("asgc.experiments", "combo_search", "experiments.combo"),
    ("asgc.cli", "run_sweep", "synthetic.sweep"),
    ("asgc.synthetic", "denoise_trial", "synthetic.trial"),
    ("asgc.synthetic", "generate_sbm", "synthetic.generate"),
    ("asgc.experiments", "parallel_map", "parallel.map"),
    ("asgc.synthetic", "parallel_map", "parallel.map"),
    ("asgc.cli", "write_csv", "cli.write"),
    ("asgc.cli", "svg_line_chart", "cli.svg"),
    ("asgc.graph", "PropagationOperator.matrix", None),  # counted, not timed
)

# the default `asgc sweep`: 10 hop counts x 10 trials x 5 methods, where one
# (k, trial) costs raw + sgc + sgc1 + asgc + combo (10 grid fits + 1 refit)
DEFAULT_SWEEP_FITS = 10 * 10 * (4 + 11)
DEFAULT_SWEEP_HOPS = sum(range(1, 11))  # asgc/sgc cost grows with k: sum k over 1..10
DEFAULT_SWEEP_SGC1_HOPS = 10

# a fit counts as converged when its gradient max-norm is at most GRAD_TOL, the
# tolerance of the classifier this benchmark was first measured on; a fixed
# yardstick, so loosening the classifier's own tolerance shows as non-converged
GRAD_TOL = 1e-5
DEFAULT_L2 = 1e-4


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int


class Tracer:
    def __init__(self, pass_id: int = 0, load_bytes: int = 0):
        self.pass_id = pass_id
        self.load_bytes = load_bytes
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.values: dict[str, list] = defaultdict(list)
        self.absent: list[str] = []
        self.broken: set[str] = set()
        self.groups: dict = {}
        self._ids = itertools.count(1)
        self._open: dict[int, str] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        stack = self._stack()
        sid = next(self._ids)
        if parent is None and stack:
            parent = stack[-1]
        stack.append(sid)
        self._open[sid] = name
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                del self._open[sid]
                self.spans.append(Span(sid, name, start, end, parent, self.pass_id))

    def inside(self, name: str) -> bool:
        """True if this thread is currently inside a span called ``name``."""
        return any(self._open.get(sid) == name for sid in self._stack())

    def add(self, key: str, amount=1) -> None:
        with self._lock:
            self.counts[key] += amount

    def record(self, key: str, value) -> None:
        with self._lock:
            self.values[key].append(value)

    def wrap(self, owner, attr: str, name: str | None, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper; ``name=None`` only counts calls."""
        try:
            static = inspect.getattr_static(owner, attr)
        except AttributeError:
            self.absent.append(f"{getattr(owner, '__qualname__', owner)}.{attr}")
            return
        func = static.__func__ if isinstance(static, (classmethod, staticmethod)) else static
        tracer = self

        if name is None:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                tracer.add(f"calls:{attr}")
                return func(*args, **kwargs)
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    result = func(*args, **kwargs)
                if after is not None:
                    try:
                        after(tracer, args, kwargs, result)
                    except (AttributeError, TypeError, IndexError, ValueError, OSError) as exc:
                        # a changed signature or result type: report, never break the program
                        tracer.broken.add(f"{name} hook: {type(exc).__name__}: {exc}")
                return result

        if isinstance(static, classmethod):
            wrapper = classmethod(wrapper)
        elif isinstance(static, staticmethod):
            wrapper = staticmethod(wrapper)
        setattr(owner, attr, wrapper)


def _arg(args, kwargs, index: int, key: str, default=None):
    return args[index] if len(args) > index else kwargs.get(key, default)


def _after_filter(kind: str):
    def hook(tracer: Tracer, args, kwargs, result) -> None:
        g, x = _arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "x")
        k = int(_arg(args, kwargs, 2, "k_hops", 6))
        f = 1 if np.ndim(x) == 1 else int(np.shape(x)[1])
        tracer.add(f"{kind}.col_hops", k * f)
        tracer.add(f"{kind}.cols", f)
        with tracer._lock:
            # one group per (filter, graph, width): the least work is its largest k
            key = (kind, id(g), f)
            _, kmax = tracer.groups.get(key, (g, 0))
            tracer.groups[key] = (g, max(kmax, k))  # holding g keeps id(g) unique
    return hook


def _after_lstsq(tracer: Tracer, args, kwargs, result) -> None:
    basis = _arg(args, kwargs, 0, "basis")
    rank = getattr(result, "effective_rank", None)
    if rank is not None and rank < np.shape(basis)[1]:
        tracer.add("lstsq.rank_deficient")


def _after_generate(tracer: Tracer, args, kwargs, result) -> None:
    graph = result[0]
    tracer.add("generate.edges", len(graph.indices) // 2)


def _after_write(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("write.bytes", os.path.getsize(_arg(args, kwargs, 0, "path")))


def _after_load(tracer: Tracer, args, kwargs, result) -> None:
    tracer.add("load.bytes", tracer.load_bytes)


def softmax_gradient(x, y, weights, bias, l2_strength: float) -> np.ndarray:
    """Gradient of mean cross-entropy + 0.5 * l2 * ||W||^2, computed independently."""
    _, y_index = np.unique(np.asarray(y), return_inverse=True)
    z = np.asarray(x @ weights) + bias
    z -= z.max(axis=1, keepdims=True)
    p = np.exp(z)
    p /= p.sum(axis=1, keepdims=True)
    n = p.shape[0]
    p[np.arange(n), y_index] -= 1.0
    p /= n
    grad_w = np.asarray(x.T @ p) + l2_strength * weights
    return np.concatenate([grad_w.ravel(), p.sum(axis=0)])


def _after_fit(tracer: Tracer, args, kwargs, model) -> None:
    if tracer.inside("experiments.combo"):
        tracer.add("fit.in_combo")
    with tracer.span("trace.oracle"):
        x, y = _arg(args, kwargs, 0, "x"), _arg(args, kwargs, 1, "y")
        # the CLI always passes a config; DEFAULT_L2 is LogisticConfig's default
        l2 = getattr(_arg(args, kwargs, 2, "config"), "l2_strength", DEFAULT_L2)
        weights, bias = getattr(model, "weights", None), getattr(model, "bias", None)
        if weights is not None and bias is not None:
            grad_max = float(np.abs(softmax_gradient(x, y, weights, bias, l2)).max())
            tracer.record("fit.grad_max", grad_max)
            if grad_max > GRAD_TOL:
                tracer.add("fit.nonconverged")
        digest = hashlib.blake2b(digest_size=16)
        for part in (np.asarray(x.sum(axis=0)).ravel(), np.asarray(x.sum(axis=1)).ravel(),
                     np.asarray(y), np.asarray(np.shape(x))):
            digest.update(np.ascontiguousarray(part).tobytes())
        tracer.record("fit.input", digest.hexdigest())


AFTER = {
    "data.load": _after_load,
    "filters.sgc": _after_filter("sgc"),
    "filters.asgc": _after_filter("asgc"),
    "numeric.lstsq": _after_lstsq,
    "numeric.fit": _after_fit,
    "synthetic.generate": _after_generate,
    "cli.write": _after_write,
}


def _wrap_parallel(tracer: Tracer, module) -> None:
    try:
        orig = module.parallel_map
    except AttributeError:
        tracer.absent.append(f"{module.__name__}.parallel_map")
        return

    @functools.wraps(orig)
    def parallel_map(fn, items, jobs: int = 1):
        items = list(items)
        with tracer.span("parallel.map") as map_id:
            def item(value):
                with tracer.span("parallel.item", parent=map_id):
                    return fn(value)

            start = time.perf_counter()
            result = orig(item, items, jobs)
            width = max(1, min(int(jobs), len(items)))
            tracer.add("parallel.capacity_s", (time.perf_counter() - start) * width)
        return result

    module.parallel_map = parallel_map


def install(tracer: Tracer) -> Tracer:
    """Patch every target that exists; record the ones that do not."""
    for module_name, path, name in TARGETS:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            tracer.absent.append(f"{module_name}.{path}")
            continue
        if name == "parallel.map":
            _wrap_parallel(tracer, owner)
            continue
        *outer, attr = path.split(".")
        try:
            for part in outer:
                owner = getattr(owner, part)
        except AttributeError:
            tracer.absent.append(f"{module_name}.{path}")
            continue
        tracer.wrap(owner, attr, name, AFTER.get(name))
    return tracer


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - covered(children[s.sid], s.start, s.end) for s in spans}


def layer_self_times(spans) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    for s in spans:
        out[s.name.split(".", 1)[0]] += selfs[s.sid]
    return dict(out)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass; a metric with no calls reads 0."""
    durations = defaultdict(list)
    for s in tracer.spans:
        durations[s.name].append(s.end - s.start)
    total = {name: sum(v) for name, v in durations.items()}
    calls = {name: len(v) for name, v in durations.items()}
    c = tracer.counts

    def t(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    fits = durations.get("numeric.fit", [])
    fit_inputs = tracer.values.get("fit.input", [])
    computed = c["sgc.col_hops"] + c["asgc.col_hops"]
    least = sum(kmax * f for (_, _, f), (_, kmax) in tracer.groups.items())
    projection = 0.0
    if fits and c["asgc.col_hops"]:
        width = c["asgc.cols"] / n("filters.asgc")
        projection = DEFAULT_SWEEP_FITS * t("numeric.fit") / len(fits)
        projection += DEFAULT_SWEEP_HOPS * width * t("filters.asgc") / c["asgc.col_hops"]
        if c["sgc.col_hops"]:
            projection += ((DEFAULT_SWEEP_HOPS + DEFAULT_SWEEP_SGC1_HOPS) * width
                           * t("filters.sgc") / c["sgc.col_hops"])
    selfs = layer_self_times(tracer.spans)
    items = durations.get("parallel.item", [])
    generate = durations.get("synthetic.generate", [])
    metrics = {
        "data.load_s": t("data.load"),
        "data.load_calls": n("data.load"),
        "data.parse_mb_per_s": rate(c["load.bytes"] / 1e6, t("data.load")),
        "graph.build_s": t("graph.build"),
        "graph.build_calls": n("graph.build"),
        "graph.normalize_s": t("graph.normalize"),
        "graph.normalize_calls": n("graph.normalize"),
        "graph.propagate_s": t("graph.propagate"),
        "graph.csr_rebuilds": c["calls:matrix"],
        "graph.spmv_cols_computed": computed,
        "filters.sgc_s": t("filters.sgc"),
        "filters.sgc_calls": n("filters.sgc"),
        "filters.asgc_s": t("filters.asgc"),
        "filters.asgc_calls": n("filters.asgc"),
        "filters.asgc_cols_per_s": rate(c["asgc.cols"], t("filters.asgc")),
        "filters.asgc_rank_deficient": c["lstsq.rank_deficient"],
        "filters.spmv_useful_ratio": least / computed if computed else 0.0,
        "filters.blend_s": t("filters.blend"),
        "filters.blend_calls": n("filters.blend"),
        "numeric.fit_calls": len(fits),
        "numeric.fit_s": t("numeric.fit"),
        "numeric.fit_p50_s": statistics.median(fits) if fits else 0.0,
        "numeric.fit_max_s": max(fits, default=0.0),
        "numeric.objective_evals": n("numeric.objective"),
        "numeric.objective_s": t("numeric.objective"),
        "numeric.optimizer_overhead_s": t("numeric.fit") - t("numeric.objective"),
        "numeric.fit_nonconverged": c["fit.nonconverged"],
        "numeric.fit_grad_max": max(tracer.values.get("fit.grad_max", []), default=0.0),
        "numeric.lstsq_calls": n("numeric.lstsq"),
        "numeric.lstsq_s": t("numeric.lstsq"),
        "numeric.predict_s": t("numeric.predict"),
        "experiments.combo_s": t("experiments.combo"),
        "experiments.combo_fits": c["fit.in_combo"],
        "experiments.unique_fit_ratio": len(set(fit_inputs)) / len(fit_inputs) if fit_inputs else 0.0,
        "experiments.default_sweep_projection_s": projection,
        "synthetic.generate_s": t("synthetic.generate"),
        "synthetic.generate_calls": len(generate),
        "synthetic.generate_p50_s": statistics.median(generate) if generate else 0.0,
        "synthetic.edges_per_s": rate(c["generate.edges"], t("synthetic.generate")),
        "synthetic.trial_s": t("synthetic.trial"),
        "parallel.items": len(items),
        "parallel.busy_s": sum(items),
        "parallel.utilization": rate(sum(items), c["parallel.capacity_s"]),
        "parallel.item_max_s": max(items, default=0.0),
        "cli.write_s": t("cli.write"),
        "cli.write_mb": c["write.bytes"] / 1e6,
        "cli.write_mb_per_s": rate(c["write.bytes"] / 1e6, t("cli.write")),
        "cli.svg_s": t("cli.svg"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    metrics["trace.oracle_s"] = selfs.get("trace", 0.0)
    return metrics
