"""Per-layer spans around pblab's public functions, installed from outside the program.

``Tracer.installed()`` replaces, for its duration, every module attribute of
the loaded ``pblab`` modules that refers to a traced function with a
wrapper that records a span (name, start, end, parent). The modules call
each other through such attributes (``training_mod.train``, ``fit_logreg``
inside ``probe``, ``shapley_exact`` inside ``explain``, the names bound by
``from .model import forward_examples``), so every call is seen. A few
wrappers also count work from the call's arguments and result. Spans stay
in memory until the run writes them out.
"""

import importlib
import inspect
import math
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import numpy as np

TRACED = {
    "corpus": ("generate_corpus", "save_jsonl", "load_jsonl"),
    "sampler": ("split_eval", "sample_paired"),
    "training": ("train", "evaluate"),
    "model": ("save", "load", "forward_examples"),
    "probe": ("probe_model", "fit_logreg"),
    "explain": ("cumulative_diff", "shapley_exact", "shapley_sampled"),
    "experiment": ("run_seed",),
}
CLI_COMMANDS = ("sample", "train", "eval", "probe", "shap-diff")
MB = 2 ** 20  # the unit of every *_mb metric, as ru_maxrss / 1024 is for peak_rss_mb


def tree_bytes(path) -> int:
    path = Path(path)
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def ridge_grad_max(features, labels, l2: float, W: np.ndarray) -> float:
    """max |gradient| of mean cross-entropy + l2/(2n) ||W||^2 (intercept unregularized) at W."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    n = X.shape[0]
    Xb = np.hstack([X, np.ones((n, 1))])
    z = Xb @ W
    z -= z.max(axis=1, keepdims=True)
    P = np.exp(z)
    P /= P.sum(axis=1, keepdims=True)
    P[np.arange(n), y] -= 1.0
    reg = (l2 / n) * W
    reg[-1] = 0.0
    return float(np.abs(Xb.T @ P / n + reg).max())


def _after_jsonl(t, a, result):
    t.add("corpus.jsonl_bytes", os.path.getsize(a["path"]))


def _after_train(t, a, result):
    cfg = a["config"]
    t.add("training.steps", cfg.epochs * math.ceil(len(a["data"]) / cfg.batch_size))


def _after_model_save(t, a, result):
    t.add("model.checkpoint_bytes", os.path.getsize(a["path"]))


def _after_fit_logreg(t, a, W):
    g = ridge_grad_max(a["features"], a["labels"], a["l2"], W)
    t.add("probe.fits", 1)
    t.add("probe.fits_unconverged", int(g > a["tol"]))
    t.counts["probe.grad_max"] = max(t.counts.get("probe.grad_max", 0.0), g)


def _after_exact(t, a, result):
    t.add("explain.exact_explanations", 1)
    t.add("explain.coalitions", 2 ** len(a["tokens"]))


def _after_sampled(t, a, result):
    P = len(a["permutations"]) if a["permutations"] is not None else a["n_permutations"]
    t.add("explain.sampled_explanations", 1)
    t.add("explain.coalitions", P * (len(a["tokens"]) + 1))


def _after_run_seed(t, a, result):
    t.add("experiment.artifact_bytes", tree_bytes(a["seed_dir"]))


AFTER = {
    "corpus.save_jsonl": _after_jsonl,
    "corpus.load_jsonl": _after_jsonl,
    "training.train": _after_train,
    "model.save": _after_model_save,
    "probe.fit_logreg": _after_fit_logreg,
    "explain.shapley_exact": _after_exact,
    "explain.shapley_sampled": _after_sampled,
    "experiment.run_seed": _after_run_seed,
}
PEAK_ALLOC = "explain.cumulative_diff"
PEAK_COUNTS = ("probe.grad_max", "explain.peak_alloc_bytes")


class Tracer:
    """Spans as [name, start, end, parent index] in ``spans``, plus work counts in ``counts``."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self._stack = []
        self._patches = []

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def absorb(self, spans: list, counts: dict, parent: int | None = None) -> None:
        """Add another tally's spans (top-level ones under ``parent``) and counts."""
        base = len(self.spans)
        for name, start, end, p in spans:
            self.spans.append([name, start, end, parent if p is None else base + p])
        for key, value in counts.items():
            if key in PEAK_COUNTS:
                self.counts[key] = max(self.counts.get(key, 0), value)
            else:
                self.add(key, value)

    def _wrap(self, name: str, fn):
        after = AFTER.get(name)
        signature = inspect.signature(fn)
        tracer = self

        def wrapper(*args, **kwargs):
            measure_alloc = name == PEAK_ALLOC and not tracemalloc.is_tracing()
            if measure_alloc:
                tracemalloc.start()
            try:
                with tracer.span(name):
                    result = fn(*args, **kwargs)
            finally:
                if measure_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    tracer.counts["explain.peak_alloc_bytes"] = max(
                        tracer.counts.get("explain.peak_alloc_bytes", 0), peak)
            if after is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after(tracer, bound.arguments, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        layers = {layer: importlib.import_module(f"pblab.{layer}") for layer in TRACED}
        modules = [m for n, m in list(sys.modules.items()) if n == "pblab" or n.startswith("pblab.")]
        try:
            for layer, names in TRACED.items():
                mod = layers[layer]
                for fname in names:
                    original = getattr(mod, fname)
                    wrapper = self._wrap(f"{layer}.{fname}", original)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                self._patches.append((m, attr, original))
                                setattr(m, attr, wrapper)
            yield self
        finally:
            for m, attr, original in reversed(self._patches):
                setattr(m, attr, original)
            self._patches.clear()


def span_totals(spans: list) -> tuple:
    """Per-name total and self time; self time is a span minus its direct child spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    total, self_time = {}, {}
    for i, (name, start, end, parent) in enumerate(spans):
        total[name] = total.get(name, 0.0) + (end - start)
        self_time[name] = self_time.get(name, 0.0) + (end - start - child[i])
    return total, self_time


def layer_metrics(spans: list, counts: dict, startup_s: float) -> dict:
    """The per-layer metrics of BENCHMARK.json from one tally of spans and counts."""
    total, self_time = span_totals(spans)
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    c = lambda key: counts.get(key, 0)  # noqa: E731
    engine_s = t("explain.shapley_exact") + t("explain.shapley_sampled")
    m = {
        "corpus.generate_s": t("corpus.generate_corpus"),
        "corpus.save_jsonl_s": t("corpus.save_jsonl"),
        "corpus.load_jsonl_s": t("corpus.load_jsonl"),
        "corpus.jsonl_mb": c("corpus.jsonl_bytes") / MB,
        "sampler.split_eval_s": t("sampler.split_eval"),
        "sampler.sample_paired_s": t("sampler.sample_paired"),
        "training.train_s": t("training.train"),
        "training.steps": c("training.steps"),
        "training.step_ms": 1000.0 * t("training.train") / c("training.steps") if c("training.steps") else 0.0,
        "training.evaluate_s": t("training.evaluate"),
        "model.save_s": t("model.save"),
        "model.load_s": t("model.load"),
        "model.forward_examples_s": t("model.forward_examples"),
        "model.checkpoint_mb": c("model.checkpoint_bytes") / MB,
        "probe.probe_model_s": t("probe.probe_model"),
        "probe.fit_logreg_s": t("probe.fit_logreg"),
        "probe.fits": c("probe.fits"),
        "probe.grad_max": c("probe.grad_max"),
        "probe.fits_unconverged": c("probe.fits_unconverged"),
        "explain.cumulative_diff_s": t("explain.cumulative_diff"),
        "explain.exact_explanations": c("explain.exact_explanations"),
        "explain.sampled_explanations": c("explain.sampled_explanations"),
        "explain.coalitions": c("explain.coalitions"),
        "explain.coalitions_per_s": c("explain.coalitions") / engine_s if engine_s else 0.0,
        "explain.peak_alloc_mb": c("explain.peak_alloc_bytes") / MB,
        "experiment.run_seed_s": t("experiment.run_seed"),
        "experiment.self_s": self_time.get("experiment.run_seed", 0.0),
        "experiment.artifact_mb": c("experiment.artifact_bytes") / MB,
        "cli.startup_s": startup_s,
    }
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd.replace('-', '_')}_s"] = t(f"cli.{cmd}")
    return m
