"""The stage layer: each function runs one pipeline stage, times it into a ``Manifest`` and writes its artifacts.

``experiment.run_seed`` composes the stages and each ``pblab`` stage command calls one, so every artifact has one
writer. A stage imports the module it runs when it runs, so a command loads no other stage's code. Each stage runs
numpy's OpenBLAS on one thread (``Manifest.stage``), which changes no output byte.
"""

import ctypes
import functools
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice, zip_longest
from pathlib import Path

import numpy as np

from . import __version__
from . import corpus as corpus_mod
from .jsonio import write_csv, write_json


@dataclass(frozen=True, kw_only=True)
class SyntheticCorpus(corpus_mod.CorpusSpec):
    """The synthetic `corpus` section: a generator spec (its seed set per run) plus the pool size."""

    n_examples_per_cell: int             # pool size per (language, label) cell

    def validate(self) -> None:
        super().validate()
        if self.n_examples_per_cell < 1:
            raise ValueError("n_examples_per_cell must be >= 1")


@dataclass
class IngestedCorpus:
    """The `corpus` section that ingests a JSONL dataset instead of generating one."""

    path: str
    vocab_path: str | None = None        # vocabulary sidecar; without one it is built from the data

    def validate(self) -> None:
        if not self.path:
            raise ValueError("path must not be empty")


@functools.cache
def _openblas():
    """(get, set) of the thread count of the OpenBLAS this process has loaded, opened with RTLD_NOLOAD, or None."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted({p for line in f if os.path.basename(p := line.split(maxsplit=5)[-1].strip()).startswith(
                ("libscipy_openblas", "libopenblas"))})
        libs = [ctypes.CDLL(path, mode=os.RTLD_NOLOAD) for path in paths]
    except OSError:
        return None
    for get, set_ in ((getattr(lib, f"{p}_get_num_threads{s}", None), getattr(lib, f"{p}_set_num_threads{s}", None))
                      for lib in libs for p in ("openblas", "scipy_openblas") for s in ("", "64_")):
        if get is not None and set_ is not None:
            get.argtypes, get.restype, set_.argtypes, set_.restype = [], ctypes.c_int, [ctypes.c_int], None
            return get, set_
    return None


class Manifest:
    """Tracks every emitted file plus timings for one output directory."""

    def __init__(self, root: Path, config_hash: str, seed: int | None = None):
        self.root = Path(root)
        self.entry = {
            "config_hash": config_hash,
            "seed": seed,
            "versions": {"pblab": __version__, "numpy": np.__version__},
            "artifacts": [],
            "stages": [],
            "blas_threads": None,  # the OpenBLAS thread count read inside the stages
            "started_unix": time.time(),
        }

    def add(self, path: Path) -> Path:
        """Register ``path`` as an artifact and make its directory."""
        rel = str(path.relative_to(self.root))
        if rel not in self.entry["artifacts"]:
            self.entry["artifacts"].append(rel)
        path.parent.mkdir(parents=True, exist_ok=True)
        return path

    @contextmanager
    def stage(self, stage: str, arm: str | None = None, corpus: str | None = None):
        """Run one pipeline stage with numpy's OpenBLAS on one thread and time it into the ``stages`` list: wall
        seconds, and the CPU seconds of every thread of the process (numpy's BLAS threads included)."""
        get, set_ = _openblas() or (lambda: None, lambda count: None)
        before = get()
        set_(before if "OPENBLAS_NUM_THREADS" in os.environ else 1)  # a caller's count wins, as in pblab.cli
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            self.entry["blas_threads"] = get()
            yield
        finally:
            set_(before)  # also when the stage raises
        self.entry["stages"].append(
            {"stage": stage, "arm": arm, "corpus": corpus, "seconds": time.perf_counter() - start,
             "cpu_seconds": time.process_time() - cpu_start})

    def write(self) -> None:
        self.entry["finished_unix"] = time.time()
        self.entry["wall_seconds"] = self.entry["finished_unix"] - self.entry["started_unix"]
        self.root.mkdir(parents=True, exist_ok=True)
        write_json(self.root / "manifest.json", self.entry)


def load_dataset(path, vocab_path=None):
    """(vocab, examples) of a JSONL dataset, mapped through the vocabulary file ``vocab_path`` when given."""
    return corpus_mod.load_jsonl(path, corpus_mod.load_vocab(vocab_path) if vocab_path is not None else None)


def stage_corpus(spec: SyntheticCorpus | IngestedCorpus, out: Path, manifest: Manifest):
    """(vocab, examples): an ingested corpus is read, a synthetic one generated and written to
    corpus.jsonl and vocab.json."""
    with manifest.stage("corpus", corpus="original"):
        if isinstance(spec, IngestedCorpus):
            return load_dataset(spec.path, spec.vocab_path)
        vocab, examples = corpus_mod.generate_corpus(spec, spec.n_examples_per_cell)
        corpus_mod.save_jsonl(examples, vocab, manifest.add(out / "corpus.jsonl"))
        corpus_mod.save_vocab(vocab, manifest.add(out / "vocab.json"))
        return vocab, examples


def stage_sample(pool, vocab, joint, n: int, seed: int, out: Path, manifest: Manifest, eval_sizes=None):
    """Carve balanced validation/test splits of ``eval_sizes`` from ``pool`` (none when None), then draw
    the balanced/imbalanced pair of ``n`` from the rest; writes each subset to <name>.jsonl, and plan.json.
    Returns (val, test, {"balanced": ..., "imbalanced": ...}, overlap)."""
    from . import sampler as sampler_mod
    with manifest.stage("sample"):
        val, test = sampler_mod.split_eval(pool, *eval_sizes, seed=seed) if eval_sizes else ([], [])
        held_out = {ex.id for ex in val + test}
        *pair, overlap = sampler_mod.sample_paired([ex for ex in pool if ex.id not in held_out], joint, n, seed=seed)
        subsets = dict(zip(("balanced", "imbalanced"), pair))
        for name, subset in subsets.items():
            corpus_mod.save_jsonl(subset, vocab, manifest.add(out / f"{name}.jsonl"))
        sampler_mod.write_plan_json(overlap, manifest.add(out / "plan.json"))
    return val, test, subsets, overlap


def stage_train(arms, val, vocab, manifest: Manifest) -> list:
    """Train the arms, each (data, TrainConfig, output directory, checkpoint manifest), in lockstep;
    writes each arm's checkpoint.pbl and train_report.json. Returns [(params, report)] in order."""
    from . import model as model_mod, training as training_mod
    with manifest.stage("train"):
        trained = training_mod.train_arms([arm[0] for arm in arms], val, vocab, [arm[1] for arm in arms])
        vocab_hash = vocab.content_hash()
        for (_, _, out, header), (params, report) in zip(arms, trained):
            model_mod.save(params, manifest.add(out / "checkpoint.pbl"), vocab_hash=vocab_hash, manifest=header)
            write_json(manifest.add(out / "train_report.json"), report.to_dict())
    return trained


def stage_evaluate(params, test, vocab, out: Path, manifest: Manifest, arm: str | None = None, probs=None):
    """The metrics of ``params`` on ``test``, written to metrics.json and pred_dist.csv. ``probs``, the class
    probabilities of a pass of ``params`` over ``test`` already made, spare the stage its own pass."""
    from . import model as model_mod, training as training_mod
    with manifest.stage("evaluate", arm=arm):
        if probs is None:
            probs, _ = model_mod.forward_examples(params, test)
        metrics = training_mod.evaluate(probs, test, n_languages=vocab.n_languages, n_classes=vocab.n_classes)
        write_json(manifest.add(out / "metrics.json"), metrics.to_dict())
        write_csv(manifest.add(out / "pred_dist.csv"), *training_mod.pred_dist_table(metrics, vocab))
    return metrics


def stage_probe(models: dict, dataset, corpus_tag: str, probe: "probe_mod.ProbeConfig", csv_path: Path,
                manifest: Manifest, json_path: Path | None = None) -> tuple:
    """The language probe of each model, {tag: (params, fold seed)}, on the pooled vectors of its pass over ``dataset``:
    fold accuracies to ``csv_path``, the report to ``json_path`` if given. Returns ({tag: report}, {tag: its probs})."""
    from . import model as model_mod, probe as probe_mod
    reports, probs, langs = {}, {}, [ex.language for ex in dataset]
    for tag, (params, seed) in models.items():
        with manifest.stage("probe", arm=tag, corpus=corpus_tag):
            probs[tag], pooled = model_mod.forward_examples(params, dataset)
            reports[tag] = probe_mod.cross_validate(pooled, langs, k=probe.k, seed=seed, l2=probe.l2)
    if json_path is not None:
        (report,) = reports.values()
        write_json(manifest.add(json_path), report.to_dict())
    write_csv(manifest.add(csv_path), probe_mod.CSV_HEADER,
              (row for tag, report in reports.items() for row in report.csv_rows(tag, corpus_tag)))
    return reports, probs


def stage_explain(models: dict, pairs: dict, data, engine: "explain_mod.EngineConfig", theta: float, out: Path,
                  manifest: Manifest, target_labels=None) -> dict:
    """Explain each model, {tag: params}, at each of ``target_labels`` (all labels when None) once; then for each
    {stem: compared tag} write the report of the compared model against the reference model, the first of
    ``models``, <stem>.csv and its <stem>.json sidecar. The reference model's values define the token categories,
    and every report keys its base values "bal", whatever the reference model's tag."""
    from . import explain as explain_mod
    ref, expl = next(iter(models)), {}
    for tag, params in models.items():
        with manifest.stage("explain", arm=tag):
            expl[tag] = explain_mod.explain_arm(params, data, engine, target_labels)
    reports = {}
    for stem, cmp in pairs.items():
        reports[stem] = explain_mod.diff_report(data, expl[ref], expl[cmp], engine, theta, tags=("bal", cmp))
        reports[stem].write_csv(manifest.add(out / f"{stem}.csv"))
        reports[stem].write_sidecar(manifest.add(out / f"{stem}.json"))
    return reports


def shap_subset(test, max_datapoints: int):
    """The datapoints a cap of ``max_datapoints`` explains: max_datapoints // L per language, dealt round-robin over
    its label cells, each cell in id order, so the cap never skews the subsample toward particular true labels."""
    cells: dict = {}
    for ex in sorted(test, key=lambda ex: (ex.language, ex.label, ex.id)):
        cells.setdefault(ex.language, {}).setdefault(ex.label, []).append(ex)
    if not cells:
        raise ValueError("empty dataset")
    per_lang = max_datapoints // len(cells)
    if per_lang < 1:
        raise ValueError(f"max_datapoints={max_datapoints} is below n_languages={len(cells)}: "
                         "every language needs a datapoint")
    dealt = (filter(None, chain.from_iterable(zip_longest(*by_label.values()))) for by_label in cells.values())
    return [ex for picks in dealt for ex in islice(picks, per_lang)]
