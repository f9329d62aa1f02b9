"""End-to-end experiment pipeline: corpus -> paired subsets -> the arms of ``ARMS`` -> reports.

For every seed: build (or load) the corpus, carve balanced validation/test splits, draw the balanced/imbalanced
training pair, train the arms of ``ARMS`` (balanced, imbalanced, imbalanced + per-language class weights), then
probe language separability on two corpora, score accuracy on the probe's pass over the test split, and report the
cumulative attribution differences. Per-seed outputs get a directory each; ``aggregate`` takes means/stds over seeds.

Everything is a pure function of (config, seeds): two runs with the same config produce byte-identical CSVs. Each
stage runs numpy's OpenBLAS on one thread (``Manifest.stage``), which changes no output byte.
"""

import copy
import ctypes
import functools
import hashlib
import json
import os
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields
from itertools import chain, islice, zip_longest
from pathlib import Path

import numpy as np

from . import __version__
from . import corpus as corpus_mod
from . import explain as explain_mod
from . import model as model_mod
from . import probe as probe_mod
from . import sampler as sampler_mod
from . import training as training_mod
from .jsonio import write_csv, write_json
from .seeds import check_root_seed, derive_int

# The arms, the only place they are defined: name -> (the sample_paired subset it trains on, its
# training.WEIGHTINGS mode, the stem of its shapdiff report). The first row is the reference arm that every
# report compares against, so its stem is None.
ARMS = {
    "balanced": ("balanced", "none", None),
    "imbalanced": ("imbalanced", "none", "bal_vs_imbal"),
    "imbalanced_cw": ("imbalanced", "per_language", "bal_vs_imbal_cw"),
}
# The config fields that, with the seed and the arm, fix an arm's trained weights.
WEIGHT_FIELDS = ("corpus", "joint", "train_size", "val_size", "test_size", "train")
HEADLINE = ("accuracy", "spearman_vs_imbalanced_joint", "masked_entropy")  # per-arm numbers aggregated over seeds


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


@dataclass
class ExplainConfig(explain_mod.EngineConfig):
    """The `explain` section: the Shapley engine (its seed set per run) plus the report's knobs."""

    theta: float = explain_mod.DEFAULT_THETA                      # neutral-band threshold
    target_labels: list[int] = field(default_factory=lambda: [0])  # labels explained for every datapoint
    max_datapoints: int = 120                                     # per-seed cap on explained test datapoints

    def validate(self) -> None:
        super().validate()
        if not 0 < self.theta < np.inf or self.max_datapoints < 1:  # NaN too
            raise ValueError("theta must be > 0 and max_datapoints >= 1")
        check_target_labels(self.target_labels)


def check_target_labels(labels) -> None:
    if not labels or min(labels) < 0 or len(set(labels)) < len(labels):
        raise ValueError("target_labels must be a non-empty list of distinct label ids")


# Each config section: the dataclass whose fields it sets, less the fields each run sets itself.
CORPUS_FORMS = {"synthetic": (SyntheticCorpus, ("seed",)), "ingested": (IngestedCorpus, ())}
SECTIONS = {
    "train": (training_mod.TrainConfig, training_mod.ARM_FIELDS),
    "explain": (ExplainConfig, ("seed",)),
    "probe": (probe_mod.ProbeConfig, ()),
}

# The JSON value each field annotation accepts, and how an error names it.
_JSON_TYPES = {
    int: (lambda v: type(v) is int, "an int"),
    float: (lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max, "a finite number"),
    str: (lambda v: type(v) is str, "a string"),
    dict: (lambda v: type(v) is dict, "an object"),
    list[int]: (lambda v: type(v) is list and all(type(x) is int for x in v), "a list of ints"),
    str | None: (lambda v: v is None or type(v) is str, "a string or null"),
}

JOINT_FORMS = (f"{{'preset': one of {list(sampler_mod.PRESETS)}}} or "
               "{'probs': L x C table of numbers, each row summing to 1/L and each column to 1/C}")


def _default(f):
    """A dataclass field's default value, or MISSING when the field is required."""
    return f.default_factory() if f.default_factory is not MISSING else f.default


def _settable(cls, fixed=()) -> list:
    return [f for f in fields(cls) if f.name not in fixed]


def _from_json(cls, raw, section: str | None = None, fixed=()):
    """The dataclass ``cls`` built from the JSON object ``raw`` and validated. Each field but ``fixed``
    is a key; each value has its annotation's JSON type (an int counts as a float, a bool never as a number)."""
    where = f"config section {section!r}" if section else "config"
    if type(raw) is not dict:
        raise ValueError(f"{where} must be a JSON object")
    settable = _settable(cls, fixed)
    unknown = sorted(set(raw) - {f.name for f in settable})
    if unknown:
        raise ValueError(f"unknown keys in {where}: {unknown}")
    values = {}
    for f in settable:
        if f.name not in raw:
            if _default(f) is MISSING:
                raise ValueError(f"{where} missing required key {f.name!r}")
            continue
        accepts, kind = _JSON_TYPES[f.type]
        if not accepts(raw[f.name]):
            name = f"{section}.{f.name}" if section else f.name
            raise ValueError(f"config value {name!r} must be {kind}, got {raw[f.name]!r}")
        values[f.name] = float(raw[f.name]) if f.type is float else raw[f.name]
    obj = cls(**values)
    try:
        obj.validate()
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None
    return obj


def _joint_table(joint) -> np.ndarray | None:
    """The checked table of a `joint` section, or None when it names a preset."""
    if type(joint) is dict and set(joint) == {"preset"} and joint["preset"] in sampler_mod.PRESETS:
        return None
    probs = joint["probs"] if type(joint) is dict and set(joint) == {"probs"} else None
    number = _JSON_TYPES[float][0]
    if type(probs) is list and probs and all(type(row) is list and len(row) == len(probs[0]) and all(map(number, row))
                                             for row in probs):
        return sampler_mod.check_joint(probs)
    raise ValueError(f"config section 'joint' must be {JOINT_FORMS}, got {joint!r}")


def joint_from_config(joint_cfg, L: int, C: int) -> np.ndarray:
    probs = _joint_table(joint_cfg)
    if probs is None:
        return sampler_mod.preset(joint_cfg["preset"], L, C)
    if probs.shape != (L, C):
        raise ValueError(f"config section 'joint': table shape {probs.shape} does not match corpus ({L}, {C})")
    return probs


@dataclass(kw_only=True)
class ExperimentConfig:
    name: str = "experiment"
    seeds: list[int]                     # one full pipeline run per seed
    corpus: dict                         # a SyntheticCorpus or an IngestedCorpus section
    joint: dict                          # one of JOINT_FORMS
    train_size: int                      # size of each training subset (balanced and imbalanced)
    val_size: int                        # balanced validation split size (divisible by L*C)
    test_size: int                       # balanced test split size (divisible by L*C)
    train: dict = field(default_factory=dict)
    explain: dict = field(default_factory=dict)
    probe: dict = field(default_factory=dict)
    out_dir: str                         # output root directory

    def validate(self) -> None:
        if not self.seeds or len(set(self.seeds)) < len(self.seeds):
            raise ValueError("seeds must be a non-empty list of distinct ints")
        for seed in self.seeds:
            check_root_seed(seed)
        if min(self.train_size, self.val_size, self.test_size) < 1:
            raise ValueError("train_size, val_size and test_size must be >= 1")

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        """The checked config, each section a plain dict with every default filled in. Every error
        a run can know before it reads its corpus is a ValueError here."""
        config = _from_json(cls, copy.deepcopy(raw))
        synthetic = "path" not in config.corpus
        corpus_form = CORPUS_FORMS["synthetic" if synthetic else "ingested"]
        for section, (section_cls, fixed) in {"corpus": corpus_form, **SECTIONS}.items():
            obj = _from_json(section_cls, getattr(config, section), section, fixed)
            setattr(config, section, {f.name: getattr(obj, f.name) for f in _settable(section_cls, fixed)})
        if synthetic:
            _check_corpus_shape(config, config.corpus["n_languages"], config.corpus["n_classes"])
        else:
            _joint_table(config.joint)
        return config

    def to_dict(self) -> dict:
        return asdict(self)

    def content_hash(self, keys=None) -> str:
        """sha256 of the fields ``keys``; by default all but out_dir, as location does not change the experiment."""
        d = {key: v for key, v in self.to_dict().items() if (key in keys if keys else key != "out_dir")}
        return hashlib.sha256(json.dumps(d, sort_keys=True).encode("utf-8")).hexdigest()


def _check_corpus_shape(config: ExperimentConfig, L: int, C: int) -> np.ndarray:
    """The checks that need the corpus's L languages and C labels; returns the joint table."""
    if config.val_size % (L * C) or config.test_size % (L * C):
        raise ValueError(f"config values 'val_size' and 'test_size' must be divisible by L*C={L * C}")
    if max(config.explain["target_labels"]) >= C:
        raise ValueError(f"config value 'explain.target_labels' must hold label ids below {C}")
    if config.explain["max_datapoints"] < L:
        raise ValueError(f"config value 'explain.max_datapoints' must be at least n_languages={L}, "
                         "one datapoint per language")
    if "path" not in config.corpus and config.probe["holdout_per_language"] < C:
        raise ValueError(f"config value 'probe.holdout_per_language' must be at least n_classes={C}")
    joint = joint_from_config(config.joint, L, C)
    joints = {"balanced": sampler_mod.preset("uniform", L, C), "imbalanced": joint}
    for arm, (subset, weighting, _) in ARMS.items():  # each arm's plan, and its weights on that plan
        try:
            training_mod.WEIGHTINGS[weighting](sampler_mod.plan_counts(joints[subset], config.train_size))
        except ValueError as e:
            raise ValueError(f"config value 'train_size'={config.train_size}, arm {arm!r} ({weighting!r}): "
                             f"{e}") from None
    return joint


def config_schema() -> dict:
    """Every config field's JSON type and its default, or "required", read from the dataclasses."""
    def describe(cls, fixed=()):
        return {f.name: _JSON_TYPES[f.type][1] + (", required" if _default(f) is MISSING
                                                  else f", default {json.dumps(_default(f))}")
                for f in _settable(cls, fixed)}

    schema = describe(ExperimentConfig)
    schema.update({section: describe(cls, fixed) for section, (cls, fixed) in SECTIONS.items()})
    schema["corpus"] = {form: describe(cls, fixed) for form, (cls, fixed) in CORPUS_FORMS.items()}
    schema["joint"] = JOINT_FORMS
    return schema


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as f:
        return ExperimentConfig.from_dict(json.load(f))


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


# The stage layer: each function times one pipeline stage into ``manifest`` and writes that stage's artifacts.

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
    with manifest.stage("evaluate", arm=arm):
        if probs is None:
            probs, _ = model_mod.forward_examples(params, test)
        metrics = training_mod.evaluate(probs, test, n_languages=vocab.n_languages, n_classes=vocab.n_classes)
        write_json(manifest.add(out / "metrics.json"), metrics.to_dict())
        write_csv(manifest.add(out / "pred_dist.csv"), *training_mod.pred_dist_table(metrics, vocab))
    return metrics


def stage_probe(models: dict, dataset, corpus_tag: str, probe: probe_mod.ProbeConfig, csv_path: Path,
                manifest: Manifest, json_path: Path | None = None) -> tuple:
    """The language probe of each model, {tag: (params, fold seed)}, on the pooled vectors of its pass over ``dataset``:
    fold accuracies to ``csv_path``, the report to ``json_path`` if given. Returns ({tag: report}, {tag: its probs})."""
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


def stage_explain(models: dict, pairs: dict, data, engine: explain_mod.EngineConfig, theta: float, out: Path,
                  manifest: Manifest, target_labels=None) -> dict:
    """Explain each model, {tag: params}, at each of ``target_labels`` (all labels when None) once; then for each
    {stem: compared tag} write the report of the compared model against the reference model, the first of
    ``models``, <stem>.csv and its <stem>.json sidecar. The reference model's values define the token categories,
    and every report keys its base values "bal", whatever the reference model's tag."""
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


def run_seed(config: ExperimentConfig, seed: int, seed_dir: Path) -> dict:
    """One full pipeline run, the composition of the stages; returns the per-seed summary record.

    The seed's manifest is written even when a stage fails: it lists what the seed wrote and the stages it finished.
    """
    config_hash = config.content_hash()
    manifest = Manifest(seed_dir, config_hash, seed)
    try:
        record = {"seed": seed}
        synthetic = "path" not in config.corpus
        spec = SyntheticCorpus(**config.corpus, seed=seed) if synthetic else IngestedCorpus(**config.corpus)
        vocab, pool = stage_corpus(spec, seed_dir / "corpus", manifest)
        L, C = vocab.n_languages, vocab.n_classes
        joint = _check_corpus_shape(config, L, C)

        val, test, subsets, overlap = stage_sample(
            pool, vocab, joint, config.train_size, seed, seed_dir / "subsets", manifest,
            eval_sizes=(config.val_size, config.test_size))
        record["overlap"] = overlap

        # The arms train in lockstep, each on its row's subset with its row's weighting.
        weights_hash = config.content_hash(WEIGHT_FIELDS)
        trained = stage_train([
            (subsets[subset], training_mod.TrainConfig(**config.train, weighting=weighting,
                                                       seed=derive_int(seed, "train", arm)),
             seed_dir / "arms" / arm, {"arm": arm, "seed": seed, "weights_hash": weights_hash})
            for arm, (subset, weighting, _) in ARMS.items()], val, vocab, manifest)
        arm_params = {arm: params for arm, (params, _) in zip(ARMS, trained)}

        # Language-identification probe on the task test split and on a fresh uniform corpus.
        probe = probe_mod.ProbeConfig(**config.probe)
        probe_corpora = {"original": test}
        if synthetic:
            with manifest.stage("corpus", corpus="holdout"):
                holdout_spec = SyntheticCorpus(**config.corpus, seed=derive_int(seed, "probe_holdout"))
                per_cell = -(-probe.holdout_per_language // C)
                surplus = per_cell * C - probe.holdout_per_language
                _, holdout = corpus_mod.generate_corpus(holdout_spec, per_cell)
            # Exactly holdout_per_language per language: the last `surplus` label cells drop their last example.
            probe_corpora["holdout"] = [ex for i, ex in enumerate(holdout)
                                        if ex.label < C - surplus or i % per_cell < per_cell - 1]
        record["probe"] = {}
        for corpus_tag, dataset in probe_corpora.items():
            models = {arm: (arm_params[arm], derive_int(seed, "probe", arm, corpus_tag)) for arm in ARMS}
            reports, probs = stage_probe(models, dataset, corpus_tag, probe,
                                         seed_dir / "probe" / f"{corpus_tag}.csv", manifest)
            record["probe"][corpus_tag] = {arm: report.mean_accuracy for arm, report in reports.items()}
            if dataset is test:  # evaluate scores this pass; no stage reads the holdout's probabilities
                test_probs = probs
        del probs
        record["arms"] = {}
        for arm, (params, report) in zip(ARMS, trained):
            metrics = stage_evaluate(params, test, vocab, seed_dir / "arms" / arm, manifest, arm,
                                     probs=test_probs.pop(arm))
            record["arms"][arm] = {
                "accuracy": metrics.overall_accuracy,
                "per_language_accuracy": metrics.per_language_accuracy,
                "pred_dist": metrics.pred_dist.tolist(),
                "selected_epoch": report.selected_epoch,
                "spearman_vs_imbalanced_joint": training_mod.prediction_skew_spearman(metrics, joint),
                "masked_probs": model_mod.forward(params, [params.mask_id]).probs.tolist(),
                "masked_entropy": -training_mod.mask_entropy_loss(params),
            }

        # Attribution-difference reports against the reference arm.
        engine = ExplainConfig(**config.explain, seed=derive_int(seed, "shapdiff"))
        shap_data = shap_subset(test, engine.max_datapoints)
        pairs = {stem: arm for arm, (*_, stem) in ARMS.items() if stem}
        reports = stage_explain(arm_params, pairs, shap_data, engine, engine.theta, seed_dir / "shapdiff", manifest,
                                target_labels=engine.target_labels)
        record["shapdiff"] = {"n_datapoints": len(shap_data)}
        for tag, report in reports.items():
            record["shapdiff"][tag] = {
                "rows": {f"{lang}/{label}/{cat}": [mean, count]
                         for (lang, label, cat), (mean, count) in sorted(report.rows.items())},
                "base_values": {str(k): v for k, v in report.base_values.items()},
                "split_fractions": report.split_fractions,
            }
        return record
    finally:
        manifest.write()


def aggregate(records: list) -> dict:
    """Means and standard deviations across seeds for the headline numbers."""
    out = {"n_seeds": len(records)}
    if not records:
        return out

    def stats(values):
        arr = np.asarray(values, dtype=float)
        return {"mean": float(arr.mean()), "std": float(arr.std(ddof=0)), "values": arr.tolist()}

    for key in HEADLINE:
        out[key] = {arm: stats([r["arms"][arm][key] for r in records]) for arm in ARMS}
    corpora = sorted({tag for r in records for tag in r["probe"]})
    out["probe"] = {
        tag: {arm: stats([r["probe"][tag][arm] for r in records]) for arm in ARMS}
        for tag in corpora
    }
    return out


def write_summary_csvs(records: list, out_dir: Path, manifest: Manifest) -> None:
    write_csv(manifest.add(out_dir / "summary_accuracy.csv"), ["seed", "arm", *HEADLINE],
               ([r["seed"], arm, *(repr(r["arms"][arm][key]) for key in HEADLINE)] for r in records for arm in ARMS))
    write_csv(manifest.add(out_dir / "summary_probe.csv"), ["seed", "corpus", "arm", "mean_accuracy"],
               ([r["seed"], tag, arm, repr(r["probe"][tag][arm])]
                for r in records for tag in sorted(r["probe"]) for arm in ARMS))
    write_csv(manifest.add(out_dir / "summary_pred_dist.csv"), ["seed", "arm", "language", "label", "fraction"],
               ([r["seed"], arm, lang, label, repr(frac)] for r in records for arm in ARMS
                for lang, row in enumerate(r["arms"][arm]["pred_dist"]) for label, frac in enumerate(row)))
    write_csv(manifest.add(out_dir / "summary_shapdiff.csv"),
               ["seed", "pair", "language", "label", "category", "mean_cum_diff", "n_datapoints"],
               ([r["seed"], pair, *key.split("/"), repr(mean), count]
                for r in records for *_, pair in ARMS.values() if pair
                for key, (mean, count) in sorted(r["shapdiff"][pair]["rows"].items())))


def run_experiment(config: ExperimentConfig, out_dir=None) -> dict:
    """Run every seed, aggregate, and write the summary files. Returns the summary dict."""
    root = Path(out_dir if out_dir is not None else config.out_dir)
    config_hash = config.content_hash()
    manifest = Manifest(root, config_hash)
    write_json(manifest.add(root / "config.json"), config.to_dict())

    records, failures = [], []
    for seed in config.seeds:
        seed_dir = root / f"seed_{seed}"
        try:
            records.append(run_seed(config, seed, seed_dir))
        except Exception as e:  # a failing seed must not take down the others
            failures.append({"seed": seed, "error": f"{type(e).__name__}: {e}"})
            write_json(manifest.add(seed_dir / "error.json"),
                       {"type": type(e).__name__, "message": str(e), "traceback": traceback.format_exc()})

    summary = {
        "name": config.name,
        "config_hash": config_hash,
        "per_seed": records,
        "failures": failures,
        "aggregate": aggregate(records),
    }
    write_json(manifest.add(root / "summary.json"), summary)
    write_summary_csvs(records, root, manifest)
    manifest.write()
    return summary
