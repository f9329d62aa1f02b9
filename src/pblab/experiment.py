"""End-to-end experiment pipeline: corpus -> paired subsets -> three arms -> reports.

For every seed: build (or load) the corpus, carve balanced validation/test
splits, draw the balanced/imbalanced training pair, train the three arms
(balanced, imbalanced, imbalanced + per-language class weights), then
evaluate accuracy, language-probe separability on two corpora, and the
cumulative attribution-difference reports. Per-seed outputs live in their
own directory; an aggregator collects means/stds across seeds.

Everything is a pure function of (config, seeds): two runs with the same
config produce byte-identical CSVs.
"""

import copy
import hashlib
import json
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import explain as explain_mod
from . import model as model_mod
from . import probe as probe_mod
from . import sampler as sampler_mod
from . import training as training_mod
from .jsonio import write_csv, write_json
from .seeds import derive_int

ARMS = ("balanced", "imbalanced", "imbalanced_cw")
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
        if self.theta <= 0 or self.max_datapoints < 1:
            raise ValueError("theta must be > 0 and max_datapoints >= 1")
        labels = self.target_labels
        if not labels or min(labels) < 0 or len(set(labels)) < len(labels):
            raise ValueError("target_labels must be a non-empty list of distinct label ids")


# Each config section: the dataclass whose fields it sets, less the fields each run sets itself.
CORPUS_FORMS = {"synthetic": (SyntheticCorpus, ("seed",)), "ingested": (IngestedCorpus, ())}
SECTIONS = {
    "train": (training_mod.TrainConfig, ("seed", "weighting")),
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
               "{'probs': L x C table of numbers, 'uniform_marginals': true (default) or false}")


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


def _joint_table(joint) -> sampler_mod.JointSpec | None:
    """The checked table of a `joint` section, or None when it names a preset."""
    if type(joint) is dict and set(joint) == {"preset"} and joint["preset"] in sampler_mod.PRESETS:
        return None
    number = _JSON_TYPES[float][0]
    if type(joint) is dict and "probs" in joint and set(joint) <= {"probs", "uniform_marginals"}:
        probs, uniform = joint["probs"], joint.get("uniform_marginals", True)
        if (type(probs) is list and probs and type(uniform) is bool
                and all(type(row) is list and len(row) == len(probs[0]) and all(map(number, row))
                        for row in probs)):
            spec = sampler_mod.JointSpec(probs=np.array(probs, dtype=float), uniform_marginals=uniform)
            spec.validate()
            return spec
    raise ValueError(f"config section 'joint' must be {JOINT_FORMS}, got {joint!r}")


def joint_from_config(joint_cfg, L: int, C: int) -> sampler_mod.JointSpec:
    spec = _joint_table(joint_cfg)
    if spec is None:
        return sampler_mod.preset(joint_cfg["preset"], L, C)
    if spec.probs.shape != (L, C):
        raise ValueError(f"joint table shape {spec.probs.shape} does not match corpus ({L}, {C})")
    return spec


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

    def content_hash(self) -> str:
        d = self.to_dict()
        d.pop("out_dir")  # location does not change the experiment
        return hashlib.sha256(json.dumps(d, sort_keys=True).encode("utf-8")).hexdigest()


def _check_corpus_shape(config: ExperimentConfig, L: int, C: int) -> sampler_mod.JointSpec:
    """The checks that need the corpus's L languages and C labels; returns the joint table."""
    if config.val_size % (L * C) or config.test_size % (L * C):
        raise ValueError(f"config values 'val_size' and 'test_size' must be divisible by L*C={L * C}")
    if max(config.explain["target_labels"]) >= C:
        raise ValueError(f"config value 'explain.target_labels' must hold label ids below {C}")
    if "path" not in config.corpus and config.probe["holdout_per_language"] < C:
        raise ValueError(f"config value 'probe.holdout_per_language' must be at least n_classes={C}")
    return joint_from_config(config.joint, L, C)


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


class Manifest:
    """Tracks every emitted file plus timings for one output directory."""

    def __init__(self, root: Path, config_hash: str, seed: int | None = None):
        self.root = Path(root)
        self.entry = {
            "config_hash": config_hash,
            "seed": seed,
            "versions": {"pblab": _package_version(), "numpy": np.__version__},
            "artifacts": [],
            "started_unix": time.time(),
        }

    def add(self, path) -> Path:
        rel = str(Path(path).relative_to(self.root))
        if rel not in self.entry["artifacts"]:
            self.entry["artifacts"].append(rel)
        return Path(path)

    @contextmanager
    def stage(self, stage: str, arm: str | None = None, corpus: str | None = None):
        """Time one pipeline stage into the manifest's ``stages`` list."""
        start = time.perf_counter()
        yield
        self.entry.setdefault("stages", []).append(
            {"stage": stage, "arm": arm, "corpus": corpus, "seconds": time.perf_counter() - start})

    def write(self) -> None:
        self.entry["finished_unix"] = time.time()
        self.entry["wall_seconds"] = self.entry["finished_unix"] - self.entry["started_unix"]
        write_json(self.root / "manifest.json", self.entry)


def _package_version() -> str:
    try:
        from importlib.metadata import version

        return version("pblab")
    except Exception:
        return "unknown"


def _build_corpus(config: ExperimentConfig, seed: int, out: Path, manifest: Manifest):
    """Returns (vocab, examples, synthetic_flag)."""
    ccfg = config.corpus
    out.mkdir(parents=True, exist_ok=True)
    if "path" in ccfg:
        vocab = corpus_mod.load_vocab(ccfg["vocab_path"]) if ccfg["vocab_path"] is not None else None
        vocab, examples = corpus_mod.load_jsonl(ccfg["path"], vocab)
        return vocab, examples, False
    spec = SyntheticCorpus(**ccfg, seed=seed)
    vocab, examples = corpus_mod.generate_corpus(spec, spec.n_examples_per_cell)
    corpus_mod.save_jsonl(examples, vocab, manifest.add(out / "corpus.jsonl"))
    corpus_mod.save_vocab(vocab, manifest.add(out / "vocab.json"))
    return vocab, examples, True


def _shap_subset(test, max_datapoints: int):
    """Deterministic per-language subsample of test datapoints, of any length.

    Examples are taken round-robin across the (language, label) cells so the
    cap never skews the subsample toward particular true labels.
    """
    langs = sorted({ex.language for ex in test})
    per_lang = max(1, max_datapoints // len(langs))
    subset = []
    for lang in langs:
        cells: dict = {}
        for ex in test:
            if ex.language == lang:
                cells.setdefault(ex.label, []).append(ex)
        ordered = [sorted(cell, key=lambda ex: ex.id) for _, cell in sorted(cells.items())]
        picks = []
        rank = 0
        while len(picks) < per_lang and any(rank < len(c) for c in ordered):
            picks.extend(c[rank] for c in ordered if rank < len(c))
            rank += 1
        subset.extend(picks[:per_lang])
    return subset


def run_seed(config: ExperimentConfig, seed: int, seed_dir: Path) -> dict:
    """One full pipeline run; returns the per-seed summary record.

    The seed's manifest is written even when a stage fails: it lists what the seed wrote and the stages it finished.
    """
    seed_dir.mkdir(parents=True, exist_ok=True)
    config_hash = config.content_hash()
    manifest = Manifest(seed_dir, config_hash, seed)
    try:
        record = {"seed": seed}

        with manifest.stage("corpus", corpus="original"):
            vocab, pool, synthetic = _build_corpus(config, seed, seed_dir / "corpus", manifest)
        L, C = vocab.n_languages, vocab.n_classes
        vocab_hash = vocab.content_hash()
        joint = _check_corpus_shape(config, L, C)

        with manifest.stage("sample"):
            val, test = sampler_mod.split_eval(pool, config.val_size, config.test_size, seed=seed)
            eval_ids = {ex.id for ex in val} | {ex.id for ex in test}
            train_pool = [ex for ex in pool if ex.id not in eval_ids]
            balanced, imbalanced, overlap = sampler_mod.sample_paired(train_pool, joint, config.train_size, seed=seed)
            subsets_dir = seed_dir / "subsets"
            subsets_dir.mkdir(exist_ok=True)
            corpus_mod.save_jsonl(balanced, vocab, manifest.add(subsets_dir / "balanced.jsonl"))
            corpus_mod.save_jsonl(imbalanced, vocab, manifest.add(subsets_dir / "imbalanced.jsonl"))
            sampler_mod.write_plan_json(overlap, manifest.add(subsets_dir / "plan.json"))
        record["overlap"] = overlap.to_dict()

        # The three arms train in lockstep; imbalanced and imbalanced_cw share one subset.
        arm_data = {"balanced": balanced, "imbalanced": imbalanced, "imbalanced_cw": imbalanced}
        tconfigs = [
            training_mod.TrainConfig(**config.train, weighting="per_language" if arm == "imbalanced_cw" else "none",
                                     seed=derive_int(seed, "train", arm))
            for arm in ARMS
        ]
        with manifest.stage("train"):
            trained = training_mod.train_arms([arm_data[arm] for arm in ARMS], val, vocab, tconfigs)
        arm_params = {}
        record["arms"] = {}
        for arm, (params, report) in zip(ARMS, trained):
            arm_dir = seed_dir / "arms" / arm
            arm_dir.mkdir(parents=True, exist_ok=True)
            with manifest.stage("evaluate", arm=arm):
                model_mod.save(params, manifest.add(arm_dir / "checkpoint.pbl"), vocab_hash=vocab_hash,
                               manifest={"arm": arm, "seed": seed, "config_hash": config_hash})
                write_json(manifest.add(arm_dir / "train_report.json"), report.to_dict())

                metrics = training_mod.evaluate(params, test, n_languages=L, n_classes=C)
                write_json(manifest.add(arm_dir / "metrics.json"), metrics.to_dict())
                write_csv(manifest.add(arm_dir / "pred_dist.csv"), *training_mod.pred_dist_table(metrics, vocab))
            record["arms"][arm] = {
                "accuracy": metrics.overall_accuracy,
                "per_language_accuracy": metrics.per_language_accuracy,
                "pred_dist": metrics.pred_dist.tolist(),
                "selected_epoch": report.selected_epoch,
                "spearman_vs_imbalanced_joint": training_mod.prediction_skew_spearman(metrics, joint.probs),
                "masked_probs": model_mod.forward(params, [params.mask_id]).probs.tolist(),
                "masked_entropy": -training_mod.mask_entropy_loss(params),
            }
            arm_params[arm] = params

        # Language-identification probe on the task test split and on a fresh uniform corpus.
        probe_dir = seed_dir / "probe"
        probe_dir.mkdir(exist_ok=True)
        probe_corpora = {"original": test}
        if synthetic:
            with manifest.stage("corpus", corpus="holdout"):
                holdout_spec = SyntheticCorpus(**config.corpus, seed=derive_int(seed, "probe_holdout"))
                _, holdout = corpus_mod.generate_corpus(holdout_spec, config.probe["holdout_per_language"] // C)
            probe_corpora["holdout"] = holdout
        record["probe"] = {}
        for corpus_tag, dataset in probe_corpora.items():
            reports = {}
            for arm in ARMS:
                with manifest.stage("probe", arm=arm, corpus=corpus_tag):
                    reports[arm] = probe_mod.probe_model(
                        arm_params[arm], dataset, k=config.probe["k"],
                        seed=derive_int(seed, "probe", arm, corpus_tag), l2=config.probe["l2"],
                    )
            write_csv(manifest.add(probe_dir / f"{corpus_tag}.csv"), probe_mod.CSV_HEADER,
                      (row for arm in ARMS for row in reports[arm].csv_rows(arm, corpus_tag)))
            record["probe"][corpus_tag] = {arm: report.mean_accuracy for arm, report in reports.items()}

        # Attribution-difference reports against the balanced arm.
        shap_dir = seed_dir / "shapdiff"
        shap_dir.mkdir(exist_ok=True)
        engine = ExplainConfig(**config.explain, seed=derive_int(seed, "shapdiff"))
        shap_data = _shap_subset(test, engine.max_datapoints)
        record["shapdiff"] = {"n_datapoints": len(shap_data)}
        expl = {}
        for arm in ARMS:
            with manifest.stage("explain", arm=arm):
                expl[arm] = explain_mod.explain_arm(arm_params[arm], shap_data, engine,
                                                    target_labels=engine.target_labels)
        for other, tag in (("imbalanced", "bal_vs_imbal"), ("imbalanced_cw", "bal_vs_imbal_cw")):
            report = explain_mod.diff_report(shap_data, expl["balanced"], expl[other], engine,
                                             theta=engine.theta, tags=("bal", other))
            report.write_csv(manifest.add(shap_dir / f"{tag}.csv"))
            report.write_sidecar(manifest.add(shap_dir / f"{tag}.json"))
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
                for r in records for pair in ("bal_vs_imbal", "bal_vs_imbal_cw") if pair in r.get("shapdiff", {})
                for key, (mean, count) in sorted(r["shapdiff"][pair]["rows"].items())))


def run_experiment(config: ExperimentConfig, out_dir=None) -> dict:
    """Run every seed, aggregate, and write the summary files. Returns the summary dict."""
    root = Path(out_dir if out_dir is not None else config.out_dir)
    root.mkdir(parents=True, exist_ok=True)
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
            seed_dir.mkdir(parents=True, exist_ok=True)
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
