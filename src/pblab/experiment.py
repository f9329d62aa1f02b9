"""End-to-end experiment pipeline: config -> per-seed compositions of the stages (``stages``) -> summaries.

For every seed: build (or load) the corpus, carve balanced validation/test splits, draw the balanced/imbalanced
training pair, train the arms of ``ARMS`` (balanced, imbalanced, imbalanced + per-language class weights), then
probe language separability on two corpora, score accuracy on the probe's pass over the test split, and report the
cumulative attribution differences. Per-seed outputs get a directory each; ``aggregate`` takes means/stds over seeds.

Everything is a pure function of (config, seeds): two runs with the same config produce byte-identical CSVs.
"""

import copy
import hashlib
import json
import traceback
from dataclasses import MISSING, asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import explain as explain_mod
from . import model as model_mod
from . import probe as probe_mod
from . import sampler as sampler_mod
from . import training as training_mod
from .jsonio import is_number, write_csv, write_json
from .seeds import check_root_seed, derive_int
from .stages import (IngestedCorpus, Manifest, SyntheticCorpus, shap_subset, stage_corpus, stage_evaluate,
                     stage_explain, stage_probe, stage_sample, stage_train)

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
        explain_mod.check_target_labels(self.target_labels)


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
    float: (is_number, "a finite number"),
    str: (lambda v: type(v) is str, "a string"),
    dict: (lambda v: type(v) is dict, "an object"),
    list[int]: (lambda v: type(v) is list and all(type(x) is int for x in v), "a list of ints"),
    str | None: (lambda v: v is None or type(v) is str, "a string or null"),
}


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


@dataclass(kw_only=True)
class ExperimentConfig:
    name: str = "experiment"
    seeds: list[int]                     # one full pipeline run per seed
    corpus: dict                         # a SyntheticCorpus or an IngestedCorpus section
    joint: dict                          # one of sampler.JOINT_FORMS
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
            sampler_mod.joint_table(config.joint)
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
    joint = sampler_mod.joint_from_config(config.joint, L, C)
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
    schema["joint"] = sampler_mod.JOINT_FORMS
    return schema


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as f:
        return ExperimentConfig.from_dict(json.load(f))


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
