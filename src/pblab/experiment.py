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
import csv
import hashlib
import json
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import explain as explain_mod
from . import model as model_mod
from . import probe as probe_mod
from . import sampler as sampler_mod
from . import training as training_mod
from .jsonio import write_json
from .seeds import derive_int

ARMS = ("balanced", "imbalanced", "imbalanced_cw")

CONFIG_SCHEMA = {
    "name": "string, experiment label",
    "seeds": "non-empty list of ints; one full pipeline run per seed",
    "corpus": {
        "synthetic": {
            "n_languages": "int >= 2",
            "n_classes": "int >= 2",
            "n_min": "int >= 1, shortest example",
            "n_max": "int >= n_min, longest example",
            "p_signal": "float in (0, 1], chance a token signals the true label",
            "p_noise": "float in [0, 1), chance a token signals a wrong label",
            "fillers_per_language": "int, uninformative tokens per language",
            "signals_per_language_class": "int, informative tokens per (language, label)",
            "n_examples_per_cell": "int, pool size per (language, label) cell",
        },
        "ingested (alternative)": {"path": "JSONL dataset", "vocab_path": "vocabulary sidecar JSON"},
    },
    "joint": "{'preset': 'uniform'|'amazon_skew'|'xnli_skew'} or {'probs': LxC table}",
    "train_size": "int, size of each training subset (balanced and imbalanced)",
    "val_size": "int, balanced validation split size (divisible by L*C)",
    "test_size": "int, balanced test split size (divisible by L*C)",
    "train": {
        "epochs": "int", "batch_size": "int", "lr": "float, decays linearly to 0",
        "mask_entropy_coeff": "float >= 0, weight of the masked-input entropy loss",
        "embed_dim": "int", "hidden_dim": "int", "val_every": "int",
    },
    "explain": {
        "theta": "float > 0, neutral-band threshold",
        "target_labels": "list of label ids explained for every datapoint",
        "max_datapoints": "int, per-seed cap on explained test datapoints (of any length)",
        "exact_limit": "int, inputs up to this many tokens get exact Shapley values, longer ones sampled",
        "n_permutations": "int, permutations the sampled engine draws per input longer than exact_limit",
    },
    "probe": {
        "k": "int, folds", "l2": "float",
        "holdout_per_language": "int, size of the fresh uniform probe corpus (synthetic only)",
    },
    "out_dir": "output root directory",
}

DEFAULTS = {
    "name": "experiment",
    "train": {
        "epochs": 20, "batch_size": 32, "lr": 0.1, "mask_entropy_coeff": 0.0,
        "embed_dim": 32, "hidden_dim": 32, "val_every": 1,
    },
    "explain": {
        "theta": 0.01, "target_labels": [0], "max_datapoints": 120,
        "exact_limit": 12, "n_permutations": 2000,
    },
    "probe": {"k": 5, "l2": 1.0, "holdout_per_language": 500},
}


@dataclass
class ExperimentConfig:
    name: str
    seeds: list
    corpus: dict
    joint: dict
    train_size: int
    val_size: int
    test_size: int
    train: dict
    explain: dict
    probe: dict
    out_dir: str

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        raw = copy.deepcopy(raw)
        for key in ("seeds", "corpus", "joint", "train_size", "val_size", "test_size", "out_dir"):
            if key not in raw:
                raise ValueError(f"config missing required key {key!r}")
        seeds = raw["seeds"]
        if not isinstance(seeds, list) or not seeds or not all(type(s) is int for s in seeds):
            raise ValueError("seeds must be a non-empty list of ints")
        for key in ("train_size", "val_size", "test_size"):
            if type(raw[key]) is not int:
                raise ValueError(f"{key!r} must be an int")
        for section in ("corpus", "joint", "train", "explain", "probe"):
            if not isinstance(raw.get(section, {}), dict):
                raise ValueError(f"config section {section!r} must be an object")
        merged = {}
        for section, defaults in DEFAULTS.items():
            if isinstance(defaults, dict):
                value = dict(defaults)
                value.update(raw.get(section, {}))
                unknown = set(value) - set(defaults)
                if unknown:
                    raise ValueError(f"unknown keys in config section {section!r}: {sorted(unknown)}")
                for key, default in defaults.items():
                    _check_value(f"{section}.{key}", value[key], default)
                merged[section] = value
            else:
                merged[section] = raw.get(section, defaults)
        return cls(
            name=merged["name"],
            seeds=seeds,
            corpus=raw["corpus"],
            joint=raw["joint"],
            train_size=raw["train_size"],
            val_size=raw["val_size"],
            test_size=raw["test_size"],
            train=merged["train"],
            explain=merged["explain"],
            probe=merged["probe"],
            out_dir=str(raw["out_dir"]),
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name, "seeds": self.seeds, "corpus": self.corpus, "joint": self.joint,
            "train_size": self.train_size, "val_size": self.val_size, "test_size": self.test_size,
            "train": self.train, "explain": self.explain, "probe": self.probe, "out_dir": self.out_dir,
        }

    def content_hash(self) -> str:
        d = self.to_dict()
        d.pop("out_dir")  # location does not change the experiment
        return hashlib.sha256(json.dumps(d, sort_keys=True).encode("utf-8")).hexdigest()


def _check_value(name: str, value, default) -> None:
    """A section value must have its default's type: an int, a number, or a list of ints."""
    if isinstance(default, list):
        ok, kind = isinstance(value, list) and all(type(v) is int for v in value), "a list of ints"
    elif isinstance(default, float):
        ok, kind = type(value) in (int, float), "a number"
    else:
        ok, kind = type(value) is int, "an int"
    if not ok:
        raise ValueError(f"config value {name} must be {kind}, got {value!r}")


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


def joint_from_config(joint_cfg: dict, L: int, C: int) -> sampler_mod.JointSpec:
    if "preset" in joint_cfg:
        return sampler_mod.preset(joint_cfg["preset"], L, C)
    if "probs" in joint_cfg:
        spec = sampler_mod.JointSpec(
            probs=np.asarray(joint_cfg["probs"], dtype=float),
            uniform_marginals=joint_cfg.get("uniform_marginals", True),
        )
        spec.validate()
        if spec.probs.shape != (L, C):
            raise ValueError(f"joint table shape {spec.probs.shape} does not match corpus ({L}, {C})")
        return spec
    raise ValueError("joint config needs 'preset' or 'probs'")


def corpus_spec_from_config(corpus_cfg: dict, seed: int) -> corpus_mod.CorpusSpec:
    return corpus_mod.CorpusSpec(
        n_languages=int(corpus_cfg["n_languages"]),
        n_classes=int(corpus_cfg["n_classes"]),
        n_min=int(corpus_cfg["n_min"]),
        n_max=int(corpus_cfg["n_max"]),
        p_signal=float(corpus_cfg["p_signal"]),
        p_noise=float(corpus_cfg.get("p_noise", 0.0)),
        fillers_per_language=int(corpus_cfg.get("fillers_per_language", 20)),
        signals_per_language_class=int(corpus_cfg.get("signals_per_language_class", 5)),
        seed=seed,
    )


def _build_corpus(config: ExperimentConfig, seed: int, out: Path, manifest: Manifest):
    """Returns (vocab, examples, synthetic_flag)."""
    ccfg = config.corpus
    out.mkdir(parents=True, exist_ok=True)
    if "path" in ccfg:
        vocab = corpus_mod.load_vocab(ccfg["vocab_path"]) if "vocab_path" in ccfg else None
        vocab, examples = corpus_mod.load_jsonl(ccfg["path"], vocab)
        return vocab, examples, False
    spec = corpus_spec_from_config(ccfg, seed)
    vocab, examples = corpus_mod.generate_corpus(spec, int(ccfg["n_examples_per_cell"]))
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
    """One full pipeline run; returns the per-seed summary record."""
    seed_dir.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(seed_dir, config.content_hash(), seed)
    record = {"seed": seed}

    with manifest.stage("corpus", corpus="original"):
        vocab, pool, synthetic = _build_corpus(config, seed, seed_dir / "corpus", manifest)
    L, C = vocab.n_languages, vocab.n_classes
    joint = joint_from_config(config.joint, L, C)

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
            model_mod.save(
                params, manifest.add(arm_dir / "checkpoint.pbl"), vocab_hash=vocab.content_hash(),
                manifest={"arm": arm, "seed": seed, "config_hash": config.content_hash()},
            )
            write_json(manifest.add(arm_dir / "train_report.json"), report.to_dict())

            metrics = training_mod.evaluate(params, test, n_languages=L, n_classes=C)
            write_json(manifest.add(arm_dir / "metrics.json"), metrics.to_dict())
            training_mod.write_pred_dist_csv(
                metrics, manifest.add(arm_dir / "pred_dist.csv"), vocab.lang_names, vocab.label_names
            )
            masked = model_mod.forward(params, [params.mask_id]).probs
        record["arms"][arm] = {
            "accuracy": metrics.overall_accuracy,
            "per_language_accuracy": metrics.per_language_accuracy,
            "pred_dist": metrics.pred_dist.tolist(),
            "selected_epoch": report.selected_epoch,
            "spearman_vs_imbalanced_joint": training_mod.prediction_skew_spearman(metrics, joint.probs),
            "masked_probs": masked.tolist(),
            "masked_entropy": float(-np.sum(masked * np.log(np.maximum(masked, 1e-12)))),
        }
        arm_params[arm] = params

    # Language-identification probe on the task test split and on a fresh uniform corpus.
    probe_dir = seed_dir / "probe"
    probe_dir.mkdir(exist_ok=True)
    probe_corpora = {"original": test}
    if synthetic:
        with manifest.stage("corpus", corpus="holdout"):
            holdout_spec = corpus_spec_from_config(config.corpus, derive_int(seed, "probe_holdout"))
            per_cell = int(config.probe["holdout_per_language"]) // C
            if per_cell < 1:
                raise ValueError("holdout_per_language must be at least n_classes")
            _, holdout = corpus_mod.generate_corpus(holdout_spec, per_cell)
        probe_corpora["holdout"] = holdout
    record["probe"] = {}
    for corpus_tag, dataset in probe_corpora.items():
        path = manifest.add(probe_dir / f"{corpus_tag}.csv")
        header = True
        record["probe"][corpus_tag] = {}
        for arm in ARMS:
            with manifest.stage("probe", arm=arm, corpus=corpus_tag):
                report = probe_mod.probe_model(
                    arm_params[arm], dataset, k=int(config.probe["k"]),
                    seed=derive_int(seed, "probe", arm, corpus_tag), l2=float(config.probe["l2"]),
                )
            probe_mod.append_probe_csv(path, arm, corpus_tag, report, header=header)
            header = False
            record["probe"][corpus_tag][arm] = report.mean_accuracy

    # Attribution-difference reports against the balanced arm.
    shap_dir = seed_dir / "shapdiff"
    shap_dir.mkdir(exist_ok=True)
    engine = explain_mod.EngineConfig(
        exact_limit=int(config.explain["exact_limit"]),
        n_permutations=int(config.explain["n_permutations"]),
        seed=derive_int(seed, "shapdiff"),
    )
    shap_data = _shap_subset(test, int(config.explain["max_datapoints"]))
    record["shapdiff"] = {"n_datapoints": len(shap_data)}
    labels = [int(t) for t in config.explain["target_labels"]]
    expl = {}
    for arm in ARMS:
        with manifest.stage("explain", arm=arm):
            expl[arm] = explain_mod.explain_arm(arm_params[arm], shap_data, engine, target_labels=labels,
                                                model_tag=arm)
    for other, tag in (("imbalanced", "bal_vs_imbal"), ("imbalanced_cw", "bal_vs_imbal_cw")):
        report = explain_mod.diff_report(shap_data, expl["balanced"], expl[other], engine,
                                         theta=float(config.explain["theta"]), model_tags=("bal", other))
        report.write_csv(manifest.add(shap_dir / f"{tag}.csv"))
        report.write_sidecar(manifest.add(shap_dir / f"{tag}.json"))
        record["shapdiff"][tag] = {
            "rows": {f"{lang}/{label}/{cat}": [mean, count]
                     for (lang, label, cat), (mean, count) in sorted(report.rows.items())},
            "base_values": {str(k): v for k, v in report.base_values.items()},
            "split_fractions": report.split_fractions,
        }

    manifest.write()
    return record


def aggregate(records: list) -> dict:
    """Means and standard deviations across seeds for the headline numbers."""
    out = {"n_seeds": len(records)}
    if not records:
        return out

    def stats(values):
        arr = np.asarray(values, dtype=float)
        return {"mean": float(arr.mean()), "std": float(arr.std(ddof=0)), "values": arr.tolist()}

    out["accuracy"] = {
        arm: stats([r["arms"][arm]["accuracy"] for r in records]) for arm in ARMS
    }
    out["spearman_vs_imbalanced_joint"] = {
        arm: stats([r["arms"][arm]["spearman_vs_imbalanced_joint"] for r in records]) for arm in ARMS
    }
    out["masked_entropy"] = {
        arm: stats([r["arms"][arm]["masked_entropy"] for r in records]) for arm in ARMS
    }
    corpora = sorted({tag for r in records for tag in r["probe"]})
    out["probe"] = {
        tag: {arm: stats([r["probe"][tag][arm] for r in records]) for arm in ARMS}
        for tag in corpora
    }
    return out


def write_summary_csvs(records: list, out_dir: Path, manifest: Manifest) -> None:
    with open(manifest.add(out_dir / "summary_accuracy.csv"), "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["seed", "arm", "accuracy", "spearman_vs_imbalanced_joint", "masked_entropy"])
        for r in records:
            for arm in ARMS:
                a = r["arms"][arm]
                w.writerow([r["seed"], arm, repr(a["accuracy"]),
                            repr(a["spearman_vs_imbalanced_joint"]), repr(a["masked_entropy"])])

    with open(manifest.add(out_dir / "summary_probe.csv"), "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["seed", "corpus", "arm", "mean_accuracy"])
        for r in records:
            for tag in sorted(r["probe"]):
                for arm in ARMS:
                    w.writerow([r["seed"], tag, arm, repr(r["probe"][tag][arm])])

    with open(manifest.add(out_dir / "summary_pred_dist.csv"), "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["seed", "arm", "language", "label", "fraction"])
        for r in records:
            for arm in ARMS:
                dist = r["arms"][arm]["pred_dist"]
                for lang, row in enumerate(dist):
                    for label, frac in enumerate(row):
                        w.writerow([r["seed"], arm, lang, label, repr(frac)])

    with open(manifest.add(out_dir / "summary_shapdiff.csv"), "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f)
        w.writerow(["seed", "pair", "language", "label", "category", "mean_cum_diff", "n_datapoints"])
        for r in records:
            for pair in ("bal_vs_imbal", "bal_vs_imbal_cw"):
                if pair not in r.get("shapdiff", {}):
                    continue
                for key, (mean, count) in sorted(r["shapdiff"][pair]["rows"].items()):
                    lang, label, cat = key.split("/")
                    w.writerow([r["seed"], pair, lang, label, cat, repr(mean), count])


def run_experiment(config: ExperimentConfig, out_dir=None) -> dict:
    """Run every seed, aggregate, and write the summary files. Returns the summary dict."""
    root = Path(out_dir if out_dir is not None else config.out_dir)
    root.mkdir(parents=True, exist_ok=True)
    manifest = Manifest(root, config.content_hash())
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
        "config_hash": config.content_hash(),
        "per_seed": records,
        "failures": failures,
        "aggregate": aggregate(records),
    }
    write_json(manifest.add(root / "summary.json"), summary)
    write_summary_csvs(records, root, manifest)
    manifest.write()
    return summary
