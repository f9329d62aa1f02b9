import json

import numpy as np
import pytest

from pblab.corpus import load_jsonl, load_vocab
from pblab.experiment import ExperimentConfig, run_experiment
from pblab.model import load as load_checkpoint
from pblab.sampler import preset, sample_paired


CORPUS = {"n_languages": 2, "n_classes": 3, "n_min": 3, "n_max": 7,
          "p_signal": 0.3, "p_noise": 0.1, "fillers_per_language": 12,
          "signals_per_language_class": 4, "n_examples_per_cell": 50}


def tiny_config(out_dir, seeds=(0,), **overrides):
    raw = {
        "name": "tiny",
        "seeds": list(seeds),
        "corpus": dict(CORPUS),
        "joint": {"preset": "xnli_skew"},
        "train_size": 120, "val_size": 30, "test_size": 60,
        "train": {"epochs": 2, "batch_size": 16, "lr": 0.1},
        "explain": {"target_labels": [0], "max_datapoints": 12, "exact_limit": 10,
                    "n_permutations": 100},
        "probe": {"k": 3, "holdout_per_language": 30},
        "out_dir": str(out_dir),
    }
    raw.update(overrides)
    return ExperimentConfig.from_dict(raw)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp")
    config = tiny_config(out)
    summary = run_experiment(config)
    return config, out, summary


def test_smoke_emits_expected_files(tiny_run):
    _, out, summary = tiny_run
    assert summary["failures"] == []
    seed_dir = out / "seed_0"
    checkpoints = list(seed_dir.glob("arms/*/checkpoint.pbl"))
    assert len(checkpoints) == 3
    assert sorted(p.name for p in (seed_dir / "probe").glob("*.csv")) == ["holdout.csv", "original.csv"]
    assert sorted(p.name for p in (seed_dir / "shapdiff").glob("*.csv")) == [
        "bal_vs_imbal.csv", "bal_vs_imbal_cw.csv"]
    assert (out / "summary.json").exists()
    for name in ("summary_accuracy.csv", "summary_probe.csv", "summary_pred_dist.csv",
                 "summary_shapdiff.csv"):
        assert (out / name).exists()


def test_manifest_lists_every_artifact(tiny_run):
    _, out, _ = tiny_run
    seed_dir = out / "seed_0"
    manifest = json.loads((seed_dir / "manifest.json").read_text())
    listed = set(manifest["artifacts"])
    on_disk = {str(p.relative_to(seed_dir)) for p in seed_dir.rglob("*")
               if p.is_file() and p.name != "manifest.json"}
    assert on_disk == listed


def test_manifest_times_every_stage(tiny_run):
    _, out, _ = tiny_run
    stages = json.loads((out / "seed_0" / "manifest.json").read_text())["stages"]
    assert all(set(s) == {"stage", "arm", "corpus", "seconds"} and s["seconds"] >= 0 for s in stages)
    arms = ["balanced", "imbalanced", "imbalanced_cw"]
    assert [(s["stage"], s["arm"], s["corpus"]) for s in stages] == (
        [("corpus", None, "original"), ("sample", None, None), ("train", None, None)]
        + [("evaluate", arm, None) for arm in arms]
        + [("corpus", None, "holdout")]
        + [("probe", arm, tag) for tag in ("original", "holdout") for arm in arms]
        + [("explain", arm, None) for arm in arms]
    )


def test_arms_train_on_sampled_ids(tiny_run):
    config, out, _ = tiny_run
    seed_dir = out / "seed_0"
    vocab = load_vocab(seed_dir / "corpus" / "vocab.json")
    _, pool = load_jsonl(seed_dir / "corpus" / "corpus.jsonl", vocab)
    _, bal_sub = load_jsonl(seed_dir / "subsets" / "balanced.jsonl", vocab)
    _, imb_sub = load_jsonl(seed_dir / "subsets" / "imbalanced.jsonl", vocab)

    plan = json.loads((seed_dir / "subsets" / "plan.json").read_text())
    overlap = plan["overlap"]
    shared = {e.id for e in bal_sub} & {e.id for e in imb_sub}
    assert len(shared) == overlap["overlap_achieved"] == overlap["overlap_max"]

    # re-derive the subsets: the pipeline must use exactly sample_paired's ids
    from pblab.sampler import split_eval

    val, test = split_eval(pool, config.val_size, config.test_size, seed=0)
    eval_ids = {e.id for e in val} | {e.id for e in test}
    train_pool = [e for e in pool if e.id not in eval_ids]
    bal2, imb2, _ = sample_paired(train_pool, preset("xnli_skew", 2, 3), config.train_size, seed=0)
    assert {e.id for e in bal_sub} == {e.id for e in bal2}
    assert {e.id for e in imb_sub} == {e.id for e in imb2}


def test_csv_values_parse_as_numbers(tiny_run):
    """Every value cell in every emitted CSV must be plain-text numeric."""
    import csv

    _, out, _ = tiny_run
    for path in sorted(out.rglob("*.csv")):
        with path.open(newline="") as f:
            rows = list(csv.reader(f))
        for row in rows[1:]:
            for cell in row:
                try:
                    float(cell)
                except ValueError:
                    assert cell.replace("_", "").isalnum() or ":" in cell, (path, cell)


def test_checkpoints_carry_vocab_hash(tiny_run):
    _, out, _ = tiny_run
    seed_dir = out / "seed_0"
    vocab = load_vocab(seed_dir / "corpus" / "vocab.json")
    params, header = load_checkpoint(seed_dir / "arms" / "balanced" / "checkpoint.pbl", vocab)
    assert header["vocab_hash"] == vocab.content_hash()
    assert header["manifest"]["arm"] == "balanced"


def test_summary_aggregation_is_arithmetic_mean(tmp_path):
    config = tiny_config(tmp_path / "agg", seeds=(0, 1))
    summary = run_experiment(config)
    per_seed = [r["arms"]["balanced"]["accuracy"] for r in summary["per_seed"]]
    agg = summary["aggregate"]["accuracy"]["balanced"]
    assert agg["mean"] == pytest.approx(float(np.mean(per_seed)), abs=1e-15)
    assert agg["values"] == per_seed


def test_failing_seed_recorded_others_proceed(tmp_path):
    # train_size too large for the pool: every seed fails the same way,
    # so use one bad config value and check the failure record.
    config = tiny_config(tmp_path / "fail", seeds=(0,), train_size=6000)
    summary = run_experiment(config)
    assert len(summary["failures"]) == 1
    assert summary["failures"][0]["seed"] == 0
    assert "need" in summary["failures"][0]["error"]
    assert summary["per_seed"] == []
    error = json.loads((tmp_path / "fail" / "seed_0" / "error.json").read_text())
    assert error["type"] == "ValueError" and "need" in error["message"]
    assert "in sample_paired" in error["traceback"]
    manifest = json.loads((tmp_path / "fail" / "manifest.json").read_text())
    assert "seed_0/error.json" in manifest["artifacts"]
    seed_manifest = json.loads((tmp_path / "fail" / "seed_0" / "manifest.json").read_text())
    assert "corpus/corpus.jsonl" in seed_manifest["artifacts"]
    assert [s["stage"] for s in seed_manifest["stages"]] == ["corpus"]


def test_pool_missing_a_vocabulary_language_fails_in_sample_paired(tmp_path):
    """split_eval infers L x C from the pool, so a pool without the vocabulary's last language
    splits; the seed still fails, in sample_paired, naming the missing language."""
    from pblab.corpus import CorpusSpec, generate_corpus, save_jsonl, save_vocab

    spec = CorpusSpec(n_languages=3, n_classes=2, n_min=3, n_max=7, p_signal=0.3, seed=4)
    vocab, examples = generate_corpus(spec, 40)
    save_vocab(vocab, tmp_path / "vocab.json")
    save_jsonl([ex for ex in examples if ex.language < 2], vocab, tmp_path / "data.jsonl")
    config = tiny_config(tmp_path / "out", corpus={"path": str(tmp_path / "data.jsonl"),
                                                   "vocab_path": str(tmp_path / "vocab.json")},
                         joint={"preset": "uniform"}, val_size=12, test_size=12)
    summary = run_experiment(config)
    assert [f["seed"] for f in summary["failures"]] == [0]
    error = json.loads((tmp_path / "out" / "seed_0" / "error.json").read_text())
    assert error["type"] == "ValueError" and "language=2" in error["message"]
    assert "in sample_paired" in error["traceback"]


def test_config_validation_errors(tmp_path):
    with pytest.raises(ValueError, match="seeds"):
        tiny_config(tmp_path, seeds=())
    with pytest.raises(ValueError, match="unknown keys"):
        tiny_config(tmp_path, train={"epochs": 1, "nope": 2})
    with pytest.raises(ValueError, match="missing required key"):
        ExperimentConfig.from_dict({"seeds": [0]})


@pytest.mark.parametrize("raw", [
    [1, 2],
    {"seeds": 5},
    {"seeds": [0.5]},
    {"train": 5},
    {"explain": [1]},
    {"probe": "k=3"},
    {"corpus": 3},
    {"joint": ["uniform"]},
    {"train_size": [120]},
    {"train": {"epochs": "a"}},
    {"train": {"batch_size": True}},
    {"probe": {"l2": "x"}},
    {"explain": {"target_labels": 0}},
    {"probe": {"max_iters": 1000}},
    {"corpus": {**CORPUS, "n_languages": "a"}},
    {"corpus": {k: v for k, v in CORPUS.items() if k != "n_languages"}},
    {"corpus": {**CORPUS, "typo_fillers": 3}},
    {"corpus": {**CORPUS, "p_signal": 2.0}},
    {"joint": {"probs": "abc"}},
    {"joint": {}},
    {"joint": {"preset": "nope"}},
    {"train": {"epochs": -1}},
    {"explain": {"theta": -1}},
    {"probe": {"k": 0}},
    {"seeds": [0, 0]},
    {"explain": {"target_labels": [0, 0]}},
    {"explain": {"target_labels": [3]}},
    {"val_size": 31},
    {"train": {"val_every": 1}},
    {"explain": {"exact_limit": 17}},
], ids=["top-level list", "seeds int", "seeds float", "train int", "explain list", "probe str",
        "corpus int", "joint list", "train_size list", "train.epochs str", "train.batch_size bool",
        "probe.l2 str", "explain.target_labels int", "probe.max_iters unknown",
        "corpus.n_languages str", "corpus.n_languages missing", "corpus typo key", "corpus.p_signal 2",
        "joint.probs str", "joint empty", "joint.preset unknown", "train.epochs negative",
        "explain.theta negative", "probe.k 0", "seeds repeated", "explain.target_labels repeated",
        "explain.target_labels >= n_classes", "val_size not divisible by L*C", "train.val_every unknown",
        "explain.exact_limit 17"])
def test_config_malformed_values_rejected(tmp_path, raw):
    """A malformed config value is a ValueError naming it at load, never a TypeError or a failed seed."""
    if isinstance(raw, dict):
        base = tiny_config(tmp_path).to_dict()
        base.update(raw)
        raw = base
    with pytest.raises(ValueError, match="config|seeds|train_size"):
        ExperimentConfig.from_dict(raw)


def test_each_arm_explained_once(tmp_path, monkeypatch):
    """run_seed makes 3 arms x datapoints x labels engine calls: the balanced arm is not re-explained."""
    from pblab import explain

    calls = []

    def counted(engine_fn):
        def wrapper(params, *args, **kwargs):
            calls.append(params)
            return engine_fn(params, *args, **kwargs)
        return wrapper

    for name in ("shapley_exact", "shapley_sampled"):
        monkeypatch.setattr(explain, name, counted(getattr(explain, name)))
    config = tiny_config(tmp_path / "once", explain={"target_labels": [0, 2], "max_datapoints": 6,
                                                     "exact_limit": 5, "n_permutations": 20})
    summary = run_experiment(config)
    assert summary["failures"] == []
    n_datapoints = summary["per_seed"][0]["shapdiff"]["n_datapoints"]
    assert len(calls) == 3 * n_datapoints * 2
    assert len({id(params) for params in calls}) == 3


def test_long_datapoints_explained_by_sampled_engine(tmp_path):
    config = tiny_config(tmp_path / "long", explain={"target_labels": [0], "max_datapoints": 12,
                                                     "exact_limit": 5, "n_permutations": 50})
    summary = run_experiment(config)
    assert summary["failures"] == []
    seed_dir = tmp_path / "long" / "seed_0"
    vocab = load_vocab(seed_dir / "corpus" / "vocab.json")
    _, pool = load_jsonl(seed_dir / "corpus" / "corpus.jsonl", vocab)
    from pblab.experiment import _shap_subset
    from pblab.sampler import split_eval

    _, test = split_eval(pool, config.val_size, config.test_size, seed=0)
    explained = _shap_subset(test, 12)
    assert max(len(ex.tokens) for ex in explained) > 5
    n_pairs = summary["per_seed"][0]["shapdiff"]["n_datapoints"]
    for tag in ("bal_vs_imbal", "bal_vs_imbal_cw"):
        sidecar = json.loads((seed_dir / "shapdiff" / f"{tag}.json").read_text())
        counts = sidecar["explanations"]
        assert counts["exact"] > 0 and counts["sampled"] > 0
        assert counts["exact"] + counts["sampled"] == n_pairs
        assert counts["sampled"] == sum(len(ex.tokens) > 5 for ex in explained)


def test_config_hash_ignores_out_dir(tmp_path):
    c1 = tiny_config(tmp_path / "a")
    c2 = tiny_config(tmp_path / "b")
    assert c1.content_hash() == c2.content_hash()
    c3 = tiny_config(tmp_path / "a", train_size=126)
    assert c1.content_hash() != c3.content_hash()
