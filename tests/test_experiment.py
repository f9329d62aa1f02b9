import json

import numpy as np
import pytest

from pblab.cli import main
from pblab.corpus import Example, load_jsonl, load_vocab
from pblab.experiment import ARMS, WEIGHT_FIELDS, ExperimentConfig, run_experiment
from pblab.model import load as load_checkpoint
from pblab.sampler import preset, sample_paired
from pblab.seeds import derive_int
from pblab.stages import shap_subset


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
    assert all(set(s) == {"stage", "arm", "corpus", "seconds", "cpu_seconds"}
               and s["seconds"] >= 0 and s["cpu_seconds"] >= 0 for s in stages)
    arms = ["balanced", "imbalanced", "imbalanced_cw"]
    assert [(s["stage"], s["arm"], s["corpus"]) for s in stages] == (
        [("corpus", None, "original"), ("sample", None, None), ("train", None, None)]
        + [("corpus", None, "holdout")]
        + [("probe", arm, tag) for tag in ("original", "holdout") for arm in arms]
        + [("evaluate", arm, None) for arm in arms]
        + [("explain", arm, None) for arm in arms]
    )


def test_arms_train_on_sampled_ids(tiny_run):
    config, out, summary = tiny_run
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
    bal2, imb2, overlap2 = sample_paired(train_pool, preset("xnli_skew", 2, 3), config.train_size, seed=0)
    assert {e.id for e in bal_sub} == {e.id for e in bal2}
    assert {e.id for e in imb_sub} == {e.id for e in imb2}
    # One overlap dict: sample_paired's, plan.json's and the seed record's.
    assert overlap2 == overlap == summary["per_seed"][0]["overlap"]
    assert set(overlap2) == {"counts_balanced", "counts_imbalanced", "n", "seed", "overlap_max", "overlap_achieved"}


def test_shapdiff_sidecar_keys(tiny_run):
    _, out, _ = tiny_run
    sidecars = sorted((out / "seed_0" / "shapdiff").glob("*.json"))
    assert [p.name for p in sidecars] == ["bal_vs_imbal.json", "bal_vs_imbal_cw.json"]
    for path in sidecars:
        assert set(json.loads(path.read_text())) == {"base_values", "engine", "explanations", "max_stderr",
                                                     "split_fractions", "theta"}, path.name


def test_cli_and_experiment_share_the_stages(tiny_run, tmp_path, capsys):
    """`pblab train` and `pblab eval` on the seed's own subsets and splits write the arms' artifacts byte for byte
    (a checkpoint's header apart, which names the arm in the experiment and the weighting in the CLI)."""
    from pblab.corpus import save_jsonl
    from pblab.sampler import split_eval

    config, out, _ = tiny_run
    seed_dir = out / "seed_0"
    vocab_path = seed_dir / "corpus" / "vocab.json"
    vocab, pool = load_jsonl(seed_dir / "corpus" / "corpus.jsonl", load_vocab(vocab_path))
    for name, split in zip(("val", "test"), split_eval(pool, config.val_size, config.test_size, seed=0)):
        save_jsonl(split, vocab, tmp_path / f"{name}.jsonl")
    train_flags = [flag for key, value in config.train.items() for flag in ("--" + key.replace("_", "-"), str(value))]
    for arm in ("balanced", "imbalanced", "imbalanced_cw"):
        subset = seed_dir / "subsets" / ("balanced.jsonl" if arm == "balanced" else "imbalanced.jsonl")
        weighting = ["--weighting", "per_language"] if arm == "imbalanced_cw" else []
        assert main(["train", "--data", str(subset), "--val", str(tmp_path / "val.jsonl"), "--vocab", str(vocab_path),
                     *train_flags, *weighting, "--seed", str(derive_int(0, "train", arm)),
                     "--out", str(tmp_path / arm / "train")]) == 0
        assert main(["eval", "--checkpoint", str(tmp_path / arm / "train" / "checkpoint.pbl"),
                     "--data", str(tmp_path / "test.jsonl"), "--vocab", str(vocab_path),
                     "--out", str(tmp_path / arm / "eval")]) == 0
        arm_dir = seed_dir / "arms" / arm
        payload = [(d / "checkpoint.pbl").read_bytes().split(b"\n", 1)[1] for d in (arm_dir, tmp_path / arm / "train")]
        assert payload[0] == payload[1]
        for step, name in (("train", "train_report.json"), ("eval", "metrics.json"), ("eval", "pred_dist.csv")):
            assert (tmp_path / arm / step / name).read_bytes() == (arm_dir / name).read_bytes(), (arm, name)


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


def test_max_datapoints_below_n_languages_fails_ingested_seed(tmp_path):
    """An ingested corpus's languages are known only once it is read: the cap is checked per seed."""
    from pblab.corpus import CorpusSpec, generate_corpus, save_jsonl, save_vocab

    vocab, examples = generate_corpus(CorpusSpec(n_languages=3, n_classes=2, n_min=3, n_max=7, p_signal=0.3), 40)
    save_vocab(vocab, tmp_path / "vocab.json")
    save_jsonl(examples, vocab, tmp_path / "data.jsonl")
    config = tiny_config(tmp_path / "out", corpus={"path": str(tmp_path / "data.jsonl"),
                                                   "vocab_path": str(tmp_path / "vocab.json")},
                         joint={"preset": "uniform"}, val_size=12, test_size=12,
                         explain={"target_labels": [0], "max_datapoints": 2})
    summary = run_experiment(config)
    assert [f["seed"] for f in summary["failures"]] == [0]
    assert "'explain.max_datapoints' must be at least n_languages=3" in summary["failures"][0]["error"]


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
    {"explain": {"max_datapoints": 1}},
    {"joint": {"probs": [[1 / 4, 1 / 6, 1 / 12], [1 / 12, 1 / 6, 1 / 4]], "uniform_marginals": True}},
    {"train_size": 7},
    {"train_size": 6},
    {"seeds": [0, 2**64]},
    {"seeds": [-1]},
], ids=["top-level list", "seeds int", "seeds float", "train int", "explain list", "probe str",
        "corpus int", "joint list", "train_size list", "train.epochs str", "train.batch_size bool",
        "probe.l2 str", "explain.target_labels int", "probe.max_iters unknown",
        "corpus.n_languages str", "corpus.n_languages missing", "corpus typo key", "corpus.p_signal 2",
        "joint.probs str", "joint empty", "joint.preset unknown", "train.epochs negative",
        "explain.theta negative", "probe.k 0", "seeds repeated", "explain.target_labels repeated",
        "explain.target_labels >= n_classes", "val_size not divisible by L*C", "train.val_every unknown",
        "explain.exact_limit 17", "explain.max_datapoints below n_languages", "joint uniform_marginals",
        "train_size not divisible by L", "train_size leaves an xnli_skew cell empty", "seeds 2**64", "seeds -1"])
def test_config_malformed_values_rejected(tmp_path, raw):
    """A malformed config value is a ValueError naming it at load, never a TypeError or a failed seed."""
    if isinstance(raw, dict):
        base = tiny_config(tmp_path).to_dict()
        base.update(raw)
        raw = base
    with pytest.raises(ValueError, match="config|seeds|train_size"):
        ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("raw, message", [
    ({"corpus": {**CORPUS, "n_min": 8}}, "config section 'corpus': need 1 <= n_min <= n_max"),
    ({"corpus": {**CORPUS, "p_noise": 1.0}}, "config section 'corpus': p_noise must be in [0, 1)"),
    ({"corpus": {**CORPUS, "p_noise": -0.1}}, "config section 'corpus': p_noise must be in [0, 1)"),
    ({"corpus": {**CORPUS, "n_examples_per_cell": 0}}, "config section 'corpus': n_examples_per_cell must be >= 1"),
    ({"corpus": {"path": ""}}, "config section 'corpus': path must not be empty"),
    ({"joint": {"probs": [[1 / 9] * 3] * 3}}, "config section 'joint': table shape (3, 3) does not match corpus (2, 3)"),
    ({"probe": {"holdout_per_language": 2}},
     "config value 'probe.holdout_per_language' must be at least n_classes=3"),
    ({"val_size": 0}, "config: train_size, val_size and test_size must be >= 1"),
], ids=["corpus.n_min above n_max", "corpus.p_noise 1", "corpus.p_noise negative", "corpus.n_examples_per_cell 0",
        "corpus.path empty", "joint.probs 3x3 for a 2x3 corpus", "probe.holdout_per_language below n_classes",
        "val_size 0"])
def test_config_contract_errors_name_their_key(tmp_path, raw, message):
    """Each section's own contract is a ValueError at load whose message names the key it breaks."""
    base = tiny_config(tmp_path).to_dict()
    base.update(raw)
    with pytest.raises(ValueError) as exc:
        ExperimentConfig.from_dict(base)
    assert str(exc.value) == message


def test_unweightable_plan_names_its_arm(tmp_path):
    """train_size 6 leaves a cell of the xnli_skew plan empty, which only the per-language weighting refuses."""
    with pytest.raises(ValueError, match="'train_size'=6, arm 'imbalanced_cw' \\('per_language'\\)"):
        tiny_config(tmp_path, train_size=6)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_every_stream_refuses_a_root_seed_outside_64_bits(seed):
    """Masked to 64 bits, seeds 2**64 apart would draw the same streams and run the same experiment."""
    with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*64\)"):
        derive_int(seed, "train", "balanced")
    assert derive_int(2**64 - 1, "train", "balanced") != derive_int(0, "train", "balanced")


@pytest.mark.parametrize("seed", [1.5, True, "7"], ids=["float", "bool", "str"])
def test_every_stream_refuses_a_root_seed_that_is_not_an_integer(seed):
    """Read through int(), 1.5 and True would draw seed 1's streams and "7" seed 7's."""
    with pytest.raises(ValueError, match="must be an integer"):
        derive_int(seed, "a")
    assert derive_int(np.uint64(7), "a") == derive_int(np.int8(7), "a") == derive_int(7, "a")


def test_cli_experiment_runs_a_config(tmp_path, capsys):
    """`pblab experiment --config` exits 0, prints one accuracy line per arm and writes summary.json under --out."""
    config_path, out = tmp_path / "config.json", tmp_path / "out"
    config_path.write_text(json.dumps(tiny_config(tmp_path / "config_out").to_dict()))
    assert main(["experiment", "--config", str(config_path), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": accuracy ")[0] for line in lines] == list(ARMS)
    assert json.loads((out / "summary.json").read_text())["failures"] == []
    assert not (tmp_path / "config_out").exists()


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


def test_one_forward_pass_per_model_and_dataset(tmp_path, monkeypatch):
    """A seed passes each arm over the validation split, the test split and the holdout once: evaluate scores
    the probe stage's pass over the test split instead of making its own."""
    from pblab import experiment, model, probe, training

    real, calls = model.forward_examples, []

    def counted(params, examples):
        calls.append((id(params), id(examples)))
        return real(params, examples)

    for module in (model, training, probe, experiment):
        for name, value in list(vars(module).items()):
            if value is real:
                monkeypatch.setattr(module, name, counted)
    assert run_experiment(tiny_config(tmp_path / "passes"))["failures"] == []
    assert len(calls) == 9 and len(set(calls)) == 9


def test_probe_holdout_is_exactly_holdout_per_language(tmp_path, monkeypatch):
    """500 over 3 labels is not floored to 498: the last label cell keeps 166 examples, the others 167,
    each its own cell's first examples."""
    from pblab import model

    datasets = []

    def recorded(params, dataset):
        datasets.append(dataset)
        return real(params, dataset)

    real = model.forward_examples  # run_seed's probe passes; training's validation pass has its own binding
    monkeypatch.setattr(model, "forward_examples", recorded)
    config = tiny_config(tmp_path / "holdout", probe={"k": 3, "holdout_per_language": 500})
    assert run_experiment(config)["failures"] == []
    holdout = datasets[3]  # original corpus for the three arms, then the holdout
    assert all(dataset is holdout for dataset in datasets[3:]) and len(datasets) == 6
    cells = {}
    for ex in holdout:
        cells.setdefault((ex.language, ex.label), []).append(ex.id)
    assert {cell: len(ids) for cell, ids in cells.items()} == {
        (lang, label): 166 if label == 2 else 167 for lang in range(2) for label in range(3)}
    assert all(ids == [f"{lang}:{label}:{i}" for i in range(len(ids))] for (lang, label), ids in cells.items())


def test_long_datapoints_explained_by_sampled_engine(tmp_path):
    config = tiny_config(tmp_path / "long", explain={"target_labels": [0], "max_datapoints": 12,
                                                     "exact_limit": 5, "n_permutations": 50})
    summary = run_experiment(config)
    assert summary["failures"] == []
    seed_dir = tmp_path / "long" / "seed_0"
    vocab = load_vocab(seed_dir / "corpus" / "vocab.json")
    _, pool = load_jsonl(seed_dir / "corpus" / "corpus.jsonl", vocab)
    from pblab.sampler import split_eval

    _, test = split_eval(pool, config.val_size, config.test_size, seed=0)
    explained = shap_subset(test, 12)
    assert max(len(ex.tokens) for ex in explained) > 5
    n_pairs = summary["per_seed"][0]["shapdiff"]["n_datapoints"]
    for tag in ("bal_vs_imbal", "bal_vs_imbal_cw"):
        sidecar = json.loads((seed_dir / "shapdiff" / f"{tag}.json").read_text())
        counts = sidecar["explanations"]
        assert counts["exact"] > 0 and counts["sampled"] > 0
        assert counts["exact"] + counts["sampled"] == n_pairs
        assert counts["sampled"] == sum(len(ex.tokens) > 5 for ex in explained)
        assert sidecar["max_stderr"] > 0


def test_shap_subset_deals_each_language_round_robin_over_its_uneven_label_cells():
    """Per language, cap // L datapoints: rank 0 of every label cell, then rank 1 of those that have one, and so on,
    each cell in id order whatever the input order."""
    cells = {(0, 0): 3, (0, 1): 1, (0, 2): 2, (1, 0): 1, (1, 2): 4}
    test = [Example(f"{lang}{label}{i}", lang, label, (1,)) for (lang, label), n in cells.items() for i in range(n)]
    np.random.default_rng(0).shuffle(test)
    dealt = ["000", "010", "020", "001", "021", "100", "120", "121", "122", "123"]
    assert [ex.id for ex in shap_subset(test, 10)] == dealt
    assert [ex.id for ex in shap_subset(test, 5)] == dealt[:2] + dealt[5:7]
    assert [ex.id for ex in shap_subset(test, 13)] == dealt[:5] + ["002"] + dealt[5:]  # language 1 has only five
    with pytest.raises(ValueError, match="max_datapoints=1 is below n_languages=2"):
        shap_subset(test, 1)


def test_config_hash_ignores_out_dir(tmp_path):
    c1 = tiny_config(tmp_path / "a")
    c2 = tiny_config(tmp_path / "b")
    assert c1.content_hash() == c2.content_hash()
    c3 = tiny_config(tmp_path / "a", train_size=126)
    assert c1.content_hash() != c3.content_hash()


def test_checkpoints_ignore_settings_that_cannot_touch_the_weights(tiny_run, tmp_path):
    """The header hashes what fixes the weights: explain, probe, name and out_dir leave every file as it was."""
    config, out, _ = tiny_run
    other = tiny_config(tmp_path / "other", name="renamed",
                        explain={"target_labels": [1], "max_datapoints": 6, "exact_limit": 4,
                                 "n_permutations": 50},
                        probe={"k": 2, "holdout_per_language": 40})
    assert other.content_hash() != config.content_hash()
    assert run_experiment(other)["failures"] == []
    paths = sorted(p.relative_to(out) for p in out.glob("seed_0/arms/*/checkpoint.pbl"))
    assert len(paths) == 3
    for path in paths:
        assert (out / path).read_bytes() == (tmp_path / "other" / path).read_bytes()
    _, header = load_checkpoint(out / paths[0])
    assert header["manifest"]["weights_hash"] == config.content_hash(WEIGHT_FIELDS)
    assert "config_hash" not in header["manifest"]


def test_weights_hash_follows_every_weight_setting(tmp_path):
    base = tiny_config(tmp_path).content_hash(WEIGHT_FIELDS)
    changed = [tiny_config(tmp_path, train={"epochs": 3, "batch_size": 16, "lr": 0.1}),
               tiny_config(tmp_path, train_size=126),
               tiny_config(tmp_path, joint={"probs": preset("xnli_skew", 2, 3).tolist()}),
               tiny_config(tmp_path, corpus={**CORPUS, "p_noise": 0.2})]
    assert all(config.content_hash(WEIGHT_FIELDS) != base for config in changed)
    assert tiny_config(tmp_path / "x", seeds=(0, 1)).content_hash(WEIGHT_FIELDS) == base


def test_config_n_permutations_past_the_cap_rejected(tmp_path):
    """An n_permutations whose marginal table could not be allocated is refused at load, not at the first long datapoint."""
    from pblab.explain import N_PERMUTATIONS_MAX

    for bad in (N_PERMUTATIONS_MAX + 1, 10**13):
        raw = tiny_config(tmp_path).to_dict()
        raw["explain"]["n_permutations"] = bad
        with pytest.raises(ValueError, match="n_permutations"):
            ExperimentConfig.from_dict(raw)


def test_one_table_row_adds_an_arm(tiny_run, tmp_path, monkeypatch):
    """An arm is one row of ARMS: it trains, is evaluated, probed, explained against the reference arm and
    summarised, and leaves the other arms' artifacts byte for byte as they were."""
    import csv

    from pblab import experiment

    monkeypatch.setitem(experiment.ARMS, "balanced_cw", ("balanced", "per_language", "bal_vs_bal_cw"))
    _, base, _ = tiny_run
    summary = run_experiment(tiny_config(tmp_path))
    assert summary["failures"] == []
    seed_dir = tmp_path / "seed_0"
    assert len(list(seed_dir.glob("arms/*/checkpoint.pbl"))) == 4
    assert sorted(p.name for p in (seed_dir / "shapdiff").glob("*.csv")) == [
        "bal_vs_bal_cw.csv", "bal_vs_imbal.csv", "bal_vs_imbal_cw.csv"]
    arms = ["balanced", "imbalanced", "imbalanced_cw", "balanced_cw"]
    assert all(list(summary["aggregate"][key]) == arms for key in ("accuracy", "masked_entropy"))
    with open(tmp_path / "summary_accuracy.csv", newline="") as f:
        assert [row["arm"] for row in csv.DictReader(f)] == arms
    with open(tmp_path / "summary_shapdiff.csv", newline="") as f:
        assert "bal_vs_bal_cw" in {row["pair"] for row in csv.DictReader(f)}
    same = [f"arms/{arm}/{name}" for arm in arms[:3]
            for name in ("checkpoint.pbl", "metrics.json", "pred_dist.csv", "train_report.json")]
    for rel in same + ["shapdiff/bal_vs_imbal.csv", "shapdiff/bal_vs_imbal_cw.csv"]:
        assert (seed_dir / rel).read_bytes() == (base / "seed_0" / rel).read_bytes(), rel


def test_arm_names_live_only_in_the_arm_table():
    """No module but the ARMS literal names a non-reference arm or a shapdiff stem."""
    import ast
    from pathlib import Path

    import pblab
    from pblab import experiment

    source = Path(experiment.__file__).read_text()
    table = next(node for node in ast.parse(source).body
                 if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["ARMS"])
    lines = source.splitlines()
    outside = {"experiment.py": lines[:table.lineno - 1] + lines[table.end_lineno:]}
    outside.update((p.name, p.read_text().splitlines())
                   for p in Path(pblab.__file__).parent.glob("*.py") if p.name != "experiment.py")
    hits = [(name, i) for name, text in outside.items() for i, line in enumerate(text)
            if "imbalanced_cw" in line or "bal_vs_imbal" in line]
    assert hits == []
