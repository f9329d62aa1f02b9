import json
from dataclasses import fields

import numpy as np
import pytest

from pblab.cli import main
from pblab.experiment import ExperimentConfig, ExplainConfig, IngestedCorpus, SyntheticCorpus
from pblab.probe import ProbeConfig
from pblab.training import TrainConfig
from pblab.corpus import load_jsonl, load_vocab
from pblab.model import init_params
from pblab.model import load as load_checkpoint
from pblab.seeds import derive_int, derive_rng


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "corpus"
    rc = main(["gen-corpus", "--per-cell", "40", "--seed", "3", "--out", str(out),
               "--min-tokens", "3", "--max-tokens", "7", "--fillers", "40", "--signals", "8", "--p-noise", "0.1"])
    assert rc == 0
    return out


def test_gen_corpus_outputs(corpus_dir):
    vocab = load_vocab(corpus_dir / "vocab.json")
    _, examples = load_jsonl(corpus_dir / "corpus.jsonl", vocab)
    assert len(examples) == 2 * 3 * 40
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    assert "corpus.jsonl" in manifest["artifacts"]


def test_sample_uniform_identical_sets(corpus_dir, tmp_path):
    out = tmp_path / "subsets"
    rc = main(["sample", "--data", str(corpus_dir / "corpus.jsonl"),
               "--vocab", str(corpus_dir / "vocab.json"),
               "--preset", "uniform", "--n", "60", "--seed", "1", "--out", str(out)])
    assert rc == 0
    vocab = load_vocab(corpus_dir / "vocab.json")
    _, bal = load_jsonl(out / "balanced.jsonl", vocab)
    _, imb = load_jsonl(out / "imbalanced.jsonl", vocab)
    assert {e.id for e in bal} == {e.id for e in imb}
    plan = json.loads((out / "plan.json").read_text())
    assert plan["overlap"]["overlap_achieved"] == 60


def test_train_zero_epochs_checkpoint_is_init(corpus_dir, tmp_path):
    out = tmp_path / "run"
    rc = main(["train", "--data", str(corpus_dir / "corpus.jsonl"),
               "--val", str(corpus_dir / "corpus.jsonl"),
               "--vocab", str(corpus_dir / "vocab.json"),
               "--epochs", "0", "--seed", "7", "--out", str(out)])
    assert rc == 0
    vocab = load_vocab(corpus_dir / "vocab.json")
    params, _ = load_checkpoint(out / "checkpoint.pbl", vocab)
    expected = init_params(vocab.size, 3, rng=derive_rng(7, "train", "init"))
    assert params.array_equal(expected)
    report = json.loads((out / "train_report.json").read_text())
    assert report["epochs"] == []


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--nope"])
    assert exc.value.code == 2


def test_missing_file_exits_1(tmp_path, capsys):
    rc = main(["eval", "--checkpoint", str(tmp_path / "nope.pbl"),
               "--data", str(tmp_path / "nope.jsonl"), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    record = json.loads(err.strip().splitlines()[-1])
    assert "nope" in record["error"]


def test_eval_checkpoint_without_dims_exits_1(corpus_dir, tmp_path, capsys):
    bad = tmp_path / "bad.pbl"
    bad.write_bytes(b'PBL1{"version": 1}\n')
    rc = main(["eval", "--checkpoint", str(bad), "--data", str(corpus_dir / "corpus.jsonl"),
               "--vocab", str(corpus_dir / "vocab.json"), "--out", str(tmp_path / "eval")])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["type"] == "ValueError"


@pytest.mark.parametrize("mutate", [
    lambda v: [v],
    lambda v: {},
    lambda v: {**v, "tokens": "abc"},
    lambda v: {**v, "languages": None},
    lambda v: {**v, "labels": [[0]]},
    lambda v: {**v, "filler_sets": 5},
    lambda v: {**v, "filler_sets": v["filler_sets"][:1]},
    lambda v: {**v, "signal_sets": [[["x"]]] * len(v["signal_sets"])},
], ids=["list", "empty object", "tokens str", "languages null", "labels nested",
        "filler_sets int", "filler_sets short", "signal_sets str ids"])
def test_sample_malformed_vocab_exits_1(corpus_dir, tmp_path, capsys, mutate):
    vocab = json.loads((corpus_dir / "vocab.json").read_text())
    bad = tmp_path / "v.json"
    bad.write_text(json.dumps(mutate(vocab)))
    rc = main(["sample", "--data", str(corpus_dir / "corpus.jsonl"), "--vocab", str(bad),
               "--preset", "uniform", "--n", "60", "--out", str(tmp_path / "out")])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["type"] == "ValueError" and "vocabulary" in record["error"]


def test_sample_mistyped_record_exits_1(corpus_dir, tmp_path, capsys):
    bad = tmp_path / "d.jsonl"
    bad.write_text('{"id": "a", "lang": ["L0"], "label": "0", "tokens": ["t"]}\n')
    rc = main(["sample", "--data", str(bad), "--preset", "uniform", "--n", "6",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["type"] == "ValueError" and "'lang' must be a string" in record["error"]


def test_experiment_print_schema(capsys):
    rc = main(["experiment", "--print-schema"])
    assert rc == 0
    schema = json.loads(capsys.readouterr().out)

    def names(cls, *fixed):
        return {f.name for f in fields(cls)} - set(fixed)

    assert set(schema) == names(ExperimentConfig)
    assert set(schema["corpus"]["synthetic"]) == names(SyntheticCorpus, "seed")
    assert set(schema["corpus"]["ingested"]) == names(IngestedCorpus)
    assert set(schema["train"]) == names(TrainConfig, "seed", "weighting")
    assert set(schema["explain"]) == names(ExplainConfig, "seed")
    assert set(schema["probe"]) == names(ProbeConfig)
    assert schema["train"]["epochs"] == f"an int, default {TrainConfig.epochs}"
    assert schema["corpus"]["synthetic"]["n_languages"] == "an int, required"
    assert "xnli_skew" in schema["joint"]


def test_experiment_missing_corpus_file(tmp_path, capsys):
    config = {
        "name": "x", "seeds": [0],
        "corpus": {"path": str(tmp_path / "missing.jsonl")},
        "joint": {"preset": "uniform"},
        "train_size": 12, "val_size": 6, "test_size": 6,
        "out_dir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    rc = main(["experiment", "--config", str(cfg_path)])
    assert rc == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert "missing.jsonl" in summary["failures"][0]["error"]


def test_experiment_malformed_config_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "name": "x", "seeds": [0], "corpus": {}, "joint": {"preset": "uniform"},
        "train_size": 12, "val_size": 6, "test_size": 6, "train": 5, "out_dir": str(tmp_path / "out"),
    }))
    rc = main(["experiment", "--config", str(cfg_path)])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["type"] == "ValueError" and "'train'" in record["error"]


def test_experiment_bad_joint_exits_1_before_any_seed(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "name": "x", "seeds": [0],
        "corpus": {"n_languages": 2, "n_classes": 3, "n_min": 3, "n_max": 7, "p_signal": 0.3,
                   "n_examples_per_cell": 10},
        "joint": {"probs": "abc"},
        "train_size": 12, "val_size": 6, "test_size": 6, "out_dir": str(out),
    }))
    rc = main(["experiment", "--config", str(cfg_path)])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["type"] == "ValueError" and "'joint'" in record["error"]
    assert not (out / "seed_0").exists()


def test_probe_and_shapdiff_cli(corpus_dir, tmp_path):
    run = tmp_path / "run"
    rc = main(["train", "--data", str(corpus_dir / "corpus.jsonl"),
               "--val", str(corpus_dir / "corpus.jsonl"),
               "--vocab", str(corpus_dir / "vocab.json"),
               "--epochs", "2", "--seed", "1", "--out", str(run)])
    assert rc == 0
    probe_out = tmp_path / "probe"
    rc = main(["probe", "--checkpoint", str(run / "checkpoint.pbl"),
               "--data", str(corpus_dir / "corpus.jsonl"),
               "--vocab", str(corpus_dir / "vocab.json"), "--k", "3",
               "--out", str(probe_out)])
    assert rc == 0
    report = json.loads((probe_out / "probe.json").read_text())
    assert len(report["fold_accuracies"]) == 3

    sd_out = tmp_path / "sd"
    rc = main(["shap-diff", "--checkpoint-bal", str(run / "checkpoint.pbl"),
               "--checkpoint-cmp", str(run / "checkpoint.pbl"),
               "--data", str(corpus_dir / "corpus.jsonl"),
               "--vocab", str(corpus_dir / "vocab.json"),
               "--target-label", "0", "--max-datapoints", "6", "--out", str(sd_out)])
    assert rc == 0
    rows = (sd_out / "shapdiff.csv").read_text().strip().splitlines()
    assert rows[0] == "language,label,category,mean_cum_diff,n_datapoints"
    # same checkpoint on both sides: all differences are zero
    assert all(float(r.split(",")[3]) == 0.0 for r in rows[1:])


@pytest.mark.parametrize("flags", [["--exact-limit", "17"], ["--exact-limit", "-1"], ["--n-permutations", "0"]],
                         ids=["exact-limit 17", "exact-limit -1", "n-permutations 0"])
def test_shapdiff_bad_engine_exits_1_before_any_output(corpus_dir, tmp_path, capsys, flags):
    run = tmp_path / "run"
    assert main(["train", "--data", str(corpus_dir / "corpus.jsonl"), "--val", str(corpus_dir / "corpus.jsonl"),
                 "--vocab", str(corpus_dir / "vocab.json"), "--epochs", "0", "--out", str(run)]) == 0
    capsys.readouterr()
    sd_out = tmp_path / "sd"
    rc = main(["shap-diff", "--checkpoint-bal", str(run / "checkpoint.pbl"),
               "--checkpoint-cmp", str(run / "checkpoint.pbl"),
               "--data", str(corpus_dir / "corpus.jsonl"), "--vocab", str(corpus_dir / "vocab.json"),
               "--max-datapoints", "2", *flags, "--out", str(sd_out)])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["type"] == "ValueError" and "exact_limit must be in [0, 16]" in record["error"]
    assert not sd_out.exists()
