import json
from dataclasses import fields

import numpy as np
import pytest

import pblab
from pblab.cli import COMMANDS, build_parser, main
from pblab.experiment import ExperimentConfig, ExplainConfig, IngestedCorpus, SyntheticCorpus
from pblab.probe import ProbeConfig
from pblab.training import TrainConfig
from pblab.corpus import load_jsonl, load_vocab
from pblab.model import init_params
from pblab.model import load as load_checkpoint
from pblab.seeds import derive_rng


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


def test_manifest_records_package_version(corpus_dir):
    manifest = json.loads((corpus_dir / "manifest.json").read_text())
    assert manifest["versions"]["pblab"] == pblab.__version__


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


TOP_USAGE = """usage: pblab [-h]
             {gen-corpus,sample,train,eval,probe,shap-diff,experiment} ...
"""


def exit_and_output(capsys, run, argv) -> tuple:
    """The exit code of ``run(argv)``, which must exit, and its (stdout, stderr)."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    return exc.value.code, *capsys.readouterr()


@pytest.mark.parametrize("command", COMMANDS)
def test_a_commands_own_parser_gives_its_help(command, capsys, monkeypatch):
    """``build_parser(command)`` adds that command's flags alone, and the command's help is the one it has among
    every command's flags."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"]
    assert exit_and_output(capsys, build_parser(command).parse_args, argv) == \
        exit_and_output(capsys, build_parser().parse_args, argv)


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["-h"], ["sample"], ["train", "--data", "x"], ["bogus", "sample"],
    ["--foo", "sample", "--data", "d", "--preset", "uniform", "--n", "6"],  # parsed as sample, then rejected
    ["train", "--data", "a", "--val", "b", "--weighting", "bad"],
    ["probe", "--checkpoint", "c", "--data", "d", "--k", "x"],
    ["sample", "--data", "d", "--preset", "uniform", "--joint", "j", "--n", "6"], ["--", "eval", "--help"],
])
def test_main_exits_as_the_parser_of_every_command(argv, capsys, monkeypatch):
    """``main`` builds the flags of one command, yet its help and usage errors are those of the parser with every
    command's flags."""
    monkeypatch.setenv("COLUMNS", "80")
    assert exit_and_output(capsys, main, argv) == exit_and_output(capsys, build_parser().parse_args, argv)


def test_top_level_help_and_an_unknown_command(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert exit_and_output(capsys, main, ["--help"]) == (0, TOP_USAGE + """
Controlled experiments on per-language label imbalance in multilingual
classifiers

positional arguments:
  {gen-corpus,sample,train,eval,probe,shap-diff,experiment}
    gen-corpus          generate a synthetic multilingual corpus
    sample              draw the balanced/imbalanced training pair
    train               train the classifier
    eval                evaluate a checkpoint
    probe               language-identification probe on pooled features
    shap-diff           cumulative attribution difference between two
                        checkpoints
    experiment          run the full multi-seed experiment from a config file

options:
  -h, --help            show this help message and exit
""", "")
    assert exit_and_output(capsys, main, ["bogus"]) == (2, "", TOP_USAGE + (
        "pblab: error: argument command: invalid choice: 'bogus' (choose from 'gen-corpus', 'sample', 'train', "
        "'eval', 'probe', 'shap-diff', 'experiment')\n"))


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
    assert not (tmp_path / "eval").exists()  # a command that fails before writing leaves no --out


@pytest.mark.parametrize("mutate", [
    lambda v: [v],
    lambda v: {},
    lambda v: {**v, "tokens": "abc"},
    lambda v: {**v, "languages": None},
    lambda v: {**v, "labels": [[0]]},
    lambda v: {**v, "filler_sets": 5},
    lambda v: {**v, "filler_sets": v["filler_sets"][:1]},
    lambda v: {**v, "signal_sets": [[["x"]]] * len(v["signal_sets"])},
    lambda v: {**v, "tokens": [v["tokens"][0]] * len(v["tokens"])},
    lambda v: {**v, "languages": ["x", "x"]},
    lambda v: {**v, "labels": ["1", 1, "2"]},
    lambda v: {**v, "filler_sets": [v["filler_sets"][0] + [len(v["tokens"]) + 1], *v["filler_sets"][1:]]},
    lambda v: {k: x for k, x in v.items() if k != "signal_sets"},
    lambda v: {k: x for k, x in v.items() if k != "filler_sets"},
], ids=["list", "empty object", "tokens str", "languages null", "labels nested",
        "filler_sets int", "filler_sets short", "signal_sets str ids", "tokens repeated", "languages repeated",
        "labels repeated as str and int", "filler id outside the vocabulary", "signal_sets missing",
        "filler_sets missing"])
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


def test_sample_vocab_with_overlapping_sets_exits_1(corpus_dir, tmp_path, capsys):
    vocab = json.loads((corpus_dir / "vocab.json").read_text())
    vocab["filler_sets"][0].append(vocab["signal_sets"][0][0][0])  # a signal id that is also a filler
    bad = tmp_path / "v.json"
    bad.write_text(json.dumps(vocab))
    rc = main(["sample", "--data", str(corpus_dir / "corpus.jsonl"), "--vocab", str(bad),
               "--preset", "uniform", "--n", "60", "--out", str(tmp_path / "out")])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "filler/signal sets must be pairwise disjoint", "type": "ValueError"}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line, message", [
    ('[{"id": "a"}]', "record is not an object"),
    ('"a"', "record is not an object"),
    ('{"id": "a", "lang": "L0", "label": "0", "tokens": "t u"}', "'tokens' must be a list of strings"),
    ('{"id": "a", "lang": "L0", "label": "0", "tokens": ["t", 1]}', "'tokens' must be a list of strings"),
], ids=["list", "string", "tokens str", "tokens holding an int"])
def test_sample_malformed_jsonl_line_exits_1(tmp_path, capsys, line, message):
    bad = tmp_path / "d.jsonl"
    bad.write_text('{"id": "z", "lang": "L0", "label": "0", "tokens": ["t"]}\n' + line + "\n")
    rc = main(["sample", "--data", str(bad), "--preset", "uniform", "--n", "6", "--out", str(tmp_path / "out")])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": f"{bad}: line 2: {message}", "type": "ValueError"}
    assert not (tmp_path / "out").exists()


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


def test_sample_joint_with_a_second_form_key_exits_1_before_any_output(corpus_dir, tmp_path, capsys):
    """The joint table has one form: a `uniform_marginals` key is rejected like any other unknown key."""
    joint = tmp_path / "joint.json"
    joint.write_text(json.dumps({"probs": [[1 / 6] * 3] * 2, "uniform_marginals": False}))
    rc = main(["sample", "--data", str(corpus_dir / "corpus.jsonl"), "--joint", str(joint), "--n", "12",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["type"] == "ValueError" and "config section 'joint' must be" in record["error"]
    assert not (tmp_path / "out").exists()


def test_gen_corpus_negative_seed_exits_1_before_any_output(tmp_path, capsys):
    out = tmp_path / "corpus"
    assert main(["gen-corpus", "--per-cell", "4", "--seed", "-1", "--out", str(out)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["type"] == "ValueError" and "seed -1 must be in [0, 2**64)" in record["error"]
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["sample", "--preset", "uniform", "--n", "6"],
    ["train", "--val", "missing.jsonl"],
    ["probe", "--checkpoint", "missing.pbl"],
    ["shap-diff", "--checkpoint-bal", "missing.pbl", "--checkpoint-cmp", "missing.pbl"],
], ids=lambda command: command[0])
def test_negative_seed_exits_1_before_any_file_is_read(tmp_path, capsys, command):
    out = tmp_path / "out"
    assert main([*command, "--data", str(tmp_path / "missing.jsonl"), "--seed", "-1", "--out", str(out)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert [json.loads(line) for line in lines] == [{"type": "ValueError", "error": "seed -1 must be in [0, 2**64)"}]
    assert not out.exists()


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


def test_probe_without_a_ridge_takes_the_least_squares_step_and_writes_its_report(corpus_dir, tmp_path):
    """At --l2 0 the probe's Hessian is singular, so every Newton step is the minimum-norm least-squares step."""
    run = tmp_path / "run"
    data, vocab = str(corpus_dir / "corpus.jsonl"), str(corpus_dir / "vocab.json")
    assert main(["train", "--data", data, "--val", data, "--vocab", vocab, "--epochs", "2", "--seed", "1",
                 "--out", str(run)]) == 0
    out = tmp_path / "probe"
    assert main(["probe", "--checkpoint", str(run / "checkpoint.pbl"), "--data", data, "--vocab", vocab,
                 "--k", "3", "--l2", "0", "--out", str(out)]) == 0
    report = json.loads((out / "probe.json").read_text())
    assert report["l2"] == 0.0 and len(report["fold_accuracies"]) == 3


def test_shapdiff_explains_in_id_order_whatever_the_file_order(corpus_dir, tmp_path):
    """Without a --max-datapoints cap too, shap-diff explains its data in id order: a shuffled copy of --data gives
    byte-identical outputs (in file order, a sum over datapoints could differ in its last bits)."""
    data, vocab = str(corpus_dir / "corpus.jsonl"), str(corpus_dir / "vocab.json")
    for seed in ("1", "2"):
        assert main(["train", "--data", data, "--val", data, "--vocab", vocab, "--epochs", "2", "--seed", seed,
                     "--out", str(tmp_path / f"run{seed}")]) == 0
    lines = (corpus_dir / "corpus.jsonl").read_text().splitlines(keepends=True)
    np.random.default_rng(0).shuffle(lines)
    (tmp_path / "shuffled.jsonl").write_text("".join(lines))
    for name, path in (("sd", data), ("sd_shuffled", str(tmp_path / "shuffled.jsonl"))):
        assert main(["shap-diff", "--checkpoint-bal", str(tmp_path / "run1" / "checkpoint.pbl"),
                     "--checkpoint-cmp", str(tmp_path / "run2" / "checkpoint.pbl"), "--data", path, "--vocab", vocab,
                     "--out", str(tmp_path / name)]) == 0
    for name in ("shapdiff.csv", "shapdiff.json"):
        assert (tmp_path / "sd" / name).read_bytes() == (tmp_path / "sd_shuffled" / name).read_bytes()


def test_shapdiff_cap_below_a_cell_explains_every_language(corpus_dir, tmp_path, capsys):
    """--max-datapoints deals cap // L datapoints to each language, round-robin over its label cells, as an
    experiment seed does: a cap of 6 on 2 languages x 3 labels of 40 explains one datapoint per cell."""
    data, vocab = str(corpus_dir / "corpus.jsonl"), str(corpus_dir / "vocab.json")
    run = tmp_path / "run"
    assert main(["train", "--data", data, "--val", data, "--vocab", vocab, "--epochs", "0", "--out", str(run)]) == 0
    ckpt = str(run / "checkpoint.pbl")
    common = ["shap-diff", "--checkpoint-bal", ckpt, "--checkpoint-cmp", ckpt, "--data", data, "--vocab", vocab]
    assert main([*common, "--target-label", "0", "--max-datapoints", "6", "--out", str(tmp_path / "sd")]) == 0
    rows = [r.split(",") for r in (tmp_path / "sd" / "shapdiff.csv").read_text().strip().splitlines()[1:]]
    assert {(r[0], r[1]) for r in rows} == {("0", "0"), ("1", "0")} and {r[4] for r in rows} == {"3"}
    capsys.readouterr()
    assert main([*common, "--max-datapoints", "1", "--out", str(tmp_path / "sd1")]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["type"] == "ValueError" and "max_datapoints=1 is below n_languages=2" in record["error"]
    assert not (tmp_path / "sd1").exists()


@pytest.mark.parametrize("cap", ["0", "4"], ids=["no cap", "max-datapoints 4"])
def test_shapdiff_empty_data_exits_1_before_any_output(corpus_dir, tmp_path, capsys, cap):
    run, empty, sd_out = tmp_path / "run", tmp_path / "empty.jsonl", tmp_path / "sd"
    assert main(["train", "--data", str(corpus_dir / "corpus.jsonl"), "--val", str(corpus_dir / "corpus.jsonl"),
                 "--vocab", str(corpus_dir / "vocab.json"), "--epochs", "0", "--out", str(run)]) == 0
    empty.write_text("")
    capsys.readouterr()
    rc = main(["shap-diff", "--checkpoint-bal", str(run / "checkpoint.pbl"),
               "--checkpoint-cmp", str(run / "checkpoint.pbl"), "--data", str(empty),
               "--vocab", str(corpus_dir / "vocab.json"), "--max-datapoints", cap, "--out", str(sd_out)])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": "empty dataset", "type": "ValueError"}
    assert not sd_out.exists()


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


@pytest.mark.parametrize("flags", [["--l2", "-1"], ["--l2", "nan"], ["--l2", "inf"], ["--k", "1"]],
                         ids=["l2 -1", "l2 nan", "l2 inf", "k 1"])
def test_probe_bad_options_exit_1_before_any_output(tmp_path, capsys, flags):
    out = tmp_path / "probe"
    missing = [str(tmp_path / name) for name in ("missing.pbl", "missing.jsonl", "missing.json")]
    rc = main(["probe", "--checkpoint", missing[0], "--data", missing[1], "--vocab", missing[2], *flags,
               "--out", str(out)])  # never opened: the options are checked first
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["type"] == "ValueError" and "k must be >= 2, l2 >= 0" in record["error"]
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [(["--lr", "nan"], "lr must be > 0"),
                                            (["--lr", "inf"], "lr must be > 0"),
                                            (["--lr", "0"], "lr must be > 0"),
                                            (["--mask-entropy-coeff", "nan"], "mask_entropy_coeff must be >= 0"),
                                            (["--mask-entropy-coeff", "inf"], "mask_entropy_coeff must be >= 0"),
                                            (["--mask-entropy-coeff", "-1"], "mask_entropy_coeff must be >= 0")],
                         ids=["lr nan", "lr inf", "lr 0", "mask-entropy-coeff nan", "mask-entropy-coeff inf",
                              "mask-entropy-coeff -1"])
def test_train_bad_options_exit_1_before_any_output(tmp_path, capsys, flags, message):
    out = tmp_path / "train"
    missing = [str(tmp_path / name) for name in ("missing.jsonl", "missing_val.jsonl", "missing.json")]
    rc = main(["train", "--data", missing[0], "--val", missing[1], "--vocab", missing[2], *flags,
               "--out", str(out)])  # never opened: the options are checked first
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["type"] == "ValueError" and message in record["error"]
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [(["--max-datapoints", "-1"], "max_datapoints must be >= 0"),
                                            (["--theta", "0"], "theta must be > 0"),
                                            (["--theta", "-0.1"], "theta must be > 0"),
                                            (["--theta", "nan"], "theta must be > 0"),
                                            (["--theta", "inf"], "theta must be > 0"),
                                            (["--target-label", "0", "--target-label", "0"], "distinct label ids"),
                                            (["--target-label", "-1"], "distinct label ids")],
                         ids=["max-datapoints -1", "theta 0", "theta -0.1", "theta nan", "theta inf",
                              "target-label repeated", "target-label -1"])
def test_shapdiff_bad_report_flags_exit_1_before_any_output(corpus_dir, tmp_path, capsys, flags, message):
    sd_out = tmp_path / "sd"
    missing = str(tmp_path / "missing.pbl")  # never opened: the flags are checked first
    rc = main(["shap-diff", "--checkpoint-bal", missing, "--checkpoint-cmp", missing,
               "--data", str(corpus_dir / "corpus.jsonl"), "--vocab", str(corpus_dir / "vocab.json"),
               *flags, "--out", str(sd_out)])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["type"] == "ValueError" and message in record["error"]
    assert not sd_out.exists()


def test_every_command_manifest_times_its_stages(corpus_dir, tmp_path, capsys):
    data, vocab = ["--data", str(corpus_dir / "corpus.jsonl")], ["--vocab", str(corpus_dir / "vocab.json")]
    ckpt = str(tmp_path / "train" / "checkpoint.pbl")
    commands = {
        "sample": [*data, *vocab, "--preset", "xnli_skew", "--n", "60"],
        "train": [*data, *vocab, "--val", str(corpus_dir / "corpus.jsonl"), "--epochs", "1"],
        "eval": [*data, *vocab, "--checkpoint", ckpt],
        "probe": [*data, *vocab, "--checkpoint", ckpt, "--k", "3"],
        "shap-diff": [*data, *vocab, "--checkpoint-bal", ckpt, "--checkpoint-cmp", ckpt, "--max-datapoints", "4"],
    }
    for command, flags in commands.items():
        assert main([command, *flags, "--out", str(tmp_path / command)]) == 0
    expected = {
        "gen-corpus": [("corpus", None, "original")],
        "sample": [("sample", None, None)],
        "train": [("train", None, None)],
        "eval": [("evaluate", None, None)],
        "probe": [("probe", "model", "data")],
        "shap-diff": [("explain", "bal", None), ("explain", "cmp", None)],
    }
    for command, stages in expected.items():
        out = corpus_dir if command == "gen-corpus" else tmp_path / command
        manifest = json.loads((out / "manifest.json").read_text())
        assert [(s["stage"], s["arm"], s["corpus"]) for s in manifest["stages"]] == stages
        assert all(s["seconds"] >= 0 and s["cpu_seconds"] >= 0 for s in manifest["stages"])
        on_disk = {p.name for p in out.iterdir() if p.name != "manifest.json"}
        assert set(manifest["artifacts"]) == on_disk


def test_config_hash_ignores_out(corpus_dir, tmp_path, capsys):
    """--out only says where the results go: two output directories give one config_hash."""
    hashes = set()
    for out in ("a", "b/c"):
        assert main(["sample", "--data", str(corpus_dir / "corpus.jsonl"), "--vocab", str(corpus_dir / "vocab.json"),
                     "--preset", "uniform", "--n", "60", "--out", str(tmp_path / out)]) == 0
        hashes.add(json.loads((tmp_path / out / "manifest.json").read_text())["config_hash"])
    assert len(hashes) == 1
    assert main(["sample", "--data", str(corpus_dir / "corpus.jsonl"), "--vocab", str(corpus_dir / "vocab.json"),
                 "--preset", "uniform", "--n", "66", "--out", str(tmp_path / "d")]) == 0
    assert json.loads((tmp_path / "d" / "manifest.json").read_text())["config_hash"] not in hashes


def test_shapdiff_n_permutations_past_the_cap_exits_1_before_any_output(corpus_dir, tmp_path, capsys):
    """An absurd --n-permutations is one JSON error line naming the cap, not a MemoryError traceback."""
    from pblab.explain import N_PERMUTATIONS_MAX

    run = tmp_path / "run"
    assert main(["train", "--data", str(corpus_dir / "corpus.jsonl"), "--val", str(corpus_dir / "corpus.jsonl"),
                 "--vocab", str(corpus_dir / "vocab.json"), "--epochs", "0", "--out", str(run)]) == 0
    capsys.readouterr()
    for bad in (N_PERMUTATIONS_MAX + 1, 10**13):
        sd_out = tmp_path / f"sd{bad}"
        rc = main(["shap-diff", "--checkpoint-bal", str(run / "checkpoint.pbl"),
                   "--checkpoint-cmp", str(run / "checkpoint.pbl"),
                   "--data", str(corpus_dir / "corpus.jsonl"), "--vocab", str(corpus_dir / "vocab.json"),
                   "--max-datapoints", "2", "--exact-limit", "0", "--n-permutations", str(bad),
                   "--out", str(sd_out)])
        assert rc == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["type"] == "ValueError" and f"n_permutations in [1, {N_PERMUTATIONS_MAX}]" in record["error"]
        assert not sd_out.exists()


def test_train_overflowing_step_exits_1_with_one_record(corpus_dir, tmp_path, capsys):
    """A finite --lr whose first step overflows the float32 tables ends in the loss check's FloatingPointError:
    one JSON record and no RuntimeWarning (an error in this suite), and no output directory."""
    out = tmp_path / "train"
    rc = main(["train", "--data", str(corpus_dir / "corpus.jsonl"), "--val", str(corpus_dir / "corpus.jsonl"),
               "--vocab", str(corpus_dir / "vocab.json"), "--lr", "1e300", "--epochs", "1", "--out", str(out)])
    assert rc == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record == {"error": "non-finite loss at epoch 0 step 1", "type": "FloatingPointError"}
    assert not out.exists()


def test_train_batch_size_past_int64_is_one_full_batch(corpus_dir, tmp_path):
    """A batch size at or above the train size trains as one full batch, also past what an int64 holds."""
    outs = {}
    for batch_size in ("240", "100000000000000000000"):  # the corpus holds 240 examples
        outs[batch_size] = tmp_path / batch_size
        assert main(["train", "--data", str(corpus_dir / "corpus.jsonl"), "--val", str(corpus_dir / "corpus.jsonl"),
                     "--vocab", str(corpus_dir / "vocab.json"), "--epochs", "2", "--batch-size", batch_size,
                     "--out", str(outs[batch_size])]) == 0
    for name in ("checkpoint.pbl", "train_report.json"):
        assert (outs["240"] / name).read_bytes() == (outs["100000000000000000000"] / name).read_bytes()
