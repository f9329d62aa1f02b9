"""Command-line surface: one subcommand per pipeline stage plus `experiment`.

Exit codes: 0 success, 1 domain/data error (a JSON error record goes to
stderr), 2 usage error. A stage subcommand is one call into ``stages``: it
writes its artifacts plus a manifest.json with the stage's timings into --out
(default $PBLAB_OUT), and a command that fails writes no manifest. A run loads
only its own command's modules.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import MISSING, fields
from pathlib import Path

if "numpy" not in sys.modules:  # the CLI owns its process: one BLAS thread unless the caller set a count
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import corpus as corpus_mod
from .seeds import check_root_seed, derive_int
from .stages import (Manifest, SyntheticCorpus, load_dataset, shap_subset, stage_corpus, stage_evaluate,
                     stage_explain, stage_probe, stage_sample, stage_train)


# gen-corpus's flag for each SyntheticCorpus field, in usage-line order, and defaults for the fields a config requires.
CORPUS_FLAGS = {"n_languages": "--languages", "n_classes": "--classes", "n_min": "--min-tokens",
                "n_max": "--max-tokens", "p_signal": "--p-signal", "p_noise": "--p-noise",
                "fillers_per_language": "--fillers", "signals_per_language_class": "--signals",
                "n_examples_per_cell": "--per-cell", "seed": "--seed"}
CORPUS_DEFAULTS = {"n_languages": 2, "n_classes": 3, "n_min": 6, "n_max": 12, "p_signal": 0.25}
# The flags several commands take, each declared once; a command adds them where its usage line lists them.
SHARED = {"--checkpoint": {"required": True}, "--data": {"required": True}, "--vocab": {"default": None},
          "--seed": {"type": int, "default": 0}, "--out": {"default": None}}


def _manifest(args) -> Manifest:
    """The command's manifest in --out (default $PBLAB_OUT, else "."), keyed by every argument but --out."""
    payload = {k: v for k, v in vars(args).items() if k != "out"}
    config_hash = hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()
    return Manifest(args.out or os.environ.get("PBLAB_OUT", "."), config_hash, getattr(args, "seed", None))


def _settings(cls, args, **fixed):
    """The settings dataclass ``cls`` from the flags named after its fields (a field without one keeps its
    default) and the values ``fixed`` by the command, validated before any file is read."""
    settings = cls(**{**{f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)}, **fixed})
    settings.validate()
    return settings


def cmd_gen_corpus(args, manifest: Manifest) -> str:
    _, examples = stage_corpus(_settings(SyntheticCorpus, args), manifest.root, manifest)
    return f"wrote {len(examples)} examples to {manifest.root / 'corpus.jsonl'}"


def cmd_sample(args, manifest: Manifest) -> str:
    from .sampler import joint_from_config
    vocab, pool = load_dataset(args.data, args.vocab)
    raw_joint = json.loads(Path(args.joint).read_text(encoding="utf-8")) if args.joint else {"preset": args.preset}
    joint = joint_from_config(raw_joint, vocab.n_languages, vocab.n_classes)
    *_, overlap = stage_sample(pool, vocab, joint, args.n, args.seed, manifest.root, manifest)
    return f"overlap {overlap['overlap_achieved']}/{args.n}"


def cmd_train(args, manifest: Manifest) -> str:
    from . import training as training_mod
    config = _settings(training_mod.TrainConfig, args)
    vocab, data = load_dataset(args.data, args.vocab)
    _, val = corpus_mod.load_jsonl(args.val, vocab)
    header = {"seed": config.seed, "weighting": config.weighting}
    [(_, report)] = stage_train([(data, config, manifest.root, header)], val, vocab, manifest)
    return f"selected epoch {report.selected_epoch}, val accuracy {report.final.get('val_accuracy')}"


def cmd_eval(args, manifest: Manifest) -> str:
    from . import model as model_mod
    vocab, data = load_dataset(args.data, args.vocab)
    params, _ = model_mod.load(args.checkpoint, vocab)
    metrics = stage_evaluate(params, data, vocab, manifest.root, manifest)
    return f"accuracy {metrics.overall_accuracy}"


def cmd_probe(args, manifest: Manifest) -> str:
    from . import model as model_mod, probe as probe_mod
    probe = _settings(probe_mod.ProbeConfig, args)
    vocab, data = load_dataset(args.data, args.vocab)
    params, _ = model_mod.load(args.checkpoint, vocab)
    reports, _ = stage_probe({"model": (params, args.seed)}, data, "data", probe, manifest.root / "probe.csv",
                             manifest, json_path=manifest.root / "probe.json")
    return f"probe mean accuracy {reports['model'].mean_accuracy}"


def cmd_shap_diff(args, manifest: Manifest) -> str:
    from . import explain as explain_mod, model as model_mod
    engine = _settings(explain_mod.EngineConfig, args, seed=derive_int(args.seed, "shapdiff"))
    if not 0 < args.theta < math.inf:  # these checks too run before any file is read or written
        raise ValueError("theta must be > 0")
    if args.max_datapoints < 0:
        raise ValueError("max_datapoints must be >= 0 (0 = no cap)")
    if args.target_label is not None:
        explain_mod.check_target_labels(args.target_label)
    vocab, data = load_dataset(args.data, args.vocab)
    bal, cmp = (model_mod.load(path, vocab)[0] for path in (args.checkpoint_bal, args.checkpoint_cmp))
    explain_mod.check_pair(bal, cmp)
    # The experiment's deal under a cap, else id order: either way the file's line order does not matter.
    data = shap_subset(data, args.max_datapoints) if args.max_datapoints else sorted(data, key=lambda ex: ex.id)
    stage_explain({"bal": bal, "cmp": cmp}, {"shapdiff": "cmp"}, data, engine, args.theta, manifest.root, manifest,
                  target_labels=args.target_label)
    return f"wrote {manifest.root / 'shapdiff.csv'}"


def cmd_experiment(args) -> int:
    from .experiment import config_schema, load_config, run_experiment
    if args.print_schema:
        print(json.dumps(config_schema(), indent=2))
        return 0
    if not args.config:
        raise ValueError("--config is required (or use --print-schema)")
    config = load_config(args.config)
    summary = run_experiment(config, out_dir=args.out or None)
    agg = summary["aggregate"]
    if summary["failures"]:
        print(f"{len(summary['failures'])} seed(s) failed; see summary.json", file=sys.stderr)
    if "accuracy" in agg:
        for arm, s in agg["accuracy"].items():
            print(f"{arm}: accuracy {s['mean']:.4f} +/- {s['std']:.4f}")
    return 1 if summary["failures"] else 0


def _shared(p, *flags) -> None:
    for flag in flags:
        p.add_argument(flag, **SHARED[flag])


def _field_flags(p, cls, names=None, flags=None, defaults=None, choices=None) -> None:
    """A flag per field of ``cls`` in ``names`` (all when None), in order: the field name dashed or, shown as such in
    usage, its name in ``flags``; of the field's type and default, else the one in ``defaults``, else required; of the
    values in ``choices`` under its name, if any."""
    by_name = {f.name: f for f in fields(cls)}
    for f in (by_name[name] for name in names or by_name):
        flag = (flags or {}).get(f.name, "--" + f.name.replace("_", "-"))
        default = (defaults or {}).get(f.name, f.default)
        p.add_argument(flag, dest=f.name, type=f.type, metavar=flag[2:].replace("-", "_").upper() if flags else None,
                       default=None if default is MISSING else default, required=default is MISSING,
                       choices=(choices or {}).get(f.name))


COMMANDS = {  # each subcommand's help line and the function that runs it
    "gen-corpus": ("generate a synthetic multilingual corpus", cmd_gen_corpus),
    "sample": ("draw the balanced/imbalanced training pair", cmd_sample),
    "train": ("train the classifier", cmd_train),
    "eval": ("evaluate a checkpoint", cmd_eval),
    "probe": ("language-identification probe on pooled features", cmd_probe),
    "shap-diff": ("cumulative attribution difference between two checkpoints", cmd_shap_diff),
    "experiment": ("run the full multi-seed experiment from a config file", cmd_experiment),
}


def build_parser(command=None) -> argparse.ArgumentParser:
    """Every subcommand with its help line, and the flags of ``command`` alone (all when None), which import the
    modules that define them. A subcommand's help and usage errors are the same either way."""
    parser = argparse.ArgumentParser(
        prog="pblab", description="Controlled experiments on per-language label imbalance in multilingual classifiers")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if command not in (None, name):
            continue
        if name == "gen-corpus":
            _field_flags(p, SyntheticCorpus, CORPUS_FLAGS, flags=CORPUS_FLAGS, defaults=CORPUS_DEFAULTS)
            _shared(p, "--out")
        elif name == "sample":
            from .sampler import PRESETS
            _shared(p, "--data", "--vocab")
            group = p.add_mutually_exclusive_group(required=True)
            group.add_argument("--preset", choices=PRESETS)
            group.add_argument("--joint", help="JSON file with a joint table")
            p.add_argument("--n", type=int, required=True)
            _shared(p, "--seed", "--out")
        elif name == "train":
            from .training import WEIGHTINGS, TrainConfig
            _shared(p, "--data")
            p.add_argument("--val", required=True)
            _shared(p, "--vocab")
            _field_flags(p, TrainConfig, choices={"weighting": list(WEIGHTINGS)})
            _shared(p, "--out")
        elif name == "eval":
            _shared(p, "--checkpoint", "--data", "--vocab", "--out")
        elif name == "probe":
            from .probe import ProbeConfig
            _shared(p, "--checkpoint", "--data", "--vocab")
            _field_flags(p, ProbeConfig, ("k", "l2"))
            _shared(p, "--seed", "--out")
        elif name == "shap-diff":
            from .explain import DEFAULT_THETA, EngineConfig
            p.add_argument("--checkpoint-bal", required=True)
            p.add_argument("--checkpoint-cmp", required=True)
            _shared(p, "--data", "--vocab")
            p.add_argument("--theta", type=float, default=DEFAULT_THETA)
            p.add_argument("--target-label", type=int, action="append", help="repeatable; defaults to all labels")
            p.add_argument("--max-datapoints", type=int, default=0, help="0 = no cap")
            _field_flags(p, EngineConfig, ("exact_limit", "n_permutations"))
            _shared(p, "--seed", "--out")
        else:
            p.add_argument("--config", default=None)
            p.add_argument("--print-schema", action="store_true", help="print the config schema and exit")
            p.add_argument("--out", **SHARED["--out"], help="override the config's out_dir")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # The first argument that names a command is the one argparse runs: every argument before that is an option.
    args = build_parser(next((arg for arg in argv if arg in COMMANDS), None)).parse_args(argv)
    try:
        if hasattr(args, "seed"):  # before any file is read
            check_root_seed(args.seed)
        if args.command == "experiment":
            return cmd_experiment(args)
        manifest = _manifest(args)
        message = COMMANDS[args.command][1](args, manifest)  # a command that fails writes no manifest
        manifest.write()
        print(message)
        return 0
    except (ValueError, FloatingPointError, OSError) as e:
        json.dump({"error": str(e), "type": type(e).__name__}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
