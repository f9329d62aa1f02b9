"""Command-line surface: one subcommand per pipeline stage plus `experiment`.

Exit codes: 0 success, 1 domain/data error (a JSON error record goes to
stderr), 2 usage error. A stage subcommand is one call into experiment's stage
layer: it writes its artifacts plus a manifest.json with the stage's timings
into --out (default $PBLAB_OUT), and a command that fails writes no manifest.
"""

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import fields

if "numpy" not in sys.modules:  # the CLI owns its process: one BLAS thread unless the caller set a count
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import corpus as corpus_mod
from . import explain as explain_mod
from . import model as model_mod
from . import probe as probe_mod
from . import sampler as sampler_mod
from . import training as training_mod
from .experiment import (Manifest, SyntheticCorpus, check_target_labels, config_schema, joint_from_config,
                         load_config, load_dataset, run_experiment, stage_corpus, stage_evaluate, stage_explain,
                         stage_probe, stage_sample, stage_train)
from .seeds import derive_int


def _manifest(args) -> Manifest:
    """The command's manifest in --out (default $PBLAB_OUT, else "."), keyed by every argument but --out."""
    payload = {k: v for k, v in vars(args).items() if k not in ("func", "out")}
    config_hash = hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()
    return Manifest(args.out or os.environ.get("PBLAB_OUT", "."), config_hash, getattr(args, "seed", None))


def cmd_gen_corpus(args, manifest: Manifest) -> str:
    spec = SyntheticCorpus(
        n_languages=args.languages, n_classes=args.classes, n_min=args.min_tokens,
        n_max=args.max_tokens, p_signal=args.p_signal, p_noise=args.p_noise,
        fillers_per_language=args.fillers, signals_per_language_class=args.signals,
        seed=args.seed, n_examples_per_cell=args.per_cell,
    )
    _, examples = stage_corpus(spec, manifest.root, manifest)
    return f"wrote {len(examples)} examples to {manifest.root / 'corpus.jsonl'}"


def cmd_sample(args, manifest: Manifest) -> str:
    vocab, pool = load_dataset(args.data, args.vocab)
    raw_joint = {"preset": args.preset}
    if args.joint:
        with open(args.joint, encoding="utf-8") as f:
            raw_joint = json.load(f)
    joint = joint_from_config(raw_joint, vocab.n_languages, vocab.n_classes)
    *_, overlap = stage_sample(pool, vocab, joint, args.n, args.seed, manifest.root, manifest)
    return f"overlap {overlap['overlap_achieved']}/{args.n}"


def cmd_train(args, manifest: Manifest) -> str:
    config = training_mod.TrainConfig(**{f.name: getattr(args, f.name) for f in fields(training_mod.TrainConfig)})
    config.validate()  # before any file is read
    vocab, data = load_dataset(args.data, args.vocab)
    _, val = corpus_mod.load_jsonl(args.val, vocab)
    header = {"seed": args.seed, "weighting": args.weighting}
    [(_, report)] = stage_train([(data, config, manifest.root, header)], val, vocab, manifest)
    return f"selected epoch {report.selected_epoch}, val accuracy {report.final.get('val_accuracy')}"


def cmd_eval(args, manifest: Manifest) -> str:
    vocab, data = load_dataset(args.data, args.vocab)
    params, _ = model_mod.load(args.checkpoint, vocab)
    metrics = stage_evaluate(params, data, vocab, manifest.root, manifest)
    return f"accuracy {metrics.overall_accuracy}"


def cmd_probe(args, manifest: Manifest) -> str:
    probe_mod.ProbeConfig(k=args.k, l2=args.l2).validate()  # before any file is read
    vocab, data = load_dataset(args.data, args.vocab)
    params, _ = model_mod.load(args.checkpoint, vocab)
    reports = stage_probe({"model": (params, args.seed)}, data, "data", {"k": args.k, "l2": args.l2},
                          manifest.root / "probe.csv", manifest, json_path=manifest.root / "probe.json")
    return f"probe mean accuracy {reports['model'].mean_accuracy}"


def cmd_shap_diff(args, manifest: Manifest) -> str:
    engine = explain_mod.EngineConfig(exact_limit=args.exact_limit, n_permutations=args.n_permutations,
                                      seed=derive_int(args.seed, "shapdiff"))
    engine.validate()  # these checks run before any file is read or written
    if not 0 < args.theta < math.inf:
        raise ValueError("theta must be > 0")
    if args.max_datapoints < 0:
        raise ValueError("max_datapoints must be >= 0 (0 = no cap)")
    if args.target_label is not None:
        check_target_labels(args.target_label)
    vocab, data = load_dataset(args.data, args.vocab)
    bal, cmp = (model_mod.load(path, vocab)[0] for path in (args.checkpoint_bal, args.checkpoint_cmp))
    explain_mod.check_pair(bal, cmp)
    if args.max_datapoints and len(data) > args.max_datapoints:
        data = sorted(data, key=lambda ex: ex.id)[: args.max_datapoints]
    stage_explain({"bal": bal, "cmp": cmp}, "bal", {"shapdiff": "cmp"}, data, engine, args.theta, manifest.root,
                  manifest, target_labels=args.target_label)
    return f"wrote {manifest.root / 'shapdiff.csv'}"


def cmd_experiment(args) -> int:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pblab",
        description="Controlled experiments on per-language label imbalance in multilingual classifiers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="generate a synthetic multilingual corpus")
    p.add_argument("--languages", type=int, default=2)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--min-tokens", type=int, default=6)
    p.add_argument("--max-tokens", type=int, default=12)
    p.add_argument("--p-signal", type=float, default=0.25)
    p.add_argument("--p-noise", type=float, default=corpus_mod.CorpusSpec.p_noise)
    p.add_argument("--fillers", type=int, default=corpus_mod.CorpusSpec.fillers_per_language)
    p.add_argument("--signals", type=int, default=corpus_mod.CorpusSpec.signals_per_language_class)
    p.add_argument("--per-cell", type=int, required=True)
    p.add_argument("--seed", type=int, default=corpus_mod.CorpusSpec.seed)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("sample", help="draw the balanced/imbalanced training pair")
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", default=None)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=sampler_mod.PRESETS)
    group.add_argument("--joint", help="JSON file with a joint table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("train", help="train the classifier")
    p.add_argument("--data", required=True)
    p.add_argument("--val", required=True)
    p.add_argument("--vocab", default=None)
    for f in fields(training_mod.TrainConfig):  # one flag per field, defaulting to the field's default
        p.add_argument("--" + f.name.replace("_", "-"), type=f.type, default=f.default,
                       choices=list(training_mod.WEIGHTINGS) if f.name == "weighting" else None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("probe", help="language-identification probe on pooled features")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", default=None)
    p.add_argument("--k", type=int, default=probe_mod.ProbeConfig.k)
    p.add_argument("--l2", type=float, default=probe_mod.ProbeConfig.l2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("shap-diff", help="cumulative attribution difference between two checkpoints")
    p.add_argument("--checkpoint-bal", required=True)
    p.add_argument("--checkpoint-cmp", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", default=None)
    p.add_argument("--theta", type=float, default=explain_mod.DEFAULT_THETA)
    p.add_argument("--target-label", type=int, action="append", help="repeatable; defaults to all labels")
    p.add_argument("--max-datapoints", type=int, default=0, help="0 = no cap")
    p.add_argument("--exact-limit", type=int, default=explain_mod.DEFAULT_EXACT_LIMIT)
    p.add_argument("--n-permutations", type=int, default=explain_mod.DEFAULT_N_PERMUTATIONS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_shap_diff)

    p = sub.add_parser("experiment", help="run the full multi-seed experiment from a config file")
    p.add_argument("--config", default=None)
    p.add_argument("--print-schema", action="store_true", help="print the config schema and exit")
    p.add_argument("--out", default=None, help="override the config's out_dir")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.func is cmd_experiment:
            return cmd_experiment(args)
        manifest = _manifest(args)
        message = args.func(args, manifest)  # a command that fails writes no manifest
        manifest.write()
        print(message)
        return 0
    except (ValueError, FloatingPointError, OSError) as e:
        json.dump({"error": str(e), "type": type(e).__name__}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
