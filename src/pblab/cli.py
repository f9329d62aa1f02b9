"""Command-line surface: one subcommand per pipeline stage plus `experiment`.

Exit codes: 0 success, 1 domain/data error (a JSON error record goes to
stderr), 2 usage error. Every subcommand writes its artifacts plus a
manifest.json into --out. PBLAB_OUT sets the default output root.
"""

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import corpus as corpus_mod
from . import explain as explain_mod
from . import model as model_mod
from . import probe as probe_mod
from . import sampler as sampler_mod
from . import training as training_mod
from .experiment import Manifest, config_schema, joint_from_config, load_config, run_experiment
from .jsonio import write_csv, write_json
from .seeds import derive_int


def _out_dir(args) -> Path:
    root = Path(os.environ.get("PBLAB_OUT", "."))
    out = Path(args.out) if args.out else root
    out.mkdir(parents=True, exist_ok=True)
    return out


def _args_hash(args) -> str:
    import hashlib

    payload = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    return hashlib.sha256(json.dumps(payload, sort_keys=True, default=str).encode()).hexdigest()


def _load_dataset(data_path, vocab_path):
    vocab = corpus_mod.load_vocab(vocab_path) if vocab_path else None
    return corpus_mod.load_jsonl(data_path, vocab)


def cmd_gen_corpus(args) -> int:
    out = _out_dir(args)
    manifest = Manifest(out, _args_hash(args), args.seed)
    spec = corpus_mod.CorpusSpec(
        n_languages=args.languages, n_classes=args.classes, n_min=args.min_tokens,
        n_max=args.max_tokens, p_signal=args.p_signal, p_noise=args.p_noise,
        fillers_per_language=args.fillers, signals_per_language_class=args.signals,
        seed=args.seed,
    )
    vocab, examples = corpus_mod.generate_corpus(spec, args.per_cell)
    corpus_mod.save_jsonl(examples, vocab, manifest.add(out / "corpus.jsonl"))
    corpus_mod.save_vocab(vocab, manifest.add(out / "vocab.json"))
    manifest.write()
    print(f"wrote {len(examples)} examples to {out / 'corpus.jsonl'}")
    return 0


def cmd_sample(args) -> int:
    out = _out_dir(args)
    manifest = Manifest(out, _args_hash(args), args.seed)
    vocab, pool = _load_dataset(args.data, args.vocab)
    L, C = vocab.n_languages, vocab.n_classes
    if args.preset:
        joint = sampler_mod.preset(args.preset, L, C)
    else:
        with open(args.joint, encoding="utf-8") as f:
            joint = joint_from_config(json.load(f), L, C)
    balanced, imbalanced, overlap = sampler_mod.sample_paired(pool, joint, args.n, seed=args.seed)
    corpus_mod.save_jsonl(balanced, vocab, manifest.add(out / "balanced.jsonl"))
    corpus_mod.save_jsonl(imbalanced, vocab, manifest.add(out / "imbalanced.jsonl"))
    sampler_mod.write_plan_json(overlap, manifest.add(out / "plan.json"))
    manifest.write()
    print(f"overlap {overlap.overlap_achieved}/{args.n}")
    return 0


def cmd_train(args) -> int:
    out = _out_dir(args)
    manifest = Manifest(out, _args_hash(args), args.seed)
    vocab, data = _load_dataset(args.data, args.vocab)
    _, val = corpus_mod.load_jsonl(args.val, vocab)
    config = training_mod.TrainConfig(**{f.name: getattr(args, f.name) for f in fields(training_mod.TrainConfig)})
    params, report = training_mod.train(data, val, vocab, config)
    model_mod.save(params, manifest.add(out / "checkpoint.pbl"), vocab_hash=vocab.content_hash(),
                   manifest={"seed": args.seed, "weighting": args.weighting})
    write_json(manifest.add(out / "train_report.json"), report.to_dict())
    manifest.write()
    print(f"selected epoch {report.selected_epoch}, val accuracy {report.final.get('val_accuracy')}")
    return 0


def cmd_eval(args) -> int:
    out = _out_dir(args)
    manifest = Manifest(out, _args_hash(args), None)
    vocab, data = _load_dataset(args.data, args.vocab)
    params, _ = model_mod.load(args.checkpoint, vocab)
    metrics = training_mod.evaluate(params, data, n_languages=vocab.n_languages, n_classes=vocab.n_classes)
    write_json(manifest.add(out / "metrics.json"), metrics.to_dict())
    write_csv(manifest.add(out / "pred_dist.csv"), *training_mod.pred_dist_table(metrics, vocab))
    manifest.write()
    print(f"accuracy {metrics.overall_accuracy}")
    return 0


def cmd_probe(args) -> int:
    out = _out_dir(args)
    manifest = Manifest(out, _args_hash(args), args.seed)
    vocab, data = _load_dataset(args.data, args.vocab)
    params, _ = model_mod.load(args.checkpoint, vocab)
    report = probe_mod.probe_model(params, data, k=args.k, seed=args.seed, l2=args.l2)
    write_json(manifest.add(out / "probe.json"), report.to_dict())
    write_csv(manifest.add(out / "probe.csv"), probe_mod.CSV_HEADER, report.csv_rows(args.model_tag, args.corpus_tag))
    manifest.write()
    print(f"probe mean accuracy {report.mean_accuracy}")
    return 0


def cmd_shap_diff(args) -> int:
    engine = explain_mod.EngineConfig(exact_limit=args.exact_limit,
                                      n_permutations=args.n_permutations,
                                      seed=derive_int(args.seed, "shapdiff"))
    engine.validate()  # these checks run before any file is read or written
    if not args.theta > 0:
        raise ValueError("theta must be > 0")
    if args.max_datapoints < 0:
        raise ValueError("max_datapoints must be >= 0 (0 = no cap)")
    out = _out_dir(args)
    manifest = Manifest(out, _args_hash(args), args.seed)
    vocab, data = _load_dataset(args.data, args.vocab)
    params_bal, _ = model_mod.load(args.checkpoint_bal, vocab)
    params_cmp, _ = model_mod.load(args.checkpoint_cmp, vocab)
    if args.max_datapoints and len(data) > args.max_datapoints:
        data = sorted(data, key=lambda ex: ex.id)[: args.max_datapoints]
    report = explain_mod.cumulative_diff(
        params_bal, params_cmp, data,
        y_mode=args.y_mode,
        target_labels=args.target_label if args.target_label else None,
        theta=args.theta, engine=engine,
    )
    report.write_csv(manifest.add(out / "shapdiff.csv"))
    report.write_sidecar(manifest.add(out / "shapdiff.json"))
    manifest.write()
    print(f"wrote {out / 'shapdiff.csv'}")
    return 0


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
                       choices=training_mod.WEIGHTINGS if f.name == "weighting" else None)
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
    p.add_argument("--model-tag", default="model")
    p.add_argument("--corpus-tag", default="data")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("shap-diff", help="cumulative attribution difference between two checkpoints")
    p.add_argument("--checkpoint-bal", required=True)
    p.add_argument("--checkpoint-cmp", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--vocab", default=None)
    p.add_argument("--theta", type=float, default=explain_mod.DEFAULT_THETA)
    p.add_argument("--y-mode", choices=["fixed", "true"], default="fixed")
    p.add_argument("--target-label", type=int, action="append",
                   help="repeatable; with --y-mode fixed, defaults to all labels")
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
        return args.func(args)
    except (ValueError, FloatingPointError, OSError) as e:
        json.dump({"error": str(e), "type": type(e).__name__}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
