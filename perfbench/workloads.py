"""The three workloads: inputs made from the workload seed, one round of work, and its checks.

Each workload has ``setup(seed, scale, d)``, which makes every input the
program receives into directory ``d``; ``load(d)``, which reads them back;
``run_round(inputs, out, tracer)``, which times one round of the same
operations; and ``check(inputs, rounds)``, which raises ``CheckFailed`` when
an output is wrong. Input sizes come from ``SCALES``: ``full`` is what the
benchmark measures, ``smoke`` is for the self-test.
"""

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

import reference as ref

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 170.0

SCALES = {
    "full": {
        # tests/test_acceptance.py::directional_config at lambda = 0.
        "acceptance_seed": {"n_max": 10, "per_cell": 2020, "train_size": 6000, "val_size": 600,
                            "test_size": 2400, "epochs": 20, "max_datapoints": 120, "holdout": 501},
        "explain_long": {"per_cell": 400, "train_size": 1200, "val_size": 120, "epochs": 4,
                         "lengths": (13, 20, 40, 64, 100, 128, 150)},
        "ingest_cli": {"types_per_language": 4000, "pool_per_cell": 700, "val_per_cell": 50,
                       "test_per_cell": 100, "n": 2400, "epochs": 6, "ref_per_cell": 100,
                       "ref_epochs": 3, "shap_lengths": (9, 12, 24, 48, 72, 96)},
    },
    "smoke": {
        "acceptance_seed": {"n_max": 8, "per_cell": 150, "train_size": 360, "val_size": 60,
                            "test_size": 120, "epochs": 2, "max_datapoints": 12, "holdout": 60},
        "explain_long": {"per_cell": 60, "train_size": 120, "val_size": 30, "epochs": 1,
                         "lengths": (13, 24)},
        "ingest_cli": {"types_per_language": 400, "pool_per_cell": 60, "val_per_cell": 10,
                       "test_per_cell": 20, "n": 240, "epochs": 1, "ref_per_cell": 20,
                       "ref_epochs": 1, "shap_lengths": (9, 12, 14, 16)},
    },
}


@dataclass
class Round:
    """One round's measurements and what its checks need."""

    wall_s: float
    cpu_s: float
    attempted: int
    failed: int
    out: Path
    peak_rss_mb: float | None = None   # largest child, for workloads that run children
    data: object = None


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def run_child(cmd: list, log: Path):
    """Run ``cmd`` from the repository root; returns (wall seconds, exit code, its own rusage)."""
    with open(log, "wb") as f:
        start = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=f, stderr=subprocess.STDOUT, cwd=ROOT, env=child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        except BaseException:
            p.kill()
            p.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p.returncode, usage


def _installed(tracer):
    return tracer.installed() if tracer is not None else nullcontext()


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _read_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


class AcceptanceSeed:
    """One seed of ``run_experiment`` on the acceptance config, in-process."""

    min_rounds = 2  # the second round re-runs the seed to check byte-identical CSVs
    arms = ("balanced", "imbalanced", "imbalanced_cw")

    def __init__(self, scale: dict):
        self.scale = scale

    def setup(self, seed: int, d: Path) -> None:
        from pblab.experiment import ExperimentConfig

        s = self.scale
        config = ExperimentConfig.from_dict({
            "name": "acceptance-seed", "seeds": [seed],
            "corpus": {"n_languages": 2, "n_classes": 3, "n_min": 4, "n_max": s["n_max"],
                       "p_signal": 0.18, "p_noise": 0.10, "fillers_per_language": 40,
                       "signals_per_language_class": 8, "n_examples_per_cell": s["per_cell"]},
            "joint": {"preset": "xnli_skew"},
            "train_size": s["train_size"], "val_size": s["val_size"], "test_size": s["test_size"],
            "train": {"epochs": s["epochs"], "batch_size": 32, "lr": 0.1, "mask_entropy_coeff": 0.0},
            "explain": {"target_labels": [0], "max_datapoints": s["max_datapoints"]},
            "probe": {"holdout_per_language": s["holdout"]},
            "out_dir": "unused",
        })
        _write_json(d / "config.json", config.to_dict())

    def load(self, d: Path):
        from pblab.experiment import ExperimentConfig

        return ExperimentConfig.from_dict(_read_json(d / "config.json"))

    def run_round(self, config, out: Path, tracer) -> Round:
        from pblab import experiment

        with _installed(tracer):
            t0, c0 = time.perf_counter(), time.process_time()
            summary = experiment.run_experiment(config, out_dir=out)
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        for failure in summary["failures"]:
            print(f"acceptance_seed: seed failed: {failure['error']}", file=sys.stderr)
        return Round(wall, cpu, attempted=1, failed=int(bool(summary["failures"])), out=out, data=summary)

    def check(self, config, rounds: list) -> None:
        good = [r for r in rounds if not r.failed]
        for r in good:
            self._check_round(config, r)
        for r in good[1:]:
            ref.same_bytes(good[0].out, r.out)

    def _check_round(self, config, r: Round) -> None:
        seed = config.seeds[0]
        sd = r.out / f"seed_{seed}"
        record = r.data["per_seed"][0]
        want = ref.expected_overlap(ref.xnli_skew_table(), config.train_size)
        got = record["overlap"]["overlap_achieved"]
        ref.expect(got == want, f"summary: {got} shared datapoints, the xnli_skew table gives {want}")
        sub = sd / "subsets"
        ref.check_plan(sub / "plan.json", sub / "balanced.jsonl", sub / "imbalanced.jsonl", config.train_size)
        vocab = ref.read_vocab(sd / "corpus" / "vocab.json")
        test = self._test_split(ref.read_jsonl(sd / "corpus" / "corpus.jsonl", vocab), config, seed)
        params = {}
        for arm in self.arms:
            params[arm] = ref.read_checkpoint(sd / "arms" / arm / "checkpoint.pbl")
            table = ref.eval_table(ref.forward(params[arm], [t[3] for t in test]), test, len(vocab["languages"]))
            ref.check_eval(_read_json(sd / "arms" / arm / "metrics.json"), table, f"{arm}/metrics.json")
            a = record["arms"][arm]
            ref.check_eval({"overall_accuracy": a["accuracy"], "per_language_accuracy": a["per_language_accuracy"],
                            "pred_dist": a["pred_dist"]}, table, f"summary {arm}")
            ref.check_masked(a["masked_probs"], params[arm], f"summary {arm}")
        explained = ref.shap_subset(test, config.explain["max_datapoints"], config.explain["exact_limit"])
        labels = config.explain["target_labels"]
        for other, tag in (("imbalanced", "bal_vs_imbal"), ("imbalanced_cw", "bal_vs_imbal_cw")):
            report = (sd / "shapdiff" / f"{tag}.csv", sd / "shapdiff" / f"{tag}.json")
            ref.check_shapdiff(*report, params["balanced"], params[other], explained, labels, ("bal", other))
            ref.check_shap_categories(*report, params["balanced"], params[other], explained, labels)

    @staticmethod
    def _test_split(pool: list, config, seed: int) -> list:
        """The records of the test split the program carved from the saved corpus."""
        from pblab.corpus import Example
        from pblab.sampler import split_eval

        examples = [Example(id=i, language=lang, label=c, tokens=tuple(t.tolist())) for i, lang, c, t in pool]
        _, test = split_eval(examples, config.val_size, config.test_size, seed=seed)
        ids = {ex.id for ex in test}
        return [r for r in pool if r[0] in ids]


class ExplainLong:
    """``cumulative_diff`` with the default engine over long test datapoints, in-process."""

    min_rounds = 1
    labels = (0,)
    short_theta = 1e-4

    def __init__(self, scale: dict):
        self.scale = scale

    def setup(self, seed: int, d: Path) -> None:
        from pblab import corpus, model, sampler, training

        s = self.scale
        spec = corpus.CorpusSpec(n_languages=2, n_classes=3, n_min=4, n_max=12, p_signal=0.18,
                                 p_noise=0.10, fillers_per_language=40, signals_per_language_class=8,
                                 seed=seed)
        vocab, pool = corpus.generate_corpus(spec, s["per_cell"])
        val, _ = sampler.split_eval(pool, s["val_size"], 0, seed=seed)
        val_ids = {ex.id for ex in val}
        train_pool = [ex for ex in pool if ex.id not in val_ids]
        balanced, skewed, _ = sampler.sample_paired(train_pool, sampler.preset("xnli_skew", 2, 3),
                                                    s["train_size"], seed=seed)
        for tag, data in (("bal", balanced), ("cmp", skewed)):
            params, _ = training.train(data, val, vocab, training.TrainConfig(epochs=s["epochs"], seed=seed))
            model.save(params, d / f"{tag}.pbl", vocab_hash=vocab.content_hash())
        # One datapoint at each fixed length, languages alternating, so the cost does not depend on the seed.
        long = []
        for j, n in enumerate(s["lengths"]):
            _, cell_examples = corpus.generate_corpus(replace(spec, n_min=n, n_max=n, seed=seed * 1009 + n), 1)
            ex = cell_examples[(j % 2) * 3 + n % 3]
            long.append(replace(ex, id=f"len{n:03d}:{ex.id}"))
        corpus.save_vocab(vocab, d / "vocab.json")
        corpus.save_jsonl(long, vocab, d / "long.jsonl")

    def load(self, d: Path) -> dict:
        from pblab import corpus, model

        vocab = corpus.load_vocab(d / "vocab.json")
        _, examples = corpus.load_jsonl(d / "long.jsonl", vocab)
        return {"dir": d, "examples": examples,
                "bal": model.load(d / "bal.pbl", vocab)[0], "cmp": model.load(d / "cmp.pbl", vocab)[0]}

    def run_round(self, inputs: dict, out: Path, tracer) -> Round:
        from pblab import explain

        failed = 0
        with _installed(tracer):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                report = explain.cumulative_diff(inputs["bal"], inputs["cmp"], inputs["examples"],
                                                 target_labels=list(self.labels))
            except (ValueError, FloatingPointError, MemoryError) as e:
                print(f"explain_long: cumulative_diff failed: {type(e).__name__}: {e}", file=sys.stderr)
                failed = 1
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        out.mkdir(parents=True, exist_ok=True)
        if not failed:
            report.write_csv(out / "shapdiff.csv")
            report.write_sidecar(out / "shapdiff.json")
            # The short datapoints once more on their own, untimed, so that their rows can be
            # checked against exact Shapley values. The two small models' values are about 1e-4,
            # all below the default theta; a theta of that size splits the positions over every category.
            short = [ex for ex in inputs["examples"] if len(ex.tokens) <= ref.EXACT_SHAPLEY_MAX_TOKENS]
            report = explain.cumulative_diff(inputs["bal"], inputs["cmp"], short, target_labels=list(self.labels),
                                             theta=self.short_theta)
            report.write_csv(out / "short.csv")
            report.write_sidecar(out / "short.json")
        return Round(wall, cpu, attempted=1, failed=failed, out=out)

    def check(self, inputs: dict, rounds: list) -> None:
        d = inputs["dir"]
        records = ref.read_jsonl(d / "long.jsonl", ref.read_vocab(d / "vocab.json"))
        bal, cmp = ref.read_checkpoint(d / "bal.pbl"), ref.read_checkpoint(d / "cmp.pbl")
        short = [r for r in records if len(r[3]) <= ref.EXACT_SHAPLEY_MAX_TOKENS]
        for r in rounds:
            if not r.failed:
                ref.check_shapdiff(r.out / "shapdiff.csv", r.out / "shapdiff.json", bal, cmp, records,
                                   self.labels, ("bal", "cmp"))
                ref.check_shapdiff(r.out / "short.csv", r.out / "short.json", bal, cmp, short,
                                   self.labels, ("bal", "cmp"))
                ref.check_shap_categories(r.out / "short.csv", r.out / "short.json", bal, cmp, short, self.labels)


LANGUAGES = ("xx", "yy")
LABEL_NAMES = ("entailment", "neutral", "contradiction")


def _quantile_lengths(count: int, median: float = 22.0, sigma: float = 0.75, lo: int = 3,
                      hi: int = 300) -> np.ndarray:
    """Lognormal lengths at fixed quantiles: a long tail whose multiset does not depend on the seed."""
    normal = statistics.NormalDist()
    z = np.array([normal.inv_cdf((i + 0.5) / count) for i in range(count)])
    return np.clip(np.round(median * np.exp(sigma * z)), lo, hi).astype(int)


class IngestCorpus:
    """Free-text JSONL records in 2 languages and 3 labels over Zipf-distributed token types.

    Each language owns ``types_per_language`` types drawn with probability
    proportional to 1 / (rank + 2.7)^1.07. Per (language, label) a set of 40
    mid-frequency types is the label signal: each position draws from its own
    label's set with probability 0.12, from another label's with 0.04, and
    from the Zipf law otherwise. The law's constants were chosen, not fitted:
    an exponent just above 1 and a shift of a few ranks give a head of 4.8 %
    for the top type and a batch of 32 records touching about 470 of a
    language's 4,000 embedding rows (see README.md).
    """

    def __init__(self, seed: int, types_per_language: int):
        self.rng = np.random.default_rng([seed, 2])
        V = types_per_language
        ranks = np.arange(1, V + 1)
        zipf = 1.0 / (ranks + 2.7) ** 1.07
        self.zipf = zipf / zipf.sum()
        self.V = V
        self.words = np.array([f"{lang}{i}" for lang in LANGUAGES for i in range(V)], dtype=object)
        band = np.arange(min(50, V // 8), min(2050, V))
        self.signals = [self.rng.permutation(band)[:3 * 40].reshape(3, 40) for _ in LANGUAGES]

    def texts(self, lang: int, label: int, lengths) -> list:
        rng = self.rng
        total = int(np.sum(lengths))
        ids = rng.choice(self.V, size=total, p=self.zipf)
        u = rng.random(total)
        own = u < 0.12
        other = (u >= 0.12) & (u < 0.16)
        sig = self.signals[lang]
        ids[own] = sig[label][rng.integers(40, size=int(own.sum()))]
        other_labels = np.array([c for c in range(3) if c != label])
        n_other = int(other.sum())
        ids[other] = sig[other_labels[rng.integers(2, size=n_other)], rng.integers(40, size=n_other)]
        words = self.words[ids + lang * self.V]
        bounds = np.cumsum(lengths)[:-1]
        return [" ".join(chunk) for chunk in np.split(words, bounds)]

    def write_split(self, path: Path, prefix: str, per_cell: int, head=()) -> None:
        """``head`` lists (lang, label, length) records that sort first by id; then per_cell per cell."""
        recs = []
        for lang, label, n in head:
            recs.append((lang, label, self.texts(lang, label, [n])[0]))
        for lang in range(2):
            for label in range(3):
                lengths = self.rng.permutation(_quantile_lengths(per_cell))
                recs.extend((lang, label, text) for text in self.texts(lang, label, lengths))
        with open(path, "w", encoding="utf-8") as f:
            for i, (lang, label, text) in enumerate(recs):
                f.write(json.dumps({"id": f"{prefix}{i:06d}", "lang": LANGUAGES[lang],
                                    "label": LABEL_NAMES[label], "text": text}) + "\n")

    def write_vocab(self, path: Path) -> None:
        _write_json(path, {"tokens": list(self.words), "mask_id": len(self.words),
                           "languages": list(LANGUAGES), "labels": list(LABEL_NAMES)})


class IngestCli:
    """The stage-by-stage CLI on an ingested corpus, one child process at a time."""

    min_rounds = 3  # the median of three rounds drops one round hit by a burst of contention
    commands = ("sample", "train", "eval", "probe", "shap-diff")
    mask_entropy_coeff = 0.1

    def __init__(self, scale: dict):
        self.scale = scale

    def setup(self, seed: int, d: Path) -> None:
        from pblab import corpus, model, training

        s = self.scale
        gen = IngestCorpus(seed, s["types_per_language"])
        gen.write_vocab(d / "vocab.json")
        gen.write_split(d / "corpus.jsonl", "p", s["pool_per_cell"])
        gen.write_split(d / "val.jsonl", "v", s["val_per_cell"])
        # The first len(shap_lengths) test records by id are the ones shap-diff explains.
        head = [(j % 2, (j // 2) % 3, n) for j, n in enumerate(s["shap_lengths"])]
        gen.write_split(d / "test.jsonl", "t", s["test_per_cell"], head=head)
        gen.write_split(d / "reference.jsonl", "r", s["ref_per_cell"])
        # The balanced reference model that shap-diff compares the trained one against.
        vocab = corpus.load_vocab(d / "vocab.json")
        _, data = corpus.load_jsonl(d / "reference.jsonl", vocab)
        _, val = corpus.load_jsonl(d / "val.jsonl", vocab)
        params, _ = training.train(data, val, vocab, training.TrainConfig(epochs=s["ref_epochs"], seed=seed))
        model.save(params, d / "reference.pbl", vocab_hash=vocab.content_hash())
        _write_json(d / "seed.json", {"seed": seed})

    def load(self, d: Path) -> dict:
        return {"dir": d, "seed": _read_json(d / "seed.json")["seed"]}

    def argv(self, cmd: str, d: Path, out: Path, seed: int) -> list:
        s = self.scale
        common = ["--vocab", str(d / "vocab.json"), "--out", str(out / cmd)]
        ckpt = str(out / "train" / "checkpoint.pbl")
        test = str(d / "test.jsonl")
        return [cmd] + common + {
            "sample": ["--data", str(d / "corpus.jsonl"), "--preset", "xnli_skew", "--n", str(s["n"]),
                       "--seed", str(seed)],
            "train": ["--data", str(out / "sample" / "imbalanced.jsonl"), "--val", str(d / "val.jsonl"),
                      "--weighting", "per_language", "--mask-entropy-coeff", str(self.mask_entropy_coeff),
                      "--epochs", str(s["epochs"]), "--seed", str(seed)],
            "eval": ["--checkpoint", ckpt, "--data", test],
            "probe": ["--checkpoint", ckpt, "--data", test, "--seed", str(seed)],
            "shap-diff": ["--checkpoint-bal", str(d / "reference.pbl"), "--checkpoint-cmp", ckpt,
                          "--data", test, "--target-label", "0",
                          "--max-datapoints", str(len(s["shap_lengths"])), "--seed", str(seed)],
        }[cmd]

    def run_round(self, inputs: dict, out: Path, tracer) -> Round:
        out.mkdir(parents=True, exist_ok=True)
        cpu = peak = 0.0
        failed = 0
        t0, c0 = time.perf_counter(), time.process_time()
        for k, cmd in enumerate(self.commands):
            if failed:  # a later stage needs the earlier stage's outputs
                failed += 1
                continue
            args = self.argv(cmd, inputs["dir"], out, inputs["seed"])
            if tracer is None:
                child = [sys.executable, "-m", "pblab.cli"] + args
                _, code, usage = run_child(child, out / f"{k}-{cmd}.log")
            else:
                spans_path = out / f"{k}-{cmd}.spans.json"
                child = [sys.executable, str(HERE / "clitrace.py"), str(spans_path)] + args
                with tracer.span(f"cli.{cmd}") as parent:
                    _, code, usage = run_child(child, out / f"{k}-{cmd}.log")
                if code == 0:
                    traced = _read_json(spans_path)
                    tracer.absorb(traced["spans"], traced["counts"], parent)
            cpu += usage.ru_utime + usage.ru_stime
            peak = max(peak, usage.ru_maxrss / 1024.0)
            if code != 0:
                print(f"ingest_cli: pblab {cmd} exited {code}; see {out / f'{k}-{cmd}.log'}", file=sys.stderr)
                failed = 1
        wall, cpu = time.perf_counter() - t0, cpu + time.process_time() - c0
        return Round(wall, cpu, attempted=len(self.commands), failed=failed, out=out, peak_rss_mb=peak)

    def check(self, inputs: dict, rounds: list) -> None:
        d = inputs["dir"]
        vocab = ref.read_vocab(d / "vocab.json")
        test = ref.read_jsonl(d / "test.jsonl", vocab)
        shap_records = sorted(test, key=lambda r: r[0])[:len(self.scale["shap_lengths"])]
        reference_params = ref.read_checkpoint(d / "reference.pbl")
        for r in rounds:
            if r.failed:
                continue
            out = r.out
            ref.check_plan(out / "sample" / "plan.json", out / "sample" / "balanced.jsonl",
                           out / "sample" / "imbalanced.jsonl", self.scale["n"])
            params = ref.read_checkpoint(out / "train" / "checkpoint.pbl")
            table = ref.eval_table(ref.forward(params, [t[3] for t in test]), test, len(vocab["languages"]))
            ref.check_eval(_read_json(out / "eval" / "metrics.json"), table, "eval/metrics.json")
            ref.check_probe(out / "probe" / "probe.json", len(test))
            ref.check_shapdiff(out / "shap-diff" / "shapdiff.csv", out / "shap-diff" / "shapdiff.json",
                               reference_params, params, shap_records, (0,), ("bal", "cmp"))


WORKLOADS = {"acceptance_seed": AcceptanceSeed, "explain_long": ExplainLong, "ingest_cli": IngestCli}
