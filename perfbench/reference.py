"""The benchmark's own reading of pblab artifacts, its own forward pass and its checks.

Nothing here imports pblab. Every correctness check compares an artifact
the program wrote with a value computed here from the inputs, or with a
property the method must have; none compares with a stored earlier output.
A failed check raises ``CheckFailed``.
"""

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = b"PBL1"
PARAM_FIELDS = ("embedding", "hidden_w", "hidden_b", "out_w", "out_b")
CATEGORIES = ("pos", "neg", "neutral")
SHAP_TOL = 1e-9
EXACT_TOL = 1e-12
EXACT_SHAPLEY_MAX_TOKENS = 13  # 8,192 coalitions: the longest input the checks enumerate
SAMPLING_Z = 6.0               # standard errors allowed to a permutation-sampled value


class CheckFailed(AssertionError):
    pass


def expect(condition, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_checkpoint(path) -> dict:
    """Parameters of a PBL1 checkpoint as float64 arrays, read from the documented layout."""
    data = Path(path).read_bytes()
    expect(data[:4] == CHECKPOINT_MAGIC, f"{path}: bad magic")
    end = data.index(b"\n", 4)
    dims = json.loads(data[4:end])["dims"]
    V, e, h, C = dims["vocab_size"], dims["embed_dim"], dims["hidden_dim"], dims["n_classes"]
    shapes = ((V + 1, e), (e, h), (h,), (h, C), (C,))
    flat = np.frombuffer(data, dtype="<f4", offset=end + 1)
    expect(flat.size == sum(int(np.prod(s)) for s in shapes), f"{path}: payload size")
    params, offset = {}, 0
    for name, shape in zip(PARAM_FIELDS, shapes):
        count = int(np.prod(shape))
        params[name] = flat[offset:offset + count].reshape(shape).astype(np.float64)
        offset += count
    return params


def read_vocab(path) -> dict:
    with open(path, encoding="utf-8") as f:
        d = json.load(f)
    return {"tokens": list(d["tokens"]), "languages": list(d["languages"]),
            "labels": [str(x) for x in d["labels"]]}


def read_jsonl(path, vocab: dict) -> list:
    """Records as (id, language index, label index, token-id array), in file order."""
    token_ids = {t: i for i, t in enumerate(vocab["tokens"])}
    langs = {s: i for i, s in enumerate(vocab["languages"])}
    labels = {s: i for i, s in enumerate(vocab["labels"])}
    out = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            if not line.strip():
                continue
            rec = json.loads(line)
            words = rec["tokens"] if "tokens" in rec else str(rec["text"]).split()
            out.append((str(rec["id"]), langs[str(rec["lang"])], labels[str(rec["label"])],
                        np.array([token_ids[w] for w in words], dtype=np.int64)))
    return out


def forward(params: dict, token_lists) -> np.ndarray:
    """Class probabilities (B, C) of the mean-pooled tanh classifier, one example at a time."""
    emb = params["embedding"]
    return forward_means(params, np.stack([emb[np.asarray(t, dtype=np.int64)].mean(axis=0) for t in token_lists]))


def forward_means(params: dict, means: np.ndarray) -> np.ndarray:
    """Class probabilities (B, C) from mean embeddings (B, e)."""
    z = np.tanh(means @ params["hidden_w"] + params["hidden_b"]) @ params["out_w"] + params["out_b"]
    z -= z.max(axis=1, keepdims=True)
    p = np.exp(z)
    return p / p.sum(axis=1, keepdims=True)


def mask_probs(params: dict) -> np.ndarray:
    """Probabilities on the all-mask input: its mean embedding is the mask row."""
    return forward(params, [[params["embedding"].shape[0] - 1]])[0]


def eval_table(probs: np.ndarray, records: list, n_languages: int) -> dict:
    """Overall and per-language accuracy and the (L, C) predicted-label fractions."""
    preds = probs.argmax(axis=1)
    langs = np.array([r[1] for r in records])
    labels = np.array([r[2] for r in records])
    correct = preds == labels
    C = probs.shape[1]
    per_lang, dist = [], np.zeros((n_languages, C))
    for lang in range(n_languages):
        sel = langs == lang
        per_lang.append(int(correct[sel].sum()) / int(sel.sum()))
        dist[lang] = np.bincount(preds[sel], minlength=C) / int(sel.sum())
    return {"overall_accuracy": int(correct.sum()) / len(records),
            "per_language_accuracy": per_lang, "pred_dist": dist}


def check_eval(reported: dict, expected: dict, where: str) -> None:
    """Reported accuracy and predicted-label distribution equal the recomputed ones."""
    expect(abs(reported["overall_accuracy"] - expected["overall_accuracy"]) <= EXACT_TOL,
           f"{where}: accuracy {reported['overall_accuracy']} != recomputed {expected['overall_accuracy']}")
    expect(np.allclose(reported["per_language_accuracy"], expected["per_language_accuracy"],
                       rtol=0, atol=EXACT_TOL), f"{where}: per-language accuracy differs")
    expect(np.allclose(np.asarray(reported["pred_dist"]), expected["pred_dist"], rtol=0, atol=EXACT_TOL),
           f"{where}: predicted-label distribution differs from the recomputed one")


def check_masked(reported, params: dict, where: str) -> None:
    expect(np.allclose(np.asarray(reported), mask_probs(params), rtol=0, atol=EXACT_TOL),
           f"{where}: masked probabilities differ from the all-mask forward pass")


def read_shap_report(csv_path, sidecar_path) -> tuple:
    """(rows, sidecar): rows maps (language, label, category) to (mean_cum_diff, n_datapoints)."""
    rows = {}
    with open(csv_path, encoding="utf-8", newline="") as f:
        for row in csv.DictReader(f):
            key = (int(row["language"]), int(row["label"]), row["category"])
            rows[key] = (float(row["mean_cum_diff"]), int(row["n_datapoints"]))
    with open(sidecar_path, encoding="utf-8") as f:
        return rows, json.load(f)


def check_shapdiff(csv_path, sidecar_path, params_bal: dict, params_cmp: dict, records: list,
                   labels, tags) -> None:
    """Additivity identity, base values and split fractions of one cumulative-diff report.

    For every (language, label) the category sums of ``mean_cum_diff`` add up
    to the mean over that language's datapoints of (p_cmp - b_cmp) - (p_bal - b_bal).
    That follows from sum_i S(t_i) + b = p(T, y), which any correct Shapley
    engine satisfies, so the check does not depend on which engine ran.
    """
    rows, sidecar = read_shap_report(csv_path, sidecar_path)
    tokens = [r[3] for r in records]
    p_bal, p_cmp = forward(params_bal, tokens), forward(params_cmp, tokens)
    b_bal, b_cmp = mask_probs(params_bal), mask_probs(params_cmp)
    langs = np.array([r[1] for r in records])
    for label in labels:
        gain = (p_cmp[:, label] - b_cmp[label]) - (p_bal[:, label] - b_bal[label])
        for lang in sorted(set(langs.tolist())):
            n = int((langs == lang).sum())
            got = [rows.get((lang, label, cat)) for cat in CATEGORIES]
            expect(None not in got, f"{csv_path}: rows missing for language {lang}, label {label}")
            expect(all(count == n for _, count in got),
                   f"{csv_path}: language {lang}, label {label}: n_datapoints != {n}")
            total = sum(mean for mean, _ in got)
            want = float(gain[langs == lang].mean())
            expect(abs(total - want) <= SHAP_TOL,
                   f"{csv_path}: language {lang}, label {label}: category sum {total!r} != {want!r}")
        base = sidecar["base_values"][str(label)]
        for tag, b in zip(tags, (b_bal, b_cmp)):
            expect(abs(base[tag] - b[label]) <= SHAP_TOL,
                   f"{sidecar_path}: base value of {tag} for label {label} differs from the all-mask forward pass")
    expect(len(rows) == 3 * len(set(langs.tolist())) * len(labels), f"{csv_path}: unexpected rows")
    fractions = sidecar["split_fractions"]
    expect(set(fractions) == set(CATEGORIES) and all(0.0 <= v <= 1.0 for v in fractions.values())
           and abs(sum(fractions.values()) - 1.0) <= SHAP_TOL, f"{sidecar_path}: split fractions do not sum to 1")


def shapley_marginals(params: dict, tokens, label: int) -> tuple:
    """Every position's marginal in every coalition, with its ordering weight, by full enumeration.

    Bit i of coalition A says whether position i is present; v(A) is the
    label's probability when every absent position is the mask token.
    ``marg[A, i]`` is v(A + i) - v(A) for A without i. ``weight[A, i]`` is
    the probability that a uniform random ordering puts exactly A before i,
    |A|! (n-1-|A|)! / n!, and 0 when i is in A. So the exact Shapley value is
    sum_A weight * marg, and a value averaged over P sampled orderings has
    variance (sum_A weight * marg^2 - S^2) / P. Returns (marg, weight, base).
    """
    n = len(tokens)
    emb = params["embedding"]
    coalitions = np.arange(2 ** n)
    absent = ((coalitions[:, None] >> np.arange(n)) & 1) == 0
    sizes = n - absent.sum(axis=1)
    means = ((~absent) @ emb[np.asarray(tokens, dtype=np.int64)] + (n - sizes)[:, None] * emb[-1]) / n
    v = forward_means(params, means)[:, label]
    marg = np.where(absent, v[coalitions[:, None] | (1 << np.arange(n))] - v[:, None], 0.0)
    fact = [math.factorial(k) for k in range(n + 1)]
    by_size = np.array([fact[k] * fact[n - 1 - k] / fact[n] for k in range(n)] + [0.0])
    return marg, np.where(absent, by_size[sizes][:, None], 0.0), float(v[0])


def _categories_within(value: float, theta: float, slack: float) -> tuple:
    """The categories (pos > theta, neg < -theta, neutral otherwise) of the values within slack of value."""
    return tuple(c for c, hit in zip(CATEGORIES, (value + slack > theta, value - slack < -theta,
                                                  value - slack <= theta and value + slack >= -theta)) if hit)


def check_shap_categories(csv_path, sidecar_path, params_bal: dict, params_cmp: dict, records: list,
                          labels) -> None:
    """Category means and split fractions of a cumulative-diff report, from exact Shapley values.

    Every record has at most EXACT_SHAPLEY_MAX_TOKENS tokens. For each
    (record, label) the benchmark enumerates every coalition of both models,
    puts each position in a category by the balanced model's exact value
    against the sidecar's theta, and sums S_cmp - S_bal per category. Where
    the program's engine enumerated too (n <= exact_limit) the report must
    match within 1e-9. Where it averaged P sampled orderings, each value may
    be off by SAMPLING_Z of its standard errors, computed from the same
    enumeration: a category mean gets that much slack per position, and a
    position whose balanced value lies that close to +-theta may fall in
    either category. The check passes if some choice for those positions
    matches every row and split fraction.
    """
    rows, sidecar = read_shap_report(csv_path, sidecar_path)
    theta, engine = sidecar["theta"], sidecar["engine"]
    sums, slack, counts, n_points = {}, {}, dict.fromkeys(CATEGORIES, 0), {}
    open_positions = []  # (language, label, diff, categories it may fall in)
    for _, lang, _, tokens in records:
        n = len(tokens)
        expect(n <= EXACT_SHAPLEY_MAX_TOKENS, f"{n} tokens is too long to enumerate")
        for label in labels:
            n_points[lang, label] = n_points.get((lang, label), 0) + 1
            marg_bal, weight, _ = shapley_marginals(params_bal, tokens, label)
            marg_diff = shapley_marginals(params_cmp, tokens, label)[0] - marg_bal
            s_bal, diff = (weight * marg_bal).sum(axis=0), (weight * marg_diff).sum(axis=0)
            if n <= engine["exact_limit"]:
                err_bal = err_diff = np.zeros(n)
            else:
                def stderr(marg, s):
                    return np.sqrt(np.maximum((weight * marg ** 2).sum(axis=0) - s ** 2, 0.0)
                                   / engine["n_permutations"])
                err_bal = SAMPLING_Z * stderr(marg_bal, s_bal)
                err_diff = SAMPLING_Z * stderr(marg_diff, diff)
            for i in range(n):
                cats = _categories_within(s_bal[i], theta, err_bal[i] + SHAP_TOL)
                for cat in cats:
                    slack[lang, label, cat] = slack.get((lang, label, cat), 0.0) + err_diff[i]
                if len(cats) == 1:
                    sums[lang, label, cats[0]] = sums.get((lang, label, cats[0]), 0.0) + diff[i]
                    counts[cats[0]] += 1
                else:
                    open_positions.append((lang, label, diff[i], cats))
    expect(set(rows) == {(lang, label, c) for lang, label in n_points for c in CATEGORIES},
           f"{csv_path}: rows are not one per (language, label, category)")
    total = sum(counts.values()) + len(open_positions)
    worst = None
    for choice in itertools.product(*(cats for *_, cats in open_positions)):
        s, c = dict(sums), dict(counts)
        for (lang, label, d, _), cat in zip(open_positions, choice):
            s[lang, label, cat] = s.get((lang, label, cat), 0.0) + d
            c[cat] += 1
        misses = [f"{key}: {rows[key][0]!r} != {s.get(key, 0.0) / n_points[key[:2]]!r}"
                  for key in rows if abs(rows[key][0] - s.get(key, 0.0) / n_points[key[:2]])
                  > SHAP_TOL + slack.get(key, 0.0) / n_points[key[:2]]]
        misses += [f"split fraction {cat}: {sidecar['split_fractions'][cat]!r} != {c[cat] / total!r}"
                   for cat in CATEGORIES if abs(sidecar["split_fractions"][cat] - c[cat] / total) > SHAP_TOL]
        if not misses:
            return
        worst = worst or misses
    raise CheckFailed(f"{csv_path}: report differs from exact Shapley values: {'; '.join(worst[:3])}")


def shap_subset(records: list, max_datapoints: int, exact_limit: int) -> list:
    """The datapoints ``run_experiment`` explains, by its documented rule.

    Per language, max_datapoints / L datapoints of at most exact_limit
    tokens, taken round-robin over the label cells, each cell in id order.
    """
    langs = sorted({r[1] for r in records})
    per_lang = max(1, max_datapoints // len(langs))
    subset = []
    for lang in langs:
        cells = {}
        for r in sorted(records, key=lambda r: r[0]):
            if r[1] == lang and len(r[3]) <= exact_limit:
                cells.setdefault(r[2], []).append(r)
        ordered = [cells[c] for c in sorted(cells)]
        picks = []
        for rank in range(max(map(len, ordered), default=0)):
            picks.extend(c[rank] for c in ordered if rank < len(c))
        subset.extend(picks[:per_lang])
    return subset


def expected_overlap(joint: np.ndarray, n: int) -> int:
    """Shared datapoints of the balanced/skewed pair: the sum of per-cell minima of n * table."""
    L, C = joint.shape
    balanced = np.full((L, C), n / (L * C))
    skewed = n * joint
    expect(np.allclose(skewed, np.round(skewed)) and np.allclose(balanced, np.round(balanced)),
           "the benchmark's sizes must make every cell count whole")
    return int(np.minimum(np.round(balanced), np.round(skewed)).sum())


def xnli_skew_table() -> np.ndarray:
    """The paper's XNLI-style skew: language 0 has labels in ratio 3:2:1, language 1 reversed."""
    desc = np.array([3.0, 2.0, 1.0]) / 6.0
    return np.stack([desc, desc[::-1]]) / 2.0


def check_plan(plan_path, balanced_path, imbalanced_path, n: int) -> None:
    """plan.json's overlap is the per-cell minimum of the two plans, and the subsets really share it."""
    with open(plan_path, encoding="utf-8") as f:
        plan = json.load(f)
    bal = np.array(plan["plan_balanced"]["counts"])
    imb = np.array(plan["plan_imbalanced"]["counts"])
    want = expected_overlap(xnli_skew_table(), n)
    expect(int(np.minimum(bal, imb).sum()) == want, f"{plan_path}: per-cell minimum of the plans != {want}")
    overlap = plan["overlap"]
    expect(overlap["overlap_achieved"] == want and overlap["overlap_max"] == want,
           f"{plan_path}: overlap {overlap['overlap_achieved']}/{overlap['overlap_max']} != {want}")
    ids = []
    for path in (balanced_path, imbalanced_path):
        with open(path, encoding="utf-8") as f:
            ids.append({json.loads(line)["id"] for line in f if line.strip()})
    expect(len(ids[0]) == n and len(ids[1]) == n, "subset sizes differ from n")
    expect(len(ids[0] & ids[1]) == want, f"subsets share {len(ids[0] & ids[1])} datapoints, not {want}")


def check_probe(probe_path, n_examples: int) -> None:
    with open(probe_path, encoding="utf-8") as f:
        report = json.load(f)
    expect(sum(report["n_per_language"]) == n_examples,
           f"{probe_path}: n_per_language sums to {sum(report['n_per_language'])}, not {n_examples}")
    expect(all(0.0 <= a <= 1.0 for a in report["fold_accuracies"]) and report["fold_accuracies"],
           f"{probe_path}: a fold accuracy lies outside [0, 1]")


def same_bytes(dir_a: Path, dir_b: Path, pattern: str = "*.csv") -> None:
    """Every file matching ``pattern`` under dir_a exists under dir_b with identical bytes."""
    files = sorted(p.relative_to(dir_a) for p in dir_a.rglob(pattern))
    expect(files, f"{dir_a}: no {pattern} files")
    others = sorted(p.relative_to(dir_b) for p in dir_b.rglob(pattern))
    expect(files == others, f"{dir_b}: a different set of {pattern} files")
    for rel in files:
        expect((dir_a / rel).read_bytes() == (dir_b / rel).read_bytes(),
               f"{rel}: repeated runs of one seed wrote different bytes")
