"""Shapley attributions under token masking, and the balanced-vs-skewed comparison report.

The coalition value v(A) is the model's probability for the target label
when every token position outside A is replaced by the mask token; the base
value b = v(empty set) is the probability on a fully masked input of the
same length. Attributions satisfy sum_i S(t_i) + b = p(T, y): exactly for
the exact engine, and enforced by uniform residual redistribution for the
permutation-sampled engine (downstream category sums rely on additivity).

For one explanation all 2^n (or P * (n+1)) coalition states are evaluated
in a single batched forward pass over precomputed mean embeddings, so the
exact engine stays cheap up to the default 12-token limit.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .jsonio import write_json
from .model import ModelParams, forward_means, pack_tokens
from .seeds import derive_rng

CATEGORIES = ("pos", "neg", "neutral")
DEFAULT_THETA = 0.01
DEFAULT_EXACT_LIMIT = 12
DEFAULT_N_PERMUTATIONS = 2000


@dataclass
class ShapExplanation:
    """Per-position attributions for one (datapoint, label) pair."""

    values: np.ndarray   # one value per token position
    base: float          # probability of the label on the all-mask input
    label: int
    model_tag: str = ""

    @property
    def prediction(self) -> float:
        """p(T, y) reconstructed through additivity."""
        return float(self.values.sum() + self.base)


def _coalition_probs(params: ModelParams, presence: np.ndarray, ids: np.ndarray, label: int) -> np.ndarray:
    """v(A) for a (batch, n) boolean presence matrix over packed ``ids``, one batched forward pass."""
    tok_emb = params.embedding[ids].astype(np.float64)
    mask_emb = params.embedding[params.mask_id].astype(np.float64)
    n = presence.shape[1]
    n_present = presence.sum(axis=1, keepdims=True)
    means = (presence @ tok_emb + (n - n_present) * mask_emb) / n
    probs, _ = forward_means(params, means)
    return probs[:, label]


def shapley_exact(params: ModelParams, tokens, label: int,
                  exact_limit: int = DEFAULT_EXACT_LIMIT, model_tag: str = "") -> ShapExplanation:
    """Exact Shapley values by enumeration of all 2^n coalitions.

    S(t_i) = sum over coalitions A not containing i of
    |A|! (n-1-|A|)! / n! * (v(A + i) - v(A)); every coalition value is
    computed once. Additivity holds to float64 accumulation error.
    """
    n = len(tokens)
    if n > exact_limit:
        raise ValueError(
            f"{n} tokens exceeds exact_limit={exact_limit}; use shapley_sampled for long inputs"
        )
    if not (0 <= label < params.n_classes):
        raise ValueError(f"label {label} out of range")
    ids, _ = pack_tokens([tokens], params.mask_id)

    masks = np.arange(2**n, dtype=np.uint32)
    presence = (masks[:, None] >> np.arange(n, dtype=np.uint32)) & 1
    v = _coalition_probs(params, presence.astype(np.float64), ids, label)

    sizes = presence.sum(axis=1)
    fact = [math.factorial(k) for k in range(n + 1)]
    coeff = np.array([fact[k] * fact[n - 1 - k] / fact[n] for k in range(n)])

    values = np.zeros(n)
    for i in range(n):
        without = np.flatnonzero(presence[:, i] == 0)
        with_i = without + (1 << i)
        values[i] = np.sum(coeff[sizes[without]] * (v[with_i] - v[without]))
    return ShapExplanation(values=values, base=float(v[0]), label=label, model_tag=model_tag)


def shapley_sampled(params: ModelParams, tokens, label: int,
                    n_permutations: int = DEFAULT_N_PERMUTATIONS, seed: int = 0,
                    permutations=None, model_tag: str = "") -> ShapExplanation:
    """Shapley values averaged over sampled token orderings.

    Each permutation adds tokens one by one and credits every token with
    its marginal probability change. The additivity residual is spread
    uniformly across tokens so sum_i S(t_i) + b = p(T, y) holds exactly.
    ``permutations`` overrides the seeded uniform draw (e.g. to enumerate
    all n! orderings, which reproduces the exact values).
    """
    n = len(tokens)
    if not (0 <= label < params.n_classes):
        raise ValueError(f"label {label} out of range")
    ids, _ = pack_tokens([tokens], params.mask_id)

    if permutations is None:
        if n_permutations < 1:
            raise ValueError("n_permutations must be >= 1")
        rng = derive_rng(seed, "shapley_sampled")
        perms = rng.permuted(np.tile(np.arange(n), (n_permutations, 1)), axis=1)
    else:
        perms = np.asarray(list(permutations), dtype=int)
        if perms.ndim != 2 or perms.shape[1] != n:
            raise ValueError("permutations must be sequences over all token positions")
    P = perms.shape[0]

    # presence[p, k] = coalition after inserting the first k tokens of permutation p.
    presence = np.zeros((P, n + 1, n))
    rows = np.repeat(np.arange(P), n)
    steps = np.tile(np.arange(n), P)
    presence[rows, steps + 1, perms.ravel()] = 1.0
    presence = np.cumsum(presence, axis=1)
    v = _coalition_probs(params, presence.reshape(P * (n + 1), n), ids, label)
    v = v.reshape(P, n + 1)

    marginals = np.diff(v, axis=1)  # marginal of perms[p, k] at step k
    values = np.zeros(n)
    np.add.at(values, perms.ravel(), marginals.ravel())
    values /= P

    base = float(v[0, 0])
    full = float(v[0, n])
    values += (full - base - values.sum()) / n
    return ShapExplanation(values=values, base=base, label=label, model_tag=model_tag)


@dataclass
class TokenCategories:
    """Position-wise pos/neg/neutral assignment from balanced-model values."""

    categories: tuple
    theta: float


def categorize(expl_bal: ShapExplanation, theta: float = DEFAULT_THETA) -> TokenCategories:
    """pos if S > theta, neg if S < -theta, neutral otherwise (boundaries inclusive)."""
    if theta <= 0:
        raise ValueError("theta must be > 0")
    cats = tuple(
        "pos" if s > theta else "neg" if s < -theta else "neutral" for s in expl_bal.values
    )
    return TokenCategories(categories=cats, theta=theta)


@dataclass
class EngineConfig:
    exact_limit: int = DEFAULT_EXACT_LIMIT
    n_permutations: int = DEFAULT_N_PERMUTATIONS
    seed: int = 0

    def explain(self, params: ModelParams, tokens, label: int, model_tag: str = "") -> ShapExplanation:
        if len(tokens) <= self.exact_limit:
            return shapley_exact(params, tokens, label, self.exact_limit, model_tag)
        return shapley_sampled(params, tokens, label, self.n_permutations, self.seed, model_tag=model_tag)

    def to_dict(self) -> dict:
        return {"exact_limit": self.exact_limit, "n_permutations": self.n_permutations, "seed": self.seed}


@dataclass
class CumulativeDiffReport:
    """Per-(language, label, category) means of the summed value differences.

    ``rows`` maps (language, label, category) -> (mean cumulative diff,
    n datapoints). ``base_values`` maps label -> per-model mean base value.
    ``split_fractions`` records the realized pos/neg/neutral shares under
    the chosen threshold.
    """

    rows: dict = field(default_factory=dict)
    base_values: dict = field(default_factory=dict)
    split_fractions: dict = field(default_factory=dict)
    theta: float = DEFAULT_THETA
    y_mode: str = "fixed"
    engine: dict = field(default_factory=dict)

    def mean_diff(self, language: int, label: int, category: str) -> float:
        return self.rows[(language, label, category)][0]

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["language", "label", "category", "mean_cum_diff", "n_datapoints"])
            for (lang, label, cat) in sorted(self.rows, key=lambda k: (k[0], k[1], CATEGORIES.index(k[2]))):
                mean, count = self.rows[(lang, label, cat)]
                writer.writerow([lang, label, cat, repr(mean), count])

    def sidecar_dict(self) -> dict:
        return {
            "theta": self.theta,
            "y_mode": self.y_mode,
            "engine": self.engine,
            "base_values": {
                str(label): {tag: mean for tag, mean in per_model.items()}
                for label, per_model in sorted(self.base_values.items())
            },
            "split_fractions": self.split_fractions,
        }

    def write_sidecar(self, path) -> None:
        write_json(path, self.sidecar_dict())


def cumulative_diff(params_bal: ModelParams, params_cmp: ModelParams, examples,
                    y_mode: str = "fixed", target_labels=None, theta: float = DEFAULT_THETA,
                    engine: EngineConfig | None = None,
                    model_tags: tuple = ("bal", "cmp")) -> CumulativeDiffReport:
    """Average per-category sum of S_cmp - S_bal, grouped by language.

    ``params_bal`` is the reference model whose values define the token
    categories; ``params_cmp`` is the model under comparison. With
    ``y_mode="fixed"`` every datapoint is explained for each target label
    (all labels when ``target_labels`` is None) and report rows carry that
    label; with ``y_mode="true"`` each datapoint uses its own label.
    """
    if engine is None:
        engine = EngineConfig()
    params_a, params_b = params_bal, params_cmp
    if params_a.embedding.shape != params_b.embedding.shape or params_a.n_classes != params_b.n_classes:
        raise ValueError("models do not share vocabulary/dimensions")
    if not examples:
        raise ValueError("empty dataset")
    if y_mode not in ("fixed", "true"):
        raise ValueError(f"unknown y_mode {y_mode!r}")
    if y_mode == "fixed":
        labels = list(target_labels) if target_labels is not None else list(range(params_a.n_classes))
    else:
        labels = None

    sums: dict = {}
    counts: dict = {}
    base_acc: dict = {}
    cat_counts = {c: 0 for c in CATEGORIES}
    total_tokens = 0

    tag_a, tag_b = model_tags

    def accumulate(ex, label):
        expl_a = engine.explain(params_a, ex.tokens, label, model_tag=tag_a)
        expl_b = engine.explain(params_b, ex.tokens, label, model_tag=tag_b)
        cats = categorize(expl_a, theta).categories
        diff = expl_b.values - expl_a.values
        per_cat = {c: 0.0 for c in CATEGORIES}
        for cat, d in zip(cats, diff):
            per_cat[cat] += float(d)
            cat_counts[cat] += 1
        for cat in CATEGORIES:
            key = (ex.language, label, cat)
            sums[key] = sums.get(key, 0.0) + per_cat[cat]
            counts[key] = counts.get(key, 0) + 1
        ba = base_acc.setdefault(label, {tag_a: 0.0, tag_b: 0.0, "n": 0})
        ba[tag_a] += expl_a.base
        ba[tag_b] += expl_b.base
        ba["n"] += 1

    for ex in examples:
        if y_mode == "fixed":
            for label in labels:
                accumulate(ex, label)
        else:
            accumulate(ex, ex.label)
        total_tokens += len(ex.tokens) * (len(labels) if labels else 1)

    report = CumulativeDiffReport(
        rows={k: (sums[k] / counts[k], counts[k]) for k in sums},
        base_values={
            label: {tag: acc[tag] / acc["n"] for tag in model_tags}
            for label, acc in base_acc.items()
        },
        split_fractions={c: cat_counts[c] / total_tokens for c in CATEGORIES},
        theta=theta,
        y_mode=y_mode,
        engine=engine.to_dict(),
    )
    return report
