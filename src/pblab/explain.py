"""Shapley attributions under token masking, and the balanced-vs-skewed comparison report.

The coalition value v(A) is the model's probability for the target label
when every token position outside A is replaced by the mask token; the base
value b = v(empty set) is the probability on a fully masked input of the
same length. Attributions satisfy sum_i S(t_i) + b = p(T, y): exactly for
the exact engine, and enforced by uniform residual redistribution for the
permutation-sampled engine (downstream category sums rely on additivity).

The exact engine evaluates all 2^n coalitions in one batched forward pass
(cheap up to the default 12-token limit, and never run past EXACT_LIMIT_MAX);
the sampled engine keeps one running embedding sum per permutation, so its
memory is O(P * (n + d)) at any length.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .jsonio import write_csv, write_json
from .model import ModelParams, forward_means, pack_tokens
from .seeds import derive_rng

CATEGORIES = ("pos", "neg", "neutral")
DEFAULT_THETA = 0.01
DEFAULT_EXACT_LIMIT = 12
# 2^16 coalitions took 68.8 MB at d = h = 32; past 15 tokens the default sampler needs fewer, P * (n + 1).
EXACT_LIMIT_MAX = 16
DEFAULT_N_PERMUTATIONS = 2000


@dataclass
class ShapExplanation:
    """Per-position attributions for one (datapoint, label) pair."""

    values: np.ndarray   # one value per token position
    base: float          # probability of the label on the all-mask input
    label: int
    engine: str = ""     # "exact" or "sampled": the engine that computed the values


def _coalition_values(params: ModelParams, sums: np.ndarray, n_present, n: int, label: int) -> np.ndarray:
    """v(A) from the (batch, d) sums of A's present token embeddings and |A| (an int or a (batch, 1) column)."""
    mask_emb = params.embedding[params.mask_id].astype(np.float64)
    probs, _ = forward_means(params, (sums + (n - n_present) * mask_emb) / n)
    return probs[:, label]


def shapley_exact(params: ModelParams, tokens, label: int,
                  exact_limit: int = DEFAULT_EXACT_LIMIT) -> ShapExplanation:
    """Exact Shapley values by enumeration of all 2^n coalitions.

    S(t_i) = sum over coalitions A not containing i of
    |A|! (n-1-|A|)! / n! * (v(A + i) - v(A)); every coalition value is
    computed once. Additivity holds to float64 accumulation error. Inputs
    longer than ``exact_limit``, or than EXACT_LIMIT_MAX whatever the limit
    given, are a ValueError.
    """
    n = len(tokens)
    limit = min(exact_limit, EXACT_LIMIT_MAX)
    if n > limit:
        raise ValueError(f"{n} tokens exceeds the exact limit {limit}; use shapley_sampled for long inputs")
    if not (0 <= label < params.n_classes):
        raise ValueError(f"label {label} out of range")
    ids, _ = pack_tokens([tokens], params.mask_id)
    tok_emb = params.embedding[ids].astype(np.float64)

    masks = np.arange(2**n, dtype=np.uint32)
    presence = (masks[:, None] >> np.arange(n, dtype=np.uint32)) & 1
    sizes = presence.sum(axis=1)
    v = _coalition_values(params, presence.astype(np.float64) @ tok_emb, sizes[:, None], n, label)

    fact = [math.factorial(k) for k in range(n + 1)]
    coeff = np.array([fact[k] * fact[n - 1 - k] / fact[n] for k in range(n)])

    values = np.zeros(n)
    for i in range(n):
        without = np.flatnonzero(presence[:, i] == 0)
        with_i = without + (1 << i)
        values[i] = np.sum(coeff[sizes[without]] * (v[with_i] - v[without]))
    return ShapExplanation(values=values, base=float(v[0]), label=label, engine="exact")


def shapley_sampled(params: ModelParams, tokens, label: int,
                    n_permutations: int = DEFAULT_N_PERMUTATIONS, seed: int = 0,
                    permutations=None) -> ShapExplanation:
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
    tok_emb = params.embedding[ids].astype(np.float64)

    # v[p, k] = value of the coalition of the first k tokens of permutation p.
    sums = np.zeros((P, params.embed_dim))
    v = np.empty((P, n + 1))
    for k in range(n + 1):
        if k:
            sums += tok_emb[perms[:, k - 1]]
        v[:, k] = _coalition_values(params, sums, k, n, label)

    marginals = np.diff(v, axis=1)  # marginal of perms[p, k] at step k
    values = np.bincount(perms.ravel(), weights=marginals.ravel(), minlength=n) / P

    base = float(v[0, 0])
    full = float(v[0, n])
    values += (full - base - values.sum()) / n
    return ShapExplanation(values=values, base=base, label=label, engine="sampled")


def categorize(expl_bal: ShapExplanation, theta: float = DEFAULT_THETA) -> tuple:
    """Each position's category: pos if S > theta, neg if S < -theta, neutral otherwise (boundaries inclusive)."""
    if theta <= 0:
        raise ValueError("theta must be > 0")
    return tuple("pos" if s > theta else "neg" if s < -theta else "neutral" for s in expl_bal.values)


@dataclass
class EngineConfig:
    exact_limit: int = DEFAULT_EXACT_LIMIT
    n_permutations: int = DEFAULT_N_PERMUTATIONS
    seed: int = 0

    def validate(self) -> None:
        if not 0 <= self.exact_limit <= EXACT_LIMIT_MAX or self.n_permutations < 1:
            raise ValueError(f"exact_limit must be in [0, {EXACT_LIMIT_MAX}] and n_permutations >= 1")

    def explain(self, params: ModelParams, tokens, label: int) -> ShapExplanation:
        if len(tokens) <= self.exact_limit:
            return shapley_exact(params, tokens, label, self.exact_limit)
        return shapley_sampled(params, tokens, label, self.n_permutations, self.seed)

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
    explanations: dict = field(default_factory=dict)  # engine name -> (datapoint, label) pairs it explained

    def write_csv(self, path) -> None:
        keys = sorted(self.rows, key=lambda k: (k[0], k[1], CATEGORIES.index(k[2])))
        write_csv(path, ["language", "label", "category", "mean_cum_diff", "n_datapoints"],
                  ([*key, repr(self.rows[key][0]), self.rows[key][1]] for key in keys))

    def sidecar_dict(self) -> dict:
        return {
            "theta": self.theta,
            "y_mode": self.y_mode,
            "engine": self.engine,
            "explanations": self.explanations,
            "base_values": {
                str(label): {tag: mean for tag, mean in per_model.items()}
                for label, per_model in sorted(self.base_values.items())
            },
            "split_fractions": self.split_fractions,
        }

    def write_sidecar(self, path) -> None:
        write_json(path, self.sidecar_dict())


def explain_arm(params: ModelParams, examples, engine: EngineConfig, y_mode: str = "fixed",
                target_labels=None) -> list:
    """One model's explanations, per datapoint one for each label: with ``y_mode="fixed"`` the
    ``target_labels`` (all labels when None), with ``y_mode="true"`` the datapoint's own label."""
    if not examples:
        raise ValueError("empty dataset")
    if y_mode not in ("fixed", "true"):
        raise ValueError(f"unknown y_mode {y_mode!r}")
    labels = list(target_labels) if target_labels is not None else list(range(params.n_classes))
    if y_mode == "fixed" and not labels:
        raise ValueError("target_labels must be non-empty")
    return [[engine.explain(params, ex.tokens, label)
             for label in (labels if y_mode == "fixed" else (ex.label,))]
            for ex in examples]


def diff_report(examples, expl_bal: list, expl_cmp: list, engine: EngineConfig, theta: float = DEFAULT_THETA,
                y_mode: str = "fixed", tags: tuple = ("bal", "cmp")) -> CumulativeDiffReport:
    """Average per-category sum of S_cmp - S_bal by language, by arithmetic alone over two
    ``explain_arm`` results for ``examples``; ``expl_bal``'s values define the token categories
    and ``tags`` name the two models in ``base_values``."""
    sums: dict = {}
    counts: dict = {}
    base_acc: dict = {}
    cat_counts = {c: 0 for c in CATEGORIES}
    explanations = {"exact": 0, "sampled": 0}

    tag_a, tag_b = tags
    pairs = ((ex, a, b) for ex, row_a, row_b in zip(examples, expl_bal, expl_cmp, strict=True)
             for a, b in zip(row_a, row_b, strict=True))
    for ex, expl_a, expl_b in pairs:
        label = expl_a.label
        cats = categorize(expl_a, theta)
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
        explanations[expl_a.engine] += 1

    return CumulativeDiffReport(
        rows={k: (sums[k] / counts[k], counts[k]) for k in sums},
        base_values={
            label: {tag: acc[tag] / acc["n"] for tag in tags}
            for label, acc in base_acc.items()
        },
        split_fractions={c: cat_counts[c] / sum(cat_counts.values()) for c in CATEGORIES},
        theta=theta,
        y_mode=y_mode,
        engine=engine.to_dict(),
        explanations=explanations,
    )


def cumulative_diff(params_bal: ModelParams, params_cmp: ModelParams, examples,
                    y_mode: str = "fixed", target_labels=None, theta: float = DEFAULT_THETA,
                    engine: EngineConfig | None = None) -> CumulativeDiffReport:
    """``diff_report`` of ``explain_arm`` on both models: ``params_bal`` is the reference
    model whose values define the token categories, ``params_cmp`` the compared one."""
    if engine is None:
        engine = EngineConfig()
    if params_bal.embedding.shape != params_cmp.embedding.shape or params_bal.n_classes != params_cmp.n_classes:
        raise ValueError("models do not share vocabulary/dimensions")
    expl_bal = explain_arm(params_bal, examples, engine, y_mode, target_labels)
    expl_cmp = explain_arm(params_cmp, examples, engine, y_mode, target_labels)
    return diff_report(examples, expl_bal, expl_cmp, engine, theta, y_mode)
