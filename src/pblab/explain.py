"""Shapley attributions under token masking, and the balanced-vs-skewed comparison report.

The coalition value v(A) is the model's probability for the target label
when every token position outside A is replaced by the mask token; the base
value b = v(empty set) is the probability on a fully masked input of the
same length. Attributions satisfy sum_i S(t_i) + b = p(T, y): exactly for
the exact engine, and enforced by uniform residual redistribution for the
permutation-sampled engine (downstream category sums rely on additivity).

The first layer is affine in the mean embedding, so each token's shift of the all-mask hidden pre-activation is
computed once and a coalition's pre-activation is a sum of shifts. The exact engine evaluates all 2^n coalitions in
one batch (cheap up to the default 12-token limit, and never run past EXACT_LIMIT_MAX); the sampled engine keeps a
(P, h) running pre-activation and a (P, h) buffer that each step's shifts and tanh reuse, the (n, P) orderings in a
small unsigned dtype and (ceil(P/2), n) float64 pair sums that each marginal is added to during the walk:
O(P * (n + h)) with P <= N_PERMUTATIONS_MAX, a 75 MiB tracemalloc peak at 300 tokens and the cap (h = 32). It walks
each seeded ordering with its reversal (antithetic pairs, after Mitchell et al. 2022, "Sampling Permutations for
Shapley Value Estimation"), and reports a standard error from the pair means, a block of columns at a time.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .jsonio import write_csv, write_json
from .model import BLOCK_VALUES, ModelParams, pack_tokens
from .seeds import derive_rng

CATEGORIES = ("pos", "neg", "neutral")
DEFAULT_THETA = 0.01
DEFAULT_EXACT_LIMIT = 12
# 2^16 coalitions take one (2^16, h) array, 16.8 MB at h = 32; past 13 tokens the default sampler needs fewer.
EXACT_LIMIT_MAX = 16
DEFAULT_N_PERMUTATIONS = 1000
# The sampled engine holds (ceil(P/2), n) float64 pair sums, the (n, P) orderings and two (P, h) arrays: 2^15
# orderings of a 300-token datapoint peak at 75 MiB under tracemalloc (h = 32), 32 times the default draw;
# a larger n_permutations is a ValueError before any allocation.
N_PERMUTATIONS_MAX = 2**15


@dataclass
class ShapExplanation:
    """Per-position attributions for one (datapoint, label) pair."""

    values: np.ndarray   # one value per token position
    base: float          # probability of the label on the all-mask input
    label: int
    engine: str = ""     # "exact" or "sampled": the engine that computed the values
    stderr: float | None = 0.0  # largest standard error of a value; None with fewer than 2 sampled pairs


def _first_layer(params: ModelParams, tokens):
    """The all-mask hidden pre-activation pre0 (h,) and each token's shift of it, delta (n, h)."""
    ids, _ = pack_tokens([tokens], params.mask_id)
    w_h = params.hidden_w.astype(np.float64)
    mask_emb = params.embedding[params.mask_id].astype(np.float64)
    delta = (params.embedding[ids].astype(np.float64) - mask_emb) @ w_h / len(ids)
    return mask_emb @ w_h + params.hidden_b.astype(np.float64), delta


def _head(params: ModelParams) -> tuple:
    """The output layer widened once per explanation: (C, h) weights and (C, 1) biases."""
    return params.out_w.T.astype(np.float64), params.out_b.astype(np.float64)[:, None]


def _label_prob(head: tuple, hid: np.ndarray, label: int) -> np.ndarray:
    """p(label) for each row of (B, h) post-tanh hidden rows: the head as (C, B) and a softmax along C."""
    logits = head[0] @ hid.T + head[1]
    e = np.exp(logits - logits.max(axis=0))
    return e[label] / e.sum(axis=0)


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
    pre0, delta = _first_layer(params, tokens)

    # Row m is coalition m (bit i: token i), built as row m - 2^i plus token i: bit for bit the 0/1 gemm.
    pre, sizes = np.zeros((2**n, delta.shape[1])), np.zeros(2**n, dtype=np.uint8)  # row 0: the empty coalition
    for i in range(n):
        np.add(pre[: 2**i], delta[i], out=pre[2**i : 2 ** (i + 1)])
        np.add(sizes[: 2**i], 1, out=sizes[2**i : 2 ** (i + 1)])
    pre += pre0
    v = _label_prob(_head(params), np.tanh(pre, out=pre), label)

    fact = [math.factorial(k) for k in range(n + 1)]
    coeff = np.array([fact[k] * fact[n - 1 - k] / fact[n] for k in range(n)])

    values = np.zeros(n)
    for i in range(n):
        # [:, 0] holds the coalitions without token i, ascending, and [:, 1] the same coalitions with it.
        v_i, size_i = v.reshape(-1, 2, 2**i), sizes.reshape(-1, 2, 2**i)[:, 0].ravel()
        values[i] = np.sum(coeff[size_i] * (v_i[:, 1].ravel() - v_i[:, 0].ravel()))
    return ShapExplanation(values=values, base=float(v[0]), label=label, engine="exact")


def shapley_sampled(params: ModelParams, tokens, label: int,
                    n_permutations: int = DEFAULT_N_PERMUTATIONS, seed: int = 0,
                    permutations=None) -> ShapExplanation:
    """Shapley values averaged over sampled token orderings.

    Each permutation adds tokens one by one and credits every token with
    its marginal probability change. The additivity residual is spread
    uniformly across tokens so sum_i S(t_i) + b = p(T, y) holds exactly.
    The seeded draw is antithetic: ceil(P/2) uniform orderings, then the
    reversals of the first floor(P/2), so that a pair's mean marginal is
    exact for interactions up to pairwise. ``permutations`` overrides the
    draw with rows that are orderings of 0..n-1 (all n! of them reproduce
    the exact values). ``stderr`` is the largest standard error of a value,
    from the means of the pairs (column p with column ceil(P/2) + p).
    """
    n = len(tokens)
    if permutations is None and not 1 <= n_permutations <= N_PERMUTATIONS_MAX:
        raise ValueError(f"n_permutations must be in [1, {N_PERMUTATIONS_MAX}]")
    if not (0 <= label < params.n_classes):
        raise ValueError(f"label {label} out of range")
    pre0, delta = _first_layer(params, tokens)
    head = _head(params)

    small = np.min_scalar_type(n)  # uint8 below 256 tokens, uint16 below 65,536
    if permutations is None:
        half = (n_permutations + 1) // 2
        order = np.empty((n, n_permutations), dtype=small)
        order[:, :half] = np.arange(n, dtype=small)[:, None]
        derive_rng(seed, "shapley_sampled").permuted(order[:, :half].T, axis=1, out=order[:, :half].T)
        order[:, half:] = order[::-1, : n_permutations // 2]  # the antithetic reversals
    else:
        perms = np.asarray(list(permutations))
        if perms.shape[1:] != (n,) or perms.dtype.kind not in "iu" or (np.sort(perms, 1) != np.arange(n)).any():
            raise ValueError("permutations must be integer orderings of all token positions 0..n-1")
        order = np.ascontiguousarray(perms.T, dtype=small)
    P = order.shape[1]  # order[k, p] = the token added at step k of ordering p

    # sums[j, i] is token i's summed marginal over pair j (its last row holds the unpaired middle column when P
    # is odd); column p's row starts at flat offset row[p]. Each marginal, the value after step k minus the value
    # before it, is added as the walk makes it, so a cell is 0.0 + m1 + m2 in one order or the other (IEEE addition
    # commutes, and m is never -0.0); add.at also adds both when a pair's columns add one token at one step.
    half, pairs = (P + 1) // 2, P // 2
    sums, row = np.zeros((half, n)), np.arange(P) % half * n
    pre, buf = np.tile(pre0, (P, 1)), np.empty((P, delta.shape[1]))  # buf: a step's shifts, then its tanh
    prev = _label_prob(head, np.tanh(pre, out=buf), label)
    base = float(prev[0])
    for k in range(n):
        pre += np.take(delta, order[k], axis=0, out=buf, mode="clip")  # "raise" would buffer out; order is checked
        cur = _label_prob(head, np.tanh(pre, out=buf), label)
        np.add.at(sums.reshape(-1), row + order[k], cur - prev)
        prev = cur
    full = float(prev[0])
    del pre, buf, order  # before np.std's block temporaries
    values = sums.sum(axis=0) / P
    # np.std in column blocks of about BLOCK_VALUES, each 2+ columns wide: a 1-column block would be summed pairwise
    blocks = np.array_split(sums[:pairs], max(1, min(n // 2, -(-n * pairs // BLOCK_VALUES))), axis=1)
    stderr = float(np.max([b.std(0, ddof=1).max() for b in blocks]) / 2 / math.sqrt(pairs)) if pairs > 1 else None

    values += (full - base - values.sum()) / n
    return ShapExplanation(values=values, base=base, label=label, engine="sampled", stderr=stderr)


def categorize(expl_bal: ShapExplanation, theta: float = DEFAULT_THETA) -> tuple:
    """Each position's category: pos if S > theta, neg if S < -theta, neutral otherwise (boundaries inclusive)."""
    if not 0 < theta < math.inf:  # NaN or inf would put every position in neutral
        raise ValueError("theta must be > 0")
    return tuple("pos" if s > theta else "neg" if s < -theta else "neutral" for s in expl_bal.values)


@dataclass
class EngineConfig:
    exact_limit: int = DEFAULT_EXACT_LIMIT
    n_permutations: int = DEFAULT_N_PERMUTATIONS
    seed: int = 0

    def validate(self) -> None:
        if not (0 <= self.exact_limit <= EXACT_LIMIT_MAX and 1 <= self.n_permutations <= N_PERMUTATIONS_MAX):
            raise ValueError(f"exact_limit must be in [0, {EXACT_LIMIT_MAX}] and n_permutations in "
                             f"[1, {N_PERMUTATIONS_MAX}]")

    def explain(self, params: ModelParams, tokens, label: int) -> ShapExplanation:
        if len(tokens) <= self.exact_limit:
            return shapley_exact(params, tokens, label, self.exact_limit)
        return shapley_sampled(params, tokens, label, self.n_permutations, self.seed)

    def to_dict(self) -> dict:
        return {"exact_limit": self.exact_limit, "n_permutations": self.n_permutations, "seed": self.seed}


def check_target_labels(labels) -> None:
    if not labels or min(labels) < 0 or len(set(labels)) < len(labels):
        raise ValueError("target_labels must be a non-empty list of distinct label ids")


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
    engine: dict = field(default_factory=dict)
    explanations: dict = field(default_factory=dict)  # engine name -> (datapoint, label) pairs it explained
    max_stderr: float | None = 0.0  # largest ShapExplanation.stderr; None if one is unknown

    def write_csv(self, path) -> None:
        keys = sorted(self.rows, key=lambda k: (k[0], k[1], CATEGORIES.index(k[2])))
        write_csv(path, ["language", "label", "category", "mean_cum_diff", "n_datapoints"],
                  ([*key, repr(self.rows[key][0]), self.rows[key][1]] for key in keys))

    def sidecar_dict(self) -> dict:
        return {
            "theta": self.theta,
            "engine": self.engine,
            "explanations": self.explanations,
            "max_stderr": self.max_stderr,
            "base_values": {
                str(label): {tag: mean for tag, mean in per_model.items()}
                for label, per_model in sorted(self.base_values.items())
            },
            "split_fractions": self.split_fractions,
        }

    def write_sidecar(self, path) -> None:
        write_json(path, self.sidecar_dict())


def explain_arm(params: ModelParams, examples, engine: EngineConfig, target_labels=None) -> list:
    """One model's explanations, per datapoint one for each of ``target_labels`` (all labels when None)."""
    if not examples:
        raise ValueError("empty dataset")
    labels = list(target_labels) if target_labels is not None else list(range(params.n_classes))
    if not labels:
        raise ValueError("target_labels must be non-empty")
    return [[engine.explain(params, ex.tokens, label) for label in labels] for ex in examples]


def diff_report(examples, expl_bal: list, expl_cmp: list, engine: EngineConfig, theta: float = DEFAULT_THETA,
                tags: tuple = ("bal", "cmp")) -> CumulativeDiffReport:
    """Average per-category sum of S_cmp - S_bal by language, by arithmetic alone over two
    ``explain_arm`` results for ``examples``; ``expl_bal``'s values define the token categories
    and ``tags`` name the two models in ``base_values``. Every report keys the reference model's
    base values "bal": ``stage_explain`` passes ("bal", compared tag), whatever its reference model."""
    sums: dict = {}
    counts: dict = {}
    base_acc: dict = {}
    cat_counts = {c: 0 for c in CATEGORIES}
    explanations = {"exact": 0, "sampled": 0}
    errors = []

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
        errors += [expl_a.stderr, expl_b.stderr]

    return CumulativeDiffReport(
        rows={k: (sums[k] / counts[k], counts[k]) for k in sums},
        base_values={
            label: {tag: acc[tag] / acc["n"] for tag in tags}
            for label, acc in base_acc.items()
        },
        split_fractions={c: cat_counts[c] / sum(cat_counts.values()) for c in CATEGORIES},
        theta=theta,
        engine=engine.to_dict(),
        explanations=explanations,
        max_stderr=None if None in errors else max(errors),
    )


def check_pair(params_bal: ModelParams, params_cmp: ModelParams) -> None:
    """A ValueError unless the two models share the vocabulary, embedding width and labels a report compares."""
    if params_bal.embedding.shape != params_cmp.embedding.shape or params_bal.n_classes != params_cmp.n_classes:
        raise ValueError("models do not share vocabulary/dimensions")


def cumulative_diff(params_bal: ModelParams, params_cmp: ModelParams, examples, target_labels=None,
                    theta: float = DEFAULT_THETA, engine: EngineConfig | None = None) -> CumulativeDiffReport:
    """``diff_report`` of ``explain_arm`` on both models: ``params_bal`` is the reference
    model whose values define the token categories, ``params_cmp`` the compared one."""
    if engine is None:
        engine = EngineConfig()
    check_pair(params_bal, params_cmp)
    expl_bal = explain_arm(params_bal, examples, engine, target_labels)
    expl_cmp = explain_arm(params_cmp, examples, engine, target_labels)
    return diff_report(examples, expl_bal, expl_cmp, engine, theta)
