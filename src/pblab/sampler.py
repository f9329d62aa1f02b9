"""Paired subset construction: uniform joint vs skewed joint with uniform marginals.

The two training subsets have the same size and share the maximum possible
number of datapoints (per-cell min), so that any downstream difference
between models is attributable to the joint distribution alone.
"""

import numpy as np

from .jsonio import is_number, write_json
from .seeds import derive_rng

PRESETS = ("uniform", "amazon_skew", "xnli_skew")
JOINT_FORMS = (f"{{'preset': one of {list(PRESETS)}}} or "
               "{'probs': L x C table of numbers, each row summing to 1/L and each column to 1/C}")
SUM_TOL = 1e-9  # absolute tolerance on the table's total and (with a relative 1e-5) on its marginals


def check_joint(probs) -> np.ndarray:
    """``probs`` as a float64 L x C probability table over (language, label) pairs whose every language row sums
    to 1/L and every label column to 1/C, or a ValueError: the joint is skewed but both marginals stay uniform."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 2:
        raise ValueError("probs must be a 2-d table")
    if not np.isfinite(p).all() or (p < 0).any():
        raise ValueError("probabilities must be finite and nonnegative")
    if abs(p.sum() - 1.0) > SUM_TOL:
        raise ValueError("probabilities must sum to 1")
    for axis, name in ((1, "language"), (0, "label")):
        share = 1.0 / p.shape[1 - axis]
        if (abs(p.sum(axis=axis) - share) > SUM_TOL + 1e-5 * share).any():  # np.allclose's test, at rtol 1e-5
            raise ValueError(f"{name} marginal is not uniform")
    return p


def preset(name: str, n_languages: int, n_classes: int) -> np.ndarray:
    """Built-in joint distributions, each an (L, C) float64 table that passes ``check_joint``.

    ``uniform``: 1/(L*C) everywhere. ``amazon_skew`` (C=5, L even): one half
    of the languages gets within-language label fractions (1..5)/15, the
    other half the reverse. ``xnli_skew`` (L=2, C=3): language 0 gets
    (3,2,1)/6 and language 1 the reverse.
    """
    L, C = n_languages, n_classes
    if name == "uniform":
        probs = np.full((L, C), 1.0 / (L * C))
    elif name == "amazon_skew":
        if C != 5 or L < 2 or L % 2 != 0:
            raise ValueError("amazon_skew needs C=5 and an even number of languages")
        asc = np.arange(1, 6) / 15.0
        probs = np.empty((L, C))
        probs[: L // 2] = asc / L
        probs[L // 2 :] = asc[::-1] / L
    elif name == "xnli_skew":
        if L != 2 or C != 3:
            raise ValueError("xnli_skew needs L=2 and C=3")
        desc = np.array([3.0, 2.0, 1.0]) / 6.0
        probs = np.stack([desc, desc[::-1]]) / 2.0
    else:
        raise ValueError(f"unknown preset {name!r}")
    return probs


def joint_table(joint) -> np.ndarray | None:
    """The checked table of a `joint` config section, or None when it names a preset."""
    if type(joint) is dict and set(joint) == {"preset"} and joint["preset"] in PRESETS:
        return None
    probs = joint["probs"] if type(joint) is dict and set(joint) == {"probs"} else None
    if type(probs) is list and probs and all(
            type(row) is list and len(row) == len(probs[0]) and all(map(is_number, row)) for row in probs):
        return check_joint(probs)
    raise ValueError(f"config section 'joint' must be {JOINT_FORMS}, got {joint!r}")


def joint_from_config(joint_cfg, L: int, C: int) -> np.ndarray:
    probs = joint_table(joint_cfg)
    if probs is None:
        return preset(joint_cfg["preset"], L, C)
    if probs.shape != (L, C):
        raise ValueError(f"config section 'joint': table shape {probs.shape} does not match corpus ({L}, {C})")
    return probs


def plan_counts(probs, n: int) -> np.ndarray:
    """The (L, C) int64 cell counts of one subset of the joint ``probs``: n*probs rounded to integers, each
    language row by largest remainder, ties to the lower label. Row l's targets are (n/L)*p_l/sum(p_l), so each
    row sums to exactly n/L and the plan to n by construction. n must be divisible by L, at least L*C, and at most
    2**53, up to which a float64 holds every integer target."""
    probs = check_joint(probs)
    L, C = probs.shape
    if not L * C <= n <= 2**53:
        raise ValueError(f"n={n} must be between L*C={L * C} and 2**53")
    if n % L != 0:
        raise ValueError(f"n={n} not divisible by L={L}; exact language marginals are required")
    target = (n // L) * probs / probs.sum(axis=1, keepdims=True)
    base = np.floor(target).astype(np.int64)
    # Each row's remainder goes to its largest fractions: a stable sort on descending fraction ranks the columns.
    rank = np.argsort(np.argsort(base - target, axis=1, kind="stable"), axis=1)
    return base + (rank < (n // L - base.sum(axis=1, keepdims=True)))


def _cell_draws(pool, L: int, C: int, need, seed: int, stream: str):
    """Yield each (language, label) cell's first ``need[lang][c]`` examples in its seeded order, language-major.

    The whole pool is grouped before any cell is drawn, so an example outside the L x C table is rejected
    first. Each cell is sorted by id, so draws do not depend on the pool's list order.
    """
    cells = {(lang, c): [] for lang in range(L) for c in range(C)}
    for ex in pool:
        if (ex.language, ex.label) not in cells:
            raise ValueError(f"example {ex.id}: (language={ex.language}, label={ex.label}) outside the {L}x{C} table")
        cells[(ex.language, ex.label)].append(ex)
    for (lang, c), cell in cells.items():
        k = int(need[lang][c])
        if len(cell) < k:
            raise ValueError(f"cell (language={lang}, label={c}): need {k} examples, pool has {len(cell)}")
        cell.sort(key=lambda ex: ex.id)
        order = derive_rng(seed, stream, "cell", lang, c).permutation(len(cell))
        yield [cell[i] for i in order[:k]]


def sample_paired(pool, joint, n: int, seed: int = 0):
    """Draw the balanced subset and the imbalanced subset of the table ``joint``, with maximal datapoint overlap.

    Within every cell the two subsets share exactly min(n_bal, n_imbal)
    examples; since subsets are unions of per-cell draws this is the
    theoretical maximum overlap. Draws are without replacement from a
    per-cell derived stream.

    Returns (balanced, imbalanced, overlap): ``overlap`` is the plain dict that plan.json and the seed record
    hold, both cell-count plans as (L, C) lists, ``n``, ``seed``, ``overlap_max`` (the per-cell minimum's sum)
    and ``overlap_achieved`` (the ids the two subsets share, measured).
    """
    plan_imb = plan_counts(joint, n)
    L, C = plan_imb.shape
    plan_bal = plan_counts(preset("uniform", L, C), n)
    need = np.maximum(plan_bal, plan_imb)
    balanced, imbalanced = [], []
    for cell, nb, ni in zip(_cell_draws(pool, L, C, need, seed, "sampler"), plan_bal.flat, plan_imb.flat):
        # Both subsets are prefixes of one permutation, so they share min(nb, ni) examples and nest.
        balanced += cell[:nb]
        imbalanced += cell[:ni]

    overlap = {"counts_balanced": plan_bal.tolist(), "counts_imbalanced": plan_imb.tolist(), "n": n, "seed": seed,
               "overlap_max": int(np.minimum(plan_bal, plan_imb).sum()),
               "overlap_achieved": len({ex.id for ex in balanced} & {ex.id for ex in imbalanced})}
    assert overlap["overlap_achieved"] == overlap["overlap_max"]
    return balanced, imbalanced, overlap


def split_eval(pool, n_val: int, n_test: int, seed: int = 0):
    """Carve balanced validation/test splits out of a pool.

    Both splits are uniform in the joint distribution and disjoint from
    each other. The L x C table is inferred from the pool's largest
    language and label ids, so a pool that lacks the vocabulary's last
    language is split as if that language did not exist; the pipeline
    still fails such a pool, in ``sample_paired``, which draws from every
    cell of the vocabulary's table.

    Returns (val, test).
    """
    if not pool:
        raise ValueError("empty pool")
    L = max(ex.language for ex in pool) + 1
    C = max(ex.label for ex in pool) + 1
    for name, size in (("n_val", n_val), ("n_test", n_test)):
        if size < 0 or size % (L * C) != 0:
            raise ValueError(f"{name}={size} not divisible by L*C={L * C}")
    per_cell_val = n_val // (L * C)
    val, test = [], []
    for picks in _cell_draws(pool, L, C, np.full((L, C), (n_val + n_test) // (L * C)), seed, "split_eval"):
        val += picks[:per_cell_val]
        test += picks[per_cell_val:]
    return val, test


def write_plan_json(overlap: dict, path) -> None:
    """plan.json: both subset plans, read back from ``sample_paired``'s overlap dict, and that dict."""
    plans = {f"plan_{tag}": {"counts": overlap[f"counts_{tag}"], "n": overlap["n"], "seed": overlap["seed"]}
             for tag in ("balanced", "imbalanced")}
    write_json(path, {**plans, "overlap": overlap})
