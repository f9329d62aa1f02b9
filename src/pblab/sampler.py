"""Paired subset construction: uniform joint vs skewed joint with uniform marginals.

The two training subsets have the same size and share the maximum possible
number of datapoints (per-cell min), so that any downstream difference
between models is attributable to the joint distribution alone.
"""

from dataclasses import dataclass

import numpy as np

from .jsonio import write_json
from .seeds import derive_rng

PRESETS = ("uniform", "amazon_skew", "xnli_skew")
SUM_TOL = 1e-9  # absolute tolerance on the table's total and (with np.allclose's default relative 1e-5) its marginals


@dataclass(frozen=True)
class JointSpec:
    """An L x C probability table over (language, label) pairs.

    With ``uniform_marginals`` (the default), every language row must sum
    to 1/L and every label column to 1/C: the joint is skewed but both
    marginals stay uniform.
    """

    probs: np.ndarray
    uniform_marginals: bool = True

    def __post_init__(self):
        object.__setattr__(self, "probs", np.asarray(self.probs, dtype=float))

    @property
    def n_languages(self) -> int:
        return self.probs.shape[0]

    @property
    def n_classes(self) -> int:
        return self.probs.shape[1]

    def validate(self) -> None:
        p = self.probs
        if p.ndim != 2:
            raise ValueError("probs must be a 2-d table")
        if not np.isfinite(p).all() or (p < 0).any():
            raise ValueError("probabilities must be finite and nonnegative")
        if abs(p.sum() - 1.0) > SUM_TOL:
            raise ValueError("probabilities must sum to 1")
        if self.uniform_marginals:
            for axis, name in ((1, "language"), (0, "label")):
                if not np.allclose(p.sum(axis=axis), 1.0 / p.shape[1 - axis], 1e-5, SUM_TOL):
                    raise ValueError(f"{name} marginal is not uniform")


@dataclass(frozen=True)
class SubsetPlan:
    """Integer per-cell counts for a subset of total size n."""

    counts: np.ndarray
    n: int
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=int))

    def to_dict(self) -> dict:
        return {"counts": self.counts.tolist(), "n": self.n, "seed": self.seed}


def preset(name: str, n_languages: int, n_classes: int) -> JointSpec:
    """Built-in joint distributions.

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
    spec = JointSpec(probs=probs)
    spec.validate()
    return spec


def plan_counts(spec: JointSpec, n: int, seed: int = 0) -> SubsetPlan:
    """Round n*probs to integers by largest remainder within each language row.

    Each language row is rounded against its own exact total n/L, so the
    language marginal of the plan is exact. With ``uniform_marginals`` set,
    n must be divisible by L.
    """
    spec.validate()
    L, C = spec.probs.shape
    if n < L * C:
        raise ValueError(f"n={n} too small for {L}x{C} cells")
    if spec.uniform_marginals and n % L != 0:
        raise ValueError(f"n={n} not divisible by L={L}; exact language marginals are required")
    counts = np.zeros((L, C), dtype=int)
    for lang in range(L):
        target = n * spec.probs[lang]
        row_total = int(round(target.sum()))
        base = np.floor(target).astype(int)
        remainder = row_total - base.sum()
        # Ties broken by column index: stable sort on descending fraction.
        order = np.argsort(-(target - base), kind="stable")
        base[order[:remainder]] += 1
        counts[lang] = base
    plan = SubsetPlan(counts=counts, n=n, seed=seed)
    assert plan.counts.sum() == n
    return plan


def _pool_by_cell(pool, L: int, C: int):
    cells = {(lang, c): [] for lang in range(L) for c in range(C)}
    for ex in pool:
        if (ex.language, ex.label) in cells:
            cells[(ex.language, ex.label)].append(ex)
        else:
            raise ValueError(f"example {ex.id}: (language={ex.language}, label={ex.label}) outside the {L}x{C} table")
    # Sort by id so draws do not depend on the pool's list order.
    for cell in cells.values():
        cell.sort(key=lambda ex: ex.id)
    return cells


@dataclass
class OverlapReport:
    counts_balanced: np.ndarray
    counts_imbalanced: np.ndarray
    overlap_max: int
    overlap_achieved: int
    n: int
    seed: int

    def to_dict(self) -> dict:
        return {**vars(self), "counts_balanced": np.asarray(self.counts_balanced).tolist(),
                "counts_imbalanced": np.asarray(self.counts_imbalanced).tolist()}


def sample_paired(pool, spec_imbal: JointSpec, n: int, seed: int = 0):
    """Draw the balanced/imbalanced subset pair with maximal datapoint overlap.

    Within every cell the two subsets share exactly min(n_bal, n_imbal)
    examples; since subsets are unions of per-cell draws this is the
    theoretical maximum overlap. Draws are without replacement from a
    per-cell derived stream.

    Returns (balanced, imbalanced, overlap_report).
    """
    L, C = spec_imbal.probs.shape
    plan_bal = plan_counts(preset("uniform", L, C), n, seed)
    plan_imb = plan_counts(spec_imbal, n, seed)
    cells = _pool_by_cell(pool, L, C)

    balanced, imbalanced = [], []
    for lang in range(L):
        for c in range(C):
            nb = int(plan_bal.counts[lang, c])
            ni = int(plan_imb.counts[lang, c])
            need = max(nb, ni)
            available = cells[(lang, c)]
            if len(available) < need:
                raise ValueError(
                    f"cell (language={lang}, label={c}): need {need} examples, pool has {len(available)}"
                )
            rng = derive_rng(seed, "sampler", "cell", lang, c)
            order = rng.permutation(len(available))
            shared = min(nb, ni)
            picks = [available[i] for i in order[: nb + ni - shared]]
            balanced.extend(picks[:nb])
            imbalanced.extend(picks[:shared] + picks[nb : nb + ni - shared])

    overlap_ids = {ex.id for ex in balanced} & {ex.id for ex in imbalanced}
    report = OverlapReport(
        counts_balanced=plan_bal.counts,
        counts_imbalanced=plan_imb.counts,
        overlap_max=int(np.minimum(plan_bal.counts, plan_imb.counts).sum()),
        overlap_achieved=len(overlap_ids),
        n=n,
        seed=seed,
    )
    assert report.overlap_achieved == report.overlap_max
    return balanced, imbalanced, report


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
    per_cell_test = n_test // (L * C)
    cells = _pool_by_cell(pool, L, C)
    val, test = [], []
    for lang in range(L):
        for c in range(C):
            available = cells[(lang, c)]
            need = per_cell_val + per_cell_test
            if len(available) < need:
                raise ValueError(
                    f"cell (language={lang}, label={c}): need {need} examples, pool has {len(available)}"
                )
            rng = derive_rng(seed, "split_eval", "cell", lang, c)
            order = rng.permutation(len(available))
            picks = [available[i] for i in order[:need]]
            val.extend(picks[:per_cell_val])
            test.extend(picks[per_cell_val:])
    return val, test


def write_plan_json(report: OverlapReport, path) -> None:
    """plan.json: both subset plans, read back from the overlap report, and the report."""
    plans = {tag: SubsetPlan(counts=counts, n=report.n, seed=report.seed).to_dict()
             for tag, counts in (("plan_balanced", report.counts_balanced),
                                 ("plan_imbalanced", report.counts_imbalanced))}
    write_json(path, {**plans, "overlap": report.to_dict()})
