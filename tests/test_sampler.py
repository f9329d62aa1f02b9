import hashlib
import re

import numpy as np
import pytest

from pblab.corpus import CorpusSpec, Example, generate_corpus
from pblab.sampler import check_joint, plan_counts, preset, sample_paired, split_eval


@pytest.fixture(scope="module")
def pool223():
    spec = CorpusSpec(n_languages=2, n_classes=3, n_min=3, n_max=6, p_signal=0.4,
                      p_noise=0.1, seed=5)
    _, examples = generate_corpus(spec, 60)
    return examples


def test_preset_amazon_rows():
    probs = preset("amazon_skew", 2, 5)
    expected0 = np.arange(1, 6) / 15.0 / 2.0
    assert np.allclose(probs[0], expected0, atol=1e-12)
    assert np.allclose(probs[1], expected0[::-1], atol=1e-12)
    # group split for more languages: first half ascending
    probs6 = preset("amazon_skew", 6, 5)
    for lang in range(3):
        assert np.allclose(probs6[lang], np.arange(1, 6) / 15.0 / 6.0)
        assert np.allclose(probs6[lang + 3], np.arange(5, 0, -1) / 15.0 / 6.0)


def test_preset_xnli_rows_and_marginals():
    probs = preset("xnli_skew", 2, 3)
    assert np.allclose(probs[0], [1 / 4, 1 / 6, 1 / 12], atol=1e-12)
    assert np.allclose(probs[1], [1 / 12, 1 / 6, 1 / 4], atol=1e-12)
    assert np.allclose(probs.sum(axis=0), 1 / 3, atol=1e-12)


def test_preset_uniform():
    probs = preset("uniform", 3, 4)
    assert np.allclose(probs, 1 / 12)


def test_preset_incompatible_shapes():
    with pytest.raises(ValueError):
        preset("amazon_skew", 3, 5)
    with pytest.raises(ValueError):
        preset("amazon_skew", 2, 4)
    with pytest.raises(ValueError):
        preset("xnli_skew", 3, 3)
    with pytest.raises(ValueError):
        preset("nope", 2, 3)


@pytest.mark.parametrize("name, L, C", [("uniform", L, C) for L in range(1, 7) for C in range(1, 7)]
                         + [("amazon_skew", L, 5) for L in (2, 4, 6)] + [("xnli_skew", 2, 3)])
def test_every_preset_passes_check_joint(name, L, C):
    probs = preset(name, L, C)
    assert probs.dtype == np.float64 and probs.shape == (L, C)
    assert np.array_equal(check_joint(probs), probs)


@pytest.mark.parametrize("probs, message", [
    (np.full(6, 1 / 6), "probs must be a 2-d table"),
    ([[np.nan, 0.5], [0.5, 0.0]], "probabilities must be finite and nonnegative"),
    ([[np.inf, 0.5], [0.5, 0.0]], "probabilities must be finite and nonnegative"),
    ([[-0.1, 0.6], [0.6, -0.1]], "probabilities must be finite and nonnegative"),
    (np.full((2, 3), 1 / 5), "probabilities must sum to 1"),
    ([[0.5, 0.1], [0.2, 0.2]], "language marginal is not uniform"),
    ([[0.3, 0.2], [0.3, 0.2]], "label marginal is not uniform"),
], ids=["not 2-d", "nan", "inf", "negative cell", "total not 1", "language marginal off", "label marginal off"])
def test_check_joint_refusals(probs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        check_joint(probs)


def test_plan_counts_uniform():
    plan = plan_counts(preset("uniform", 2, 2), 60)
    assert plan.tolist() == [[15, 15], [15, 15]]


def test_plan_counts_xnli_60():
    plan = plan_counts(preset("xnli_skew", 2, 3), 60)
    assert plan.tolist() == [[15, 10, 5], [5, 10, 15]]
    assert plan.sum(axis=0).tolist() == [20, 20, 20]


def test_plan_counts_amazon_30():
    plan = plan_counts(preset("amazon_skew", 2, 5), 30)
    assert plan.tolist() == [[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]]


def test_plan_counts_rows_exact_with_rounding():
    # 70 is not divisible by the 12 cells, but each language row must hit 35.
    plan = plan_counts(preset("amazon_skew", 2, 5), 70)
    assert plan.sum(axis=1).tolist() == [35, 35]
    assert plan.sum() == 70


@pytest.mark.parametrize("name, L, C, n", [("xnli_skew", 2, 3, 60), ("amazon_skew", 4, 5, 100)])
def test_plan_counts_is_an_int64_table(name, L, C, n):
    plan = plan_counts(preset(name, L, C), n)
    assert type(plan) is np.ndarray and plan.dtype == np.int64 and plan.shape == (L, C)


def test_plan_counts_divisibility_error():
    with pytest.raises(ValueError, match="divisible"):
        plan_counts(preset("uniform", 2, 3), 61)


@pytest.mark.parametrize("n", [5, 2**53 + 2])
def test_plan_counts_size_bounds(n):
    with pytest.raises(ValueError, match="between L\\*C=6 and 2\\*\\*53"):
        plan_counts(preset("uniform", 2, 3), n)


PINNED_PRESETS = [("uniform", 2, 3), ("xnli_skew", 2, 3), ("amazon_skew", 2, 5), ("amazon_skew", 4, 5),
                  ("amazon_skew", 6, 5), ("uniform", 3, 4)]


def test_preset_plans_are_pinned():
    """Every preset plan at every n divisible by L from L*C to 20,000: the sha256 of the counts, each plan
    as little-endian int64 bytes in order, is the one the per-language rounding loop gave."""
    digest = hashlib.sha256()
    for name, L, C in PINNED_PRESETS:
        probs = preset(name, L, C)
        for n in range(L * C, 20_001, L):
            digest.update(plan_counts(probs, n).astype("<i8").tobytes())
    assert digest.hexdigest() == "5fc75c28185d35c49a11d6ba82a06b15e5cb61dce7c99ad8a0a3f27f52abf8f2"


def off_by(n):
    """A 3 x 2 table that passes check_joint, its rows off 1/3 by +0.4/n, +0.4/n and -0.8/n; each row rounded on
    its own to round(n * row sum) would give 1,000,000, 1,000,000 and 999,999 at n = 3,000,000."""
    rows = np.array([1 / 3 + 0.4 / n, 1 / 3 + 0.4 / n, 1 / 3 - 0.8 / n])
    return check_joint(np.repeat(rows[:, None] / 2, 2, axis=1))


@pytest.mark.parametrize("spec, n", [(off_by(3_000_000), 3_000_000), (off_by(300_000), 300_000),
                                     (off_by(3_000_000), 3_000_003), (preset("amazon_skew", 6, 5), 6 * 10**9),
                                     (preset("uniform", 3, 4), 2**53 - 2)])
def test_plan_rows_are_exact(spec, n):
    L = spec.shape[0]
    counts = plan_counts(spec, n)
    assert (counts >= 0).all() and counts.sum(axis=1).tolist() == [n // L] * L


def test_sample_paired_uniform_identical(pool223):
    balanced, imbalanced, report = sample_paired(pool223, preset("uniform", 2, 3), 60, seed=2)
    assert {e.id for e in balanced} == {e.id for e in imbalanced}
    assert report["overlap_achieved"] == 60


def test_sample_paired_xnli_overlap_50(pool223):
    balanced, imbalanced, report = sample_paired(pool223, preset("xnli_skew", 2, 3), 60, seed=2)
    assert len(balanced) == len(imbalanced) == 60
    shared = {e.id for e in balanced} & {e.id for e in imbalanced}
    assert len(shared) == 50
    assert report["overlap_max"] == report["overlap_achieved"] == 50
    # no duplicates within a subset
    assert len({e.id for e in balanced}) == 60
    assert len({e.id for e in imbalanced}) == 60


def test_sample_paired_deterministic_and_pool_order_invariant(pool223):
    joint = preset("xnli_skew", 2, 3)
    b1, i1, _ = sample_paired(pool223, joint, 60, seed=7)
    b2, i2, _ = sample_paired(list(reversed(pool223)), joint, 60, seed=7)
    assert {e.id for e in b1} == {e.id for e in b2}
    assert {e.id for e in i1} == {e.id for e in i2}
    b3, _, _ = sample_paired(pool223, joint, 60, seed=8)
    assert {e.id for e in b1} != {e.id for e in b3}


def short_cell_pool(pool223, outside=None):
    """pool223 with cell (1, 2) cut to 3 examples, plus ``outside`` (an example off the table) at the end."""
    small = [e for e in pool223 if (e.language, e.label) != (1, 2)]
    return small + [e for e in pool223 if (e.language, e.label) == (1, 2)][:3] + ([outside] if outside else [])


def test_sample_paired_insufficient_pool_names_cell(pool223):
    """The short cell's message names its need and its pool size, in both draws."""
    with pytest.raises(ValueError, match=r"^cell \(language=1, label=2\): need 15 examples, pool has 3$"):
        sample_paired(short_cell_pool(pool223), preset("xnli_skew", 2, 3), 60, seed=0)
    with pytest.raises(ValueError, match=r"^cell \(language=1, label=2\): need 7 examples, pool has 3$"):
        split_eval(short_cell_pool(pool223), 12, 30, seed=0)


def test_example_off_the_table_is_rejected_before_a_short_cell(pool223):
    off = Example(id="off", language=0, label=3, tokens=(1,))
    with pytest.raises(ValueError, match=r"example off: \(language=0, label=3\) outside the 2x3 table"):
        sample_paired(short_cell_pool(pool223, off), preset("xnli_skew", 2, 3), 60, seed=0)
    off = Example(id="off", language=-1, label=0, tokens=(1,))
    with pytest.raises(ValueError, match=r"example off: \(language=-1, label=0\) outside the 2x3 table"):
        split_eval(short_cell_pool(pool223, off), 12, 30, seed=0)


@pytest.mark.parametrize("name, L, C", [("xnli_skew", 2, 3), ("amazon_skew", 2, 5), ("amazon_skew", 4, 5),
                                         ("uniform", 2, 3)])
def test_sample_paired_subsets_are_prefixes_of_one_cell_order(name, L, C):
    spec = CorpusSpec(n_languages=L, n_classes=C, n_min=2, n_max=4, p_signal=0.4, seed=11)
    _, pool = generate_corpus(spec, 20)
    balanced, imbalanced, _ = sample_paired(pool, preset(name, L, C), 60, seed=3)
    for lang in range(L):
        for c in range(C):
            ids = [[e.id for e in subset if (e.language, e.label) == (lang, c)] for subset in (balanced, imbalanced)]
            shorter, longer = sorted(ids, key=len)
            assert shorter == longer[:len(shorter)], (lang, c)


def test_subset_follows_plan(pool223):
    joint = preset("xnli_skew", 2, 3)
    _, imbalanced, report = sample_paired(pool223, joint, 60, seed=4)
    got = np.zeros((2, 3), dtype=int)
    for e in imbalanced:
        got[e.language, e.label] += 1
    assert got.tolist() == report["counts_imbalanced"]


def test_split_eval_balanced_cells(pool223):
    val, test = split_eval(pool223, 12, 30, seed=1)
    assert len(val) == 12 and len(test) == 30
    per_cell = {}
    for e in test:
        per_cell[(e.language, e.label)] = per_cell.get((e.language, e.label), 0) + 1
    assert all(v == 5 for v in per_cell.values())
    assert not ({e.id for e in val} & {e.id for e in test})


def test_split_eval_divisibility(pool223):
    with pytest.raises(ValueError, match="divisible"):
        split_eval(pool223, 12, 31, seed=1)


def test_draws_of_the_acceptance_corpus_are_pinned():
    """The ids an acceptance seed draws: split_eval(600, 2400), then the xnli_skew pair of 6,000 from the rest.
    The hash is of one comma-joined id line per subset (val, test, balanced, imbalanced), newline-joined."""
    spec = CorpusSpec(n_languages=2, n_classes=3, n_min=4, n_max=10, p_signal=0.18, p_noise=0.10,
                      fillers_per_language=40, signals_per_language_class=8, seed=0)
    _, pool = generate_corpus(spec, 2020)
    val, test = split_eval(pool, 600, 2400, seed=0)
    held_out = {e.id for e in val + test}
    balanced, imbalanced, _ = sample_paired([e for e in pool if e.id not in held_out], preset("xnli_skew", 2, 3),
                                            6000, seed=0)
    lines = "\n".join(",".join(e.id for e in subset) for subset in (val, test, balanced, imbalanced))
    assert hashlib.sha256(lines.encode()).hexdigest() == \
        "e6644d6e97a218bbb75e220d6b54d1c7115b6cbd735f9bf65f93858ea84f9c19"
