import itertools
import math

import numpy as np
import pytest

from pblab.corpus import CorpusSpec, Example, generate_corpus
from pblab.explain import (
    EngineConfig,
    categorize,
    cumulative_diff,
    shapley_exact,
    shapley_sampled,
)
from pblab.model import ModelParams, forward, forward_masked


def make_params(vocab_size, n_classes=3, seed=0, d=6, h=5):
    rng = np.random.default_rng(seed)
    return ModelParams(
        embedding=rng.normal(0, 0.6, (vocab_size + 1, d)),
        hidden_w=rng.normal(0, 0.6, (d, h)),
        hidden_b=rng.normal(0, 0.1, h),
        out_w=rng.normal(0, 0.6, (h, n_classes)),
        out_b=rng.normal(0, 0.1, n_classes),
    )


def shapley_bruteforce(params, tokens, label):
    """Oracle: average marginal contributions over every token ordering."""
    n = len(tokens)
    values = np.zeros(n)
    for perm in itertools.permutations(range(n)):
        masked = set(range(n))
        prev = forward_masked(params, tokens, masked).probs[label]
        for pos in perm:
            masked.remove(pos)
            cur = forward_masked(params, tokens, masked).probs[label]
            values[pos] += cur - prev
            prev = cur
    return values / math.factorial(n)


def test_constant_model_all_zero():
    params = make_params(10)
    params.out_w = np.zeros_like(params.out_w)
    params.out_b = np.zeros_like(params.out_b)
    expl = shapley_exact(params, (1, 2, 3), 0)
    assert np.allclose(expl.values, 0.0, atol=1e-12)
    assert expl.base == pytest.approx(1 / 3, abs=1e-12)


def test_single_token_marginal():
    params = make_params(10, seed=3)
    tokens = (4,)
    expl = shapley_exact(params, tokens, 1)
    p_full = forward(params, tokens).probs[1]
    p_mask = forward(params, [params.mask_id]).probs[1]
    assert expl.values[0] == pytest.approx(p_full - p_mask, abs=1e-12)
    assert expl.base == pytest.approx(p_mask, abs=1e-12)


def test_two_token_closed_form():
    params = make_params(10, seed=4)
    tokens = (2, 7)
    y = 2
    v = {}
    for present in ((), (0,), (1,), (0, 1)):
        mask = set(range(2)) - set(present)
        v[present] = forward_masked(params, tokens, mask).probs[y]
    expl = shapley_exact(params, tokens, y)
    s0 = 0.5 * ((v[(0, 1)] - v[(1,)]) + (v[(0,)] - v[()]))
    s1 = 0.5 * ((v[(0, 1)] - v[(0,)]) + (v[(1,)] - v[()]))
    assert expl.values[0] == pytest.approx(s0, abs=1e-12)
    assert expl.values[1] == pytest.approx(s1, abs=1e-12)


def test_exact_matches_bruteforce():
    rng = np.random.default_rng(9)
    for trial in range(10):
        n = int(rng.integers(2, 6))
        params = make_params(12, seed=trial)
        tokens = tuple(int(t) for t in rng.integers(0, 12, n))
        y = int(rng.integers(0, 3))
        exact = shapley_exact(params, tokens, y)
        brute = shapley_bruteforce(params, tokens, y)
        assert np.abs(exact.values - brute).max() < 1e-9


def test_additivity_random_models():
    rng = np.random.default_rng(17)
    for trial in range(30):
        n = int(rng.integers(1, 13))
        params = make_params(15, seed=100 + trial)
        tokens = tuple(int(t) for t in rng.integers(0, 15, n))
        y = int(rng.integers(0, 3))
        expl = shapley_exact(params, tokens, y)
        p = forward(params, tokens).probs[y]
        assert abs(expl.values.sum() + expl.base - p) < 1e-9


def test_exact_limit_error():
    params = make_params(20)
    with pytest.raises(ValueError, match="sampled"):
        shapley_exact(params, tuple(range(13)), 0)


def test_exact_refuses_past_hard_cap_whatever_the_limit():
    """2^17 coalitions are never enumerated, even when the caller's limit allows them."""
    params = make_params(20)
    with pytest.raises(ValueError, match="exact limit 16"):
        shapley_exact(params, tuple(range(17)), 0, exact_limit=30)
    EngineConfig(exact_limit=16).validate()
    with pytest.raises(ValueError, match="exact_limit"):
        EngineConfig(exact_limit=17).validate()


def test_sampled_close_to_exact():
    rng = np.random.default_rng(23)
    params = make_params(15, seed=8)
    tokens = tuple(int(t) for t in rng.integers(0, 15, 9))
    exact = shapley_exact(params, tokens, 1)
    sampled = shapley_sampled(params, tokens, 1, n_permutations=2000, seed=5)
    assert np.abs(sampled.values - exact.values).max() < 0.02
    # additivity enforced exactly by residual redistribution
    p = forward(params, tokens).probs[1]
    assert abs(sampled.values.sum() + sampled.base - p) < 1e-12


def test_sampled_full_enumeration_equals_exact():
    params = make_params(12, seed=6)
    tokens = (3, 8, 1, 10)
    exact = shapley_exact(params, tokens, 0)
    enum = shapley_sampled(params, tokens, 0, permutations=itertools.permutations(range(4)))
    assert np.abs(enum.values - exact.values).max() < 1e-9


def test_sampled_deterministic():
    params = make_params(12, seed=2)
    tokens = (3, 8, 1, 10, 2)
    a = shapley_sampled(params, tokens, 1, n_permutations=50, seed=9)
    b = shapley_sampled(params, tokens, 1, n_permutations=50, seed=9)
    assert np.array_equal(a.values, b.values)
    c = shapley_sampled(params, tokens, 1, n_permutations=50, seed=10)
    assert not np.array_equal(a.values, c.values)


def test_symmetry_identical_tokens():
    params = make_params(10, seed=5)
    tokens = (4, 4, 7)  # identical embeddings at positions 0 and 1
    expl = shapley_exact(params, tokens, 1)
    assert abs(expl.values[0] - expl.values[1]) < 1e-9


def test_null_player_mask_embedding():
    params = make_params(10, seed=5)
    params.embedding[3] = params.embedding[params.mask_id]
    expl = shapley_exact(params, (3, 2, 8), 0)
    assert abs(expl.values[0]) < 1e-9


def test_categorize_thresholds():
    expl = type("E", (), {"values": np.array([0.05, -0.02, 0.0])})()
    assert categorize(expl, theta=0.01) == ("pos", "neg", "neutral")

    boundary = type("E", (), {"values": np.array([0.01, -0.01])})()
    assert categorize(boundary, theta=0.01) == ("neutral", "neutral")

    wide = type("E", (), {"values": np.array([0.02])})()
    assert categorize(wide, theta=0.05) == ("neutral",)
    with pytest.raises(ValueError):
        categorize(expl, theta=0.0)


def test_cumulative_diff_same_model_zero():
    spec = CorpusSpec(n_languages=2, n_classes=3, n_min=3, n_max=6, p_signal=0.4, seed=2)
    vocab, examples = generate_corpus(spec, 4)
    params = make_params(vocab.size, seed=1)
    report = cumulative_diff(params, params, examples[:12], target_labels=[0])
    for (lang, label, cat), (mean, _) in report.rows.items():
        assert mean == pytest.approx(0.0, abs=1e-12)
    assert report.base_values[0]["bal"] == report.base_values[0]["cmp"]


def test_cumulative_diff_two_token_hand_computation():
    """Hand-enumerated 2^2 coalitions for both models on one 2-token input."""
    params_a = make_params(6, seed=11)
    params_b = make_params(6, seed=12)
    tokens = (1, 4)
    y = 0
    ex = Example(id="e", language=0, label=0, tokens=tokens)

    def hand_shap(params):
        v = {}
        for present in ((), (0,), (1,), (0, 1)):
            mask = set(range(2)) - set(present)
            v[present] = forward_masked(params, tokens, mask).probs[y]
        s0 = 0.5 * ((v[(0, 1)] - v[(1,)]) + (v[(0,)] - v[()]))
        s1 = 0.5 * ((v[(0, 1)] - v[(0,)]) + (v[(1,)] - v[()]))
        return np.array([s0, s1]), v[()]

    sa, ba = hand_shap(params_a)
    sb, bb = hand_shap(params_b)
    theta = 0.01
    cats = ["pos" if s > theta else "neg" if s < -theta else "neutral" for s in sa]
    expected = {c: 0.0 for c in ("pos", "neg", "neutral")}
    for cat, d in zip(cats, sb - sa):
        expected[cat] += d

    report = cumulative_diff(params_a, params_b, [ex], target_labels=[y], theta=theta)
    for cat in ("pos", "neg", "neutral"):
        assert report.rows[(0, y, cat)][0] == pytest.approx(expected[cat], abs=1e-12)
    assert report.base_values[y]["bal"] == pytest.approx(ba, abs=1e-12)
    assert report.base_values[y]["cmp"] == pytest.approx(bb, abs=1e-12)


def test_cumulative_diff_efficiency_invariant():
    """Per-datapoint category sums add up to (delta p) - (delta b)."""
    spec = CorpusSpec(n_languages=2, n_classes=3, n_min=4, n_max=8, p_signal=0.4, seed=7)
    vocab, examples = generate_corpus(spec, 3)
    pa = make_params(vocab.size, seed=20)
    pb = make_params(vocab.size, seed=21)
    for ex in examples[:6]:
        report = cumulative_diff(pa, pb, [ex], target_labels=[1])
        total = sum(report.rows[(ex.language, 1, c)][0] for c in ("pos", "neg", "neutral")
                    if (ex.language, 1, c) in report.rows)
        dp = forward(pa, ex.tokens).probs[1] - forward(pb, ex.tokens).probs[1]
        db = report.base_values[1]["bal"] - report.base_values[1]["cmp"]
        assert total == pytest.approx(-(dp - db), abs=1e-9)


def test_cumulative_diff_y_mode_true():
    spec = CorpusSpec(n_languages=2, n_classes=3, n_min=3, n_max=5, p_signal=0.5, seed=8)
    vocab, examples = generate_corpus(spec, 2)
    pa = make_params(vocab.size, seed=30)
    pb = make_params(vocab.size, seed=31)
    report = cumulative_diff(pa, pb, examples, y_mode="true")
    labels_seen = {label for (_, label, _) in report.rows}
    assert labels_seen == {0, 1, 2}


def test_cumulative_diff_dimension_mismatch():
    pa = make_params(6)
    pb = make_params(7)
    ex = Example(id="e", language=0, label=0, tokens=(1,))
    with pytest.raises(ValueError, match="share"):
        cumulative_diff(pa, pb, [ex])


def test_engine_dispatch():
    params = make_params(20, seed=1)
    engine = EngineConfig(exact_limit=4, n_permutations=300, seed=0)
    short = engine.explain(params, (1, 2, 3), 0)
    exact = shapley_exact(params, (1, 2, 3), 0)
    assert np.array_equal(short.values, exact.values)
    long = engine.explain(params, tuple(range(6)), 0)
    sampled = shapley_sampled(params, tuple(range(6)), 0, n_permutations=300, seed=0)
    assert np.array_equal(long.values, sampled.values)


def test_sampled_memory_bounded_on_long_input():
    """The sampled engine keeps one running sum per permutation, not a P x (n+1) x n coalition tensor."""
    import tracemalloc

    params = make_params(200, seed=3, d=32, h=32)
    tokens = tuple(int(t) for t in np.random.default_rng(4).integers(0, 200, 150))
    tracemalloc.start()
    try:
        shapley_sampled(params, tokens, 0, n_permutations=2000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
