import itertools
import math

import numpy as np
import pytest

from pblab.corpus import CorpusSpec, Example, generate_corpus
from pblab.explain import (
    DEFAULT_N_PERMUTATIONS,
    EXACT_LIMIT_MAX,
    N_PERMUTATIONS_MAX,
    EngineConfig,
    _first_layer,
    _head,
    _label_prob,
    categorize,
    cumulative_diff,
    shapley_exact,
    shapley_sampled,
)
from pblab.model import ModelParams, forward, forward_masked, forward_means
from pblab.seeds import derive_rng


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


def coalition_values_oracle(params, tokens, presence, label):
    """v(A) for each (B, n) 0/1 presence row: the masked input's mean embedding through ``forward_means``."""
    n = len(tokens)
    tok_emb = params.embedding[list(tokens)].astype(np.float64)
    mask_emb = params.embedding[params.mask_id].astype(np.float64)
    sizes = presence.sum(axis=1, keepdims=True)
    probs, _ = forward_means(params, (presence @ tok_emb + (n - sizes) * mask_emb) / n)
    return probs[:, label]


def shapley_exact_oracle(params, tokens, label):
    """(values, base) by enumeration, every coalition evaluated in embedding space."""
    n = len(tokens)
    presence = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    v = coalition_values_oracle(params, tokens, presence.astype(np.float64), label)
    sizes = presence.sum(axis=1)
    values = np.zeros(n)
    for i in range(n):
        without = np.flatnonzero(presence[:, i] == 0)
        weights = np.array([math.factorial(k) * math.factorial(n - 1 - k) / math.factorial(n)
                            for k in sizes[without]])
        values[i] = np.sum(weights * (v[without + (1 << i)] - v[without]))
    return values, v[0]


def shapley_sampled_oracle(params, tokens, label, perms):
    """(values, base) over the (P, n) orderings ``perms``, every coalition evaluated in embedding space."""
    P, n = perms.shape
    presence = np.zeros((P, n))
    v = np.empty((P, n + 1))
    v[:, 0] = coalition_values_oracle(params, tokens, presence, label)
    for k in range(n):
        presence[np.arange(P), perms[:, k]] = 1.0
        v[:, k + 1] = coalition_values_oracle(params, tokens, presence, label)
    values = np.bincount(perms.ravel(), weights=np.diff(v, axis=1).ravel(), minlength=n) / P
    return values + (v[0, n] - v[0, 0] - values.sum()) / n, v[0, 0]


def antithetic_draw(n, n_permutations, seed):
    """The seeded (P, n) orderings: the tiled ``permuted`` draw of ceil(P/2), then the first floor(P/2) reversed."""
    first = derive_rng(seed, "shapley_sampled").permuted(np.tile(np.arange(n), ((n_permutations + 1) // 2, 1)), axis=1)
    return np.concatenate([first, first[: n_permutations // 2, ::-1]])


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


@pytest.mark.parametrize("n_classes,shift", [(2, 0.0), (3, 0.0), (5, 0.0), (3, 30.0)])
def test_engines_match_embedding_space_oracle(n_classes, shift):
    """Coalitions in hidden space give the embedding-space values; ``shift`` puts the logits +-30 apart."""
    params = make_params(200, n_classes=n_classes, seed=n_classes)
    params.out_b = params.out_b + shift * (-1.0) ** np.arange(n_classes)
    rng = np.random.default_rng(n_classes)
    for n in (1, 2, 8, 12, 13, 40, 150):
        tokens = tuple(int(t) for t in rng.integers(0, 200, n))
        for label in range(n_classes):
            if n <= 12:
                expl = shapley_exact(params, tokens, label)
                values, base = shapley_exact_oracle(params, tokens, label)
            else:
                expl = shapley_sampled(params, tokens, label, n_permutations=60, seed=n)
                values, base = shapley_sampled_oracle(params, tokens, label, antithetic_draw(n, 60, n))
            assert np.abs(expl.values - values).max() < 1e-14
            assert abs(expl.base - base) < 1e-14


@pytest.mark.parametrize("n", [1, 13, 150])
def test_sampled_draw_is_the_tiled_permuted_draw(n):
    """The seeded orderings permute a tiled (ceil(P/2), n) table row by row, then repeat its first rows reversed."""
    params = make_params(200, seed=7)
    tokens = tuple(range(n))
    for P in (300, 301):
        drawn = shapley_sampled(params, tokens, 1, n_permutations=P, seed=11)
        given = shapley_sampled(params, tokens, 1, permutations=antithetic_draw(n, P, 11))
        assert np.array_equal(drawn.values, given.values) and drawn.base == given.base
        assert drawn.stderr == given.stderr


def test_antithetic_default_no_less_accurate_than_iid_at_2000():
    """RMSE against exact values over the criterion-03 model family at 8-16 tokens, three draws per model."""
    from test_acceptance import random_model

    rng = np.random.default_rng(13)
    sq_anti = sq_iid = 0.0
    for trial in range(30):
        n = int(rng.integers(8, 17))
        params = random_model(15, 3, seed=2000 + trial)
        tokens = tuple(int(t) for t in rng.integers(0, 15, n))
        y = int(rng.integers(0, 3))
        exact = shapley_exact(params, tokens, y, exact_limit=EXACT_LIMIT_MAX).values
        for draw in range(3):
            seed = 3 * trial + draw
            anti = shapley_sampled(params, tokens, y, seed=seed)
            iid = derive_rng(seed, "iid").permuted(np.tile(np.arange(n), (2000, 1)), axis=1)
            sq_anti += np.sum((anti.values - exact) ** 2)
            sq_iid += np.sum((shapley_sampled(params, tokens, y, permutations=iid).values - exact) ** 2)
    assert DEFAULT_N_PERMUTATIONS == 1000 and sq_anti <= sq_iid


def test_one_antithetic_pair_is_exact_for_two_tokens():
    """For n = 2 an ordering and its reversal are every ordering."""
    params = make_params(12, seed=4)
    for seed, tokens in enumerate([(3, 8), (5, 5), (0, 11), (7, 2), (9, 1), (4, 10)]):
        label = seed % 3
        sampled = shapley_sampled(params, tokens, label, n_permutations=2, seed=seed)
        assert np.abs(sampled.values - shapley_exact(params, tokens, label).values).max() < 1e-15


@pytest.mark.parametrize("P", [8, 9])
def test_sampled_stderr_from_pair_means(P):
    """The largest over positions of std(pair means, ddof=1) / sqrt(pairs), pairing ordering j with ceil(P/2) + j."""
    params = make_params(30, seed=9)
    tokens = (4, 17, 2, 29, 8, 11, 23)
    n = len(tokens)
    perms = antithetic_draw(n, P, 5)
    marginals = np.zeros((P, n))
    for p, perm in enumerate(perms):
        presence = np.zeros((n + 1, n))
        for k, pos in enumerate(perm):
            presence[k + 1:, pos] = 1.0
        marginals[p, perm] = np.diff(coalition_values_oracle(params, tokens, presence, 2))
    pair_means = (marginals[: P // 2] + marginals[(P + 1) // 2:]) / 2
    by_hand = (pair_means.std(axis=0, ddof=1) / math.sqrt(P // 2)).max()
    expl = shapley_sampled(params, tokens, 2, n_permutations=P, seed=5)
    assert abs(expl.stderr - by_hand) <= 1e-12 * by_hand
    assert shapley_exact(params, tokens, 2).stderr == 0.0
    assert all(shapley_sampled(params, tokens, 2, n_permutations=p).stderr is None for p in (1, 2, 3))


def test_report_max_stderr():
    """0.0 when every explanation is exact, None when a sampled one has no error bar, else the largest."""
    params_a, params_b = make_params(20, seed=1), make_params(20, seed=2)
    data = [Example(id=f"e{i}", language=i % 2, label=0, tokens=tuple(range(i, i + 3 + i))) for i in range(4)]

    def report(engine):
        return cumulative_diff(params_a, params_b, data, target_labels=[0], engine=engine).sidecar_dict()

    assert report(EngineConfig(exact_limit=12))["max_stderr"] == 0.0
    assert report(EngineConfig(exact_limit=4, n_permutations=3))["max_stderr"] is None
    engine = EngineConfig(exact_limit=4, n_permutations=40)
    expected = max(engine.explain(p, ex.tokens, 0).stderr for p in (params_a, params_b) for ex in data)
    assert expected > 0 and report(engine)["max_stderr"] == expected


@pytest.mark.parametrize("rows", [[[0, 0, 0]], [[0.5, 1, 2]], [[0, 1, 5]], [[0, 1]], []])
def test_sampled_rejects_rows_that_are_not_orderings(rows):
    params = make_params(12, seed=6)
    with pytest.raises(ValueError, match="orderings"):
        shapley_sampled(params, (3, 8, 1), 0, permutations=rows)


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
    for bad in (0.0, float("nan")):
        with pytest.raises(ValueError):
            categorize(expl, theta=bad)


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


@pytest.mark.parametrize("n,P,limit_mb", [(150, 1000, 3), (600, 1000, 12), (150, 2000, 32), (300, 2**13, 28)])
def test_sampled_memory_bounded_on_long_input(n, P, limit_mb):
    """The sampled engine holds the (ceil(P/2), n) pair sums, the (n, P) small-int orderings and one (P, h) running
    pre-activation: no P x (n+1) x n coalition tensor and no (n, P) marginal table, which took the peaks at
    1,000 orderings to 2.6 and 10.6 MiB and at 300 tokens and 2^13 orderings to 42.5 MiB."""
    import tracemalloc

    params = make_params(200, seed=3, d=32, h=32)
    tokens = tuple(int(t) for t in np.random.default_rng(4).integers(0, 200, n))
    tracemalloc.start()
    try:
        shapley_sampled(params, tokens, 0, n_permutations=P, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 2**20


def test_exact_memory_bounded_at_the_hard_cap():
    """2^16 coalitions hold one (2^16, h) pre-activation and its tanh, not (2^16, d) embedding sums besides."""
    import tracemalloc

    params = make_params(200, seed=3, d=32, h=32)
    tokens = tuple(int(t) for t in np.random.default_rng(4).integers(0, 200, EXACT_LIMIT_MAX))
    tracemalloc.start()
    try:
        shapley_exact(params, tokens, 0, exact_limit=EXACT_LIMIT_MAX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def shapley_exact_presence_matrix(params, tokens, label):
    """Oracle: every coalition's pre-activation as a 0/1 presence matrix @ delta, each token's pairs by fancy indexing."""
    n = len(tokens)
    pre0, delta = _first_layer(params, tokens)
    presence = (np.arange(2**n, dtype=np.uint32)[:, None] >> np.arange(n, dtype=np.uint32)) & 1
    sizes = presence.sum(axis=1)
    logits = params.out_w.T.astype(np.float64) @ np.tanh(presence.astype(np.float64) @ delta + pre0).T
    logits += params.out_b.astype(np.float64)[:, None]
    e = np.exp(logits - logits.max(axis=0))
    v = e[label] / e.sum(axis=0)
    coeff = np.array([math.factorial(k) * math.factorial(n - 1 - k) / math.factorial(n) for k in range(n)])
    values = np.zeros(n)
    for i in range(n):
        without = np.flatnonzero(presence[:, i] == 0)
        values[i] = np.sum(coeff[sizes[without]] * (v[without + (1 << i)] - v[without]))
    return values, float(v[0])


@pytest.mark.parametrize("n_classes", [2, 3, 5])
def test_exact_by_doubling_equals_presence_matrix(n_classes):
    for n in range(1, 13):
        params = make_params(60, n_classes=n_classes, seed=n, d=32, h=32)
        tokens = tuple(int(t) for t in np.random.default_rng(n).integers(0, 61, n))
        expl = shapley_exact(params, tokens, n_classes - 1)
        values, base = shapley_exact_presence_matrix(params, tokens, n_classes - 1)
        assert np.array_equal(expl.values, values) and expl.base == base, n


def test_exact_memory_at_the_hard_cap_is_one_pre_activation():
    """2^16 coalitions hold one (2^16, h) array, tanh applied in place, and no presence matrix."""
    import tracemalloc

    params = make_params(200, seed=3, d=32, h=32)
    tokens = tuple(int(t) for t in np.random.default_rng(4).integers(0, 200, EXACT_LIMIT_MAX))
    tracemalloc.start()
    try:
        shapley_exact(params, tokens, 0, exact_limit=EXACT_LIMIT_MAX)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


def shapley_sampled_bincount_oracle(params, tokens, label, n_permutations=DEFAULT_N_PERMUTATIONS, seed=0,
                                    permutations=None):
    """(values, base, stderr) as the engine computed them before its one marginal table: an int64 order table,
    every coalition value in an (n + 1, P) table, and one bincount of np.diff over (pair, position) keys."""
    n = len(tokens)
    pre0, delta = _first_layer(params, tokens)
    if permutations is None:
        order = np.repeat(np.arange(n)[:, None], (n_permutations + 1) // 2, axis=1)
        derive_rng(seed, "shapley_sampled").permuted(order.T, axis=1, out=order.T)
        order = np.concatenate([order, order[::-1, : n_permutations // 2]], axis=1)
    else:
        order = np.ascontiguousarray(np.asarray(list(permutations)).T, dtype=np.int64)
    P = order.shape[1]
    pre = np.tile(pre0, (P, 1))
    v = np.empty((n + 1, P))
    for k in range(n + 1):
        if k:
            pre += delta[order[k - 1]]
        logits = params.out_w.T.astype(np.float64) @ np.tanh(pre).T + params.out_b.astype(np.float64)[:, None]
        e = np.exp(logits - logits.max(axis=0))
        v[k] = e[label] / e.sum(axis=0)
    half, pairs = (P + 1) // 2, P // 2
    pair_of = order + n * (np.arange(P) % half)
    sums = np.bincount(pair_of.ravel(), weights=np.diff(v, axis=0).ravel(), minlength=half * n).reshape(half, n)
    values = sums.sum(axis=0) / P
    stderr = float(np.std(sums[:pairs] / 2, axis=0, ddof=1).max() / math.sqrt(pairs)) if pairs > 1 else None
    values += (float(v[n, 0]) - float(v[0, 0]) - values.sum()) / n
    return values, float(v[0, 0]), stderr


@pytest.mark.parametrize("n", [1, 2, 3, 13, 150])
def test_sampled_marginal_table_is_bit_identical_to_bincount(n):
    """Seeded draws: one marginal table folded by pair gives the bincount's values, base and stderr, bit for bit."""
    params = make_params(300, n_classes=3, seed=n, d=32, h=32)
    tokens = tuple(int(t) for t in np.random.default_rng(n).integers(0, 301, n))
    for P in (1, 2, 3, 999, 1000):
        expl = shapley_sampled(params, tokens, n % 3, n_permutations=P, seed=n + P)
        values, base, stderr = shapley_sampled_bincount_oracle(params, tokens, n % 3, P, n + P)
        assert np.array_equal(expl.values, values) and expl.base == base and expl.stderr == stderr, P


def test_sampled_given_rows_bit_identical_to_bincount():
    """Given orderings take the same path: every ordering of 4 tokens, 2,000 i.i.d. rows, one row, an odd count."""
    params = make_params(12, seed=6)
    tokens = (3, 8, 1, 10)
    iid = derive_rng(3, "iid").permuted(np.tile(np.arange(4), (2000, 1)), axis=1)
    for rows in (list(itertools.permutations(range(4))), iid, iid[:1], iid[:41]):
        expl = shapley_sampled(params, tokens, 1, permutations=rows)
        values, base, stderr = shapley_sampled_bincount_oracle(params, tokens, 1, permutations=rows)
        assert np.array_equal(expl.values, values) and expl.base == base and expl.stderr == stderr, len(rows)


def shapley_sampled_table_fold_oracle(params, tokens, label, n_permutations=DEFAULT_N_PERMUTATIONS, seed=0,
                                     permutations=None):
    """(values, base, stderr) as the engine computed them before it added each marginal to its pair sum during the
    walk: every marginal in one (n, P) float64 table, folded into the pair sums by put/take along the orderings."""
    n = len(tokens)
    pre0, delta = _first_layer(params, tokens)
    head = _head(params)
    small = np.min_scalar_type(n)
    if permutations is None:
        order = np.repeat(np.arange(n, dtype=small)[:, None], (n_permutations + 1) // 2, axis=1)
        derive_rng(seed, "shapley_sampled").permuted(order.T, axis=1, out=order.T)
        order = np.concatenate([order, order[::-1, : n_permutations // 2]], axis=1)
    else:
        order = np.ascontiguousarray(np.asarray(list(permutations)).T, dtype=small)
    P = order.shape[1]
    pre = np.tile(pre0, (P, 1))
    prev = _label_prob(head, np.tanh(pre), label)
    base = float(prev[0])
    m = np.empty((n, P))
    for k in range(n):
        pre += delta[order[k]]
        cur = _label_prob(head, np.tanh(pre), label)
        np.subtract(cur, prev, out=m[k])
        prev = cur
    full = float(prev[0])
    half, pairs = (P + 1) // 2, P // 2
    sums = np.empty((half, n))
    np.put_along_axis(sums.T, order[:, :half], m[:, :half], axis=0)
    second = np.take_along_axis(sums.T[:, :pairs], order[:, half:], axis=0)
    np.put_along_axis(sums.T[:, :pairs], order[:, half:], np.add(second, m[:, half:], out=second), axis=0)
    values = sums.sum(axis=0) / P
    stderr = float(np.std(sums[:pairs] / 2, axis=0, ddof=1).max() / math.sqrt(pairs)) if pairs > 1 else None
    values += (full - base - values.sum()) / n
    return values, base, stderr


def wide_params(seed, d=32, h=32):
    """Weights wide enough that the label probabilities, and so the marginals, span many orders of magnitude."""
    rng = np.random.default_rng(seed)
    return ModelParams(embedding=rng.normal(0, 3.0, (302, d)), hidden_w=rng.normal(0, 1.0, (d, h)),
                       hidden_b=rng.normal(0, 1.0, h), out_w=rng.normal(0, 8.0, (h, 3)), out_b=rng.normal(0, 4.0, 3))


@pytest.mark.parametrize("n", [1, 2, 13, 150, 301])
def test_sampled_pair_sums_bit_identical_to_table_fold(n):
    """Seeded draws: adding each marginal to its pair sum during the walk gives the table fold's values, base and
    stderr bit for bit. Odd n has a middle step, where both columns of a pair add one token; 301 tokens take
    uint16 orderings."""
    params = wide_params(n)
    tokens = tuple(int(t) for t in np.random.default_rng(n).integers(0, 301, n))
    for P in (1, 2, 3, 1000, 1001):
        expl = shapley_sampled(params, tokens, n % 3, n_permutations=P, seed=n + P)
        values, base, stderr = shapley_sampled_table_fold_oracle(params, tokens, n % 3, P, n + P)
        assert np.array_equal(expl.values, values) and expl.base == base and expl.stderr == stderr, P


def test_sampled_given_rows_bit_identical_to_table_fold():
    """Given orderings take the same path: 1,001 i.i.d. orderings of 13 tokens under wide weights."""
    params = wide_params(7)
    tokens = tuple(int(t) for t in np.random.default_rng(7).integers(0, 301, 13))
    rows = derive_rng(5, "iid").permuted(np.tile(np.arange(13), (1001, 1)), axis=1)
    expl = shapley_sampled(params, tokens, 2, permutations=rows)
    values, base, stderr = shapley_sampled_table_fold_oracle(params, tokens, 2, permutations=rows)
    assert np.array_equal(expl.values, values) and expl.base == base and expl.stderr == stderr


def shapley_sampled_fresh_temporaries_oracle(params, tokens, label, n_permutations=DEFAULT_N_PERMUTATIONS, seed=0,
                                             permutations=None):
    """(values, base, stderr) as the engine computed them before it reused one (P, h) buffer: each step's shifts
    and tanh in fresh arrays, and the standard error by one np.std over the whole (pairs, n) table."""
    n = len(tokens)
    pre0, delta = _first_layer(params, tokens)
    head = _head(params)
    small = np.min_scalar_type(n)
    if permutations is None:
        half = (n_permutations + 1) // 2
        order = np.empty((n, n_permutations), dtype=small)
        order[:, :half] = np.arange(n, dtype=small)[:, None]
        derive_rng(seed, "shapley_sampled").permuted(order[:, :half].T, axis=1, out=order[:, :half].T)
        order[:, half:] = order[::-1, : n_permutations // 2]
    else:
        order = np.ascontiguousarray(np.asarray(permutations).T, dtype=small)
    P = order.shape[1]
    half, pairs = (P + 1) // 2, P // 2
    sums, row = np.zeros((half, n)), np.arange(P) % half * n
    pre = np.tile(pre0, (P, 1))
    prev = _label_prob(head, np.tanh(pre), label)
    base = float(prev[0])
    for k in range(n):
        pre += delta[order[k]]
        cur = _label_prob(head, np.tanh(pre), label)
        np.add.at(sums.reshape(-1), row + order[k], cur - prev)
        prev = cur
    values = sums.sum(axis=0) / P
    stderr = float(np.std(sums[:pairs], axis=0, ddof=1).max() / 2 / math.sqrt(pairs)) if pairs > 1 else None
    values += (float(prev[0]) - base - values.sum()) / n
    return values, base, stderr


@pytest.mark.parametrize("n", [1, 2, 5, 13, 150, 301])
def test_sampled_reused_buffer_and_blocked_std_bit_identical(n):
    """The reused (P, h) buffer and the standard error over column blocks give the values, base and stderr of fresh
    temporaries and one whole-table np.std, bit for bit. 150 and 301 tokens at 1,000 orderings take 2 and 3 blocks;
    5 tokens at 2^15 orderings take blocks 2 and 3 columns wide."""
    params = wide_params(n)
    tokens = tuple(int(t) for t in np.random.default_rng(n).integers(0, 301, n))
    for P in (1, 2, 3, 1000, 1001) + ((N_PERMUTATIONS_MAX,) if n == 5 else ()):
        expl = shapley_sampled(params, tokens, n % 3, n_permutations=P, seed=n + P)
        values, base, stderr = shapley_sampled_fresh_temporaries_oracle(params, tokens, n % 3, P, n + P)
        assert np.array_equal(expl.values, values) and expl.base == base and expl.stderr == stderr, P


def test_sampled_many_given_rows_keep_blocks_two_columns_wide():
    """200,000 given orderings of 5 tokens ask for more blocks than columns; blocks stay 2 or more columns wide, as a
    1-column block is summed pairwise, so the standard error keeps the whole table's bits."""
    params = wide_params(11, h=4)
    tokens = (5, 80, 13, 200, 7)
    rows = derive_rng(9, "iid").permuted(np.tile(np.arange(5, dtype=np.uint8), (200_000, 1)), axis=1)
    expl = shapley_sampled(params, tokens, 1, permutations=rows)
    values, base, stderr = shapley_sampled_fresh_temporaries_oracle(params, tokens, 1, permutations=rows)
    assert np.array_equal(expl.values, values) and expl.base == base and expl.stderr == stderr


def test_sampled_refuses_too_many_permutations_before_allocating():
    """N_PERMUTATIONS_MAX + 1 orderings are a ValueError before the order table or the marginal table exists."""
    import tracemalloc

    params = make_params(200, seed=3, d=32, h=32)
    tokens = tuple(range(150))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"n_permutations must be in \\[1, {N_PERMUTATIONS_MAX}\\]"):
            shapley_sampled(params, tokens, 0, n_permutations=N_PERMUTATIONS_MAX + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    for bad in (0, N_PERMUTATIONS_MAX + 1, 10**13):
        with pytest.raises(ValueError, match="n_permutations"):
            EngineConfig(n_permutations=bad).validate()
    EngineConfig(n_permutations=N_PERMUTATIONS_MAX).validate()
