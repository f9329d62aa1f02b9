import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from pblab import training
from pblab.corpus import CorpusSpec, Example, generate_corpus
from pblab.model import PARAM_FIELDS, ModelParams, forward_examples, init_params, pack_tokens, softmax
from pblab.sampler import preset, sample_paired, split_eval
from pblab.seeds import derive_rng
from pblab.training import (
    BLOCK_TOKENS,
    PROB_CLAMP,
    TrainConfig,
    _head_terms,
    _head_views,
    _loss_and_grad,
    batch_counts,
    batch_layout,
    compute_weights,
    count_cells,
    evaluate,
    grad_check,
    learning_rate,
    loss,
    mask_entropy_loss,
    prediction_skew_spearman,
    train,
    train_arms,
)


@pytest.fixture(scope="module")
def corpus223():
    spec = CorpusSpec(n_languages=2, n_classes=3, n_min=4, n_max=8, p_signal=0.4,
                      p_noise=0.1, seed=21)
    return generate_corpus(spec, 40)


def random_params(vocab, n_classes=3, seed=0, d=8, h=6):
    rng = np.random.default_rng(seed)
    return ModelParams(
        embedding=rng.normal(0, 0.5, (vocab.size + 1, d)),
        hidden_w=rng.normal(0, 0.5, (d, h)),
        hidden_b=rng.normal(0, 0.1, h),
        out_w=rng.normal(0, 0.5, (h, n_classes)),
        out_b=rng.normal(0, 0.1, n_classes),
    )


# ---------------------------------------------------------------- weights

def test_weights_uniform_counts_all_one():
    w = compute_weights(np.full((3, 4), 17))
    assert np.allclose(w, 1.0, atol=1e-12)


def test_weights_amazon_fractions():
    # counts in the 1:2:3:4:5 ratio per language
    counts = np.array([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]]) * 7
    w = compute_weights(counts)
    assert np.allclose(w[0], [3.0, 1.5, 1.0, 0.75, 0.6], atol=1e-9)
    assert np.allclose(w[1], [0.6, 0.75, 1.0, 1.5, 3.0], atol=1e-9)


def test_weights_xnli_fractions():
    counts = np.array([[30, 20, 10], [10, 20, 30]])
    w = compute_weights(counts)
    assert np.allclose(w[0], [2 / 3, 1.0, 2.0], atol=1e-9)


def test_weights_mass_preservation():
    rng = np.random.default_rng(4)
    counts = rng.integers(1, 50, size=(4, 6))
    w = compute_weights(counts)
    per_lang = (counts * w).sum(axis=1)
    assert np.allclose(per_lang, counts.sum(axis=1), atol=1e-9)


def test_weights_zero_cell_error():
    with pytest.raises(ValueError, match="language=1, label=0"):
        compute_weights(np.array([[3, 3], [0, 3]]))


@pytest.mark.parametrize("mode", list(training.WEIGHTINGS))
def test_every_weighting_mode_is_one_on_uniform_counts_and_keeps_each_languages_mass(mode):
    weigh = training.WEIGHTINGS[mode]
    assert np.allclose(weigh(np.full((3, 4), 17)), 1.0, atol=1e-12)
    rng = derive_rng(0, "test", "weightings")
    for _ in range(20):
        counts = rng.integers(1, 50, size=(int(rng.integers(1, 5)), int(rng.integers(2, 6))))
        w = weigh(counts)
        assert w.shape == counts.shape
        assert np.allclose((counts * w).sum(axis=1), counts.sum(axis=1), atol=1e-9)


def test_only_per_language_weighting_refuses_an_empty_cell():
    counts = np.array([[3, 0], [2, 5]])
    with pytest.raises(ValueError, match="language=0, label=1"):
        training.WEIGHTINGS["per_language"](counts)
    assert (training.WEIGHTINGS["none"](counts) == 1.0).all()


# ---------------------------------------------------------------- loss

def test_loss_uniform_model_is_ln_c(corpus223):
    vocab, examples = corpus223
    params = init_params(vocab.size, 3, rng=np.random.default_rng(0))
    assert loss(params, examples[:16]) == pytest.approx(math.log(3), abs=1e-12)


def test_mask_entropy_uniform_and_bounds(corpus223):
    vocab, _ = corpus223
    params = init_params(vocab.size, 3, rng=np.random.default_rng(0))
    assert mask_entropy_loss(params) == pytest.approx(-math.log(3), abs=1e-9)

    peaked = random_params(vocab)
    peaked.out_b = np.array([50.0, 0.0, 0.0], dtype=np.float32)
    lm = mask_entropy_loss(peaked)
    assert -1e-9 <= -lm < 1e-6  # near-one-hot: entropy ~ 0 from below

    for seed in range(20):
        lm = mask_entropy_loss(random_params(vocab, seed=seed))
        assert -math.log(3) - 1e-9 <= lm <= 0.0


def test_loss_includes_lambda_term(corpus223):
    vocab, examples = corpus223
    params = random_params(vocab)
    base = loss(params, examples[:8])
    lam = loss(params, examples[:8], mask_entropy_coeff=0.5)
    assert lam == pytest.approx(base + 0.5 * mask_entropy_loss(params), abs=1e-12)


def test_loss_nonfinite_params_abort(corpus223):
    vocab, examples = corpus223
    params = random_params(vocab)
    params.out_b = np.array([np.nan, 0, 0], dtype=np.float32)
    with pytest.raises(FloatingPointError):
        loss(params, examples[:4])


def test_weighted_imbalanced_equals_unweighted_balanced_expectation(corpus223):
    """Per-cell mean CE weighted by Eq-style weights == uniform cell average.

    The imbalanced subset has uniform language marginals; with w = n_l/(C n_cl)
    the weighted mean loss collapses to the balanced (uniform over cells)
    average of per-cell mean losses. Checked by exact summation.
    """
    vocab, pool = corpus223
    _, imbal, _ = sample_paired(pool, preset("xnli_skew", 2, 3), 36, seed=9)
    params = random_params(vocab)
    counts = count_cells(imbal, 2, 3)
    weights = compute_weights(counts)
    weighted = loss(params, imbal, weights=weights)

    cell_means = []
    for lang in range(2):
        for c in range(3):
            cell = [e for e in imbal if e.language == lang and e.label == c]
            cell_means.append(loss(params, cell))
    assert weighted == pytest.approx(float(np.mean(cell_means)), abs=1e-9)


# ---------------------------------------------------------------- gradients

def test_grad_check_plain(corpus223):
    vocab, examples = corpus223
    params = random_params(vocab)
    res = grad_check(params, examples[:6], n_samples=120, seed=1)
    assert res.max_rel_error < 1e-4


def test_grad_check_weighted_and_entropy(corpus223):
    vocab, examples = corpus223
    params = random_params(vocab)
    weights = compute_weights(count_cells(examples, 2, 3))
    res = grad_check(params, examples[:6], weights=weights, mask_entropy_coeff=1.0,
                     n_samples=120, seed=2)
    assert res.max_rel_error < 1e-4


def with_mask_tokens(examples, mask_id, every=1):
    """The examples with the first token of every ``every``-th one replaced by the mask id."""
    return [Example(ex.id, ex.language, ex.label, (mask_id, *ex.tokens[1:]) if i % every == 0 else ex.tokens)
            for i, ex in enumerate(examples)]


def test_grad_check_batch_holding_the_mask_id_with_entropy(corpus223):
    """The mask row as a batch token and as the entropy input at once: its gradient is the sum of both, and every
    coordinate (the mask row's too) is checked."""
    vocab, examples = corpus223
    params, batch = random_params(vocab), with_mask_tokens(examples[:6], vocab.mask_id, every=2)
    res = grad_check(params, batch, mask_entropy_coeff=1.0, n_samples=10**6, seed=2)
    assert res.n_checked == sum(getattr(params, name).size for name in PARAM_FIELDS)
    assert res.max_rel_error < 1e-4


def test_grad_check_at_converged_point(corpus223):
    vocab, _ = corpus223
    spec = CorpusSpec(n_languages=2, n_classes=3, n_min=4, n_max=8, p_signal=1.0,
                      p_noise=0.0, seed=22)
    sep_vocab, sep = generate_corpus(spec, 20)
    params, _ = train(sep, sep[:24], sep_vocab, TrainConfig(epochs=30, lr=0.5, seed=0))
    res = grad_check(params, sep[:8], n_samples=80, seed=3)
    assert res.max_abs_error < 1e-6


def test_learning_rate_schedule_exact():
    total = 40
    for t in range(total):
        assert learning_rate(0.1, t, total) == 0.1 * (1 - t / total)
    assert learning_rate(0.1, 0, total) == 0.1


# ---------------------------------------------------------------- training

def test_train_separable_reaches_perfect_validation():
    spec = CorpusSpec(n_languages=2, n_classes=3, n_min=4, n_max=8, p_signal=1.0,
                      p_noise=0.0, seed=13)
    vocab, pool = generate_corpus(spec, 60)
    val, _ = split_eval(pool, 60, 60, seed=0)
    ids = {e.id for e in val}
    data = [e for e in pool if e.id not in ids]
    params, report = train(data, val, vocab, TrainConfig(epochs=10, seed=0))
    assert report.final["val_accuracy"] == 1.0


def test_train_zero_epochs_returns_init(corpus223):
    vocab, examples = corpus223
    config = TrainConfig(epochs=0, seed=5)
    params, report = train(examples[:60], examples[60:80], vocab, config)
    expected = init_params(vocab.size, 3, config.embed_dim, config.hidden_dim,
                           rng=derive_rng(config.seed, "train", "init"))
    assert params.array_equal(expected)
    assert report.epochs == [] and report.selected_epoch is None


def test_train_deterministic_bitwise(corpus223):
    vocab, examples = corpus223
    config = TrainConfig(epochs=3, seed=11)
    p1, r1 = train(examples[:120], examples[120:160], vocab, config)
    p2, r2 = train(examples[:120], examples[120:160], vocab, TrainConfig(epochs=3, seed=11))
    assert p1.array_equal(p2)
    assert r1.to_dict() == r2.to_dict()


@pytest.mark.parametrize("seed", [1.5, True, "7"], ids=["float", "bool", "str"])
def test_train_refuses_a_seed_that_is_not_an_integer(corpus223, seed):
    vocab, examples = corpus223
    with pytest.raises(ValueError, match="must be an integer"):
        train(examples[:30], examples[30:40], vocab, TrainConfig(epochs=1, seed=seed))


def test_train_selects_min_val_loss_epoch(corpus223):
    vocab, examples = corpus223
    _, report = train(examples[:120], examples[120:160], vocab, TrainConfig(epochs=5, seed=2))
    vals = [e.val_loss for e in report.epochs]
    assert report.selected_epoch == int(np.argmin(vals))
    assert report.selected_val_loss == min(vals)


def test_train_divergence_reported(corpus223):
    vocab, examples = corpus223
    config = TrainConfig(epochs=1, mask_entropy_coeff=1e300, seed=0)  # its first step overflows the float32 table
    with pytest.raises(FloatingPointError, match="epoch 0 step 1"):  # and no RuntimeWarning, an error here
        train(examples[:40], examples[40:60], vocab, config)


def test_train_weighting_changes_model(corpus223):
    vocab, pool = corpus223
    _, imbal, _ = sample_paired(pool, preset("xnli_skew", 2, 3), 120, seed=1)
    p_plain, _ = train(imbal, pool[:30], vocab, TrainConfig(epochs=3, seed=4))
    p_cw, _ = train(imbal, pool[:30], vocab, TrainConfig(epochs=3, seed=4, weighting="per_language"))
    assert not p_plain.array_equal(p_cw)


# ---------------------------------------------------------------- evaluation

def perfect_params(vocab):
    """Hand-built classifier: signal embeddings vote for their class."""
    d = h = 3
    emb = np.zeros((vocab.size + 1, d))
    for lang in range(vocab.n_languages):
        for c in range(vocab.n_classes):
            for t in vocab.signal_sets[lang][c]:
                emb[t, c] = 50.0
    return ModelParams(
        embedding=emb, hidden_w=np.eye(d), hidden_b=np.zeros(h),
        out_w=np.eye(h) * 40.0, out_b=np.zeros(3),
    )


def test_evaluate_perfect_classifier():
    spec = CorpusSpec(n_languages=2, n_classes=3, n_min=4, n_max=8, p_signal=1.0,
                      p_noise=0.0, seed=31)
    vocab, examples = generate_corpus(spec, 20)
    metrics = evaluate(forward_examples(perfect_params(vocab), examples)[0], examples, 2, 3)
    assert metrics.overall_accuracy == 1.0
    true_dist = np.full((2, 3), 1 / 3)
    assert np.allclose(metrics.pred_dist, true_dist, atol=1e-12)


def test_evaluate_constant_classifier(corpus223):
    vocab, examples = corpus223
    params = init_params(vocab.size, 3, rng=np.random.default_rng(0))
    params.out_b = np.array([9.0, 0.0, 0.0], dtype=np.float32)
    metrics = evaluate(forward_examples(params, examples)[0], examples, 2, 3)
    assert np.allclose(metrics.pred_dist[:, 0], 1.0)
    assert np.allclose(metrics.pred_dist[:, 1:], 0.0)


def test_prediction_skew_spearman_signs():
    joint = preset("xnli_skew", 2, 3)

    class M:
        def __init__(self, dist):
            self.pred_dist = np.asarray(dist)

    follows = M(joint * 2)  # proportional to the joint
    assert prediction_skew_spearman(follows, joint) > 0.99
    anti = M(joint[::-1] * 2)
    assert prediction_skew_spearman(anti, joint) < -0.99
    assert prediction_skew_spearman(M(np.full((2, 3), 1 / 6)), joint) == 0.0


@pytest.mark.parametrize("shape", [(2, 3), (2, 5)])
def test_prediction_skew_spearman_matches_scipy(shape):
    from scipy import stats

    rng = np.random.default_rng(sum(shape))
    compared = 0
    for trial in range(300):
        a = rng.integers(0, 4, size=shape) / 4.0  # few distinct values: many ties
        b = rng.integers(0, 3, size=shape) / 3.0 if trial % 2 else rng.random(shape)
        got = prediction_skew_spearman(SimpleNamespace(pred_dist=a), b)
        if np.allclose(a, a.flat[0]) or np.allclose(b, b.flat[0]):
            assert got == 0.0
            continue
        assert abs(got - stats.spearmanr(a.ravel(), b.ravel()).statistic) <= 1e-12
        compared += 1
    assert compared > 250


def test_import_pblab_does_not_load_scipy():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", "import sys, pblab; print('scipy' in sys.modules)"],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_evaluate_keeps_row_of_missing_language(corpus223):
    vocab, examples = corpus223
    first_language = [ex for ex in examples if ex.language == 0]
    metrics = evaluate(forward_examples(random_params(vocab), first_language)[0], first_language, 2, 3)
    assert metrics.pred_dist.shape == (2, 3)
    assert not np.isnan(metrics.pred_dist[0]).any()
    assert np.isnan(metrics.pred_dist[1]).all()
    assert metrics.n_per_language == [len(first_language), 0]
    probs, _ = forward_examples(random_params(vocab), examples)
    with pytest.raises(ValueError, match="does not fit the 1 x 3 table"):
        evaluate(probs, examples, 1, 3)
    with pytest.raises(ValueError, match="does not fit the 2 x 2 table"):
        evaluate(probs, examples, 2, 2)
    with pytest.raises(ValueError, match="does not fit the 2 x 3 table"):
        evaluate(probs, first_language, 2, 3)


def test_evaluate_rejects_an_empty_test_set():
    with pytest.raises(ValueError, match="^empty test set"):
        evaluate(np.empty((0, 3)), [], 2, 3)


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_train_step_writes_only_batch_rows(corpus223, lam):
    vocab, examples = corpus223
    batch = examples[:32]
    config = TrainConfig(epochs=1, batch_size=32, mask_entropy_coeff=lam, seed=3)
    params, report = train(batch, examples[32:40], vocab, config)  # one epoch of one step
    assert report.selected_epoch == 0
    init = init_params(vocab.size, 3, config.embed_dim, config.hidden_dim,
                       rng=derive_rng(config.seed, "train", "init"))
    read = {t for ex in batch for t in ex.tokens} | ({vocab.mask_id} if lam else set())
    changed = {i for i in range(vocab.size + 1)
               if not np.array_equal(params.embedding[i], init.embedding[i])}
    assert changed == read


def test_train_step_updates_a_mask_token_row_then_the_entropy_term(corpus223):
    """A batch holding the mask id at lambda != 0: one step leaves the mask row at x - lr * g_tok, rounded to
    float32, minus lr * g_mask, rounded again; g_tok and g_mask are computed here from the step's own inputs."""
    vocab, examples = corpus223
    init = random_params(vocab, seed=4)
    table = np.zeros((1, vocab.size + 1, 8), dtype=np.float32)
    table[0, vocab.mask_id] = init.embedding[vocab.mask_id]  # so the one sequence that reads it has mean x / length
    batch = examples[:1] + with_mask_tokens(examples[1:2], vocab.mask_id) + examples[2:12]  # one mask token
    config = TrainConfig(epochs=1, batch_size=len(batch), mask_entropy_coeff=0.5, lr=0.3, embed_dim=8, hidden_dim=6)
    shapes = {name: getattr(init, name).shape for name in PARAM_FIELDS[1:]}
    head32 = np.concatenate([getattr(init, name) for name in PARAM_FIELDS[1:]], axis=None)[None]
    packed = (*pack_tokens([ex.tokens for ex in batch], vocab.mask_id), *training._langs_and_labels(batch))
    training._train_epoch(table, head32, head32.astype(np.float64), shapes, packed, np.arange(len(batch))[None],
                          np.ones((1, 2, 3)), config, 0)  # one epoch of one step, the batch in file order
    at, length = 1, len(batch[1].tokens)
    head = {name: getattr(init, name).astype(np.float64)[None] for name in PARAM_FIELDS[1:]}
    grads = {name: np.empty_like(arr) for name, arr in head.items()}
    x_m = init.embedding[vocab.mask_id].astype(np.float64)
    x = np.zeros((1, len(batch), config.embed_dim))
    x[0, at] = x_m / length
    labels = np.array([[ex.label for ex in batch]])
    _, g_x, g_mask = reference_loss_and_grad(head, x, x_m[None], labels, np.ones((1, len(batch))),
                                             config.mask_entropy_coeff, grads)
    g_tok = g_x[0, at] / length
    want = ((x_m - g_tok * config.lr).astype(np.float32) - g_mask[0] * config.lr).astype(np.float32)
    assert np.array_equal(table[0, vocab.mask_id], want)
    assert not np.array_equal(want, (x_m - (g_tok + g_mask[0]) * config.lr).astype(np.float32))  # one sum differs


# ---------------------------------------------------------------- lockstep arms

@pytest.fixture(scope="module")
def paired223(corpus223):
    vocab, pool = corpus223
    val, test = split_eval(pool, 30, 30, seed=0)
    held_out = {ex.id for ex in val} | {ex.id for ex in test}
    train_pool = [ex for ex in pool if ex.id not in held_out]
    balanced, imbalanced, _ = sample_paired(train_pool, preset("xnli_skew", 2, 3), 96, seed=3)
    return vocab, balanced, imbalanced, val


def arm_configs(lam, **overrides):
    return [TrainConfig(epochs=3, batch_size=16, mask_entropy_coeff=lam, seed=40 + k,
                        weighting="per_language" if k == 2 else "none", **overrides) for k in range(3)]


def disjoint_arms(corpus223, n=40):
    """Equal-size arms of which the first two read disjoint rows (languages 0 and 1), so every step pads."""
    _, examples = corpus223
    mixed = examples[::6][:n]
    assert (count_cells(mixed, 2, 3) > 0).all()  # the per_language arm needs every cell
    return [[ex for ex in examples if ex.language == lang][:n] for lang in range(2)] + [mixed]


@pytest.mark.parametrize("lam, arms", [(0.0, "acceptance"), (0.5, "acceptance"), (0.0, "disjoint"), (0.5, "disjoint")],
                         ids=["0.0", "0.5", "0.0-disjoint", "0.5-disjoint"])
def test_train_arms_equals_separate_training(paired223, corpus223, lam, arms):
    vocab, balanced, imbalanced, val = paired223
    # The acceptance arms are plain, plain, per_language on two datasets.
    datasets = [balanced, imbalanced, imbalanced] if arms == "acceptance" else disjoint_arms(corpus223)
    configs = arm_configs(lam)
    together = train_arms(datasets, val, vocab, configs)
    n_unread = []
    for data, config, (params, report) in zip(datasets, configs, together):
        alone, alone_report = train(data, val, vocab, config)
        assert params.array_equal(alone)
        assert report.to_dict() == alone_report.to_dict()
        assert params.embedding.shape == (vocab.size + 1, config.embed_dim)
        assert report.selected_val_loss == loss(params, val)  # the stacked validation pass, bit for bit
        init = init_params(vocab.size, 3, config.embed_dim, config.hidden_dim,
                           rng=derive_rng(config.seed, "train", "init"))
        read = {t for ex in data for t in ex.tokens} | ({vocab.mask_id} if lam else set())
        unread = [i for i in range(vocab.size + 1) if i not in read]
        assert np.array_equal(params.embedding[unread], init.embedding[unread])
        n_unread.append(len(unread))
        # The mask row is trained only by the entropy term, and per arm.
        assert np.any(params.embedding[vocab.mask_id] != 0) == (lam != 0.0)
    assert arms == "acceptance" or min(n_unread[:2]) > 0  # each language arm leaves the other's rows unread
    if lam != 0.0:
        masks = [params.embedding[vocab.mask_id] for params, _ in together]
        assert not np.array_equal(masks[0], masks[1]) and not np.array_equal(masks[1], masks[2])


@pytest.mark.parametrize("field, value", [("batch_size", 8), ("mask_entropy_coeff", 0.1), ("epochs", 2),
                                          ("lr", 0.2), ("hidden_dim", 16), ("embed_dim", 16)])
def test_train_arms_rejects_unshared_settings(paired223, field, value):
    vocab, balanced, imbalanced, val = paired223
    configs = arm_configs(0.0)
    configs[1] = TrainConfig(**{**vars(configs[1]), field: value})
    with pytest.raises(ValueError, match=field):
        train_arms([balanced, imbalanced, imbalanced], val, vocab, configs)


def test_train_arms_rejects_unequal_train_sizes(paired223):
    vocab, balanced, imbalanced, val = paired223
    with pytest.raises(ValueError, match="equal train sizes"):
        train_arms([balanced, imbalanced[:-1], imbalanced], val, vocab, arm_configs(0.0))
    with pytest.raises(ValueError, match="one dataset per config"):
        train_arms([balanced, imbalanced], val, vocab, arm_configs(0.0))


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_lockstep_step_writes_only_each_arms_batch_rows(corpus223, lam):
    vocab, examples = corpus223
    by_lang = [[ex for ex in examples if ex.language == lang][:32] for lang in range(2)]
    mixed = examples[::7][:32]
    assert (count_cells(mixed, 2, 3) > 0).all()
    datasets = [by_lang[0], by_lang[1], mixed]  # languages 0 and 1 read disjoint rows
    configs = [TrainConfig(epochs=1, batch_size=32, mask_entropy_coeff=lam, seed=3 + k,
                           weighting="per_language" if k == 2 else "none") for k in range(3)]
    trained = train_arms(datasets, examples[200:], vocab, configs)  # one epoch of one step
    for data, config, (params, report) in zip(datasets, configs, trained):
        assert report.selected_epoch == 0
        init = init_params(vocab.size, 3, config.embed_dim, config.hidden_dim,
                           rng=derive_rng(config.seed, "train", "init"))
        read = {t for ex in data for t in ex.tokens} | ({vocab.mask_id} if lam else set())
        changed = {i for i in range(vocab.size + 1)
                   if not np.array_equal(params.embedding[i], init.embedding[i])}
        assert changed == read


def test_train_arms_memory_is_the_table_and_the_snapshots():
    """V = 100,000 and a validation set of more tokens than table rows, at K = 1 and 3: no float64 copy of the
    stacked table, no init table beside it, and each best-epoch snapshot is refreshed in place, not reallocated."""
    import tracemalloc

    V, d = 100_000, 32
    vocab = SimpleNamespace(size=V, n_classes=3, n_languages=2)
    rng = np.random.default_rng(6)

    def examples(n, length):
        return [Example(id=str(i), language=i % 2, label=i % 3, tokens=tuple(rng.integers(0, V, length).tolist()))
                for i in range(n)]

    data, val = examples(96, 8), examples(420, 250)
    assert sum(len(ex.tokens) for ex in val) > V + 1
    for K in (1, 3):
        configs = [TrainConfig(epochs=3, batch_size=16, seed=k, embed_dim=d, hidden_dim=d) for k in range(K)]
        tracemalloc.start()
        try:
            trained = train_arms([data] * K, val, vocab, configs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = K * (V + 1) * d * 4
        copies = sum(getattr(params, name).nbytes for params, _ in trained for name in PARAM_FIELDS)
        assert peak < 1.5 * table + copies, K
        # Under half an arm's table beyond the stacked table and the snapshots: no arm's init table, and no
        # snapshot reallocated while the others are held.
        assert peak < table + copies + copies / (2 * K), K
        del trained


# ---------------------------------------------------------------- epochs in blocks of steps

# mask_id 5: ids repeat within every batch; mask_id 300 and 8000: they are mostly distinct.
@pytest.mark.parametrize("mask_id", [5, 300, 8000])
def test_batch_layout_gives_each_step_the_union_of_its_batches_ids(mask_id):
    rng = np.random.default_rng(5)
    K, n, bs = 3, 10, 4  # steps of 4, 4 and 2 sequences per arm
    lengths = rng.integers(1, 7, size=2 * n)
    ids = rng.integers(0, mask_id, size=lengths.sum())
    seqs = np.split(ids, np.cumsum(lengths)[:-1])
    orders = np.stack([rng.permutation(n), n + rng.permutation(n), n + rng.permutation(n)])  # arms 1, 2 share
    layout = batch_layout(ids, lengths, orders, bs, mask_id)
    for b in range(3):
        batch = orders[:, b * bs : (b + 1) * bs]
        rows, counts = batch_counts(layout, b, K, batch.shape[1])
        assert rows.tolist() == sorted({int(t) for s in batch.ravel() for t in seqs[s]})
        expected = [[[np.count_nonzero(seqs[s] == r) for r in rows] for s in batch[k]] for k in range(K)]
        assert np.array_equal(counts, expected)
        for k in range(K):  # an id no sequence of arm k's batch holds has no count in arm k
            read = {int(t) for s in batch[k] for t in seqs[s]}
            assert not counts[k][:, [r not in read for r in rows.tolist()]].any()


def test_lockstep_step_keeps_the_bits_of_a_row_only_another_arm_reads():
    """Arm 0 holds -0.0 in a row that only arm 1's batch reads: the step gathers and scatters that row in
    arm 0's table too, with a +0.0 gradient, and -0.0 - +0.0 keeps the sign bit."""
    V, d, h = 6, 4, 3
    rng = np.random.default_rng(11)
    ids, lengths = np.array([0, 1, 2], dtype=np.uint16), np.array([2, 1], dtype=np.int32)
    langs, labels = np.array([0, 0]), np.array([0, 1])
    seqs = np.array([[0], [1]])  # one step: arm 0 reads ids 0 and 1 (sequence 0), arm 1 id 2 (sequence 1)
    table = rng.normal(size=(2, V + 1, d)).astype(np.float32)
    table[0, 2] = -0.0
    shapes = {"hidden_w": (d, h), "hidden_b": (h,), "out_w": (h, 3), "out_b": (3,)}
    head32 = rng.normal(size=(2, sum(math.prod(shape) for shape in shapes.values()))).astype(np.float32)
    config = TrainConfig(epochs=1, batch_size=1, lr=0.5, embed_dim=d, hidden_dim=h)
    before = table.copy()
    training._train_epoch(table, head32, head32.astype(np.float64), shapes, (ids, lengths, langs, labels), seqs,
                          np.ones((2, 1, 2)), config, 0)
    assert np.signbit(table[0, 2]).all()
    changed = [[i for i in range(V + 1) if table[k, i].tobytes() != before[k, i].tobytes()] for k in range(2)]
    assert changed == [[0, 1], [2]]


# ---------------------------------------------------------------- the sort-based step, kept as the oracle

def sorted_batch_layout(ids, lengths, orders, batch_size, mask_id):
    """``batch_layout`` by one argsort of the (step, id) keys: the rows are the sorted distinct keys."""
    K, n = orders.shape
    width = mask_id + 1
    n_batches = -(-n // batch_size)
    dtype = np.int32 if max(n_batches, K * min(batch_size, n)) * width < 2**31 else np.int64
    j = np.arange(K * n)
    b = j // (batch_size * K)
    j -= b * batch_size * K
    size = np.minimum(batch_size, n - b * batch_size)
    k = j // size
    seq = orders[k, b * batch_size + j - k * size]
    sel = lengths[seq]
    ends = np.cumsum(sel)
    at = np.arange(int(ends[-1]), dtype=dtype)
    at += np.repeat((np.cumsum(lengths)[seq] - ends).astype(dtype), sel)
    keys = np.repeat((b * width).astype(dtype), sel)
    keys += ids[at]
    perm = keys.argsort()
    rows = keys[perm]
    first = np.concatenate([[True], rows[1:] != rows[:-1]])
    rows = rows[first]
    rank = np.cumsum(first, dtype=dtype)
    rank -= 1
    keys[perm] = rank
    row_ptr = np.searchsorted(rows, np.arange(n_batches + 1, dtype=dtype) * width)
    rows %= width
    cells = keys
    cells += np.repeat((j * np.diff(row_ptr)[b] - row_ptr[b]).astype(dtype), sel)
    tok_ptr = np.concatenate([[0], ends])[np.minimum(np.arange(n_batches + 1) * batch_size * K, K * n)]
    return rows, row_ptr.tolist(), cells, tok_ptr.tolist()


def int_batch_counts(layout, b, K, n_seqs):
    """``batch_counts`` as an integer bincount cast to float64."""
    rows, row_ptr, cells, tok_ptr = layout
    rows = rows[row_ptr[b] : row_ptr[b + 1]]
    counts = np.bincount(cells[tok_ptr[b] : tok_ptr[b + 1]], minlength=K * n_seqs * rows.size)
    return rows, counts.reshape(K, n_seqs, -1).astype(np.float64)


def reference_loss_and_grad(head, x, x_m, labels, w_ex, lam, grads=None):
    """``_loss_and_grad`` on the head dict and (K, B) labels, every term computed anew and out of place."""
    w_h, b_h, w_o, b_o = (head[n] for n in training.HEAD_FIELDS)
    K, B = labels.shape
    w_hT, w_oT = w_h.transpose(0, 2, 1), w_o.transpose(0, 2, 1)
    hid = np.tanh(x @ w_h + b_h[:, None])
    probs = softmax(hid @ w_o + b_o[:, None])
    true = (np.arange(K)[:, None], np.arange(B), labels)
    p_true = probs[true]
    values = np.add.reduce(w_ex * -np.log(np.maximum(p_true, PROB_CLAMP)), axis=1) / B
    if lam != 0.0:
        hid_m = np.tanh(x_m[:, None] @ w_h + b_h[:, None])
        q = softmax(hid_m @ w_o + b_o[:, None])
        values = values + lam * np.sum(q * np.log(np.maximum(q, PROB_CLAMP)), axis=2)[:, 0]
    if grads is None or not np.isfinite(values).all():
        return values, None, None
    w_act = w_ex * (p_true > PROB_CLAMP)
    dz = probs * w_act[:, :, None] / B
    dz[true] -= w_act / B
    np.matmul(hid.transpose(0, 2, 1), dz, out=grads["out_w"])
    np.add.reduce(dz, axis=1, out=grads["out_b"])
    da = (dz @ w_oT) * (1.0 - hid**2)
    np.matmul(x.transpose(0, 2, 1), da, out=grads["hidden_w"])
    np.add.reduce(da, axis=1, out=grads["hidden_b"])
    g_x = da @ w_hT
    if lam == 0.0:
        return values, g_x, None
    g = np.log(np.maximum(q, PROB_CLAMP)) + (q > PROB_CLAMP)
    dz_m = lam * q * (g - g @ q.transpose(0, 2, 1))
    grads["out_w"] += hid_m.transpose(0, 2, 1) * dz_m
    grads["out_b"] += dz_m[:, 0]
    da_m = (dz_m @ w_oT) * (1.0 - hid_m**2)
    grads["hidden_w"] += x_m[:, :, None] * da_m
    grads["hidden_b"] += da_m[:, 0]
    return values, g_x, (w_h @ da_m.transpose(0, 2, 1))[:, :, 0]


def whole_epoch_oracle(table, head32, head64, shapes, packed, seqs, weights, config, epoch):
    """``training._train_epoch`` as it was: one sort-based layout for every step, and the visited lengths,
    labels and weights of the whole epoch at once, each step through the reference arithmetic above."""
    bs, lam = config.batch_size, config.mask_entropy_coeff
    ids, lengths, langs, labels = packed
    K, mask_id = table.shape[0], table.shape[1] - 1
    steps_per_epoch = math.ceil(seqs.shape[1] / bs)
    layout = sorted_batch_layout(ids, lengths, seqs, bs, mask_id)
    w_ex = weights[np.arange(K)[:, None], langs[seqs], labels[seqs]]
    lengths, labels = lengths[seqs][:, :, None].astype(np.float64), labels[seqs]
    grad64 = np.empty_like(head64)
    head, grads = _head_views(head64, shapes), _head_views(grad64, shapes)
    losses = np.empty((K, steps_per_epoch))
    for b in range(steps_per_epoch):
        step = epoch * steps_per_epoch + b
        cols = slice(b * bs, (b + 1) * bs)
        lens = lengths[:, cols]
        rows, counts = int_batch_counts(layout, b, K, lens.shape[1])
        emb = table[:, rows].astype(np.float64)
        x = counts @ emb
        x /= lens
        x_m = table[:, mask_id].astype(np.float64) if lam != 0.0 else None
        losses[:, b], g_x, g_mask = reference_loss_and_grad(head, x, x_m, labels[:, cols], w_ex[:, cols], lam,
                                                            grads)
        if g_x is None:
            raise FloatingPointError(f"non-finite loss at epoch {epoch} step {step}")
        lr = learning_rate(config.lr, step, config.epochs * steps_per_epoch)
        g_x /= lens
        g_rows = counts.transpose(0, 2, 1) @ g_x
        g_rows *= lr
        np.subtract(emb, g_rows, out=emb)
        table[:, rows] = emb
        if g_mask is not None:
            table[:, mask_id] -= g_mask * lr
        grad64 *= lr
        np.subtract(head64, grad64, out=head32, casting="same_kind")
        head64[...] = head32
    return losses


def random_examples(rng, n, V, lo, hi):
    """n examples of lo..hi uniform token ids below V; languages and labels cycle, so every cell is filled."""
    lengths = rng.integers(lo, hi + 1, n)
    tokens = np.split(rng.integers(0, V, int(lengths.sum())), np.cumsum(lengths)[:-1])
    return [Example(id=str(i), language=i % 2, label=i % 3, tokens=tuple(t.tolist())) for i, t in enumerate(tokens)]


@pytest.mark.parametrize("K, lam, n, batch_size, lengths, V, blocks", [
    (1, 0.0, 100, 16, (3, 12), 50, "one"),              # n not a multiple of batch_size
    (3, 0.1, 100, 16, (3, 12), 50, "one"),
    (3, 0.0, 10, 16, (3, 12), 50, "one"),               # n < batch_size: one partial step
    (3, 0.1, 40, 16, (600, 1400), 50, "own"),           # steps of about 48,000 tokens, over the budget
    (1, 0.1, 40, 16, (1000, 2400), 50, "own"),
    (3, 0.1, 3000, 16, (3, 12), 8000, "several"),       # about 67,500 tokens an epoch, at V = 8,000
    (1, 0.0, 9000, 32, (3, 12), 8000, "several"),
], ids=["K1-lam0", "K3-lam0.1", "n-below-batch", "K3-steps-over-budget", "K1-steps-over-budget", "K3-V8000",
        "K1-V8000"])
def test_train_arms_in_blocks_equals_whole_epoch_layout(monkeypatch, K, lam, n, batch_size, lengths, V, blocks):
    rng = np.random.default_rng(n + K)
    vocab = SimpleNamespace(size=V, n_classes=3, n_languages=2)
    data = [random_examples(rng, n, V, *lengths) for _ in range(min(K, 2))]
    datasets = [data[0]] if K == 1 else [data[0], data[1], data[1]]  # the last two arms share one dataset
    val = random_examples(rng, 60, V, *lengths)
    configs = [TrainConfig(epochs=2, batch_size=batch_size, mask_entropy_coeff=lam, seed=5 + k, embed_dim=8,
                           hidden_dim=6, weighting="per_language" if k == 2 else "none") for k in range(K)]
    layouts = []

    def recorded(ids, lengths, orders, *args):
        layouts.append(orders.shape[1])
        return batch_layout(ids, lengths, orders, *args)

    monkeypatch.setattr(training, "batch_layout", recorded)
    blocked = train_arms(datasets, val, vocab, configs)
    steps = math.ceil(n / batch_size)
    per_epoch, sizes = len(layouts) // 2, layouts[: len(layouts) // 2]
    assert sum(sizes) == n
    assert {"one": per_epoch == 1, "own": per_epoch == steps,
            "several": 1 < per_epoch < steps and max(sizes) > batch_size}[blocks]
    monkeypatch.setattr(training, "_train_epoch", whole_epoch_oracle)
    for (params, report), (want, want_report) in zip(blocked, train_arms(datasets, val, vocab, configs), strict=True):
        assert params.array_equal(want)
        assert report.to_dict() == want_report.to_dict()


def test_train_arms_memory_is_one_block_of_steps():
    """One epoch at 3 arms x 60,000 sequences of 4-10 tokens is about 1.26 M layout tokens, whose whole-epoch
    layout peaked at 47 MB under tracemalloc; one block of steps at a time peaks at about 9 MB. In the
    ingested-corpus train shape (one arm, V = 8,000, 22 tokens a record) a block's presence cells count
    against the budget: the peak is 3.6 MiB, and 5.6 MiB if only its tokens counted."""
    import tracemalloc

    for K, V, n, lengths, bound_mib in [(3, 1000, 60_000, (4, 10), 16), (1, 8000, 2400, (3, 41), 4)]:
        rng = np.random.default_rng(8)
        data, val = random_examples(rng, n, V, *lengths), random_examples(rng, 300, V, *lengths)
        vocab = SimpleNamespace(size=V, n_classes=3, n_languages=2)
        configs = [TrainConfig(epochs=1, batch_size=32, mask_entropy_coeff=0.1, seed=k,
                               weighting="per_language" if k == K - 1 else "none") for k in range(K)]
        tracemalloc.start()
        try:
            train_arms([data] * K, val, vocab, configs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20, K


@pytest.mark.parametrize("mask_id, n, lengths", [(5, 1500, (3, 20)), (300, 1500, (3, 12)), (8000, 200, (3, 40))],
                         ids=["V5", "V300", "V8000"])
def test_every_block_is_its_steps_distinct_ids_and_counts_within_the_budget(monkeypatch, mask_id, n, lengths):
    """Each layout ``_train_epoch`` builds equals the sorted one, and per step holds the ``np.unique`` of the
    step's tokens and each sequence's count of them. A block of more than one step costs its tokens plus
    steps x (V + 1) presence cells, at most BLOCK_TOKENS, and here that budget splits every epoch."""
    K, bs = 3, 16
    rng = np.random.default_rng(mask_id)
    vocab = SimpleNamespace(size=mask_id, n_classes=3, n_languages=2)
    data = [random_examples(rng, n, mask_id, *lengths) for _ in range(2)]
    configs = [TrainConfig(epochs=1, batch_size=bs, seed=k, embed_dim=4, hidden_dim=3) for k in range(K)]
    blocks = []

    def recorded(*args):
        blocks.append((*args, batch_layout(*args)))
        return blocks[-1][-1]

    monkeypatch.setattr(training, "batch_layout", recorded)
    train_arms([data[0], data[1], data[1]], data[0][:30], vocab, configs)
    assert len(blocks) > 1 and sum(block[2].shape[1] for block in blocks) == n
    for ids, lens, orders, _, _, layout in blocks:
        want = sorted_batch_layout(ids, lens, orders, bs, mask_id)
        assert all(np.array_equal(got, expected) for got, expected in zip(layout, want))
        assert layout[2].dtype == want[2].dtype
        steps = -(-orders.shape[1] // bs)
        assert steps == 1 or lens[orders].sum() + steps * (mask_id + 1) <= BLOCK_TOKENS
        starts = np.cumsum(lens) - lens
        for b in range(steps):
            batch = orders[:, b * bs : (b + 1) * bs]
            tokens = [ids[starts[s] : starts[s] + lens[s]] for s in batch.ravel()]
            rows, counts = batch_counts(layout, b, K, batch.shape[1])
            assert np.array_equal(rows, np.unique(np.concatenate(tokens)))
            want_counts = [np.bincount(t, minlength=mask_id + 1)[rows] for t in tokens]
            assert counts.dtype == np.float64 and np.array_equal(counts, np.reshape(want_counts, counts.shape))


@pytest.mark.parametrize("lam", [0.0, 0.5])
def test_an_example_below_the_clamp_gets_no_ce_gradient_and_the_pass_keeps_the_bits(lam):
    """Arm 0's example 3 has a true-class probability under PROB_CLAMP: its row of dL/dx is zero, the
    other rows are not, and every output equals the reference pass bit for bit."""
    rng = np.random.default_rng(12)
    K, B, d, h, C = 2, 6, 4, 3, 3
    head = {"hidden_w": rng.normal(size=(K, d, h)), "hidden_b": rng.normal(size=(K, h)),
            "out_w": rng.normal(size=(K, h, C)), "out_b": rng.normal(size=(K, C))}
    head["out_b"][:, 2] = -60.0  # the tanh layer moves a logit by at most sum |out_w|, a few units
    x, x_m = rng.normal(size=(K, B, d)), rng.normal(size=(K, d))
    labels = rng.integers(0, 2, (K, B))
    labels[0, 3] = 2
    w_ex = rng.uniform(0.5, 2.0, (K, B))
    probs = softmax(np.tanh(x @ head["hidden_w"] + head["hidden_b"][:, None]) @ head["out_w"] + head["out_b"][:, None])
    assert probs[0, 3, 2] < PROB_CLAMP < probs[np.arange(K)[:, None], np.arange(B), labels].min(initial=1.0,
                                                                                             where=labels < 2)
    got, want = ({name: np.empty_like(array) for name, array in head.items()} for _ in range(2))
    values, g_x, g_mask = _loss_and_grad(_head_terms(head), x, x_m, np.arange(K * B).reshape(K, B) * C + labels, w_ex,
                                         lam, got)
    ref_values, ref_g_x, ref_g_mask = reference_loss_and_grad(head, x, x_m, labels, w_ex, lam, want)
    assert not g_x[0, 3].any() and np.abs(np.delete(g_x[0], 3, axis=0)).min() > 0
    assert np.array_equal(values, ref_values) and np.array_equal(g_x, ref_g_x)
    assert (g_mask is None) == (lam == 0.0) and (g_mask is None or np.array_equal(g_mask, ref_g_mask))
    assert all(np.array_equal(got[name], want[name]) for name in head)
