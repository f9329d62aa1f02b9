import numpy as np
import pytest

from pblab.corpus import CorpusSpec, generate_corpus
from pblab.model import ModelParams, softmax
from pblab.probe import (
    cross_validate,
    extract_features,
    fit_logreg,
    predict_logreg,
    probe_model,
    stratified_folds,
)


def clusters(n_per=100, gap=6.0, d=8, seed=0):
    rng = np.random.default_rng(seed)
    f0 = rng.normal(0, 0.3, (n_per, d)) + gap / 2
    f1 = rng.normal(0, 0.3, (n_per, d)) - gap / 2
    return np.vstack([f0, f1]), np.array([0] * n_per + [1] * n_per)


def test_extract_features_shape_and_duplicates():
    spec = CorpusSpec(n_languages=2, n_classes=3, n_min=3, n_max=6, p_signal=0.4, seed=1)
    vocab, examples = generate_corpus(spec, 5)
    rng = np.random.default_rng(0)
    params = ModelParams(
        embedding=rng.normal(0, 0.5, (vocab.size + 1, 8)),
        hidden_w=rng.normal(0, 0.5, (8, 7)), hidden_b=np.zeros(7),
        out_w=rng.normal(0, 0.5, (7, 3)), out_b=np.zeros(3),
    )
    feats, langs = extract_features(params, examples)
    assert feats.shape == (len(examples), 7)
    assert langs.shape == (len(examples),)

    dup_feats, _ = extract_features(params, [examples[0], examples[0]])
    assert np.array_equal(dup_feats[0], dup_feats[1])

    with pytest.raises(ValueError, match="empty"):
        extract_features(params, [])


def test_fit_separable_training_accuracy():
    X, y = clusters()
    W = fit_logreg(X, y)
    assert (predict_logreg(W, X) == y).mean() == 1.0


def test_fit_identical_features_predicts_prior():
    # Same feature vector for every example; the best any classifier can do
    # is the majority class.
    X = np.ones((100, 4))
    y = np.array([0] * 70 + [1] * 30)
    W = fit_logreg(X, y)
    preds = predict_logreg(W, X)
    assert (preds == y).mean() == pytest.approx(0.7, abs=1e-12)
    assert (preds == 0).all()


def test_large_l2_shrinks_weights_to_prior():
    X, y = clusters(n_per=60)
    y = np.array([0] * 80 + [1] * 40)  # unbalanced priors
    W_small = fit_logreg(X, y, l2=1e-3)
    W_huge = fit_logreg(X, y, l2=1e9)
    assert np.abs(W_huge[:-1]).max() < 1e-3 < np.abs(W_small[:-1]).max()
    # intercept is unregularized: predictions collapse to the majority class
    assert (predict_logreg(W_huge, X) == 0).all()


def ridge_objective(X, y, l2, K):
    """Mean cross-entropy + l2/(2n) ||W||^2 (intercept unregularized) and its gradient, on flat W."""
    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])

    def f(w):
        W = w.reshape(d + 1, K)
        Z = Xb @ W
        lse = Z.max(axis=1) + np.log(np.exp(Z - Z.max(axis=1, keepdims=True)).sum(axis=1))
        P = np.exp(Z - lse[:, None])
        P[np.arange(n), y] -= 1.0
        Wreg = W.copy()
        Wreg[-1] = 0.0
        value = (lse - Z[np.arange(n), y]).mean() + 0.5 * l2 / n * (Wreg * Wreg).sum()
        return value, (Xb.T @ P / n + l2 / n * Wreg).ravel()

    return f


def probabilities(W, X):
    return softmax(np.hstack([X, np.ones((X.shape[0], 1))]) @ W)


def overlapping(K, n=300, d=6, seed=0):
    """K Gaussian classes that overlap a little, so even a small l2 has a finite optimum far from zero."""
    rng = np.random.default_rng(seed)
    means = rng.normal(0, 1.2, (K, d))
    y = rng.integers(0, K, n)
    return means[y] + rng.normal(0, 1, (n, d)), y


@pytest.mark.parametrize("K", [2, 3])
def test_fit_matches_lbfgs_oracle_and_converges(K):
    from scipy.optimize import minimize

    X, y = overlapping(K)
    W = fit_logreg(X, y, l2=1e-3)
    f = ridge_objective(X, y, 1e-3, K)
    ref = minimize(f, np.zeros((X.shape[1] + 1) * K), jac=True, method="L-BFGS-B",
                   options={"maxiter": 20000, "ftol": 0.0, "gtol": 1e-12})
    assert np.abs(f(ref.x)[1]).max() <= 1e-7
    W_ref = ref.x.reshape(-1, K)
    assert np.abs(probabilities(W, X) - probabilities(W_ref, X)).max() <= 1e-6
    assert np.abs(f(W.ravel())[1]).max() <= 1e-6


def test_fit_unreachable_tol_raises():
    X, y = overlapping(3)
    with pytest.raises(ValueError, match="Newton steps"):
        fit_logreg(X, y, tol=0.0)


def test_fit_single_language_error():
    X = np.ones((10, 3))
    with pytest.raises(ValueError, match="2 languages"):
        fit_logreg(X, np.zeros(10, dtype=int))


def test_fit_deterministic():
    X, y = clusters(seed=3)
    assert np.array_equal(fit_logreg(X, y), fit_logreg(X, y))


def test_cross_validate_separable():
    X, y = clusters(n_per=100, seed=5)
    report = cross_validate(X, y, k=5, seed=0)
    assert report.mean_accuracy >= 0.99
    assert len(report.fold_accuracies) == 5
    assert report.mean_accuracy == pytest.approx(float(np.mean(report.fold_accuracies)))


def test_cross_validate_shuffled_labels_near_chance():
    rng = np.random.default_rng(11)
    X, y = clusters(n_per=200, seed=7)
    y_shuffled = rng.permutation(y)
    report = cross_validate(X, y_shuffled, k=5, seed=0)
    sigma = np.sqrt(0.5 * 0.5 / len(y))
    assert abs(report.mean_accuracy - 0.5) <= 3 * sigma


def test_leave_one_out_folds():
    X = np.vstack([np.ones((5, 2)), np.zeros((5, 2))])
    y = np.array([0] * 5 + [1] * 5)
    folds = stratified_folds(y, k=10, seed=0)
    assert len(folds) == 10
    assert all(len(f) == 1 for f in folds)
    report = cross_validate(X, y, k=10, seed=0)
    assert len(report.fold_accuracies) == 10


def test_folds_partition_and_stratified():
    rng = np.random.default_rng(2)
    y = np.array([0] * 23 + [1] * 17 + [2] * 30)
    folds = stratified_folds(y, k=5, seed=1)
    all_idx = np.concatenate(folds)
    assert sorted(all_idx.tolist()) == list(range(len(y)))
    for lang, n_lang in ((0, 23), (1, 17), (2, 30)):
        per_fold = [int((y[f] == lang).sum()) for f in folds]
        assert max(per_fold) - min(per_fold) <= 1
        assert sum(per_fold) == n_lang


def test_folds_never_empty_and_training_splits_hold_every_language():
    """What cross_validate relies on: with >= 2 examples per language and any k in [2, n],
    every fold is non-empty and the other folds together hold every language."""
    rng = np.random.default_rng(11)
    for trial in range(40):
        counts = rng.integers(2, 7, size=int(rng.integers(2, 5)))
        y = rng.permutation(np.repeat(np.arange(counts.size), counts))
        for k in range(2, y.size + 1):
            folds = stratified_folds(y, k, seed=trial)
            assert all(fold.size for fold in folds), (counts, k)
            for held in folds:
                train = np.setdiff1d(np.arange(y.size), held)
                assert set(y[train].tolist()) == set(range(counts.size)), (counts, k)


def test_cross_validate_insufficient_counts():
    X = np.ones((4, 2))
    y = np.array([0, 0, 0, 1])
    with pytest.raises(ValueError, match="at least 2"):
        cross_validate(X, y, k=2, seed=0)


def test_probe_invariant_to_feature_permutation():
    X, y = clusters(n_per=80, gap=2.0, seed=9)
    report = cross_validate(X, y, k=5, seed=3)
    perm = np.random.default_rng(4).permutation(X.shape[1])
    report_perm = cross_validate(X[:, perm], y, k=5, seed=3)
    assert report.fold_accuracies == report_perm.fold_accuracies


def test_probe_model_end_to_end():
    spec = CorpusSpec(n_languages=2, n_classes=3, n_min=4, n_max=8, p_signal=0.4, seed=13)
    vocab, examples = generate_corpus(spec, 30)
    rng = np.random.default_rng(1)
    # embeddings carry an explicit language direction in dimension 0
    emb = rng.normal(0, 0.3, (vocab.size + 1, 16))
    for t in range(vocab.size):
        lang = 0 if t in vocab.filler_sets[0] or any(t in s for s in vocab.signal_sets[0]) else 1
        emb[t, 0] += 3.0 if lang == 0 else -3.0
    params = ModelParams(
        embedding=emb,
        hidden_w=rng.normal(0, 0.5, (16, 12)), hidden_b=np.zeros(12),
        out_w=rng.normal(0, 0.5, (12, 3)), out_b=np.zeros(3),
    )
    report = probe_model(params, examples, k=5, seed=0)
    assert report.mean_accuracy > 0.95
    assert report.n_per_language == [90, 90]
