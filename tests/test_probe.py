import numpy as np
import pytest

from pblab import probe
from pblab.corpus import CorpusSpec, generate_corpus
from pblab.model import ModelParams, softmax
from pblab.probe import (
    cross_validate,
    fit_logreg,
    predict_logreg,
    probe_model,
    stratified_folds,
)
from pblab.seeds import derive_rng


def clusters(n_per=100, gap=6.0, d=8, seed=0):
    rng = np.random.default_rng(seed)
    f0 = rng.normal(0, 0.3, (n_per, d)) + gap / 2
    f1 = rng.normal(0, 0.3, (n_per, d)) - gap / 2
    return np.vstack([f0, f1]), np.array([0] * n_per + [1] * n_per)


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


def reference_fit_logreg(X, y, l2=1.0, tol=1e-6, lstsq_only=False):
    """The Newton loop in its plainest form: K from np.unique, all K^2 Hessian blocks and the objective at each new W
    computed again as the next step's f. A step is an LU solve where the ridge moves every weight's diagonal entry of H
    and a least-squares solve elsewhere, or a least-squares solve throughout with ``lstsq_only``. Returns the weights,
    the number of times the line search halved a step, and each step's (H, right-hand side, whether LU solved it)."""
    K = int(np.unique(y).max()) + 1
    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    ridge = np.append(np.full(d, l2 / n), 0.0)
    weights = np.tile(np.arange(d + 1) < d, K)

    def objective(W):
        Z = Xb @ W
        Z -= Z.max(axis=1, keepdims=True)
        return (np.log(np.exp(Z).sum(axis=1)) - Z[np.arange(n), y]).mean() + 0.5 * ridge @ (W * W).sum(axis=1)

    W = np.zeros((d + 1, K))
    halvings, systems = 0, []
    for _ in range(50):
        P = softmax(Xb @ W)
        grad = Xb.T @ (P - np.eye(K)[y]) / n + ridge[:, None] * W
        if np.abs(grad).max() <= tol:
            return W, halvings, systems
        data = np.block([[Xb.T @ (Xb * (P[:, [a]] * ((a == b) - P[:, [b]]))) for b in range(K)] for a in range(K)]) / n
        H = data + np.diag(np.tile(ridge, K))
        lu = not lstsq_only and (np.diag(H) != np.diag(data))[weights].all()
        H[d::d + 1, d::d + 1] += 1.0
        rhs = -grad.T.ravel()
        systems.append((H, rhs, lu))
        step = (np.linalg.solve(H, rhs) if lu else np.linalg.lstsq(H, rhs, rcond=None)[0]).reshape(K, d + 1).T
        t, f = 1.0, objective(W)
        while objective(W + t * step) > f:
            t /= 2
            halvings += 1
        W = W + t * step
    raise AssertionError("the reference loop did not converge")


def reference_cross_validate(X, y, k, seed, l2):
    """Cross-validation with np.setdiff1d training rows, the reference fit and each held fold's own design matrix:
    (each fold's W, fold accuracies)."""
    weights, accs = [], []
    for held in stratified_folds(y, k, seed):
        train = np.setdiff1d(np.arange(y.size), held)
        W = reference_fit_logreg(X[train], y[train], l2=l2)[0]
        weights.append(W)
        accs.append(float(((np.hstack([X[held], np.ones((held.size, 1))]) @ W).argmax(axis=1) == y[held]).mean()))
    return weights, accs


CARRIED = [(2, 0, 1.0), (2, 1, 1e-3), (3, 2, 1.0), (3, 3, 1e-3), (4, 4, 1.0), (4, 5, 1e-3)]  # K, seed, l2
MATCHED = [("2 languages", 1e-3), ("3 languages", 1.0), ("ids 0 and 2", 1.0), ("3 languages", 1e9), ("halving", 1e-3)]


@pytest.mark.parametrize("K, seed, l2", CARRIED)
def test_fit_carries_the_accepted_objective_bit_for_bit(K, seed, l2):
    """Bit for bit the reference loop's weights: the accepted trial's objective is carried to the next step, and each
    Hessian block (b, a) below the diagonal is block (a, b), built once."""
    X, y = overlapping(K, seed=seed)
    assert np.array_equal(fit_logreg(X, y, l2=l2), reference_fit_logreg(X, y, l2=l2)[0])


def halving_case():
    """17 examples whose fit at l2 = 1e-3 halves its Newton step in the line search."""
    rng = np.random.default_rng(1963)
    y = rng.integers(0, 2, 17)
    return rng.normal(0, 20, (17, 3)) + y[:, None] * rng.normal(0, 3, 3), y


def matched_case(case):
    if case == "halving":
        return halving_case()
    X, y = overlapping(3 if case == "3 languages" else 2, n=120, seed=7)
    return X, 2 * y if case == "ids 0 and 2" else y


@pytest.mark.parametrize("case, l2", MATCHED)
def test_fit_and_cross_validate_match_the_reference_bit_for_bit(case, l2, monkeypatch):
    """np.bincount counts and boolean training masks leave every W and fold accuracy as the reference computes them;
    each fold's fit is a call of the module's ``fit_logreg``, where a tracer wrapping that attribute sees it."""
    X, y = matched_case(case)
    assert case != "halving" or reference_fit_logreg(X, y, l2=l2)[1] > 0
    assert np.array_equal(fit_logreg(X, y, l2=l2), reference_fit_logreg(X, y, l2=l2)[0])

    fold_weights = []

    def recording(*args, **kwargs):
        fold_weights.append(fit(*args, **kwargs))
        return fold_weights[-1]

    fit = probe.fit_logreg
    monkeypatch.setattr(probe, "fit_logreg", recording)
    report = cross_validate(X, y, k=4, seed=3, l2=l2)
    weights, accs = reference_cross_validate(X, y, k=4, seed=3, l2=l2)
    assert report.fold_accuracies == accs
    assert len(fold_weights) == 4 and all(np.array_equal(a, b) for a, b in zip(fold_weights, weights))
    assert report.n_per_language == [int((y == lang).sum()) for lang in sorted(set(y.tolist()))]


def test_lu_step_is_the_lstsq_step_at_every_reference_iterate():
    """Where the ridge registers, the LU step is the least-squares step to within 1e-8 of its largest entry, at every
    iterate of the bit-for-bit reference fits."""
    cases = [(*overlapping(K, seed=seed), l2) for K, seed, l2 in CARRIED]
    cases += [(*matched_case(case), l2) for case, l2 in MATCHED]
    for X, y, l2 in cases:
        for H, rhs, lu in reference_fit_logreg(X, y, l2=l2)[2]:
            assert lu
            exact = np.linalg.lstsq(H, rhs, rcond=None)[0]
            assert np.abs(np.linalg.solve(H, rhs) - exact).max() <= 1e-8 * np.abs(exact).max()


def design(kind, K):
    X, y = overlapping(K)
    if kind == "constant column":
        X[:, 0] = 1.5
    elif kind == "duplicated column":
        X[:, 1] = X[:, 0]
    elif kind == "identical rows":
        X[:] = X[0]
    return X, y


@pytest.mark.parametrize("kind", ["full rank", "constant column", "duplicated column", "identical rows"])
@pytest.mark.parametrize("l2", [0.0, 1e-300, 1e-20, 1e-12, 1e-6, 1.0])
@pytest.mark.parametrize("K", [2, 3, 4])
def test_no_or_a_vanishing_ridge_predicts_as_the_lstsq_loop(K, l2, kind):
    """Without a ridge, or with one below the rounding of H's diagonal, H is singular: LU's step could be any size
    along the flat directions, so the fit takes the minimum-norm step there. Every fit converges (fit_logreg raises
    otherwise) and predicts every training row as the least-squares-only loop does."""
    X, y = design(kind, K)
    W_lstsq = reference_fit_logreg(X, y, l2=l2, lstsq_only=True)[0]
    assert np.array_equal(predict_logreg(fit_logreg(X, y, l2=l2), X), predict_logreg(W_lstsq, X))


@pytest.mark.parametrize("fit", [fit_logreg, cross_validate])
def test_negative_language_id_is_a_value_error(fit):
    with pytest.raises(ValueError, match=r"^language ids must be >= 0, got -1$"):
        fit(np.ones((40, 3)), [-1, 0] * 20)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("fit", [fit_logreg, cross_validate])
def test_non_finite_features_are_a_value_error_before_any_newton_step(fit, value, capfd):
    X, y = overlapping(3)
    X[7, 2] = value
    with pytest.raises(ValueError, match="^non-finite features"):
        fit(X, y)
    assert capfd.readouterr() == ("", "")


def test_probe_model_rejects_a_model_whose_features_are_not_finite(capfd):
    spec = CorpusSpec(n_languages=2, n_classes=3, n_min=3, n_max=6, p_signal=0.4, seed=1)
    vocab, examples = generate_corpus(spec, 10)
    rng = np.random.default_rng(0)
    params = ModelParams(
        embedding=rng.normal(0, 0.5, (vocab.size + 1, 8)),
        hidden_w=rng.normal(0, 0.5, (8, 7)), hidden_b=np.full(7, np.nan),
        out_w=rng.normal(0, 0.5, (7, 3)), out_b=np.zeros(3),
    )
    with pytest.raises(ValueError, match="^non-finite features"):
        probe_model(params, examples, k=2)
    assert capfd.readouterr() == ("", "")


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


def test_folds_are_the_round_robin_deal():
    """Fold j is the sorted order[j::k]: the folds of dealing the shuffled order one example at a time."""
    rng = np.random.default_rng(5)
    for trial in range(20):
        y = rng.integers(0, int(rng.integers(2, 5)), int(rng.integers(4, 60)))
        for k in (2, 3, 5, y.size):
            order = []
            for lang in sorted(set(y.tolist())):
                idx = np.flatnonzero(y == lang)
                order.extend(idx[derive_rng(trial, "probe", "fold", lang).permutation(idx.size)].tolist())
            dealt = [[] for _ in range(k)]
            for pos, idx in enumerate(order):
                dealt[pos % k].append(idx)
            folds = stratified_folds(y, k, seed=trial)
            assert [f.tolist() for f in folds] == [sorted(f) for f in dealt]
            assert all(f.dtype == np.int64 for f in folds)


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
