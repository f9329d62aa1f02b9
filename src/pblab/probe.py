"""Language separability of the latent space, measured by a logistic-regression probe.

Features are the model's pooled hidden vectors; the probe predicts language
ids with multinomial logistic regression (zero init, Newton's method, L2 on
the weights but not the intercept) under stratified k-fold cross-validation.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .model import ModelParams, forward_examples, softmax
from .seeds import derive_rng

DEFAULT_L2 = 1.0
DEFAULT_TOL = 1e-6
NEWTON_STEPS = 50  # a fit from zero converges in well under this
CSV_HEADER = ("model", "corpus", "fold", "accuracy")


@dataclass
class ProbeConfig:
    k: int = 5                           # cross-validation folds
    l2: float = DEFAULT_L2
    holdout_per_language: int = 500      # size of the fresh uniform probe corpus (synthetic corpora only)

    def validate(self) -> None:
        if self.k < 2 or self.l2 < 0 or self.holdout_per_language < 1:
            raise ValueError("k must be >= 2, l2 >= 0 and holdout_per_language >= 1")


@dataclass
class ProbeReport:
    fold_accuracies: list
    mean_accuracy: float
    n_per_language: list
    l2: float
    seed: int

    def to_dict(self) -> dict:
        return asdict(self)

    def csv_rows(self, model: str, corpus: str) -> list:
        """One CSV_HEADER row per fold."""
        return [(model, corpus, fold, repr(acc)) for fold, acc in enumerate(self.fold_accuracies)]


def extract_features(params: ModelParams, dataset):
    """One pooled vector per example -> (features (n, h), language ids (n,))."""
    _, pooled = forward_examples(params, dataset)
    langs = np.array([ex.language for ex in dataset], dtype=np.int64)
    return pooled, langs


def fit_logreg(features, labels, l2: float = DEFAULT_L2, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Multinomial logistic regression by Newton's method, from zero.

    Objective: mean cross-entropy + l2/(2n) * ||W||^2, intercept unregularized.
    Each step is halved until the objective does not rise. Stops at max
    |gradient| <= tol; raises ValueError if NEWTON_STEPS steps do not get there.
    Returns stacked (d+1, K) weights, last row intercept.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("features/labels shape mismatch")
    classes = np.unique(y)
    if classes.size < 2:
        raise ValueError("need at least 2 languages to fit the probe")
    K = int(classes.max()) + 1
    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    ridge = np.append(np.full(d, l2 / n), 0.0)

    def objective(W):
        Z = Xb @ W
        Z -= Z.max(axis=1, keepdims=True)
        return (np.log(np.exp(Z).sum(axis=1)) - Z[np.arange(n), y]).mean() + 0.5 * ridge @ (W * W).sum(axis=1)

    W = np.zeros((d + 1, K))
    for _ in range(NEWTON_STEPS):
        P = softmax(Xb @ W)
        grad = Xb.T @ (P - np.eye(K)[y]) / n + ridge[:, None] * W
        if np.abs(grad).max() <= tol:
            return W
        # Hessian block (a, b) is Xb^T diag(P_a (1[a=b] - P_b)) Xb / n, plus the ridge on the diagonal.
        H = np.block([[Xb.T @ (Xb * (P[:, [a]] * ((a == b) - P[:, [b]]))) for b in range(K)] for a in range(K)])
        H = H / n + np.diag(np.tile(ridge, K))
        # H is singular along "shift every intercept alike", which the gradient has no part of;
        # adding that direction to H leaves the step none either, so the intercepts sum to zero.
        H[d::d + 1, d::d + 1] += 1.0
        step = np.linalg.lstsq(H, -grad.T.ravel(), rcond=None)[0].reshape(K, d + 1).T
        t, f = 1.0, objective(W)
        while objective(W + t * step) > f:
            t /= 2
        W = W + t * step
    raise ValueError(f"probe fit did not reach max |gradient| <= {tol} in {NEWTON_STEPS} Newton steps")


def predict_logreg(W: np.ndarray, features) -> np.ndarray:
    X = np.asarray(features, dtype=np.float64)
    Xb = np.hstack([X, np.ones((X.shape[0], 1))])
    return (Xb @ W).argmax(axis=1)


def stratified_folds(labels, k: int, seed: int = 0):
    """Deal examples into k folds, language-stratified to within one example.

    Each language's examples are shuffled by a derived stream, concatenated
    in language order and dealt round-robin, so fold sizes differ by at
    most one overall and per language.
    """
    y = np.asarray(labels, dtype=np.int64)
    n = y.shape[0]
    if not (2 <= k <= n):
        raise ValueError(f"k={k} must be in [2, n={n}]")
    order = []
    for lang in sorted(set(y.tolist())):
        idx = np.flatnonzero(y == lang)
        rng = derive_rng(seed, "probe", "fold", lang)
        order.extend(idx[rng.permutation(idx.size)].tolist())
    folds = [[] for _ in range(k)]
    for pos, idx in enumerate(order):
        folds[pos % k].append(idx)
    return [np.array(sorted(f), dtype=np.int64) for f in folds]


def cross_validate(features, labels, k: int = ProbeConfig.k, seed: int = 0, l2: float = DEFAULT_L2) -> ProbeReport:
    """Stratified k-fold probe accuracy; every example is scored exactly once.

    With k >= 2 and at least 2 examples per language, ``stratified_folds``
    leaves no fold empty and every training split holds every language.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    langs, counts = np.unique(y, return_counts=True)
    if langs.size < 2:
        raise ValueError("need at least 2 languages")
    if counts.min() < 2:
        raise ValueError("every language needs at least 2 examples")
    folds = stratified_folds(y, k, seed)
    accs = []
    for held in folds:
        train_idx = np.setdiff1d(np.arange(y.size), held)
        W = fit_logreg(X[train_idx], y[train_idx], l2=l2)
        accs.append(float((predict_logreg(W, X[held]) == y[held]).mean()))
    return ProbeReport(
        fold_accuracies=accs,
        mean_accuracy=float(np.mean(accs)),
        n_per_language=[int(c) for c in counts],
        l2=l2,
        seed=seed,
    )


def probe_model(params: ModelParams, dataset, k: int = ProbeConfig.k, seed: int = 0,
                l2: float = DEFAULT_L2) -> ProbeReport:
    """Extract pooled features from ``dataset`` and cross-validate the language probe."""
    features, langs = extract_features(params, dataset)
    return cross_validate(features, langs, k=k, seed=seed, l2=l2)
