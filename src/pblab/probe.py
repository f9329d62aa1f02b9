"""Language separability of the latent space, measured by a logistic-regression probe.

Features are the model's pooled hidden vectors; the probe predicts language
ids with multinomial logistic regression (zero init, Newton's method, L2 on
the weights but not the intercept) under stratified k-fold cross-validation.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .model import ModelParams, forward_examples
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
        if self.k < 2 or not 0 <= self.l2 < np.inf or self.holdout_per_language < 1:  # NaN too
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


def fit_logreg(features, labels, l2: float = DEFAULT_L2, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Multinomial logistic regression by Newton's method, from zero.

    Objective: mean cross-entropy + l2/(2n) * ||W||^2, intercept unregularized.
    Each Newton system is an LU solve: with l2 > 0 the ridge covers every
    weight direction and the intercepts' common shift is pinned, so the
    Hessian is positive definite. Where it is singular (no ridge, one too
    small to move its diagonal, or a pivot that rounds to zero) the step is
    the minimum-norm least-squares solution. Each step is halved until the
    objective does not rise. Stops at max |gradient| <= tol; raises
    ValueError on non-finite features, or if NEWTON_STEPS steps do not get
    there. Returns stacked (d+1, K) weights, last row intercept, K the
    largest id + 1.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise ValueError("features/labels shape mismatch")
    if y.size and y.min() < 0:
        raise ValueError(f"language ids must be >= 0, got {int(y.min())}")
    if not np.isfinite(X).all():
        raise ValueError("non-finite features: every pooled feature must be a finite number")
    counts = np.bincount(y)  # not np.unique, whose call without return_counts imports numpy.ma
    if np.count_nonzero(counts) < 2:
        raise ValueError("need at least 2 languages to fit the probe")
    K = counts.size
    n, d = X.shape
    Xb = np.hstack([X, np.ones((n, 1))])
    ridge, onehot = np.append(np.full(d, l2 / n), 0.0), np.eye(K)[y]

    def objective(W):  # the objective at W and the softmax of Xb @ W, whose exponentials it computes
        Z = Xb @ W
        Z -= Z.max(axis=1, keepdims=True)
        E = np.exp(Z)
        S = E.sum(axis=1, keepdims=True)
        return (np.log(S[:, 0]) - Z[np.arange(n), y]).mean() + 0.5 * ridge @ (W * W).sum(axis=1), E / S

    W = np.zeros((d + 1, K))
    f, P = objective(W)
    for _ in range(NEWTON_STEPS):
        grad = Xb.T @ (P - onehot) / n + ridge[:, None] * W
        if np.abs(grad).max() <= tol:
            return W
        # Hessian block (a, b) is Xb^T diag(P_a (1[a=b] - P_b)) Xb / n, plus the ridge on the diagonal. Block (b, a)
        # weighs Xb by P_b (0 - P_a), bitwise P_a (0 - P_b), so it is block (a, b) itself: each is built once, a <= b.
        blocks = {(a, b): Xb.T @ (Xb * (P[:, [a]] * ((a == b) - P[:, [b]]))) for a in range(K) for b in range(a, K)}
        H = np.block([[blocks[min(a, b), max(a, b)] for b in range(K)] for a in range(K)])
        H = H / n
        unridged = H.diagonal().copy()
        H += np.diag(np.tile(ridge, K))
        # The data term is also flat along "shift every class's weights alike"; only the ridge curves that. With l2 > 0
        # H is positive definite and LU solves it exactly to rounding, unless the ridge is too small to move the
        # diagonal entries it is added to.
        definite = np.count_nonzero(H.diagonal() != unridged) == K * d
        # H is singular along "shift every intercept alike", which the gradient has no part of;
        # adding that direction to H leaves the step none either, so the intercepts sum to zero.
        H[d::d + 1, d::d + 1] += 1.0
        rhs = -grad.T.ravel()
        try:
            if not definite:  # no ridge, or one below the diagonal's rounding: LU's step is unbounded where H is flat
                raise np.linalg.LinAlgError
            step = np.linalg.solve(H, rhs)
        except np.linalg.LinAlgError:  # H is singular, and only the minimum-norm step is defined
            step = np.linalg.lstsq(H, rhs, rcond=None)[0]
        step = step.reshape(K, d + 1).T
        t = 1.0
        while (trial := objective(W + t * step))[0] > f:
            t /= 2
        W, (f, P) = W + t * step, trial  # the accepted trial is the objective and softmax at the new W
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
        order.append(idx[rng.permutation(idx.size)])
    order = np.concatenate(order)
    return [np.sort(order[j::k]) for j in range(k)]


def cross_validate(features, labels, k: int = ProbeConfig.k, seed: int = 0, l2: float = DEFAULT_L2) -> ProbeReport:
    """Stratified k-fold probe accuracy; every example is scored exactly once.

    With k >= 2 and at least 2 examples per language, ``stratified_folds``
    leaves no fold empty and every training split holds every language.
    """
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if y.size and y.min() < 0:
        raise ValueError(f"language ids must be >= 0, got {int(y.min())}")
    counts = np.bincount(y)
    counts = counts[counts > 0]
    if counts.size < 2:
        raise ValueError("need at least 2 languages")
    if counts.min() < 2:
        raise ValueError("every language needs at least 2 examples")
    accs = []
    for held in stratified_folds(y, k, seed):
        train = np.ones(y.size, dtype=bool)
        train[held] = False
        W = fit_logreg(X[train], y[train], l2=l2)
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
    """Cross-validate the language probe on the pooled vectors of one pass over ``dataset``."""
    _, pooled = forward_examples(params, dataset)
    return cross_validate(pooled, [ex.language for ex in dataset], k=k, seed=seed, l2=l2)
