"""Training with optional per-language class weights and masked-input entropy loss.

The loss is mean_i w_i * (-log p_i[y_i]) + lambda * l_mask, where w_i is the
per-(language, label) weight n_l / (C * n_{c,l}) (1.0 when weighting is off)
and l_mask = sum_c q_c log q_c is evaluated on an all-mask input. Plain SGD,
learning rate decaying linearly to zero, model selection by validation loss.
All gradient math is hand-rolled and checked against central finite
differences (``grad_check``).
"""

import csv
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .model import (
    PARAM_FIELDS,
    ModelParams,
    forward,
    forward_examples,
    init_params,
    mean_embeddings,
    pack_tokens,
    softmax,
    take_sequences,
)
from .seeds import derive_rng

PROB_CLAMP = 1e-12


@dataclass(frozen=True)
class WeightTable:
    """Per-(language, label) loss weights, rows = languages."""

    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))

    def to_dict(self) -> dict:
        return {"weights": self.w.tolist()}


def count_cells(examples, n_languages: int, n_classes: int) -> np.ndarray:
    counts = np.zeros((n_languages, n_classes), dtype=int)
    for ex in examples:
        counts[ex.language, ex.label] += 1
    return counts


def compute_weights(counts) -> WeightTable:
    """w[l, c] = n_l / (C * n[l, c]).

    For every language, sum_c n[l,c] * w[l,c] = n_l, so weighting preserves
    each language's total loss mass. A uniform table gives all weights 1.
    Zero cells are an error: the weight is undefined there and a silently
    clipped value would hide a data problem.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.ndim != 2:
        raise ValueError("counts must be a 2-d table")
    if (counts < 1).any():
        bad = np.argwhere(counts < 1)[0]
        raise ValueError(f"cell (language={bad[0]}, label={bad[1]}) has no examples; weight undefined")
    n_l = counts.sum(axis=1, keepdims=True)
    C = counts.shape[1]
    return WeightTable(w=n_l / (C * counts))


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    lr: float = 0.1                      # decays linearly to 0 over all steps
    weighting: str = "none"              # "none" or "per_language"
    mask_entropy_coeff: float = 0.0
    seed: int = 0
    val_every: int = 1                   # validate every k epochs
    embed_dim: int = 32
    hidden_dim: int = 32

    def validate(self) -> None:
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if self.mask_entropy_coeff < 0:
            raise ValueError("mask_entropy_coeff must be >= 0")
        if self.weighting not in ("none", "per_language"):
            raise ValueError(f"unknown weighting mode {self.weighting!r}")
        if self.val_every < 1:
            raise ValueError("val_every must be >= 1")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float | None


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)   # EpochStats per epoch
    selected_epoch: int | None = None
    selected_val_loss: float | None = None
    final: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "epochs": [asdict(e) for e in self.epochs],
            "selected_epoch": self.selected_epoch,
            "selected_val_loss": self.selected_val_loss,
            "final": self.final,
        }


HEAD_FIELDS = PARAM_FIELDS[1:]  # every parameter array but the embedding table


def _head_float64(params: ModelParams) -> dict:
    return {name: getattr(params, name).astype(np.float64) for name in HEAD_FIELDS}


def _labels_and_weights(examples, weights: WeightTable | None):
    labels = np.array([ex.label for ex in examples], dtype=np.int64)
    if weights is None:
        return labels, np.ones(labels.size)
    langs = np.array([ex.language for ex in examples], dtype=np.int64)
    return labels, weights.w[langs, labels]


def _pooling(ids: np.ndarray, lengths: np.ndarray, mask_id: int | None):
    """A batch's distinct embedding rows and its (B, U) token-count matrix N.

    ``N @ emb[rows] / lengths`` is every example's mean embedding, and
    ``N.T @ (dx / lengths)`` maps a gradient on those means back onto the
    rows. With ``mask_id`` given, the mask row is among the rows, last (it
    is the largest id).
    """
    rows, inv = np.unique(ids, return_inverse=True)
    if mask_id is not None and rows[-1] != mask_id:
        rows = np.append(rows, mask_id)
    B, U = lengths.size, rows.size
    owner = np.repeat(np.arange(B), lengths)
    return rows, np.bincount(owner * U + inv, minlength=B * U).reshape(B, U).astype(np.float64)


def _loss_and_grad(arrs: dict, x: np.ndarray, x_m, labels: np.ndarray, w_ex: np.ndarray,
                   lam: float, want_grad: bool):
    """Weighted CE + lambda * masked-input entropy, and its exact gradient.

    ``arrs`` holds the float64 hidden/output arrays, ``x`` the (B, d) mean
    embeddings and ``x_m`` the mask row, the mean embedding of an all-mask
    input of any length (read only when lambda != 0). In place of an
    embedding gradient the result holds ``x`` (dL/dx) and ``mask``
    (dL/dx_m). Probabilities are clamped to PROB_CLAMP inside logs and the
    gradient honors the clamp.
    """
    w_h, b_h, w_o, b_o = (arrs[n] for n in HEAD_FIELDS)
    B = x.shape[0]
    hid = np.tanh(x @ w_h + b_h)
    probs = softmax(hid @ w_o + b_o)
    p_true = probs[np.arange(B), labels]
    ce = float(np.mean(w_ex * -np.log(np.maximum(p_true, PROB_CLAMP))))

    value = ce
    if lam != 0.0:
        hid_m = np.tanh(x_m @ w_h + b_h)
        q = softmax(hid_m @ w_o + b_o)
        l_mask = float(np.sum(q * np.log(np.maximum(q, PROB_CLAMP))))
        value += lam * l_mask

    if not want_grad or not math.isfinite(value):
        return value, None

    grads = {}
    # CE branch: examples whose clamped p_true hit the floor have zero gradient.
    active = p_true > PROB_CLAMP
    dz = probs * (w_ex * active)[:, None] / B
    dz[np.arange(B), labels] -= w_ex * active / B
    grads["out_w"] = hid.T @ dz
    grads["out_b"] = dz.sum(axis=0)
    da = (dz @ w_o.T) * (1.0 - hid**2)
    grads["hidden_w"] = x.T @ da
    grads["hidden_b"] = da.sum(axis=0)
    grads["x"] = da @ w_h.T

    if lam != 0.0:
        g = np.log(np.maximum(q, PROB_CLAMP)) + (q > PROB_CLAMP)
        dz_m = lam * q * (g - np.dot(g, q))
        grads["out_w"] += np.outer(hid_m, dz_m)
        grads["out_b"] += dz_m
        da_m = (dz_m @ w_o.T) * (1.0 - hid_m**2)
        grads["hidden_w"] += np.outer(x_m, da_m)
        grads["hidden_b"] += da_m
        grads["mask"] = w_h @ da_m

    return value, grads


def _row_grads(counts: np.ndarray, lengths: np.ndarray, grads: dict, lam: float) -> np.ndarray:
    """The gradient on a batch's embedding rows; the mask row is last when lambda != 0."""
    g_rows = counts.T @ (grads["x"] / lengths[:, None])
    if lam != 0.0:
        g_rows[-1] += grads["mask"]
    return g_rows


def loss(params: ModelParams, batch_examples, weights: WeightTable | None = None,
         mask_entropy_coeff: float = 0.0) -> float:
    """Scalar training loss on a batch of examples."""
    ids, lengths = pack_tokens([ex.tokens for ex in batch_examples], params.mask_id)
    value, _ = _loss_and_grad(
        _head_float64(params), mean_embeddings(params, ids, lengths),
        params.embedding[params.mask_id].astype(np.float64),
        *_labels_and_weights(batch_examples, weights), mask_entropy_coeff, want_grad=False,
    )
    if not math.isfinite(value):
        raise FloatingPointError(f"non-finite loss {value!r} on batch of {lengths.size}")
    return value


def mask_entropy_loss(params: ModelParams) -> float:
    """l_mask = sum_c q_c log q_c on an all-mask input; always in [-ln C, 0]."""
    q = forward(params, [params.mask_id]).probs
    return float(np.sum(q * np.log(np.maximum(q, PROB_CLAMP))))


def learning_rate(lr0: float, step: int, total_steps: int) -> float:
    """lr at global step t of T: lr0 * (1 - t/T)."""
    return lr0 * (1.0 - step / total_steps)


def train(data, val, vocab, config: TrainConfig):
    """SGD over shuffled mini-batches; returns (params, report).

    The returned parameters are the snapshot from the epoch with the lowest
    validation loss (earliest epoch on ties). Deterministic given
    ``config.seed``. Divergence (non-finite loss) raises with epoch/step.
    A step rewrites only the embedding rows its batch reads (plus the mask
    row when the entropy loss is on); the rest of the table stays bit-identical.
    """
    config.validate()
    if not data or not val:
        raise ValueError("train and validation sets must be non-empty")

    weights = None
    if config.weighting == "per_language":
        weights = compute_weights(count_cells(data, vocab.n_languages, vocab.n_classes))

    params = init_params(
        vocab.size, vocab.n_classes, config.embed_dim, config.hidden_dim,
        rng=derive_rng(config.seed, "train", "init"),
    )
    report = TrainReport()
    if config.epochs == 0:
        return params, report

    ids, lengths = pack_tokens([ex.tokens for ex in data], params.mask_id)
    labels, w_full = _labels_and_weights(data, weights)

    rng_shuffle = derive_rng(config.seed, "train", "shuffle")
    lam = config.mask_entropy_coeff
    mask_id = params.mask_id if lam != 0.0 else None

    n = len(data)
    steps_per_epoch = math.ceil(n / config.batch_size)
    total_steps = config.epochs * steps_per_epoch

    best_val = math.inf
    best_params = None
    step = 0
    for epoch in range(config.epochs):
        order = rng_shuffle.permutation(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            batch_ids, batch_lengths = take_sequences(ids, lengths, idx)
            rows, counts = _pooling(batch_ids, batch_lengths, mask_id)
            emb = params.embedding[rows].astype(np.float64)
            arrs = _head_float64(params)
            value, grads = _loss_and_grad(
                arrs, counts @ emb / batch_lengths[:, None], emb[-1], labels[idx], w_full[idx], lam,
                want_grad=True,
            )
            if not math.isfinite(value):
                raise FloatingPointError(f"non-finite loss at epoch {epoch} step {step}")
            lr = learning_rate(config.lr, step, total_steps)
            # Parameters live on the float32 grid (checkpoint dtype).
            params.embedding[rows] = emb - lr * _row_grads(counts, batch_lengths, grads, lam)
            for name in HEAD_FIELDS:
                setattr(params, name, (arrs[name] - lr * grads[name]).astype(np.float32))
            epoch_losses.append(value)
            step += 1

        val_loss = None
        if (epoch + 1) % config.val_every == 0 or epoch == config.epochs - 1:
            val_loss = loss(params, val)
            if val_loss < best_val:
                best_val = val_loss
                best_params = params.copy()
                report.selected_epoch = epoch
                report.selected_val_loss = val_loss
        report.epochs.append(EpochStats(epoch=epoch, train_loss=float(np.mean(epoch_losses)), val_loss=val_loss))

    selected = best_params if best_params is not None else params
    metrics = evaluate(selected, val, n_languages=vocab.n_languages, n_classes=vocab.n_classes)
    report.final = {"val_accuracy": metrics.overall_accuracy}
    return selected, report


@dataclass
class EvalMetrics:
    overall_accuracy: float
    per_language_accuracy: list
    pred_dist: np.ndarray            # (L, C) fractions of predictions per language
    n_per_language: list

    def to_dict(self) -> dict:
        return {**vars(self), "pred_dist": self.pred_dist.tolist()}


def evaluate(params: ModelParams, test, n_languages: int, n_classes: int) -> EvalMetrics:
    """Accuracy overall and per language, plus the per-language predicted-label distribution.

    The (n_languages, n_classes) table comes from the caller: a language with
    no test examples keeps its row, as NaN, and a count of 0.
    """
    probs, _ = forward_examples(params, test)
    preds = probs.argmax(axis=1)
    langs = np.array([ex.language for ex in test], dtype=np.int64)
    if langs.max() >= n_languages or n_classes != params.n_classes:
        raise ValueError(f"test set or model does not fit the {n_languages} x {n_classes} table")

    correct = preds == np.array([ex.label for ex in test], dtype=np.int64)
    n_lang = np.bincount(langs, minlength=n_languages)
    cells = np.bincount(langs * n_classes + preds, minlength=n_languages * n_classes)
    with np.errstate(invalid="ignore"):  # 0/0: a language without examples gets NaN
        dist = cells.reshape(n_languages, n_classes) / n_lang[:, None]
        per_lang_acc = np.bincount(langs, weights=correct, minlength=n_languages) / n_lang
    return EvalMetrics(
        overall_accuracy=float(correct.mean()),
        per_language_accuracy=per_lang_acc.tolist(),
        pred_dist=dist,
        n_per_language=n_lang.tolist(),
    )


def prediction_skew_spearman(metrics: EvalMetrics, joint_probs) -> float:
    """Spearman rank correlation between predicted-label frequencies and training joint cells.

    Both L x C tables are flattened; a constant input yields 0.0 by
    convention (no rank order to speak of).
    """
    a = np.asarray(metrics.pred_dist, dtype=float).ravel()
    b = np.asarray(joint_probs, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError("table shapes differ")
    if np.allclose(a, a[0]) or np.allclose(b, b[0]):
        return 0.0
    rho = np.corrcoef(_average_ranks(a), _average_ranks(b))[0, 1]
    return float(rho) if math.isfinite(rho) else 0.0


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of their ranks."""
    _, inv, counts = np.unique(a, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2.0)[inv]


def write_pred_dist_csv(metrics: EvalMetrics, path, lang_names=None, label_names=None) -> None:
    """Predicted-label distribution, rows = languages, columns = labels, in percent."""
    L, C = metrics.pred_dist.shape
    lang_names = lang_names or [f"L{i}" for i in range(L)]
    label_names = label_names or [str(c) for c in range(C)]
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["language"] + list(label_names))
        for lang in range(L):
            writer.writerow([lang_names[lang]] + [repr(float(100.0 * metrics.pred_dist[lang, c])) for c in range(C)])


@dataclass
class GradCheckResult:
    max_rel_error: float
    max_abs_error: float
    n_checked: int


def grad_check(params: ModelParams, batch_examples, weights: WeightTable | None = None,
               mask_entropy_coeff: float = 0.0, n_samples: int = 150,
               step: float = 1e-4, seed: int = 0) -> GradCheckResult:
    """Compare the analytic gradient of a training step to central finite differences.

    Checks a seeded sample of parameter coordinates spread over all arrays.
    Relative error uses max(|analytic|, |fd|, 1e-6) in the denominator so a
    converged (near-zero-gradient) point is judged on absolute error.
    """
    lam = mask_entropy_coeff
    ids, lengths = pack_tokens([ex.tokens for ex in batch_examples], params.mask_id)
    rows, counts = _pooling(ids, lengths, params.mask_id if lam != 0.0 else None)
    labels, w_ex = _labels_and_weights(batch_examples, weights)
    arrs = {name: getattr(params, name).astype(np.float64) for name in PARAM_FIELDS}

    def loss_at(want_grad: bool):
        emb = arrs["embedding"]
        return _loss_and_grad(arrs, counts @ emb[rows] / lengths[:, None], emb[-1], labels, w_ex, lam, want_grad)

    _, grads = loss_at(want_grad=True)
    grads["embedding"] = np.zeros_like(arrs["embedding"])
    grads["embedding"][rows] = _row_grads(counts, lengths, grads, lam)

    # Coordinates are numbered across all arrays in PARAM_FIELDS order; array k starts at starts[k].
    starts = np.cumsum([0] + [arrs[name].size for name in PARAM_FIELDS])
    total = int(starts[-1])
    rng = derive_rng(seed, "grad_check")
    flat_indices = rng.choice(total, size=min(n_samples, total), replace=False)

    max_rel = 0.0
    max_abs = 0.0
    for flat in sorted(int(i) for i in flat_indices):
        k = int(np.searchsorted(starts, flat, side="right")) - 1
        name, offset = PARAM_FIELDS[k], flat - int(starts[k])
        ref = arrs[name].ravel()
        orig = ref[offset]
        ref[offset] = orig + step
        up, _ = loss_at(want_grad=False)
        ref[offset] = orig - step
        down, _ = loss_at(want_grad=False)
        ref[offset] = orig
        fd = (up - down) / (2.0 * step)
        an = grads[name].ravel()[offset]
        abs_err = abs(fd - an)
        max_abs = max(max_abs, abs_err)
        max_rel = max(max_rel, abs_err / max(abs(fd), abs(an), 1e-6))
    return GradCheckResult(max_rel_error=max_rel, max_abs_error=max_abs, n_checked=len(flat_indices))
