"""Training with optional per-language class weights and masked-input entropy loss.

The loss is mean_i w_i * (-log p_i[y_i]) + lambda * l_mask, where w_i is the
per-(language, label) weight n_l / (C * n_{c,l}) (1.0 when weighting is off)
and l_mask = sum_c q_c log q_c is evaluated on an all-mask input. Plain SGD,
learning rate decaying linearly to zero, model selection by validation loss.
All gradient math is hand-rolled and checked against central finite
differences (``grad_check``).
"""

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .model import (
    DEFAULT_DIM,
    PARAM_FIELDS,
    ModelParams,
    batch_counts,
    batch_layout,
    forward,
    forward_examples,
    forward_means,
    init_params,
    mean_embeddings,
    pack_tokens,
    softmax,
)
from .seeds import derive_rng

PROB_CLAMP = 1e-12


@dataclass(frozen=True)
class WeightTable:
    """Per-(language, label) loss weights, rows = languages."""

    w: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.asarray(self.w, dtype=float))


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


WEIGHTINGS = ("none", "per_language")


@dataclass
class TrainConfig:
    epochs: int = 20
    batch_size: int = 32
    lr: float = 0.1                      # decays linearly to 0 over all steps
    weighting: str = "none"              # one of WEIGHTINGS
    mask_entropy_coeff: float = 0.0
    seed: int = 0
    embed_dim: int = DEFAULT_DIM
    hidden_dim: int = DEFAULT_DIM

    def validate(self) -> None:
        if self.epochs < 0 or self.batch_size < 1:
            raise ValueError("epochs must be >= 0 and batch_size >= 1")
        if self.lr <= 0 or self.embed_dim < 1 or self.hidden_dim < 1:
            raise ValueError("lr must be > 0 and embed_dim, hidden_dim >= 1")
        if self.mask_entropy_coeff < 0:
            raise ValueError("mask_entropy_coeff must be >= 0")
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"unknown weighting mode {self.weighting!r}")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float


@dataclass
class TrainReport:
    epochs: list = field(default_factory=list)   # EpochStats per epoch
    selected_epoch: int | None = None
    selected_val_loss: float | None = None
    final: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


HEAD_FIELDS = PARAM_FIELDS[1:]  # every parameter array but the embedding table
# Settings every arm of one lockstep call must share: they fix the step count,
# the learning-rate schedule, the loss and the stacked head shapes.
LOCKSTEP_FIELDS = ("epochs", "batch_size", "lr", "mask_entropy_coeff", "embed_dim", "hidden_dim")


def _labels_and_weights(examples, weights: WeightTable | None):
    labels = np.array([ex.label for ex in examples], dtype=np.int64)
    if weights is None:
        return labels, np.ones(labels.size)
    langs = np.array([ex.language for ex in examples], dtype=np.int64)
    return labels, weights.w[langs, labels]


def _pack_train(data, mask_id: int):
    """(ids, lengths, labels) of a training set; ids in the smallest dtype that holds ``mask_id``."""
    ids, lengths = pack_tokens([ex.tokens for ex in data], mask_id)
    return ids.astype(np.min_scalar_type(mask_id)), lengths.astype(np.int32), _labels_and_weights(data, None)[0]


def _loss_and_grad(arrs: dict, x: np.ndarray, x_m, labels: np.ndarray, w_ex: np.ndarray,
                   lam: float, want_grad: bool):
    """Weighted CE + lambda * masked-input entropy of K models, and its exact gradient.

    Every array is stacked over the K models: ``arrs`` holds the float64
    (K, ...) hidden/output arrays, ``x`` the (K, B, d) mean embeddings,
    ``x_m`` the (K, d) mask rows, the mean embedding of an all-mask input of
    any length (read, and needed, only when lambda != 0), and
    ``labels``/``w_ex`` are (K, B). Returns the K loss values and, in place
    of an embedding gradient, ``x`` (dL/dx) and ``mask`` (dL/dx_m).
    Probabilities are clamped to PROB_CLAMP inside logs and the gradient
    honors the clamp. Each model's numbers are bit-identical to those of a
    pass over that model alone.
    """
    w_h, b_h, w_o, b_o = (arrs[n] for n in HEAD_FIELDS)
    K, B = labels.shape
    w_hT, w_oT = w_h.transpose(0, 2, 1), w_o.transpose(0, 2, 1)
    hid = np.tanh(x @ w_h + b_h[:, None])
    probs = softmax(hid @ w_o + b_o[:, None])
    true = (np.arange(K)[:, None], np.arange(B), labels)
    p_true = probs[true]
    values = np.add.reduce(w_ex * -np.log(np.maximum(p_true, PROB_CLAMP)), axis=1) / B  # np.mean, bit for bit

    if lam != 0.0:
        hid_m = np.tanh(x_m[:, None] @ w_h + b_h[:, None])
        q = softmax(hid_m @ w_o + b_o[:, None])
        values = values + lam * np.sum(q * np.log(np.maximum(q, PROB_CLAMP)), axis=2)[:, 0]

    if not want_grad or not np.isfinite(values).all():
        return values, None

    grads = {}
    # CE branch: examples whose clamped p_true hit the floor have zero gradient.
    w_act = w_ex * (p_true > PROB_CLAMP)
    dz = probs * w_act[:, :, None] / B
    dz[true] -= w_act / B
    grads["out_w"] = hid.transpose(0, 2, 1) @ dz
    grads["out_b"] = dz.sum(axis=1)
    da = (dz @ w_oT) * (1.0 - hid**2)
    grads["hidden_w"] = x.transpose(0, 2, 1) @ da
    grads["hidden_b"] = da.sum(axis=1)
    grads["x"] = da @ w_hT

    if lam != 0.0:
        g = np.log(np.maximum(q, PROB_CLAMP)) + (q > PROB_CLAMP)
        dz_m = lam * q * (g - g @ q.transpose(0, 2, 1))
        grads["out_w"] += hid_m.transpose(0, 2, 1) * dz_m
        grads["out_b"] += dz_m[:, 0]
        da_m = (dz_m @ w_oT) * (1.0 - hid_m**2)
        grads["hidden_w"] += x_m[:, :, None] * da_m
        grads["hidden_b"] += da_m[:, 0]
        grads["mask"] = (w_h @ da_m.transpose(0, 2, 1))[:, :, 0]

    return values, grads


def _row_grads(counts: np.ndarray, lengths: np.ndarray, g_x: np.ndarray, g_mask) -> np.ndarray:
    """The gradient on a batch's embedding rows; ``g_mask`` (lambda != 0) goes to the last row."""
    g_rows = counts.T @ (g_x / lengths[:, None])
    if g_mask is not None:
        g_rows[-1] += g_mask
    return g_rows


def _packed_loss(params: ModelParams, ids, lengths, labels, w_ex, lam: float) -> float:
    """``loss`` on an already packed set of sequences."""
    values, _ = _loss_and_grad(
        {name: getattr(params, name).astype(np.float64)[None] for name in HEAD_FIELDS},
        mean_embeddings(params, ids, lengths)[None], params.embedding[params.mask_id].astype(np.float64)[None],
        labels[None], w_ex[None], lam, want_grad=False,
    )
    value = float(values[0])
    if not math.isfinite(value):
        raise FloatingPointError(f"non-finite loss {value!r} on batch of {lengths.size}")
    return value


def loss(params: ModelParams, batch_examples, weights: WeightTable | None = None,
         mask_entropy_coeff: float = TrainConfig.mask_entropy_coeff) -> float:
    """Scalar training loss on a batch of examples."""
    ids, lengths = pack_tokens([ex.tokens for ex in batch_examples], params.mask_id)
    return _packed_loss(params, ids, lengths, *_labels_and_weights(batch_examples, weights), mask_entropy_coeff)


def mask_entropy_loss(params: ModelParams) -> float:
    """l_mask = sum_c q_c log q_c on an all-mask input; always in [-ln C, 0]."""
    q = forward(params, [params.mask_id]).probs
    return float(np.sum(q * np.log(np.maximum(q, PROB_CLAMP))))


def learning_rate(lr0: float, step: int, total_steps: int) -> float:
    """lr at global step t of T: lr0 * (1 - t/T)."""
    return lr0 * (1.0 - step / total_steps)


def train(data, val, vocab, config: TrainConfig):
    """SGD over shuffled mini-batches; returns (params, report).

    The one-arm case of ``train_arms``.
    """
    return train_arms([data], val, vocab, [config])[0]


def train_arms(datasets, val, vocab, configs):
    """Train K models in lockstep, arm k on ``datasets[k]`` with ``configs[k]``; returns [(params, report)].

    Every arm gets what training it alone would give, bit for bit: its own
    embedding table, init and shuffle streams from its ``config.seed``, class
    weights, validation-based selection and report. Only the hidden/output
    weights are stacked, so each step's forward and backward run once over
    (K, B, d). The arms must share ``LOCKSTEP_FIELDS`` and their train size;
    anything else is a ``ValueError``.

    An arm's returned parameters are the snapshot from the epoch with the
    lowest validation loss (earliest epoch on ties). Divergence (non-finite
    loss) raises with epoch/step. A step rewrites only the embedding rows its
    batch reads (plus the mask row when the entropy loss is on); the rest of
    the table stays bit-identical.
    """
    if not configs or len(datasets) != len(configs):
        raise ValueError("train_arms needs one dataset per config, and at least one arm")
    for config in configs:
        config.validate()
    if not val or not all(datasets):
        raise ValueError("train and validation sets must be non-empty")
    first = configs[0]
    differing = [f for f in LOCKSTEP_FIELDS if any(getattr(c, f) != getattr(first, f) for c in configs)]
    if differing:
        raise ValueError(f"arms trained in lockstep must share {', '.join(differing)}")
    n = len(datasets[0])
    if any(len(data) != n for data in datasets):
        raise ValueError("arms trained in lockstep must have equal train sizes")

    arms = [
        init_params(vocab.size, vocab.n_classes, first.embed_dim, first.hidden_dim,
                    rng=derive_rng(config.seed, "train", "init"))
        for config in configs
    ]
    reports = [TrainReport() for _ in configs]
    if first.epochs == 0:
        return list(zip(arms, reports))

    mask_id = vocab.size
    # One packed layout per distinct dataset: the imbalanced arms with and without weights share theirs.
    distinct = {id(data): data for data in datasets}
    packed = {key: _pack_train(data, mask_id) for key, data in distinct.items()}
    sets = [packed[id(data)] for data in datasets]
    ones = np.ones(n)
    weights = [
        _labels_and_weights(data, compute_weights(count_cells(data, vocab.n_languages, vocab.n_classes)))[1]
        if config.weighting == "per_language" else ones
        for data, config in zip(datasets, configs)
    ]
    val_ids, val_lengths = pack_tokens([ex.tokens for ex in val], mask_id)
    val_labels = _labels_and_weights(val, None)[0]
    val_ones = np.ones(val_labels.size)

    shuffles = [derive_rng(config.seed, "train", "shuffle") for config in configs]
    head = {name: np.stack([getattr(arm, name) for arm in arms]) for name in HEAD_FIELDS}  # float32 (K, ...)
    steps_per_epoch = math.ceil(n / first.batch_size)
    best = [None] * len(configs)
    for epoch in range(first.epochs):
        orders = [rng.permutation(n) for rng in shuffles]
        epoch_losses = _train_epoch(arms, head, sets, weights, orders, first, epoch, steps_per_epoch)
        for k, report in enumerate(reports):
            current = ModelParams(arms[k].embedding, *(head[name][k] for name in HEAD_FIELDS))
            val_loss = _packed_loss(current, val_ids, val_lengths, val_labels, val_ones, 0.0)
            if best[k] is None or val_loss < report.selected_val_loss:
                best[k] = current.copy()
                report.selected_epoch = epoch
                report.selected_val_loss = val_loss
            report.epochs.append(EpochStats(epoch=epoch, train_loss=float(np.mean(epoch_losses[k])),
                                            val_loss=val_loss))

    for selected, report in zip(best, reports):
        probs, _ = forward_means(selected, mean_embeddings(selected, val_ids, val_lengths))
        report.final = {"val_accuracy": float((probs.argmax(axis=1) == val_labels).mean())}
    return list(zip(best, reports))


def _train_epoch(arms, head: dict, sets, weights, orders, config: TrainConfig, epoch: int,
                 steps_per_epoch: int) -> np.ndarray:
    """One epoch of lockstep SGD, arm k visiting ``sets[k]`` in ``orders[k]``; returns the (K, steps) losses.

    The epoch's layouts live only as long as this call.
    """
    bs, lam = config.batch_size, config.mask_entropy_coeff
    layouts = [batch_layout(ids, lens, order, bs, arms[0].mask_id, lam != 0.0)
               for (ids, lens, _), order in zip(sets, orders)]
    lengths = np.stack([lens[order] for (_, lens, _), order in zip(sets, orders)])
    labels = np.stack([labs[order] for (_, _, labs), order in zip(sets, orders)])
    w_ex = np.stack([w[order] for w, order in zip(weights, orders)])
    losses = np.empty((len(arms), steps_per_epoch))
    for b in range(steps_per_epoch):
        step = epoch * steps_per_epoch + b
        lens = lengths[:, b * bs : (b + 1) * bs]
        x = np.empty(lens.shape + (config.embed_dim,))
        batches = []
        for k, arm in enumerate(arms):
            rows, counts = batch_counts(layouts[k], b, lens.shape[1])
            emb = arm.embedding[rows].astype(np.float64)
            np.divide(counts @ emb, lens[k, :, None], out=x[k])
            batches.append((rows, counts, emb))
        arrs = {name: a.astype(np.float64) for name, a in head.items()}
        x_m = np.stack([emb[-1] for _, _, emb in batches]) if lam != 0.0 else None
        losses[:, b], grads = _loss_and_grad(arrs, x, x_m, labels[:, b * bs : (b + 1) * bs],
                                             w_ex[:, b * bs : (b + 1) * bs], lam, want_grad=True)
        if grads is None:
            raise FloatingPointError(f"non-finite loss at epoch {epoch} step {step}")
        lr = learning_rate(config.lr, step, config.epochs * steps_per_epoch)
        # Parameters live on the float32 grid (checkpoint dtype).
        for k, (rows, counts, emb) in enumerate(batches):
            g_mask = grads["mask"][k] if lam != 0.0 else None
            arms[k].embedding[rows] = emb - lr * _row_grads(counts, lens[k], grads["x"][k], g_mask)
        for name in HEAD_FIELDS:
            head[name] = (arrs[name] - lr * grads[name]).astype(np.float32)
    return losses


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


def pred_dist_table(metrics: EvalMetrics, vocab) -> tuple:
    """(header, rows) of the predicted-label distribution: rows = languages, columns = labels, in percent."""
    rows = [[name, *(repr(float(100.0 * frac)) for frac in row)]
            for name, row in zip(vocab.lang_names, metrics.pred_dist, strict=True)]
    return ["language", *vocab.label_names], rows


@dataclass
class GradCheckResult:
    max_rel_error: float
    max_abs_error: float
    n_checked: int


def grad_check(params: ModelParams, batch_examples, weights: WeightTable | None = None,
               mask_entropy_coeff: float = TrainConfig.mask_entropy_coeff, n_samples: int = 150,
               step: float = 1e-4, seed: int = 0) -> GradCheckResult:
    """Compare the analytic gradient of a training step to central finite differences.

    Checks a seeded sample of parameter coordinates spread over all arrays.
    Relative error uses max(|analytic|, |fd|, 1e-6) in the denominator so a
    converged (near-zero-gradient) point is judged on absolute error.
    """
    lam = mask_entropy_coeff
    ids, lengths = pack_tokens([ex.tokens for ex in batch_examples], params.mask_id)
    layout = batch_layout(ids, lengths, np.arange(lengths.size), lengths.size, params.mask_id, lam != 0.0)
    rows, counts = batch_counts(layout, 0, lengths.size)
    labels, w_ex = _labels_and_weights(batch_examples, weights)
    arrs = {name: getattr(params, name).astype(np.float64) for name in PARAM_FIELDS}

    def loss_at(want_grad: bool):
        emb = arrs["embedding"]
        values, grads = _loss_and_grad(
            {name: arrs[name][None] for name in HEAD_FIELDS}, (counts @ emb[rows] / lengths[:, None])[None],
            emb[-1][None], labels[None], w_ex[None], lam, want_grad,
        )
        return float(values[0]), grads and {name: g[0] for name, g in grads.items()}

    _, grads = loss_at(want_grad=True)
    grads["embedding"] = np.zeros_like(arrs["embedding"])
    grads["embedding"][rows] = _row_grads(counts, lengths, grads["x"], grads.get("mask"))

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
