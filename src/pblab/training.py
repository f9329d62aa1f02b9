"""Training with optional per-language class weights and masked-input entropy loss.

The loss is mean_i w_i * (-log p_i[y_i]) + lambda * l_mask, where w_i is the
per-(language, label) weight n_l / (C * n_{c,l}) (1.0 when weighting is off)
and l_mask = sum_c q_c log q_c is evaluated on an all-mask input. Plain SGD,
learning rate decaying linearly to zero, model selection by validation loss.
All gradient math is hand-rolled and checked against central finite
differences (``grad_check``).
"""

import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .model import (
    DEFAULT_DIM,
    PARAM_FIELDS,
    ModelParams,
    _init_head,
    forward,
    forward_examples,
    mean_embeddings,
    pack_tokens,
)
from .seeds import derive_rng

PROB_CLAMP = 1e-12
BLOCK_TOKENS = 2**15  # tokens over all arms plus presence cells of the steps one ``batch_layout`` covers


def count_cells(examples, n_languages: int, n_classes: int) -> np.ndarray:
    counts = np.zeros((n_languages, n_classes), dtype=int)
    for ex in examples:
        counts[ex.language, ex.label] += 1
    return counts


def compute_weights(counts) -> np.ndarray:
    """The (L, C) float64 loss weights w[l, c] = n_l / (C * n[l, c]) of an (L, C) table of cell counts.

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
    return n_l / (C * counts)


# Each weighting mode: the function from an arm's (L, C) cell counts to its (L, C) loss weights.
WEIGHTINGS = {"none": lambda counts: np.ones(np.shape(counts)), "per_language": compute_weights}


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
        if not 0 < self.lr < math.inf or self.embed_dim < 1 or self.hidden_dim < 1:  # NaN too
            raise ValueError("lr must be > 0 and embed_dim, hidden_dim >= 1")
        if not 0 <= self.mask_entropy_coeff < math.inf:
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
# The TrainConfig fields each arm of one lockstep call sets for itself. The arms share every other field: those
# fix the step count, the learning-rate schedule, the loss and the stacked head shapes.
ARM_FIELDS = ("seed", "weighting")


def _langs_and_labels(examples):
    return tuple(np.array([getattr(ex, name) for ex in examples], dtype=np.int64) for name in ("language", "label"))


def _labels_and_weights(examples, weights: np.ndarray | None):
    langs, labels = _langs_and_labels(examples)
    return labels, np.ones(labels.size) if weights is None else weights[langs, labels]


def _head_terms(head: dict) -> tuple:
    """Views of float64 (K, ...) head arrays as ``_loss_and_grad`` reads them: transposes and (K, 1, n) biases too."""
    w_h, b_h, w_o, b_o = (head[n] for n in HEAD_FIELDS)
    return w_h, w_h.transpose(0, 2, 1), b_h[:, None], w_o, w_o.transpose(0, 2, 1), b_o[:, None]


def _loss_and_grad(terms: tuple, x: np.ndarray, x_m, true: np.ndarray, w_ex: np.ndarray, lam: float,
                   grads: dict | None = None):
    """Weighted CE + lambda * masked-input entropy of K models, and its exact gradient.

    Every array is stacked over the K models: ``terms`` is ``_head_terms``
    of the float64 (K, ...) head arrays, ``x`` the (K, B, d) mean embeddings,
    ``x_m`` the (K, d) mask rows, the mean embedding of an all-mask input
    (read, and needed, only when lambda != 0), ``true`` the (K, B) flat places
    of the labels in (K, B, C) and ``w_ex`` the weights ((K, B), or broadcast
    to that without ``grads``). Returns (values, g_x, g_mask): the K loss
    values and, with ``grads`` given (arrays shaped like the head, which
    receive its gradient) and every value finite, dL/dx and, when lambda !=
    0, dL/dx_m; otherwise None in their place. Probabilities are clamped to
    PROB_CLAMP inside logs and the gradient honors the clamp. Each model's
    numbers are those of a pass over it alone.
    """
    w_h, w_hT, b_h, w_o, w_oT, b_o = terms
    B = true.shape[1]

    def forward(x):  # the tanh layer and the softmax, each in place
        hid = x @ w_h
        np.tanh(np.add(hid, b_h, out=hid), out=hid)
        z = hid @ w_o + b_o
        top = z[..., :1]  # the row max, exact in any order: np.maximum over the columns beats a reduce over C
        for c in range(1, z.shape[2]):
            top = np.maximum(top, z[..., c : c + 1])
        np.exp(np.subtract(z, top, out=z), out=z)
        return hid, np.divide(z, np.add.reduce(z, axis=2, keepdims=True), out=z)

    hid, probs = forward(x)
    p_true = probs.take(true)
    clamped = np.minimum.reduce(p_true, axis=None) <= PROB_CLAMP  # else the clamp changes nothing
    values = np.add.reduce(w_ex * -np.log(np.maximum(p_true, PROB_CLAMP) if clamped else p_true), axis=1) / B
    if lam != 0.0:
        hid_m, q = forward(x_m[:, None])
        log_q = np.log(np.maximum(q, PROB_CLAMP))
        values = values + lam * np.sum(q * log_q, axis=2)[:, 0]

    if grads is None or not all(map(math.isfinite, values.tolist())):
        return values, None, None

    # CE branch: examples whose clamped p_true hit the floor have zero gradient.
    w_act = w_ex * (p_true > PROB_CLAMP) if clamped else w_ex
    dz = np.divide(np.multiply(probs, w_act[:, :, None], out=probs), B, out=probs)
    dz.reshape(-1)[true] -= w_act / B
    np.matmul(hid.transpose(0, 2, 1), dz, out=grads["out_w"])
    np.add.reduce(dz, axis=1, out=grads["out_b"])
    da = (dz @ w_oT) * np.subtract(1.0, np.square(hid, out=hid), out=hid)
    np.matmul(x.transpose(0, 2, 1), da, out=grads["hidden_w"])
    np.add.reduce(da, axis=1, out=grads["hidden_b"])
    g_x = da @ w_hT
    if lam == 0.0:
        return values, g_x, None

    g = log_q + (q > PROB_CLAMP)
    dz_m = lam * q * (g - g @ q.transpose(0, 2, 1))
    grads["out_w"] += hid_m.transpose(0, 2, 1) * dz_m
    grads["out_b"] += dz_m[:, 0]
    da_m = (dz_m @ w_oT) * (1.0 - hid_m**2)
    grads["hidden_w"] += x_m[:, :, None] * da_m
    grads["hidden_b"] += da_m[:, 0]
    return values, g_x, (w_h @ da_m.transpose(0, 2, 1))[:, :, 0]


def batch_layout(ids: np.ndarray, lengths: np.ndarray, orders: np.ndarray, batch_size: int, mask_id: int):
    """Every lockstep step of K arms as the step's distinct token ids plus its token-count cells.

    ``ids``/``lengths`` are a packed layout (``pack_tokens``); ``orders`` is
    (K, n), and arm k's batch b holds sequences
    ``orders[k, b * batch_size:][:batch_size]``. Step b's ids
    ``ids_b = rows[row_ptr[b]:row_ptr[b + 1]]`` are the U_b distinct token
    ids of all K batches, ascending, and every arm gathers, updates and
    scatters those same rows of its own table. The step's (K, B_b, U_b)
    count tensor N is the bincount of ``cells[tok_ptr[b]:tok_ptr[b + 1]]``:
    ``N[k] @ table[k, ids_b] / lengths`` is arm k's mean embeddings, and
    ``N[k].T @ (dx / lengths)`` maps a gradient on them back onto the rows.
    An id that only other arms' batches read has count 0 in arm k, so its
    row gets a +0.0 gradient and the write-back keeps its bits. At K = 1 the
    ids are the batch's own. Each key step * (V + 1) + id marks a presence
    table of steps x (V + 1) cells, whose nonzero cells are the distinct keys
    in order: no sort, and a cost of the tokens plus the cells. Cells are
    int32 when they all fit; the ``del``s bound the transient memory.
    """
    K, n = orders.shape
    width = mask_id + 1
    n_batches = -(-n // batch_size)
    dtype = np.int32 if max(n_batches, K * min(batch_size, n)) * width < 2**31 else np.int64
    # Sequences in step order: step b holds arm 0's batch, then arm 1's, and so on; j is each sequence's
    # place in its step.
    full = n // batch_size * batch_size
    seq = np.concatenate([orders[:, :full].reshape(K, -1, batch_size).transpose(1, 0, 2).ravel(),
                          orders[:, full:].ravel()])
    b, j = np.divmod(np.arange(K * n), batch_size * K)
    sel = lengths[seq]
    ends = np.cumsum(sel)
    # Token t of the step-ordered layout is ids[t + shift of its sequence]; its key is step * width + id.
    at = np.arange(ends[-1])
    at += np.repeat(np.cumsum(lengths)[seq] - ends, sel)
    keys = np.repeat(b * width, sel)
    keys += ids.take(at)
    del at
    # Marking the keys in a presence table over the steps gives the distinct keys in order, without a sort.
    present = np.zeros(n_batches * width, dtype=bool)
    present[keys] = True
    rows = np.flatnonzero(present)
    row_ptr = np.searchsorted(rows, np.arange(n_batches + 1) * width)
    place = np.empty(present.size, dtype=dtype)  # each distinct key's place among them; other cells unread
    place[rows] = np.arange(rows.size, dtype=dtype)
    # A token's cell is (its sequence's place in the step) * U_b + (its id's place among the step's ids).
    cells = place.take(keys)
    del present, place, keys
    cells += np.repeat((j * np.diff(row_ptr)[b] - row_ptr[b]).astype(dtype), sel)
    rows %= width  # key -> token id
    tok_ptr = np.concatenate([[0], ends])[np.minimum(np.arange(n_batches + 1) * batch_size * K, K * n)]
    return rows, row_ptr.tolist(), cells, tok_ptr.tolist()


def batch_counts(layout, b: int, K: int, n_seqs: int):
    """Step b's (U,) token ids and its (K, n_seqs, U) float64 token counts (sums of 1.0, so exact)."""
    rows, row_ptr, cells, tok_ptr = layout
    rows, cells = rows[row_ptr[b] : row_ptr[b + 1]], cells[tok_ptr[b] : tok_ptr[b + 1]]
    return rows, np.bincount(cells, np.ones(cells.size), K * n_seqs * rows.size).reshape(K, n_seqs, -1)


def _head_views(buf: np.ndarray, shapes: dict) -> dict:
    """Per-field (K, ...) views of a (K, P) buffer that holds the head arrays back to back. Splitting the
    unit-stride last axis of a column slice never copies, so writes through a view land in ``buf``."""
    views, at = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = buf[:, at : at + size].reshape(buf.shape[0], *shape)
        at += size
    return views


def _packed_loss(table: np.ndarray, mask_id: int, head: dict, ids, lengths, labels, w_ex, lam: float) -> np.ndarray:
    """The K loss values of models (``table[k]``, head arrays [k]) on one packed set of sequences. ``table`` is a
    C-contiguous (K, R, d) array (np.take copies a strided one whole) with the mask row at ``mask_id``; ``head``
    holds float64 (K, ...) arrays."""
    K, n = table.shape[0], lengths.size
    true = np.arange(K * n).reshape(K, n) * head["out_b"].shape[-1] + labels
    values, _, _ = _loss_and_grad(_head_terms(head), mean_embeddings(table, ids, lengths),
                                  table[:, mask_id].astype(np.float64), true, w_ex, lam)
    if not np.isfinite(values).all():
        raise FloatingPointError(f"non-finite loss {values.tolist()!r} on batch of {n}")
    return values


def loss(params: ModelParams, batch_examples, weights: np.ndarray | None = None,
         mask_entropy_coeff: float = TrainConfig.mask_entropy_coeff) -> float:
    """Scalar training loss on a batch of examples."""
    ids, lengths = pack_tokens([ex.tokens for ex in batch_examples], params.mask_id)
    head = {name: getattr(params, name).astype(np.float64)[None] for name in HEAD_FIELDS}
    return float(_packed_loss(params.embedding[None], params.mask_id, head, ids, lengths,
                              *_labels_and_weights(batch_examples, weights), mask_entropy_coeff)[0])


def mask_entropy_loss(params: ModelParams) -> float:
    """l_mask = sum_c q_c log q_c on an all-mask input; always in [-ln C, 0]."""
    q = forward(params, [params.mask_id]).probs
    return float(np.sum(q * np.log(np.maximum(q, PROB_CLAMP))))


def learning_rate(lr0: float, step: int, total_steps: int) -> float:
    """lr at global step t of T: lr0 * (1 - t/T)."""
    return lr0 * (1.0 - step / total_steps)


def train(data, val, vocab, config: TrainConfig):
    """SGD over shuffled mini-batches, the one-arm case of ``train_arms``; returns (params, report)."""
    return train_arms([data], val, vocab, [config])[0]


def train_arms(datasets, val, vocab, configs):
    """Train K models in lockstep, arm k on ``datasets[k]`` with ``configs[k]``; returns [(params, report)].

    Every arm gets what training it alone would give, bit for bit: its own
    embedding table, init and shuffle streams from its ``config.seed``, (L, C)
    loss-weight table, validation-based selection and report. The arms'
    parameters are stacked: the embedding tables as one (K, V + 1, d) array,
    arm k's table the view ``table[k]``, the hidden/output weights as one
    (K, P) buffer and the weight tables as one (K, L, C) array, read at an
    example's (language, label). So each step gathers, updates and scatters
    the step's rows and every head at once, and the per-epoch validation is
    one pass. The arms must share every field but ``ARM_FIELDS``, and their
    train size; anything else is a ``ValueError``. The start is
    ``init_params``': the stacked table is allocated as zeros and each arm's
    init stream draws only its head, so no other copy of a table is made.

    An arm's returned parameters are the snapshot from the epoch with the
    lowest validation loss (earliest epoch on ties). Divergence (non-finite
    loss) raises with epoch/step. A step changes only the embedding rows its
    batch reads (plus the mask row when the entropy loss is on); the rest of
    the table keeps its bits. The mask row's entropy update comes after the
    token rows' update: where a batch holds the mask id as a token (generated
    and loaded data never do), that row is x - lr * g_tok and then
    - lr * g_mask, each rounded to float32, not x - lr * (g_tok + g_mask).
    """
    if not configs or len(datasets) != len(configs):
        raise ValueError("train_arms needs one dataset per config, and at least one arm")
    for config in configs:
        config.validate()
    if not val or not all(datasets):
        raise ValueError("train and validation sets must be non-empty")
    first = configs[0]
    differing = [f.name for f in fields(TrainConfig)
                 if f.name not in ARM_FIELDS and any(getattr(c, f.name) != getattr(first, f.name) for c in configs)]
    if differing:
        raise ValueError(f"arms trained in lockstep must share {', '.join(differing)}")
    n = len(datasets[0])
    if any(len(data) != n for data in datasets):
        raise ValueError("arms trained in lockstep must have equal train sizes")

    K, mask_id = len(configs), vocab.size
    heads = [_init_head(vocab.n_classes, first.embed_dim, first.hidden_dim, derive_rng(config.seed, "train", "init"))
             for config in configs]
    shapes = {name: array.shape for name, array in zip(HEAD_FIELDS, heads[0])}
    table = np.zeros((K, mask_id + 1, first.embed_dim), dtype=np.float32)
    head32 = np.stack([np.concatenate(head, axis=None) for head in heads]).astype(np.float32)
    views32 = _head_views(head32, shapes)
    arms = [ModelParams(table[k], *(views32[name][k] for name in HEAD_FIELDS)) for k in range(K)]
    reports = [TrainReport() for _ in configs]
    if first.epochs == 0:
        return list(zip(arms, reports))

    # One packed layout holds each distinct dataset once: the imbalanced arms with and without weights share it.
    distinct = {id(data): data for data in datasets}
    pooled = [ex for data in distinct.values() for ex in data]
    ids, lengths = pack_tokens([ex.tokens for ex in pooled], mask_id)
    langs, labels = _langs_and_labels(pooled)
    offsets = [list(distinct).index(id(data)) * n for data in datasets]  # each arm's first sequence in the pool
    weights = np.stack([WEIGHTINGS[config.weighting](count_cells(data, vocab.n_languages, vocab.n_classes))
                        for data, config in zip(datasets, configs)])
    val_ids, val_lengths = pack_tokens([ex.tokens for ex in val], mask_id)
    _, val_labels = _langs_and_labels(val)

    head64 = head32.astype(np.float64)  # what the step computes with; always equal to head32

    shuffles = [derive_rng(config.seed, "train", "shuffle") for config in configs]
    best = [arm.copy() for arm in arms]  # each arm's snapshot of its best epoch so far
    for epoch in range(first.epochs):
        seqs = np.stack([offset + rng.permutation(n) for offset, rng in zip(offsets, shuffles)])
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing step fails the next loss check
            epoch_losses = _train_epoch(table, head32, head64, shapes, (ids, lengths, langs, labels), seqs, weights,
                                        first, epoch)
            val_losses = _packed_loss(table, mask_id, _head_views(head64, shapes), val_ids, val_lengths,
                                      val_labels, 1.0, 0.0)
        for k, report in enumerate(reports):
            val_loss = float(val_losses[k])
            if report.selected_epoch is None or val_loss < report.selected_val_loss:
                for name in PARAM_FIELDS:  # refresh the snapshot in place
                    np.copyto(getattr(best[k], name), getattr(arms[k], name))
                report.selected_epoch = epoch
                report.selected_val_loss = val_loss
            report.epochs.append(EpochStats(epoch=epoch, train_loss=float(np.mean(epoch_losses[k])),
                                            val_loss=val_loss))

    for selected, report in zip(best, reports):
        probs, _ = forward_examples(selected, val)
        report.final = {"val_accuracy": evaluate(probs, val, vocab.n_languages, vocab.n_classes).overall_accuracy}
    return list(zip(best, reports))


def _train_epoch(table, head32, head64, shapes: dict, packed, seqs, weights, config: TrainConfig,
                 epoch: int) -> np.ndarray:
    """One epoch of lockstep SGD, arm k visiting sequences ``seqs[k]`` of ``packed``; returns the (K, steps) losses.

    ``table`` is the arms' stacked (K, V + 1, d) float32 embedding table,
    ``head32``/``head64`` their (K, P) head in float32 and float64,
    ``packed`` the (ids, lengths, langs, labels) of every dataset, ``seqs``
    the (K, n) places in it of each arm's shuffled examples, their one index,
    and ``weights`` the arms' (K, L, C) loss weights. Each step is one
    gather, forward/backward and scatter for all K arms, of the rows of the
    step's shared ids (``batch_layout``); parameters stay on the float32
    grid (checkpoint dtype). The head's views are built once an epoch; the
    layout and the visited lengths, labels, weights and true-class places
    once a block of whole steps, whose tokens over all arms plus steps x
    (V + 1) presence cells are at most BLOCK_TOKENS (a larger step is a block
    of its own). A step's arithmetic does not depend on its block, so it is
    what a whole-epoch layout gives. The mask rows ``table[:, mask_id]`` are
    read and updated outside the layout, after the rows' scatter.
    """
    ids, lengths, langs, labels = packed
    # A batch of n or more is one full batch; the cap keeps a batch size past int64 out of numpy.
    bs, lam = min(config.batch_size, seqs.shape[1]), config.mask_entropy_coeff
    K, mask_id = table.shape[0], table.shape[1] - 1
    # Step b costs its tokens over all arms plus its V + 1 presence cells; steps b0:b1 cost cost[b1] - cost[b0].
    step_tokens = np.add.reduceat(lengths[seqs].sum(axis=0), np.arange(0, seqs.shape[1], bs))
    cost = np.concatenate([[0], np.cumsum(step_tokens + (mask_id + 1))])
    steps = step_tokens.size
    grad64 = np.empty_like(head64)
    head, grads = _head_terms(_head_views(head64, shapes)), _head_views(grad64, shapes)
    losses = np.empty((K, steps))
    b0 = b1 = 0  # the current block's steps
    for b in range(steps):
        if b == b1:
            b0, b1 = b, max(b + 1, int(np.searchsorted(cost, cost[b] + BLOCK_TOKENS, "right")) - 1)
            block = seqs[:, b0 * bs : b1 * bs]
            layout = batch_layout(ids, lengths, block, bs, mask_id)
            # Lengths are exact in float64, so dividing by them gives the same bits as dividing by the ints.
            block_lengths, block_labels = lengths[block][:, :, None].astype(np.float64), labels[block]
            w_ex = weights[np.arange(K)[:, None], langs[block], block_labels]
            # Column c is place i of a step of B = min(bs, columns from the step's first on): y at (k * B + i) * C + y.
            c = np.arange(block.shape[1])
            i = c % bs
            true = (np.arange(K)[:, None] * np.minimum(bs, c.size - c + i) + i) * shapes["out_b"][0] + block_labels
        step = epoch * steps + b
        cols = slice((b - b0) * bs, (b - b0 + 1) * bs)
        lens = block_lengths[:, cols]
        rows, counts = batch_counts(layout, b - b0, K, lens.shape[1])
        emb = table.take(rows, axis=1).astype(np.float64)
        x = counts @ emb / lens
        x_m = table[:, mask_id].astype(np.float64) if lam != 0.0 else None
        losses[:, b], g_x, g_mask = _loss_and_grad(head, x, x_m, true[:, cols], w_ex[:, cols], lam, grads)
        if g_x is None:
            raise FloatingPointError(f"non-finite loss at epoch {epoch} step {step}")
        lr = learning_rate(config.lr, step, config.epochs * steps)
        emb -= counts.transpose(0, 2, 1) @ np.divide(g_x, lens, out=g_x) * lr  # the rows' gradient, times lr
        table[:, rows] = emb
        if g_mask is not None:
            table[:, mask_id] -= g_mask * lr
        grad64 *= lr
        np.subtract(head64, grad64, out=head32, casting="same_kind")
        head64[...] = head32
    return losses


@dataclass
class EvalMetrics:
    overall_accuracy: float
    per_language_accuracy: list
    pred_dist: np.ndarray            # (L, C) fractions of predictions per language
    n_per_language: list

    def to_dict(self) -> dict:
        return {**vars(self), "pred_dist": self.pred_dist.tolist()}


def evaluate(probs: np.ndarray, test, n_languages: int, n_classes: int) -> EvalMetrics:
    """Accuracy overall and per language, plus the per-language predicted-label distribution, of ``probs``: the
    (len(test), n_classes) class probabilities of one ``model.forward_examples`` pass over ``test``. The
    (n_languages, n_classes) table comes from the caller: a language with no test examples keeps its row, as NaN,
    and a count of 0."""
    if len(test) == 0:
        raise ValueError("empty test set: there is nothing to evaluate")
    langs, labels = _langs_and_labels(test)
    if probs.shape != (len(test), n_classes) or langs.max() >= n_languages:
        raise ValueError(f"test set or probs does not fit the {n_languages} x {n_classes} table")
    preds = probs.argmax(axis=1)

    correct = preds == labels
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


def grad_check(params: ModelParams, batch_examples, weights: np.ndarray | None = None,
               mask_entropy_coeff: float = TrainConfig.mask_entropy_coeff, n_samples: int = 150,
               step: float = 1e-4, seed: int = 0) -> GradCheckResult:
    """Compare the analytic gradient of a training step to central finite differences.

    Checks a seeded sample of parameter coordinates spread over all arrays.
    Relative error uses max(|analytic|, |fd|, 1e-6) in the denominator so a
    converged (near-zero-gradient) point is judged on absolute error.
    """
    lam = mask_entropy_coeff
    ids, lengths = pack_tokens([ex.tokens for ex in batch_examples], params.mask_id)
    layout = batch_layout(ids, lengths, np.arange(lengths.size)[None], lengths.size, params.mask_id)
    rows, counts = batch_counts(layout, 0, 1, lengths.size)  # rows: the batch's distinct token ids
    lengths = lengths[None, :, None]
    labels, w_ex = _labels_and_weights(batch_examples, weights)
    arrs = {name: getattr(params, name).astype(np.float64)[None] for name in PARAM_FIELDS}  # K = 1
    terms, true = _head_terms(arrs), (np.arange(labels.size) * params.n_classes + labels)[None]

    def loss_at(grads=None):
        emb = arrs["embedding"][0]
        return _loss_and_grad(terms, counts @ emb[rows] / lengths, emb[-1][None], true, w_ex[None], lam, grads)

    grads = {name: np.empty_like(arrs[name]) for name in HEAD_FIELDS}
    _, g_x, g_mask = loss_at(grads)
    grads["embedding"] = np.zeros_like(arrs["embedding"])
    grads["embedding"][0, rows] = (counts.transpose(0, 2, 1) @ (g_x / lengths))[0]
    if g_mask is not None:  # after the token rows: the mask id may be a token of the batch too
        grads["embedding"][0, -1] += g_mask[0]

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
        up = loss_at()[0][0]
        ref[offset] = orig - step
        down = loss_at()[0][0]
        ref[offset] = orig
        fd = (up - down) / (2.0 * step)
        an = grads[name].ravel()[offset]
        abs_err = abs(fd - an)
        max_abs = max(max_abs, abs_err)
        max_rel = max(max_rel, abs_err / max(abs(fd), abs(an), 1e-6))
    return GradCheckResult(max_rel_error=max_rel, max_abs_error=max_abs, n_checked=len(flat_indices))
