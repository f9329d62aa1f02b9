"""Small maskable text classifier over mean-pooled token embeddings.

forward: probs = softmax(tanh(mean(emb[tokens]) @ Wh + bh) @ Wo + bo).
The pooled (post-tanh) vector is the inspectable latent representation.
Parameters are stored as float32 (the checkpoint payload dtype); all
arithmetic runs in float64 so results are deterministic and smooth.

Checkpoint format "PBL1": 4-byte magic, one compact JSON header line
(version, dims, vocab hash, training manifest), then the parameter arrays
as a flat little-endian float32 payload in declared order.
"""

import json
from dataclasses import dataclass
from itertools import chain

import numpy as np

CHECKPOINT_MAGIC = b"PBL1"
CHECKPOINT_VERSION = 1

# Payload order is part of the file format.
PARAM_FIELDS = ("embedding", "hidden_w", "hidden_b", "out_w", "out_b")
DIM_FIELDS = ("vocab_size", "embed_dim", "hidden_dim", "n_classes")
DEFAULT_DIM = 32  # default embedding and hidden width


@dataclass
class ModelParams:
    """All trainable parameters. Row ``mask_id`` (the last embedding row) is the mask embedding."""

    embedding: np.ndarray  # (vocab_size + 1, d)
    hidden_w: np.ndarray   # (d, h)
    hidden_b: np.ndarray   # (h,)
    out_w: np.ndarray      # (h, C)
    out_b: np.ndarray      # (C,)

    def __post_init__(self):
        for name in PARAM_FIELDS:
            setattr(self, name, np.ascontiguousarray(getattr(self, name), dtype=np.float32))

    @property
    def vocab_size(self) -> int:
        return self.embedding.shape[0] - 1

    @property
    def mask_id(self) -> int:
        return self.embedding.shape[0] - 1

    @property
    def embed_dim(self) -> int:
        return self.embedding.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.hidden_w.shape[1]

    @property
    def n_classes(self) -> int:
        return self.out_b.shape[0]

    def validate(self) -> None:
        if self.hidden_w.shape != (self.embed_dim, self.hidden_dim):
            raise ValueError("hidden_w shape inconsistent")
        if self.hidden_b.shape != (self.hidden_dim,):
            raise ValueError("hidden_b shape inconsistent")
        if self.out_w.shape != (self.hidden_dim, self.n_classes):
            raise ValueError("out_w shape inconsistent")
        for name in PARAM_FIELDS:
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"non-finite values in {name}")

    def copy(self) -> "ModelParams":
        return ModelParams(*(getattr(self, name).copy() for name in PARAM_FIELDS))

    def array_equal(self, other: "ModelParams") -> bool:
        return all(np.array_equal(getattr(self, n), getattr(other, n)) for n in PARAM_FIELDS)


@dataclass
class ForwardOutput:
    probs: np.ndarray   # (C,) nonnegative, sums to 1
    pooled: np.ndarray  # (h,) post-tanh hidden representation


def init_params(vocab_size: int, n_classes: int, embed_dim: int = DEFAULT_DIM, hidden_dim: int = DEFAULT_DIM,
                rng: np.random.Generator | None = None) -> ModelParams:
    """Fresh parameters: zero embeddings, random hidden/output weights, zero biases.

    Zero embeddings make every input indistinguishable at initialization
    (uniform output probabilities), so any structure the latent space
    acquires is attributable to training.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    return ModelParams(
        embedding=np.zeros((vocab_size + 1, embed_dim)),
        hidden_w=rng.normal(0.0, 1.0 / np.sqrt(embed_dim), size=(embed_dim, hidden_dim)),
        hidden_b=np.zeros(hidden_dim),
        out_w=rng.normal(0.0, 1.0 / np.sqrt(hidden_dim), size=(hidden_dim, n_classes)),
        out_b=np.zeros(n_classes),
    )


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def forward_means(params: ModelParams, means: np.ndarray):
    """Batch forward from precomputed mean embeddings (B, d) -> (probs (B, C), pooled (B, h))."""
    w_h = params.hidden_w.astype(np.float64)
    w_o = params.out_w.astype(np.float64)
    pooled = np.tanh(means @ w_h + params.hidden_b.astype(np.float64))
    probs = softmax(pooled @ w_o + params.out_b.astype(np.float64))
    return probs, pooled


def pack_tokens(sequences, mask_id: int):
    """The token layout of every pass: flat int64 ids plus one length per sequence.

    This is the one token-id range check: no sequence may be empty and every
    id must index the embedding table (the mask id included).
    """
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    if lengths.size == 0:
        raise ValueError("empty example list")
    if (lengths == 0).any():
        raise ValueError("empty token sequence")
    ids = np.fromiter(chain.from_iterable(sequences), dtype=np.int64, count=int(lengths.sum()))
    if ids.min() < 0 or ids.max() > mask_id:
        raise ValueError("token id outside embedding table")
    return ids, lengths


def batch_layout(ids: np.ndarray, lengths: np.ndarray, order: np.ndarray, batch_size: int, mask_id: int,
                 with_mask: bool):
    """Every mini-batch of ``order`` as its distinct embedding rows plus its token-count cells.

    ``ids``/``lengths`` are a packed layout (``pack_tokens``). Batch b holds
    sequences ``order[b * batch_size:][:batch_size]``. Its rows are
    ``rows[row_ptr[b]:row_ptr[b + 1]]``, ascending; ``with_mask`` puts the
    mask row among them, last (it is the largest id). Its (B_b, U_b) count
    matrix N is the bincount of ``cells[tok_ptr[b]:tok_ptr[b + 1]]``:
    ``N @ emb[rows] / lengths`` is every sequence's mean embedding, and
    ``N.T @ (dx / lengths)`` maps a gradient on those means back onto the rows.
    One sort over (batch, id) keys serves every batch. The arrays are int32
    whenever every key fits; the ``del``s keep the transient memory to a few
    token-length arrays.
    """
    n, width = order.size, mask_id + 1
    n_batches = -(-n // batch_size)
    dtype = np.int32 if n_batches * width < 2**31 else np.int64
    sel = lengths[order]
    ends = np.cumsum(sel)
    seq_batch = np.arange(n, dtype=dtype) // batch_size
    # Token t of the permuted layout is ids[t + shift of its sequence]; its key is batch * width + id.
    n_tok = int(ends[-1])
    at = np.arange(n_tok, dtype=dtype)
    at += np.repeat((np.cumsum(lengths)[order] - ends).astype(dtype), sel)
    keys = np.empty(n_tok + (n_batches if with_mask else 0), dtype=dtype)
    keys[:n_tok] = np.repeat(seq_batch * width, sel)
    keys[:n_tok] += ids[at]
    del at
    batch_base = np.arange(n_batches + 1, dtype=dtype) * width
    if with_mask:  # one mask key per batch, after the tokens
        keys[n_tok:] = batch_base[:-1] + mask_id
    # Sorting the keys gives the rows; each key's place among them is scattered back in place.
    perm = keys.argsort()
    rows = keys[perm]
    first = np.concatenate([[True], rows[1:] != rows[:-1]])
    rows = rows[first]
    rank = np.cumsum(first, dtype=dtype)
    rank -= 1
    keys[perm] = rank
    del perm, first, rank
    row_ptr = np.searchsorted(rows, batch_base).astype(dtype)
    width_b = np.diff(row_ptr)
    # A token's cell is (its sequence's place in the batch) * U_b + (its row's place among the batch's rows).
    cells = keys[:n_tok]
    cells += np.repeat((np.arange(n, dtype=dtype) % batch_size) * width_b[seq_batch] - row_ptr[seq_batch], sel)
    rows -= np.repeat(batch_base[:-1], width_b)
    tok_ptr = np.concatenate([[0], ends])[np.minimum(np.arange(n_batches + 1) * batch_size, n)]
    return rows, row_ptr.tolist(), cells, tok_ptr.tolist()


def batch_counts(layout, b: int, n_seqs: int):
    """Batch b's embedding rows and its (n_seqs, U) float64 token-count matrix."""
    rows, row_ptr, cells, tok_ptr = layout
    rows = rows[row_ptr[b] : row_ptr[b + 1]]
    counts = np.bincount(cells[tok_ptr[b] : tok_ptr[b + 1]], minlength=n_seqs * rows.size)
    return rows, counts.reshape(n_seqs, rows.size).astype(np.float64)


def mean_embeddings(params: ModelParams, ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(n, d) float64 mean embedding of every packed sequence."""
    starts = np.cumsum(lengths) - lengths
    table = params.embedding
    # Widen whichever is smaller, the table or the gathered rows; the float64 values are the same.
    rows = table.astype(np.float64)[ids] if table.shape[0] < ids.size else table[ids].astype(np.float64)
    return np.add.reduceat(rows, starts, axis=0) / lengths[:, None]


def forward(params: ModelParams, tokens) -> ForwardOutput:
    """Pure forward pass; the mask id is a valid input token."""
    probs, pooled = forward_means(params, mean_embeddings(params, *pack_tokens([tokens], params.mask_id)))
    return ForwardOutput(probs=probs[0], pooled=pooled[0])


def forward_examples(params: ModelParams, examples):
    """Vectorized forward over a list of examples -> (probs (B, C), pooled (B, h))."""
    ids, lengths = pack_tokens([ex.tokens for ex in examples], params.mask_id)
    return forward_means(params, mean_embeddings(params, ids, lengths))


def apply_mask(tokens, mask_positions, mask_id: int) -> tuple:
    toks = list(tokens)
    for pos in mask_positions:
        if not (0 <= pos < len(toks)):
            raise ValueError(f"mask position {pos} out of range for length {len(toks)}")
        toks[pos] = mask_id
    return tuple(toks)


def forward_masked(params: ModelParams, tokens, mask_positions) -> ForwardOutput:
    """Forward with the tokens at ``mask_positions`` replaced by the mask id."""
    return forward(params, apply_mask(tokens, mask_positions, params.mask_id))


def save(params: ModelParams, path, vocab_hash: str = "", manifest: dict | None = None) -> None:
    """Write a "PBL1" checkpoint; the payload round-trips bit-exactly."""
    params.validate()
    header = {
        "version": CHECKPOINT_VERSION,
        "dims": {key: getattr(params, key) for key in DIM_FIELDS},
        "vocab_hash": vocab_hash,
        "manifest": manifest or {},
    }
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write((json.dumps(header, sort_keys=True) + "\n").encode("utf-8"))
        for name in PARAM_FIELDS:
            arr = getattr(params, name)
            f.write(arr.astype("<f4", copy=False).tobytes(order="C"))


def load(path, vocab=None):
    """Read a "PBL1" checkpoint; returns (params, header).

    With ``vocab`` given, its content hash must match the stored one and
    the stored dims must fit it. A truncated or oversized payload is an
    error and no partial state is returned.
    """
    with open(path, "rb") as f:
        magic = f.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a PBL1 checkpoint")
        header_line = f.readline()
        if not header_line.endswith(b"\n"):
            raise ValueError(f"{path}: truncated header")
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise ValueError(f"{path}: corrupted header") from None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: corrupted header")
        if header.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {header.get('version')!r}")
        dims = header.get("dims")
        if not isinstance(dims, dict) or not all(
            type(dims.get(key)) is int and dims[key] > 0 for key in DIM_FIELDS
        ):
            raise ValueError(f"{path}: header 'dims' must give {', '.join(DIM_FIELDS)} as positive integers")
        shapes = {
            "embedding": (dims["vocab_size"] + 1, dims["embed_dim"]),
            "hidden_w": (dims["embed_dim"], dims["hidden_dim"]),
            "hidden_b": (dims["hidden_dim"],),
            "out_w": (dims["hidden_dim"], dims["n_classes"]),
            "out_b": (dims["n_classes"],),
        }
        payload = f.read()
    expected = sum(int(np.prod(s)) for s in shapes.values()) * 4
    if len(payload) != expected:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    if vocab is not None:
        if header.get("vocab_hash") and header["vocab_hash"] != vocab.content_hash():
            raise ValueError(f"{path}: checkpoint was saved for a different vocabulary")
        if dims["vocab_size"] != vocab.size:
            raise ValueError(f"{path}: vocab size {dims['vocab_size']} does not match vocabulary ({vocab.size})")
    arrays = {}
    offset = 0
    flat = np.frombuffer(payload, dtype="<f4")
    for name, shape in shapes.items():
        count = int(np.prod(shape))
        arrays[name] = flat[offset : offset + count].reshape(shape).copy()
        offset += count
    params = ModelParams(**arrays)
    params.validate()
    return params, header
