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
import math
import operator
import os
from dataclasses import dataclass
from itertools import chain

import numpy as np

CHECKPOINT_MAGIC = b"PBL1"
CHECKPOINT_VERSION = 1

# Payload order is part of the file format.
PARAM_FIELDS = ("embedding", "hidden_w", "hidden_b", "out_w", "out_b")
DIM_FIELDS = ("vocab_size", "embed_dim", "hidden_dim", "n_classes")
DEFAULT_DIM = 32  # default embedding and hidden width
BLOCK_VALUES = 2**16  # float64 values a forward pass widens at a time, whatever the table's stack and width
PAIRWISE_BLOCK = 128  # numpy sums more values than this pairwise, as two halves


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
        for name in PARAM_FIELDS:  # a float64 sum of float32 values is finite iff every value is
            if not math.isfinite(np.sum(getattr(self, name), dtype=np.float64)):
                raise ValueError(f"non-finite values in {name}")

    def copy(self) -> "ModelParams":
        return ModelParams(*(getattr(self, name).copy() for name in PARAM_FIELDS))

    def array_equal(self, other: "ModelParams") -> bool:
        return all(np.array_equal(getattr(self, n), getattr(other, n)) for n in PARAM_FIELDS)


@dataclass
class ForwardOutput:
    probs: np.ndarray   # (C,) nonnegative, sums to 1
    pooled: np.ndarray  # (h,) post-tanh hidden representation


def init_params(vocab_size: int, n_classes: int, embed_dim: int = DEFAULT_DIM, hidden_dim: int = DEFAULT_DIM, *,
                rng: "np.random.Generator") -> ModelParams:
    """Fresh parameters: a float32 zero embedding table, and a head that alone draws from ``rng`` (``_init_head``).

    Zero embeddings make every input indistinguishable at initialization
    (uniform output probabilities), so any structure the latent space
    acquires is attributable to training.
    """
    return ModelParams(np.zeros((vocab_size + 1, embed_dim), dtype=np.float32),
                       *_init_head(n_classes, embed_dim, hidden_dim, rng))


def _init_head(n_classes: int, embed_dim: int, hidden_dim: int, rng: "np.random.Generator") -> tuple:
    """The fresh head in ``PARAM_FIELDS`` order: random weights, ``hidden_w`` drawn before ``out_w``, zero biases."""
    return (rng.normal(0.0, 1.0 / np.sqrt(embed_dim), size=(embed_dim, hidden_dim)), np.zeros(hidden_dim),
            rng.normal(0.0, 1.0 / np.sqrt(hidden_dim), size=(hidden_dim, n_classes)), np.zeros(n_classes))


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
    """The token layout of every pass: flat ids in the smallest dtype that holds ``mask_id``, and int32 lengths.

    This is the one token-id range check: no sequence may be empty and every id must index the embedding
    table (the mask id included). ``operator.index`` refuses a float or a string and makes each id a Python int,
    which numpy 2 reads straight into the narrow dtype (no int64 copy) and refuses when it does not fit, such as -1.
    """
    lengths = np.array([len(s) for s in sequences], dtype=np.int32)
    if lengths.size == 0:
        raise ValueError("empty example list")
    if (lengths == 0).any():
        raise ValueError("empty token sequence")
    try:
        ids = np.fromiter(map(operator.index, chain.from_iterable(sequences)), dtype=np.min_scalar_type(mask_id),
                          count=int(lengths.sum()))
    except TypeError as e:
        raise ValueError(f"token id must be an integer: {e}") from None
    except OverflowError:
        raise ValueError("token id outside embedding table") from None
    if ids.max() > mask_id:
        raise ValueError("token id outside embedding table")
    return ids, lengths


def mean_embeddings(table: np.ndarray, ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(..., n, d) float64 mean embedding of every packed sequence under a (..., V + 1, d) table.

    Rows are gathered and widened a block of about BLOCK_VALUES values at a time. ``np.add.reduceat`` sums
    a sequence as its first row plus numpy's pairwise sum of the rest; a block holds whole sequences, and a
    longer one's rest goes through ``_pairwise_rows``. So each mean has the bits of one reduceat over all rows.
    """
    block = max(PAIRWISE_BLOCK, BLOCK_VALUES // (math.prod(table.shape[:-2]) * table.shape[-1]))
    ends = np.cumsum(lengths)
    starts = ends - lengths
    out = np.empty((*table.shape[:-2], lengths.size, table.shape[-1]))
    i = 0
    while i < lengths.size:
        lo, j = starts[i], max(i + 1, int(np.searchsorted(ends, starts[i] + block, side="right")))
        if lengths[i] > block:  # a block of its own: j == i + 1
            out[..., i, :] = _pairwise_rows(table, ids[lo + 1 : ends[i]], block, np.take(table, ids[lo], axis=-2))
        else:
            rows = np.take(table, ids[lo : ends[j - 1]], axis=-2).astype(np.float64)
            np.add.reduceat(rows, starts[i:j] - lo, axis=-2, out=out[..., i:j, :])
        i = j
    return np.divide(out, lengths[:, None], out=out)


def _pairwise_rows(table: np.ndarray, ids: np.ndarray, block: int, first=-0.0) -> np.ndarray:
    """``first`` plus numpy's pairwise sum of the widened rows ``table[..., ids, :]``, as a reduceat over
    ``first`` and the rows gives it, split as numpy splits it (-0.0 + x is x)."""
    if ids.size > block:
        half = ids.size // 16 * 8  # numpy's split: half the rows, rounded down to a multiple of 8
        return first + (_pairwise_rows(table, ids[:half], block) + _pairwise_rows(table, ids[half:], block))
    rows = np.empty((*table.shape[:-2], ids.size + 1, table.shape[-1]))
    rows[..., 0, :] = first
    rows[..., 1:, :] = np.take(table, ids, axis=-2)
    return np.add.reduceat(rows, [0], axis=-2)[..., 0, :]


def forward(params: ModelParams, tokens) -> ForwardOutput:
    """Pure forward pass; the mask id is a valid input token."""
    probs, pooled = forward_means(params, mean_embeddings(params.embedding, *pack_tokens([tokens], params.mask_id)))
    return ForwardOutput(probs=probs[0], pooled=pooled[0])


def forward_examples(params: ModelParams, examples):
    """Vectorized forward over a list of examples -> (probs (B, C), pooled (B, h)).

    The examples go through in even chunks of about BLOCK_VALUES / max(d, h), each packed on its own, so the
    pass holds its output and one chunk. A chunk of a larger batch has many rows, and a BLAS product of more
    than one row gives each row the bits of the whole batch's product (gemv, for one row, would not).
    """
    seqs = [ex.tokens for ex in examples]
    n_chunks = -(-len(seqs) * max(params.embed_dim, params.hidden_dim) // BLOCK_VALUES) or 1
    probs, pooled = np.empty((len(seqs), params.n_classes)), np.empty((len(seqs), params.hidden_dim))
    for c in range(n_chunks):
        lo, hi = len(seqs) * c // n_chunks, len(seqs) * (c + 1) // n_chunks
        probs[lo:hi], pooled[lo:hi] = forward_means(
            params, mean_embeddings(params.embedding, *pack_tokens(seqs[lo:hi], params.mask_id)))
    return probs, pooled


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
            f.write(np.ascontiguousarray(getattr(params, name), dtype="<f4"))  # its own buffer when C-contiguous


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
        v, d, h, c = (dims[key] for key in DIM_FIELDS)
        shapes = {"embedding": (v + 1, d), "hidden_w": (d, h), "hidden_b": (h,), "out_w": (h, c), "out_b": (c,)}
        # The size check comes before any allocation, so a header claiming huge dims costs nothing.
        sizes = [math.prod(shape) for shape in shapes.values()]
        expected = sum(sizes) * 4
        size = os.fstat(f.fileno()).st_size - f.tell()
        if size != expected:
            raise ValueError(f"{path}: payload is {size} bytes, expected {expected}")
        flat = np.fromfile(f, dtype="<f4", count=expected // 4)
    if vocab is not None:
        if header.get("vocab_hash") and header["vocab_hash"] != vocab.content_hash():
            raise ValueError(f"{path}: checkpoint was saved for a different vocabulary")
        if dims["vocab_size"] != vocab.size:
            raise ValueError(f"{path}: vocab size {dims['vocab_size']} does not match vocabulary ({vocab.size})")
    parts = np.split(flat, np.cumsum(sizes)[:-1])  # every field a view of the one payload buffer
    params = ModelParams(*(part.reshape(shape) for part, shape in zip(parts, shapes.values())))
    params.validate()
    return params, header
