import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from pblab.corpus import CorpusSpec, Example, generate_corpus
from pblab.model import (
    BLOCK_VALUES,
    DEFAULT_DIM,
    PAIRWISE_BLOCK,
    PARAM_FIELDS,
    ModelParams,
    forward,
    forward_examples,
    forward_masked,
    forward_means,
    init_params,
    load,
    mean_embeddings,
    pack_tokens,
    save,
)


@pytest.fixture(scope="module")
def vocab():
    spec = CorpusSpec(n_languages=2, n_classes=3, n_min=4, n_max=8, p_signal=0.4, seed=3)
    return generate_corpus(spec, 4)[0]


def random_params(vocab, n_classes=3, seed=0, d=8, h=6):
    rng = np.random.default_rng(seed)
    return ModelParams(
        embedding=rng.normal(0, 0.5, (vocab.size + 1, d)),
        hidden_w=rng.normal(0, 0.5, (d, h)),
        hidden_b=rng.normal(0, 0.1, h),
        out_w=rng.normal(0, 0.5, (h, n_classes)),
        out_b=rng.normal(0, 0.1, n_classes),
    )


def test_zero_output_head_gives_uniform(vocab):
    params = random_params(vocab)
    params.out_w = np.zeros_like(params.out_w)
    params.out_b = np.zeros_like(params.out_b)
    out = forward(params, [0, 1, 2])
    assert np.allclose(out.probs, 1 / 3, atol=1e-12)


def test_token_permutation_invariance(vocab):
    params = random_params(vocab)
    a = forward(params, [0, 5, 9, 2])
    b = forward(params, [2, 9, 0, 5])
    assert np.array_equal(a.probs, b.probs)
    assert np.array_equal(a.pooled, b.pooled)


def test_all_mask_output_length_invariant(vocab):
    params = random_params(vocab)
    outs = [forward(params, [params.mask_id] * k).probs for k in (1, 3, 17)]
    assert np.allclose(outs[0], outs[1], atol=1e-12)
    assert np.allclose(outs[0], outs[2], atol=1e-12)


def test_probability_simplex_random_models(vocab):
    for seed in range(20):
        params = random_params(vocab, seed=seed)
        out = forward(params, [1, 2, 3, 4])
        assert (out.probs >= 0).all()
        assert abs(out.probs.sum() - 1.0) < 1e-9


def test_forward_pure(vocab):
    params = random_params(vocab)
    before = {n: getattr(params, n).copy() for n in ("embedding", "hidden_w", "out_w")}
    a = forward(params, [3, 4, 5])
    b = forward(params, [3, 4, 5])
    assert np.array_equal(a.probs, b.probs)
    for n, arr in before.items():
        assert np.array_equal(arr, getattr(params, n))


def test_forward_invalid_token(vocab):
    params = random_params(vocab)
    with pytest.raises(ValueError):
        forward(params, [vocab.size + 1])
    with pytest.raises(ValueError):
        forward(params, [])


def test_forward_masked_contracts(vocab):
    params = random_params(vocab)
    tokens = (1, 2, 3, 4)
    none = forward_masked(params, tokens, set())
    assert np.array_equal(none.probs, forward(params, tokens).probs)

    full = forward_masked(params, tokens, {0, 1, 2, 3})
    all_mask = forward(params, [params.mask_id] * 4)
    assert np.array_equal(full.probs, all_mask.probs)

    once = forward_masked(params, tokens, {1, 3})
    masked_tokens = tuple(params.mask_id if i in (1, 3) else t for i, t in enumerate(tokens))
    twice = forward_masked(params, masked_tokens, {1, 3})
    assert np.array_equal(once.probs, twice.probs)

    with pytest.raises(ValueError, match="out of range"):
        forward_masked(params, tokens, {4})


def test_forward_examples_matches_single(vocab):
    params = random_params(vocab)
    _, examples = generate_corpus(
        CorpusSpec(n_languages=2, n_classes=3, n_min=4, n_max=8, p_signal=0.4, seed=3), 4
    )
    probs, pooled = forward_examples(params, examples[:10])
    assert probs.shape == (10, 3) and pooled.shape == (10, 6)
    for i, ex in enumerate(examples[:10]):
        single = forward(params, ex.tokens)
        assert np.allclose(probs[i], single.probs, atol=1e-12)
        assert np.allclose(pooled[i], single.pooled, atol=1e-12)

    _, dup_pooled = forward_examples(params, [examples[0], examples[0]])
    assert np.array_equal(dup_pooled[0], dup_pooled[1])
    with pytest.raises(ValueError, match="empty"):
        forward_examples(params, [])


def test_init_params_uniform_at_start(vocab):
    params = init_params(vocab.size, 3, rng=np.random.default_rng(1))
    out = forward(params, [0, 1, 2])
    assert np.allclose(out.probs, 1 / 3, atol=1e-12)


def test_init_params_is_one_float32_table_and_draws_only_the_head():
    """At V = 100,000 the only sizable allocation is the float32 zero table, and the head draws ``hidden_w``
    then ``out_w`` from the stream, as a float64 normal draw rounded to float32."""
    V, C, d, h = 100_000, 3, 32, 16
    peak, params = traced_peak(lambda: init_params(V, C, d, h, rng=np.random.default_rng(9)))
    assert peak < 1.1 * (V + 1) * d * 4
    assert all(getattr(params, name).dtype == np.float32 for name in PARAM_FIELDS)
    assert params.embedding.shape == (V + 1, d) and not params.embedding.any()
    rng = np.random.default_rng(9)
    hidden_w, out_w = rng.normal(0.0, 1 / math.sqrt(d), (d, h)), rng.normal(0.0, 1 / math.sqrt(h), (h, C))
    assert np.array_equal(params.hidden_w, hidden_w.astype(np.float32))
    assert np.array_equal(params.out_w, out_w.astype(np.float32))
    assert not params.hidden_b.any() and not params.out_b.any()


def test_save_load_bitwise(tmp_path, vocab):
    params = random_params(vocab)
    path = tmp_path / "m.pbl"
    save(params, path, vocab_hash=vocab.content_hash(), manifest={"note": "test"})
    loaded, header = load(path, vocab)
    assert params.array_equal(loaded)
    assert all(getattr(loaded, n).dtype == np.float32 for n in ("embedding", "out_w"))
    assert header["manifest"]["note"] == "test"

    # save -> load -> save round-trips to identical bytes
    path2 = tmp_path / "m2.pbl"
    save(loaded, path2, vocab_hash=vocab.content_hash(), manifest={"note": "test"})
    assert path.read_bytes() == path2.read_bytes()


def test_load_wrong_vocab_hash(tmp_path, vocab):
    params = random_params(vocab)
    path = tmp_path / "m.pbl"
    save(params, path, vocab_hash="0" * 64)
    with pytest.raises(ValueError, match="different vocabulary"):
        load(path, vocab)


def test_load_truncated(tmp_path, vocab):
    params = random_params(vocab)
    path = tmp_path / "m.pbl"
    save(params, path, vocab_hash=vocab.content_hash())
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 17])
    with pytest.raises(ValueError, match="payload"):
        load(path)


def test_load_bad_magic_and_version(tmp_path, vocab):
    params = random_params(vocab)
    path = tmp_path / "m.pbl"
    save(params, path)
    data = path.read_bytes()
    path.write_bytes(b"XXXX" + data[4:])
    with pytest.raises(ValueError, match="not a PBL1"):
        load(path)
    version_swapped = data.replace(b'"version": 1', b'"version": 9', 1)
    path.write_bytes(version_swapped)
    with pytest.raises(ValueError, match="version"):
        load(path)


def test_load_dim_mismatch_vs_vocab(tmp_path, vocab):
    params = ModelParams(
        embedding=np.zeros((5, 4)), hidden_w=np.zeros((4, 4)), hidden_b=np.zeros(4),
        out_w=np.zeros((4, 2)), out_b=np.zeros(2),
    )
    path = tmp_path / "m.pbl"
    save(params, path)
    with pytest.raises(ValueError, match="vocab size"):
        load(path, vocab)


def test_params_validation():
    params = ModelParams(
        embedding=np.zeros((5, 4)), hidden_w=np.zeros((4, 4)), hidden_b=np.zeros(4),
        out_w=np.zeros((4, 2)), out_b=np.zeros(2),
    )
    params.validate()
    params.hidden_b = np.array([np.nan] * 4, dtype=np.float32)
    with pytest.raises(ValueError, match="non-finite"):
        params.validate()


@pytest.mark.parametrize("name, shape", [("hidden_w", (3, 4)), ("hidden_b", (3,)), ("out_w", (4, 3))],
                         ids=["hidden_w rows", "hidden_b", "out_w columns"])
def test_params_validation_names_the_inconsistent_shape(name, shape):
    """The dimensions are read off embedding (d), hidden_w (h) and out_b (C); an array that disagrees is named."""
    params = ModelParams(
        embedding=np.zeros((5, 4)), hidden_w=np.zeros((4, 4)), hidden_b=np.zeros(4),
        out_w=np.zeros((4, 2)), out_b=np.zeros(2),
    )
    setattr(params, name, np.zeros(shape))
    with pytest.raises(ValueError, match=f"^{name} shape inconsistent$"):
        params.validate()


@pytest.mark.parametrize("dims", [
    None,
    "not an object",
    {"embed_dim": 4, "hidden_dim": 4, "n_classes": 2},
    {"vocab_size": 4, "embed_dim": 4, "hidden_dim": 4, "n_classes": 0},
    {"vocab_size": 4, "embed_dim": -1, "hidden_dim": 4, "n_classes": 2},
    {"vocab_size": 4, "embed_dim": 4, "hidden_dim": 4.0, "n_classes": 2},
    {"vocab_size": True, "embed_dim": 4, "hidden_dim": 4, "n_classes": 2},
    {"vocab_size": "4", "embed_dim": 4, "hidden_dim": 4, "n_classes": 2},
])
def test_load_rejects_bad_dims(tmp_path, dims):
    header = {"version": 1} if dims is None else {"version": 1, "dims": dims}
    path = tmp_path / "m.pbl"
    path.write_bytes(b"PBL1" + json.dumps(header).encode() + b"\n")
    with pytest.raises(ValueError, match="dims"):
        load(path)


def test_load_rejects_non_object_header(tmp_path):
    path = tmp_path / "m.pbl"
    path.write_bytes(b"PBL1[1, 2]\n")
    with pytest.raises(ValueError, match="corrupted header"):
        load(path)


# ---------------------------------------------------------------- the one token packer

@pytest.mark.parametrize("mask_id, dtype", [(255, np.uint8), (256, np.uint16), (65_535, np.uint16),
                                            (65_536, np.uint32)])
def test_pack_tokens_ids_in_the_smallest_dtype_that_holds_the_mask_id(mask_id, dtype):
    seqs = [(0, mask_id), (mask_id - 1,), (1, 255, mask_id, 0)]
    ids, lengths = pack_tokens(seqs, mask_id)
    assert ids.dtype == dtype and lengths.dtype == np.int32
    assert np.array_equal(ids, np.array(list(itertools.chain.from_iterable(seqs)), dtype=np.int64))
    assert lengths.tolist() == [2, 1, 4]


@pytest.mark.parametrize("mask_id, bad", [(255, -1), (255, 256), (255, 2**70), (1000, -1), (1000, 1001),
                                          (1000, 2**16 + 5), (1000, 2**70), (255, np.int64(-1)),
                                          (255, np.uint16(300)), (1000, np.int64(-1)), (1000, np.uint32(2**16 + 5))])
def test_pack_tokens_rejects_an_id_outside_the_table(mask_id, bad):
    with pytest.raises(ValueError, match="outside embedding table"):
        pack_tokens([(0, 1), (2, bad, 3)], mask_id)


@pytest.mark.parametrize("bad", [1.5, 2.0, "2", np.float64(3.0), None])
def test_pack_tokens_rejects_an_id_that_is_not_an_integer(bad):
    with pytest.raises(ValueError, match="token id must be an integer"):
        pack_tokens([(0, 1), (2, bad, 3)], 255)


@pytest.mark.parametrize("token", [np.int64(3), np.uint8(3), np.uint16(3), np.int32(3)])
def test_pack_tokens_packs_a_numpy_integer_like_a_python_int(token):
    ids, lengths = pack_tokens([(1, token)], 255)
    expected_ids, expected_lengths = pack_tokens([(1, 3)], 255)
    assert ids.dtype == expected_ids.dtype and np.array_equal(ids, expected_ids)
    assert np.array_equal(lengths, expected_lengths)


def test_pack_tokens_memory_is_what_it_keeps():
    """3 x 60,000 sequences of 4-10 tokens at V = 1,000, about 1.26 M ids: read straight into uint16 (2.5 MB),
    the pack stays well below the 10 MB an int64 copy of the ids alone would take."""
    rng = np.random.default_rng(8)
    seqs = []
    for _ in range(3):
        lengths = rng.integers(4, 11, 60_000)
        seqs += [tuple(t.tolist()) for t in np.split(rng.integers(0, 1000, lengths.sum()), np.cumsum(lengths)[:-1])]
    peak, (ids, lengths) = traced_peak(lambda: pack_tokens(seqs, 1000))
    assert ids.dtype == np.uint16 and ids.size > 1_200_000
    assert peak < 8 * 2**20


# ---------------------------------------------------------------- bounded forward passes and checkpoint reads

def mean_embeddings_oneshot(table, ids, lengths):
    """Oracle: widen every gathered row at once, then one reduceat over them all."""
    starts = np.cumsum(lengths) - lengths
    return np.add.reduceat(np.take(table, ids, axis=-2).astype(np.float64), starts, axis=-2) / lengths[:, None]


def wide_range_table(shape, seed=0):
    """float32 values spread over many binades, so that any change of summation order changes the bits."""
    rng = np.random.default_rng(seed)
    return (rng.normal(size=shape) * np.exp(rng.normal(size=shape) * 4)).astype(np.float32)


@pytest.mark.parametrize("stack", [(), (1,), (3,)], ids=["plain", "K=1", "K=3"])
@pytest.mark.parametrize("case", ["single_tokens", "cross_blocks", "longer_than_three_blocks"])
def test_mean_embeddings_equals_oneshot_widen_then_reduceat(stack, case):
    V, d = 3000, 32
    table = wide_range_table((*stack, V + 1, d))
    block = BLOCK_VALUES // (math.prod(stack) * d)
    rng = np.random.default_rng(1)
    lengths = {
        "single_tokens": np.ones(3 * block + 5, dtype=np.int64),
        # many sequences of up to a block each: fixed token blocks would cut dozens of them
        "cross_blocks": rng.integers(1, block + 1, 60),
        "longer_than_three_blocks": np.array([3, 3 * block + 77, 1, 2 * PAIRWISE_BLOCK + 9, 5]),
    }[case]
    ids = rng.integers(0, V + 1, lengths.sum())
    got = mean_embeddings(table, ids, lengths)
    want = mean_embeddings_oneshot(table, ids, lengths)
    assert got.shape == want.shape == (*stack, lengths.size, d)
    assert np.array_equal(got, want)
    if case == "longer_than_three_blocks":  # the data tells summation orders apart
        rows = np.take(table, ids[3 : 3 + lengths[1]], axis=-2).astype(np.float64)
        assert not np.array_equal(np.cumsum(rows, axis=-2)[..., -1, :] / lengths[1], want[..., 1, :])


def test_forward_examples_equals_whole_batch_forward():
    """Chunks of many rows give each row the bits of the whole batch's BLAS product."""
    V, d, h, n = 3000, 32, 32, 5000
    rng = np.random.default_rng(2)
    params = ModelParams(wide_range_table((V + 1, d)), rng.normal(0, 0.3, (d, h)), rng.normal(0, 0.1, h),
                         rng.normal(0, 0.5, (h, 3)), rng.normal(0, 0.1, 3))
    lengths = rng.integers(1, 30, n)
    ids = rng.integers(0, V + 1, lengths.sum())
    bounds = np.concatenate([[0], np.cumsum(lengths)])
    examples = [Example(id=str(i), language=0, label=0, tokens=tuple(ids[bounds[i] : bounds[i + 1]].tolist()))
                for i in range(n)]
    assert n > 2 * BLOCK_VALUES // max(d, h)  # more than two chunks
    probs, pooled = forward_examples(params, examples)
    want_probs, want_pooled = forward_means(params, mean_embeddings_oneshot(params.embedding, ids, lengths))
    assert np.array_equal(pooled, want_pooled) and np.array_equal(probs, want_probs)


def traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def test_forward_examples_memory_is_output_plus_a_block():
    """20,000 x 25 tokens at V = 50,000: no float64 copy of the table or of every token's row."""
    V, d, n, length = 50_000, DEFAULT_DIM, 20_000, 25
    rng = np.random.default_rng(3)
    params = ModelParams(rng.normal(size=(V + 1, d)), rng.normal(size=(d, d)), rng.normal(size=d),
                         rng.normal(size=(d, 3)), rng.normal(size=3))
    ids = rng.integers(0, V + 1, (n, length)).tolist()
    examples = [Example(id=str(i), language=0, label=0, tokens=tuple(row)) for i, row in enumerate(ids)]
    peak, (probs, pooled) = traced_peak(lambda: forward_examples(params, examples))
    assert peak < probs.nbytes + pooled.nbytes + 4 * 2**20


def test_mean_embeddings_of_one_long_sequence_is_bounded():
    table = wide_range_table((5001, DEFAULT_DIM))
    ids = np.random.default_rng(4).integers(0, 5001, 200_000)
    peak, _ = traced_peak(lambda: mean_embeddings(table, ids, np.array([ids.size])))
    assert peak < 4 * 2**20


def test_load_reads_the_payload_once(tmp_path):
    rng = np.random.default_rng(5)
    params = ModelParams(rng.normal(size=(50_001, 32)), rng.normal(size=(32, 32)), rng.normal(size=32),
                         rng.normal(size=(32, 3)), rng.normal(size=3))
    save(params, tmp_path / "m.pbl")
    payload = sum(getattr(params, name).nbytes for name in PARAM_FIELDS)
    peak, (loaded, _) = traced_peak(lambda: load(tmp_path / "m.pbl"))
    assert loaded.array_equal(params)
    assert peak < 1.1 * payload


def write_header(path, dims, payload=b""):
    path.write_bytes(b"PBL1" + json.dumps({"version": 1, "dims": dims}).encode() + b"\n" + payload)


def test_load_rejects_dims_larger_than_the_file_before_allocating(tmp_path):
    path = tmp_path / "m.pbl"
    write_header(path, {"vocab_size": 2**40, "embed_dim": 4, "hidden_dim": 4, "n_classes": 2}, b"\0" * 64)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="payload"):
            load(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_load_rejects_one_trailing_byte(tmp_path, vocab):
    path = tmp_path / "m.pbl"
    save(random_params(vocab), path)
    path.write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="payload"):
        load(path)


def test_load_rejects_header_only_file(tmp_path):
    path = tmp_path / "m.pbl"
    write_header(path, {"vocab_size": 4, "embed_dim": 4, "hidden_dim": 4, "n_classes": 2})
    with pytest.raises(ValueError, match="payload"):
        load(path)
