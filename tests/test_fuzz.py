"""Seeded byte-mutation fuzzing of every input loader, and random joint tables through the sampler: only
ValueError may escape.

Each target file is written once from valid data, then mutated many times
(bytes flipped, deleted, inserted, spans cut or replaced by JSON fragments)
with a stdlib ``random.Random``; every mutant is fed to its loader.
"""

import json
import random

import numpy as np
import pytest

from pblab.corpus import CorpusSpec, generate_corpus, load_jsonl, load_vocab, save_jsonl, save_vocab
from pblab.experiment import load_config
from pblab.model import init_params
from pblab.model import load as load_checkpoint
from pblab.model import save as save_checkpoint
from pblab.sampler import plan_counts, sample_paired
from pblab.seeds import derive_rng

TRIALS = 2000
FRAGMENTS = [b"", b"0", b"-1", b"1.5", b"1e400", b"true", b"null", b'"x"', b"[]", b"{}", b"[[1]]",
             b'{"a": 1}', b",", b":", b"\n", b"\xff", b"\xc3"]


def mutate(data: bytes, rng: random.Random) -> bytes:
    buf = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(len(buf) + 1)
        op = rng.randrange(5)
        if op == 0 and at < len(buf):
            buf[at] = rng.randrange(256)
        elif op == 1:
            del buf[at:at + rng.randint(1, 8)]
        elif op == 2:
            buf[at:at] = bytes([rng.randrange(256)])
        elif op == 3:
            buf[at:at + rng.randint(0, 12)] = rng.choice(FRAGMENTS)
        else:
            del buf[at:]
    return bytes(buf)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    vocab, examples = generate_corpus(CorpusSpec(n_languages=2, n_classes=2, n_min=2, n_max=4,
                                                 p_signal=0.5, fillers_per_language=3,
                                                 signals_per_language_class=2), 3)
    save_vocab(vocab, d / "vocab.json")
    save_jsonl(examples, vocab, d / "corpus.jsonl")
    params = init_params(vocab.size, vocab.n_classes, embed_dim=3, hidden_dim=2, rng=derive_rng(0, "fuzz"))
    save_checkpoint(params, d / "model.pbl", vocab_hash=vocab.content_hash())
    (d / "config.json").write_text(json.dumps({
        "name": "fuzz", "seeds": [0, 1],
        "corpus": {"n_languages": 2, "n_classes": 3, "n_min": 3, "n_max": 7, "p_signal": 0.3,
                   "p_noise": 0.1, "n_examples_per_cell": 50},
        "joint": {"probs": [[0.25, 1 / 6, 0.0833333333333334], [0.0833333333333333, 1 / 6, 0.25]]},
        "train_size": 120, "val_size": 30, "test_size": 60,
        "train": {"epochs": 2, "lr": 0.1}, "explain": {"target_labels": [0, 2], "theta": 0.01},
        "probe": {"k": 3, "l2": 1.0}, "out_dir": "out",
    }))
    return d, vocab


LOADERS = {
    "model.pbl": lambda path, vocab: load_checkpoint(path, vocab),
    "corpus.jsonl": lambda path, vocab: (load_jsonl(path), load_jsonl(path, vocab)),
    "vocab.json": lambda path, vocab: load_vocab(path),
    "config.json": lambda path, vocab: load_config(path),
}


@pytest.mark.parametrize("name", list(LOADERS))
def test_mutated_input_raises_only_value_error(inputs, tmp_path, name):
    d, vocab = inputs
    original = (d / name).read_bytes()
    LOADERS[name](d / name, vocab)  # the unmutated file loads
    rng = random.Random(f"fuzz/{name}")
    path = tmp_path / name
    for trial in range(TRIALS):
        mutant = mutate(original, rng)
        path.write_bytes(mutant)
        try:
            LOADERS[name](path, vocab)
        except ValueError:
            pass
        except Exception as e:  # anything else breaks the input contract
            pytest.fail(f"trial {trial}: {type(e).__name__}: {e}\nmutant: {mutant[:400]!r}")


def uniform_marginal_table(rng, L: int, C: int):
    """A random L x C table with both marginals uniform: 1/(L*C) plus a scaled outer product u v^T of two
    zero-sum vectors, which moves no row or column sum; the scale makes the smallest cell 0 at most."""
    u, v = rng.standard_normal(L), rng.standard_normal(C)
    skew = np.outer(u - u.mean(), v - v.mean())
    return 1 / (L * C) - rng.random() * skew / (L * C * max(skew.max(), 1e-12))


def nudged(rng, probs):
    """``probs`` with each language row shifted, spread evenly over its labels, by up to about twice the 1e-5
    relative tolerance of check_joint; the shifts sum to 0, so the total and the label marginal stay put."""
    L, C = probs.shape
    shift = rng.uniform(-2e-5, 2e-5, L) / L
    return probs + (shift - shift.mean())[:, None] / C


def test_fuzzed_joint_tables_plan_exact_rows_or_raise_value_error():
    """Seeded random uniform-marginal tables, nudged around the tolerance, at random n: a plan's every row
    sums to exactly n/L, or plan_counts raises ValueError; sample_paired on a small pool raises only ValueError."""
    rng = derive_rng(0, "fuzz", "plan")
    pools = {}
    planned = drawn = 0
    for trial in range(TRIALS // 4):
        L, C = int(rng.integers(2, 5)), int(rng.integers(2, 6))
        probs = uniform_marginal_table(rng, L, C)
        joint = nudged(rng, probs) if rng.random() < 0.5 else probs
        for top in (20, 10**6, 2**53 // L + 2):  # a multiple of L, or one more, up to just past 2**53
            n = L * int(rng.integers(0, top)) + int(rng.random() < 0.2)
            try:
                counts = plan_counts(joint, n)
            except ValueError:
                continue
            assert n % L == 0 and (counts >= 0).all(), (trial, n)
            assert counts.sum(axis=1).tolist() == [n // L] * L, (trial, n, joint.tolist())
            planned += 1
        if (L, C) not in pools:
            pools[L, C] = generate_corpus(CorpusSpec(n_languages=L, n_classes=C, n_min=1, n_max=2, p_signal=0.5,
                                                     fillers_per_language=2, signals_per_language_class=1), 6)[1]
        n = int(rng.integers(0, 8 * L * C))
        try:
            balanced, imbalanced, report = sample_paired(pools[L, C], joint, n, seed=trial)
        except ValueError:
            continue
        except Exception as e:  # anything else breaks the input contract
            pytest.fail(f"trial {trial}: sample_paired at n={n}: {type(e).__name__}: {e}\n{joint.tolist()}")
        assert len(balanced) == len(imbalanced) == n and report["overlap_achieved"] == report["overlap_max"]
        drawn += 1
    # The targets reach the planner and the draw, not only their errors.
    assert planned > TRIALS // 4 and drawn > TRIALS // 50
