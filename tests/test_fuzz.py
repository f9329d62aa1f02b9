"""Seeded byte-mutation fuzzing of every input loader: only ValueError may escape.

Each target file is written once from valid data, then mutated many times
(bytes flipped, deleted, inserted, spans cut or replaced by JSON fragments)
with a stdlib ``random.Random``; every mutant is fed to its loader.
"""

import json
import random

import pytest

from pblab.corpus import CorpusSpec, generate_corpus, load_jsonl, load_vocab, save_jsonl, save_vocab
from pblab.experiment import load_config
from pblab.model import init_params
from pblab.model import load as load_checkpoint
from pblab.model import save as save_checkpoint
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
