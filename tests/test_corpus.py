import dataclasses
import hashlib
import json

import numpy as np
import pytest

from pblab.corpus import (
    CorpusSpec,
    Example,
    Vocab,
    _CHUNK_WORDS,
    _Draws,
    build_vocab,
    generate_corpus,
    ground_truth_category,
    load_jsonl,
    load_vocab,
    save_jsonl,
    save_vocab,
)
from pblab.experiment import SyntheticCorpus
from pblab.seeds import derive_rng
from test_acceptance import directional_config


def spec_223(**kw):
    base = dict(n_languages=2, n_classes=3, n_min=10, n_max=10, p_signal=0.3, p_noise=0.1,
                fillers_per_language=20, signals_per_language_class=5, seed=11)
    base.update(kw)
    return CorpusSpec(**base)


def test_degenerate_rates_all_signal():
    spec = spec_223(n_classes=2, p_signal=1.0, p_noise=0.0)
    vocab, examples = generate_corpus(spec, 30)
    for ex in examples:
        sig = vocab.signal_sets[ex.language][ex.label]
        assert all(t in sig for t in ex.tokens)


def test_per_cell_counts_and_category_frequencies():
    spec = spec_223()
    vocab, examples = generate_corpus(spec, 200)
    assert len(examples) == 2 * 3 * 200
    counts = {}
    for ex in examples:
        counts[(ex.language, ex.label)] = counts.get((ex.language, ex.label), 0) + 1
    assert all(c == 200 for c in counts.values())

    # Per-position category frequencies within 3-sigma binomial bounds.
    tallies = {"signal_pos": 0, "signal_other": 0, "filler": 0}
    total = 0
    for ex in examples:
        for t in ex.tokens:
            tallies[ground_truth_category(vocab, t, ex.language, ex.label)] += 1
            total += 1
    assert total >= 10_000
    for cat, p in (("signal_pos", 0.3), ("signal_other", 0.1), ("filler", 0.6)):
        bound = 3.0 * np.sqrt(p * (1 - p) / total)
        assert abs(tallies[cat] / total - p) <= bound, cat


def test_generation_deterministic():
    spec = spec_223()
    _, a = generate_corpus(spec, 50)
    _, b = generate_corpus(spec, 50)
    assert a == b


def test_spec_validation_errors():
    with pytest.raises(ValueError):
        spec_223(n_languages=1).validate()
    with pytest.raises(ValueError):
        spec_223(p_signal=0.0).validate()
    with pytest.raises(ValueError):
        spec_223(p_signal=0.7, p_noise=0.4).validate()
    # filler set would be empty while fillers can be drawn
    with pytest.raises(ValueError):
        spec_223(fillers_per_language=0).validate()
    with pytest.raises(ValueError):
        spec_223(signals_per_language_class=0).validate()
    # no filler draws possible: empty filler set is fine
    spec_223(p_signal=0.9, p_noise=0.1, fillers_per_language=0).validate()


def test_vocab_disjointness_after_generation():
    vocab, _ = generate_corpus(spec_223(), 5)
    vocab.validate()
    all_sets = list(vocab.filler_sets) + [s for per in vocab.signal_sets for s in per]
    seen = set()
    for s in all_sets:
        assert not (seen & s)
        seen |= s
    assert vocab.mask_id not in seen
    assert all(t < vocab.size for t in seen)


@pytest.mark.parametrize("missing", ["filler_sets", "signal_sets"])
def test_vocab_with_half_the_ground_truth_is_rejected(missing):
    """Ground truth is both token-set lists or neither: one alone is an error naming the other, not a vocabulary
    that quietly has none."""
    d = {k: v for k, v in build_vocab(spec_223()).to_dict().items() if k != missing}
    with pytest.raises(ValueError, match=f"'{missing}' is missing"):
        Vocab.from_dict(d)


def test_ground_truth_categories():
    vocab, _ = generate_corpus(spec_223(), 1)
    sig00 = next(iter(vocab.signal_sets[0][0]))
    sig01 = next(iter(vocab.signal_sets[0][1]))
    fill0 = next(iter(vocab.filler_sets[0]))
    fill1 = next(iter(vocab.filler_sets[1]))
    assert ground_truth_category(vocab, sig00, 0, 0) == "signal_pos"
    assert ground_truth_category(vocab, sig01, 0, 0) == "signal_other"
    assert ground_truth_category(vocab, fill0, 0, 0) == "filler"
    assert ground_truth_category(vocab, fill1, 0, 0) == "foreign"
    assert ground_truth_category(vocab, sig00, 1, 0) == "foreign"
    with pytest.raises(ValueError):
        ground_truth_category(vocab, vocab.mask_id, 0, 0)


def test_jsonl_round_trip_exact(tmp_path):
    vocab, examples = generate_corpus(spec_223(), 20)
    save_jsonl(examples, vocab, tmp_path / "c.jsonl")
    save_vocab(vocab, tmp_path / "v.json")
    vocab2 = load_vocab(tmp_path / "v.json")
    assert vocab2 == vocab
    loaded_vocab, loaded = load_jsonl(tmp_path / "c.jsonl", vocab2)
    assert loaded == examples
    assert loaded_vocab.content_hash() == vocab.content_hash()


def test_save_jsonl_lines_are_json_dumps_of_each_record(tmp_path):
    vocab = Vocab(token_strings=("plain", 'quo"te', "back\\slash", "caf\u00e9", "\u65e5\u672c", "tab\tnl\n",
                                 "\U0001f600"),
                  lang_names=("fr", 'l"1'), label_names=("x", "\u00fc\\"))
    examples = [Example(id="a", language=0, label=0, tokens=(0, 1, 2)),
                Example(id='b"\u00e9\\', language=1, label=1, tokens=(3, 4, 5, 6)),
                Example(id="c", language=1, label=0, tokens=(6,))]
    path = tmp_path / "odd.jsonl"
    save_jsonl(examples, vocab, path)
    expected = "".join(json.dumps({"id": ex.id, "lang": vocab.lang_names[ex.language],
                                   "label": vocab.label_names[ex.label],
                                   "tokens": [vocab.token_strings[t] for t in ex.tokens]}) + "\n"
                       for ex in examples)
    assert path.read_bytes() == expected.encode("utf-8")
    loaded_vocab, loaded = load_jsonl(path, vocab)
    assert loaded == examples and loaded_vocab == vocab


def test_load_fresh_vocab_first_seen_order(tmp_path):
    lines = [
        {"id": "a", "lang": "fr", "label": "x", "tokens": ["t1", "t2"]},
        {"id": "b", "lang": "en", "label": "y", "tokens": ["t2", "t3"]},
        {"id": "c", "lang": "fr", "label": "x", "text": "t3 t4"},
    ]
    path = tmp_path / "d.jsonl"
    path.write_text("\n".join(json.dumps(r) for r in lines) + "\n")
    vocab, examples = load_jsonl(path)
    assert len(examples) == 3
    assert vocab.token_strings == ("t1", "t2", "t3", "t4")
    assert vocab.mask_id == 4
    assert vocab.lang_names == ("fr", "en")
    assert vocab.label_names == ("x", "y")
    assert examples[2].tokens == (2, 3)
    assert not vocab.has_ground_truth
    vocab.validate()


def test_load_errors_name_line_and_id(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "lang": "fr", "label": "x", "tokens": ["t"]}\n'
                    '{"id": "b", "lang": "fr", "tokens": ["t"]}\n')
    with pytest.raises(ValueError, match="line 2.*label"):
        load_jsonl(path)

    path.write_text('{"id": "a", "lang": "fr", "label": "x", "tokens": ["t"]}\n'
                    '{"id": "a", "lang": "en", "label": "y", "tokens": ["u"]}\n')
    with pytest.raises(ValueError, match="duplicate id 'a'"):
        load_jsonl(path)


@pytest.mark.parametrize("record, field", [
    ({"id": "a", "lang": ["x"], "label": "0", "tokens": ["t"]}, "lang"),
    ({"id": "a", "lang": {"x": 1}, "label": "0", "tokens": ["t"]}, "lang"),
    ({"id": "a", "lang": None, "label": "0", "tokens": ["t"]}, "lang"),
    ({"id": "a", "lang": 1.5, "label": "0", "tokens": ["t"]}, "lang"),
    ({"id": "a", "lang": "x", "label": [0], "tokens": ["t"]}, "label"),
    ({"id": "a", "lang": "x", "label": True, "tokens": ["t"]}, "label"),
    ({"id": "a", "lang": "x", "label": "0", "text": 7}, "text"),
    ({"id": "a", "lang": "x", "label": "0", "text": ["t"]}, "text"),
    ({"id": [1], "lang": "x", "label": "0", "tokens": ["t"]}, "id"),
    ({"id": 1.5, "lang": "x", "label": "0", "tokens": ["t"]}, "id"),
], ids=["lang list", "lang object", "lang null", "lang float", "label list", "label bool",
        "text int", "text list", "id list", "id float"])
def test_load_rejects_mistyped_fields(tmp_path, record, field):
    path = tmp_path / "d.jsonl"
    path.write_text(json.dumps(record) + "\n")
    with pytest.raises(ValueError, match=f"line 1: '{field}' must be a string"):
        load_jsonl(path)


@pytest.mark.parametrize("with_vocab", [False, True], ids=["fresh vocab", "given vocab"])
@pytest.mark.parametrize("field", ['"tokens": []', '"text": "   "'])
def test_load_rejects_empty_token_sequence(tmp_path, field, with_vocab):
    path = tmp_path / "d.jsonl"
    path.write_text('{"id": "a", "lang": "fr", "label": "x", "tokens": ["t"]}\n'
                    f'{{"id": "b", "lang": "fr", "label": "x", {field}}}\n')
    vocab = Vocab(token_strings=("t",), lang_names=("fr",), label_names=("x",)) if with_vocab else None
    with pytest.raises(ValueError, match="line 2: empty token sequence"):
        load_jsonl(path, vocab)


def test_example_is_slotted_and_replace_still_works():
    ex = Example(id="a", language=0, label=1, tokens=(0, 1))
    assert not hasattr(ex, "__dict__")
    moved = dataclasses.replace(ex, language=1, tokens=(2,))
    assert moved == Example(id="a", language=1, label=1, tokens=(2,)) and ex.language == 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        ex.label = 2


def test_load_accepts_int_lang_and_label(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"id": "a", "lang": 3, "label": 0, "text": "t u"}\n')
    vocab, examples = load_jsonl(path)
    assert vocab.lang_names == ("3",) and vocab.label_names == ("0",)
    assert examples[0].tokens == (0, 1)


def test_load_ignores_unknown_fields(tmp_path):
    path = tmp_path / "d.jsonl"
    path.write_text('{"id": "a", "lang": "fr", "label": "x", "tokens": ["t"], "extra": 42}\n')
    _, examples = load_jsonl(path)
    assert len(examples) == 1


def test_load_with_vocab_rejects_unknown_token(tmp_path):
    vocab, examples = generate_corpus(spec_223(), 2)
    path = tmp_path / "d.jsonl"
    path.write_text('{"id": "z", "lang": "L0", "label": "0", "tokens": ["nope"]}\n')
    with pytest.raises(ValueError, match="unknown token 'nope'"):
        load_jsonl(path, vocab)


# ------------------------------------------------- generator vs numpy's scalar calls

def scalar_generate_corpus(spec: CorpusSpec, n_examples_per_cell: int):
    """The reference generator: one numpy Generator call per draw on each cell's stream."""
    vocab = build_vocab(spec)
    examples = []
    for lang in range(spec.n_languages):
        fillers = sorted(vocab.filler_sets[lang])
        signals = [sorted(s) for s in vocab.signal_sets[lang]]
        for label in range(spec.n_classes):
            rng = derive_rng(spec.seed, "corpus", "cell", lang, label)
            other_labels = [c for c in range(spec.n_classes) if c != label]
            for i in range(n_examples_per_cell):
                length = int(rng.integers(spec.n_min, spec.n_max + 1))
                toks = []
                for _ in range(length):
                    u = rng.random()
                    if u < spec.p_signal:
                        toks.append(signals[label][rng.integers(len(signals[label]))])
                    elif u < spec.p_signal + spec.p_noise:
                        c = other_labels[rng.integers(len(other_labels))]
                        toks.append(signals[c][rng.integers(len(signals[c]))])
                    else:
                        toks.append(fillers[rng.integers(len(fillers))])
                examples.append(
                    Example(id=f"{lang}:{label}:{i}", language=lang, label=label, tokens=tuple(int(t) for t in toks))
                )
    return vocab, examples


def _seeded_specs(count: int, seed: int = 2024):
    """``count`` (spec, n_examples_per_cell) pairs spread over the generator's parameter space."""
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(count):
        n_min = int(rng.integers(1, 7))
        p_signal = float(rng.uniform(0.05, 0.9))
        p_noise = 0.0 if rng.random() < 0.25 else float(rng.uniform(0.0, 1.0 - p_signal))
        spec = CorpusSpec(n_languages=int(rng.integers(2, 4)), n_classes=int(rng.integers(2, 5)),
                          n_min=n_min, n_max=n_min + int(rng.integers(0, 7)), p_signal=p_signal, p_noise=p_noise,
                          fillers_per_language=int(rng.integers(1, 31)),
                          signals_per_language_class=int(rng.integers(1, 9)), seed=int(rng.integers(0, 2**31)))
        cases.append((spec, int(rng.integers(1, 13))))
    return cases


# Each edge case empties one kind of draw, or (the last) runs a cell's stream past one chunk of words.
EDGE_CASES = {
    "n_min == n_max": (spec_223(n_min=6, n_max=6), 20),
    "two classes": (spec_223(n_classes=2, n_min=1, n_max=9), 20),
    "one filler": (spec_223(fillers_per_language=1), 20),
    "one signal": (spec_223(signals_per_language_class=1), 20),
    "p_noise 0": (spec_223(p_noise=0.0, n_min=2, n_max=12), 20),
    "no fillers": (spec_223(p_signal=0.65, p_noise=0.35, fillers_per_language=0), 20),
    "every draw of one value": (spec_223(n_classes=2, n_min=4, n_max=4, fillers_per_language=1,
                                         signals_per_language_class=1), 20),
    "longer than one chunk": (spec_223(n_classes=2, n_min=6, n_max=9), 700),
}
ORACLE_CASES = list(EDGE_CASES.values()) + _seeded_specs(46)


@pytest.mark.parametrize("spec, n_per_cell", ORACLE_CASES,
                         ids=list(EDGE_CASES) + [f"seeded-{i}" for i in range(len(ORACLE_CASES) - len(EDGE_CASES))])
def test_generate_corpus_equals_scalar_numpy_calls(spec, n_per_cell):
    vocab, examples = generate_corpus(spec, n_per_cell)
    ref_vocab, ref_examples = scalar_generate_corpus(spec, n_per_cell)
    assert vocab == ref_vocab
    assert examples == ref_examples


def test_oracle_cases_cover_a_multi_chunk_cell():
    spec, n_per_cell = EDGE_CASES["longer than one chunk"]
    _, examples = generate_corpus(spec, n_per_cell)
    # every token takes at least one 64-bit word (its random() draw)
    assert sum(len(ex.tokens) for ex in examples if (ex.language, ex.label) == (0, 0)) > _CHUNK_WORDS
    assert len(ORACLE_CASES) >= 50


@pytest.mark.parametrize("n", [5, 2**31 + 1, 3 * 2**30 + 7, 2**32 - 5])
def test_draws_replay_interleaved_generator_calls(n):
    """Interleaved random()/integers() calls, with ranges where Lemire rejection is frequent
    (n = 2**31 + 1 rejects about half its draws) and with one-value ranges, match the
    Generator's own scalar calls one for one, across chunks of raw words."""
    gen = np.random.default_rng(n)
    draws = _Draws(np.random.default_rng(n).bit_generator)
    ops = np.random.default_rng(n + 1).integers(0, 4, size=4 * _CHUNK_WORDS)
    # about a quarter are random() calls and half take a half-word each: past one chunk of words
    assert np.count_nonzero(ops == 0) + np.count_nonzero((ops == 1) | (ops == 2)) // 2 > _CHUNK_WORDS
    for step, op in enumerate(ops.tolist()):
        if op == 0:
            assert draws.random() == gen.random(), step
        else:
            bound = (n, 20, 1)[op - 1]
            assert draws.integers(bound) == gen.integers(bound), (step, bound)


def test_acceptance_corpus_bytes_pinned(tmp_path):
    """A change in numpy's PCG64 stream, or in the generator, changes every experiment; it fails here."""
    config = directional_config(tmp_path, 0.0)
    spec = SyntheticCorpus(**config.corpus, seed=0)
    vocab, examples = generate_corpus(spec, spec.n_examples_per_cell)
    save_jsonl(examples, vocab, tmp_path / "corpus.jsonl")
    digest = hashlib.sha256((tmp_path / "corpus.jsonl").read_bytes()).hexdigest()
    assert digest == "a628a2354744f53ce3987d6827ed29ae0f10e93905b90983dd8cca0ecacc961c"
