"""Synthetic multilingual corpora with known-informative tokens, plus JSONL ingestion.

Synthetic languages use fully disjoint surface vocabularies. Each language
owns a set of filler tokens (uninformative) and, per class, a set of signal
tokens (informative for that class in that language). Generated corpora
therefore come with exact ground truth about which tokens carry label
information, which downstream attribution analyses can be checked against.
"""

import json
from dataclasses import dataclass
from itertools import chain

from .jsonio import write_json
from .seeds import derive_rng

_CHUNK_WORDS = 4096  # raw words a corpus cell reads at once: few calls, bounded memory


def _id_lists(value, count: int) -> bool:
    """True when ``value`` is a list of ``count`` lists of int token ids."""
    return (isinstance(value, list) and len(value) == count
            and all(isinstance(ids, list) and all(type(t) is int for t in ids) for ids in value))


@dataclass(frozen=True)
class Vocab:
    """Token inventory plus language/label dictionaries.

    ``token_strings`` holds the real surface tokens; the mask token is the
    single reserved id ``len(token_strings)`` and has no surface string.
    ``filler_sets``/``signal_sets`` record ground-truth token roles for
    synthetic corpora and are None for ingested data.
    """

    token_strings: tuple
    lang_names: tuple
    label_names: tuple
    filler_sets: tuple | None = None      # per language: frozenset of token ids
    signal_sets: tuple | None = None      # [language][class]: frozenset of token ids

    @property
    def size(self) -> int:
        return len(self.token_strings)

    @property
    def mask_id(self) -> int:
        return len(self.token_strings)

    @property
    def n_languages(self) -> int:
        return len(self.lang_names)

    @property
    def n_classes(self) -> int:
        return len(self.label_names)

    @property
    def has_ground_truth(self) -> bool:
        return self.filler_sets is not None and self.signal_sets is not None

    def validate(self) -> None:
        for key, names in (("tokens", self.token_strings), ("languages", self.lang_names),
                           ("labels", self.label_names)):
            if len(set(names)) != len(names):
                raise ValueError(f"vocabulary {key!r} must hold distinct names")
        if not self.has_ground_truth:
            return
        seen = set()
        groups = list(self.filler_sets) + [s for per_lang in self.signal_sets for s in per_lang]
        for group in groups:
            if self.mask_id in group:
                raise ValueError("mask id must not appear in any filler/signal set")
            if any(t >= self.size or t < 0 for t in group):
                raise ValueError("token id outside vocabulary")
            if seen & group:
                raise ValueError("filler/signal sets must be pairwise disjoint")
            seen |= group

    def to_dict(self) -> dict:
        d = {
            "tokens": list(self.token_strings),
            "mask_id": self.mask_id,
            "languages": list(self.lang_names),
            "labels": list(self.label_names),
        }
        if self.has_ground_truth:
            d["filler_sets"] = [sorted(s) for s in self.filler_sets]
            d["signal_sets"] = [[sorted(s) for s in per_lang] for per_lang in self.signal_sets]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Vocab":
        if not isinstance(d, dict):
            raise ValueError("vocabulary must be a JSON object")
        for key, kinds in (("tokens", (str,)), ("languages", (str,)), ("labels", (str, int))):
            if not isinstance(d.get(key), list) or not all(type(x) in kinds for x in d[key]):
                raise ValueError(f"vocabulary {key!r} must be a list of {' or '.join(k.__name__ for k in kinds)}")
        filler = signal = None
        if ("filler_sets" in d) != ("signal_sets" in d):  # ground truth is both sets or neither
            raise ValueError(f"vocabulary {'signal_sets' if 'filler_sets' in d else 'filler_sets'!r} is missing")
        if "filler_sets" in d:
            L, C = len(d["languages"]), len(d["labels"])
            if not _id_lists(d["filler_sets"], L):
                raise ValueError(f"vocabulary 'filler_sets' must be {L} lists of token ids, one per language")
            if not (isinstance(d["signal_sets"], list) and len(d["signal_sets"]) == L
                    and all(_id_lists(per_lang, C) for per_lang in d["signal_sets"])):
                raise ValueError(f"vocabulary 'signal_sets' must be {L} lists of {C} lists of token ids")
            filler = tuple(frozenset(s) for s in d["filler_sets"])
            signal = tuple(tuple(frozenset(s) for s in per_lang) for per_lang in d["signal_sets"])
        vocab = cls(
            token_strings=tuple(d["tokens"]),
            lang_names=tuple(d["languages"]),
            label_names=tuple(str(x) for x in d["labels"]),
            filler_sets=filler,
            signal_sets=signal,
        )
        if d.get("mask_id", vocab.mask_id) != vocab.mask_id:
            raise ValueError("mask_id in file does not match token count")
        vocab.validate()
        return vocab

    def content_hash(self) -> str:
        import hashlib

        blob = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()


@dataclass(frozen=True, slots=True)
class Example:
    """One datapoint: a token-id sequence with language, label and stable id."""

    id: str
    language: int
    label: int
    tokens: tuple


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters of the synthetic corpus generator.

    Per token position: with probability ``p_signal`` draw from the signal
    set of the example's (language, label); with probability ``p_noise``
    draw from a signal set of the same language but a different label
    (chosen uniformly); otherwise draw from the language's filler set.
    """

    n_languages: int
    n_classes: int
    n_min: int
    n_max: int
    p_signal: float
    p_noise: float = 0.0
    fillers_per_language: int = 20
    signals_per_language_class: int = 5
    seed: int = 0

    def validate(self) -> None:
        if self.n_languages < 2 or self.n_classes < 2:
            raise ValueError("need at least 2 languages and 2 classes")
        if not (1 <= self.n_min <= self.n_max):
            raise ValueError("need 1 <= n_min <= n_max")
        if not (0.0 < self.p_signal <= 1.0):
            raise ValueError("p_signal must be in (0, 1]")
        if not (0.0 <= self.p_noise < 1.0):
            raise ValueError("p_noise must be in [0, 1)")
        # Degenerate p_signal + p_noise == 1 is allowed (no filler draws).
        if self.p_signal + self.p_noise > 1.0:
            raise ValueError("p_signal + p_noise must not exceed 1")
        if self.signals_per_language_class < 1:
            raise ValueError("signal sets would be empty")
        if self.p_signal + self.p_noise < 1.0 and self.fillers_per_language < 1:
            raise ValueError("filler sets would be empty but filler draws are possible")


def build_vocab(spec: CorpusSpec) -> Vocab:
    """Vocabulary with disjoint per-language filler and per-(language,class) signal sets."""
    tokens = []
    filler_sets = []
    signal_sets = []
    for lang in range(spec.n_languages):
        start = len(tokens)
        tokens.extend(f"l{lang}_fill_{i}" for i in range(spec.fillers_per_language))
        filler_sets.append(frozenset(range(start, len(tokens))))
        per_class = []
        for c in range(spec.n_classes):
            start = len(tokens)
            tokens.extend(f"l{lang}_c{c}_sig_{i}" for i in range(spec.signals_per_language_class))
            per_class.append(frozenset(range(start, len(tokens))))
        signal_sets.append(tuple(per_class))
    vocab = Vocab(
        token_strings=tuple(tokens),
        lang_names=tuple(f"L{i}" for i in range(spec.n_languages)),
        label_names=tuple(str(c) for c in range(spec.n_classes)),
        filler_sets=tuple(filler_sets),
        signal_sets=tuple(signal_sets),
    )
    vocab.validate()
    return vocab


class _Draws:
    """numpy ``Generator.random()`` / ``Generator.integers(n)`` scalar calls, replayed in Python.

    The draws are computed from the bit generator's raw 64-bit words, read
    ``_CHUNK_WORDS`` at a time, exactly as numpy computes them: ``random()``
    is one word's top 53 bits; ``integers(n)`` takes 32-bit halves, the low
    half of a fresh word first with its high half kept for the next
    ``integers`` call (random() calls in between do not touch it), and
    rejects by Lemire's method; ``integers(1)`` draws nothing. Only valid on
    a bit generator no other caller draws from.
    """

    __slots__ = ("_word", "_high")

    def __init__(self, bit_generator):
        chunks = iter(lambda: bit_generator.random_raw(_CHUNK_WORDS).tolist(), None)
        self._word = chain.from_iterable(chunks).__next__
        self._high = None

    def random(self) -> float:
        return (self._word() >> 11) * 2**-53

    def integers(self, n: int) -> int:
        """Uniform on [0, n) for 1 <= n < 2**32."""
        if n == 1:
            return 0
        while True:
            if self._high is None:
                word = self._word()
                self._high = word >> 32
                m = (word & 0xFFFFFFFF) * n
            else:
                m = self._high * n
                self._high = None
            # Lemire: reject while the low half is below (2**32 - n) % n, a bound below n.
            if (m & 0xFFFFFFFF) >= n or (m & 0xFFFFFFFF) >= (2**32 - n) % n:
                return m >> 32


def generate_corpus(spec: CorpusSpec, n_examples_per_cell: int):
    """Generate exactly ``n_examples_per_cell`` examples for every (language, label) cell.

    Deterministic given ``spec.seed``; each cell draws from its own derived
    stream, so changing one cell's size never perturbs the others. The corpus
    is the one numpy's scalar ``integers``/``random`` calls on each cell's
    Generator would give (``_Draws`` replays them).

    Returns (vocab, examples).
    """
    spec.validate()
    if n_examples_per_cell < 1:
        raise ValueError("n_examples_per_cell must be >= 1")
    vocab = build_vocab(spec)
    examples = []
    p_signal, p_signal_or_noise = spec.p_signal, spec.p_signal + spec.p_noise
    n_lengths = spec.n_max - spec.n_min + 1
    for lang in range(spec.n_languages):
        fillers = sorted(vocab.filler_sets[lang])
        signals = [sorted(s) for s in vocab.signal_sets[lang]]
        for label in range(spec.n_classes):
            draws = _Draws(derive_rng(spec.seed, "corpus", "cell", lang, label).bit_generator)
            random, integers = draws.random, draws.integers
            own = signals[label]
            other_labels = [c for c in range(spec.n_classes) if c != label]
            n_own, n_other, n_fillers = len(own), len(other_labels), len(fillers)
            for i in range(n_examples_per_cell):
                toks = []
                for _ in range(spec.n_min + integers(n_lengths)):
                    u = random()
                    if u < p_signal:
                        toks.append(own[integers(n_own)])
                    elif u < p_signal_or_noise:
                        c = other_labels[integers(n_other)]
                        toks.append(signals[c][integers(len(signals[c]))])
                    else:
                        toks.append(fillers[integers(n_fillers)])
                examples.append(Example(id=f"{lang}:{label}:{i}", language=lang, label=label, tokens=tuple(toks)))
    return vocab, examples


def ground_truth_category(vocab: Vocab, token: int, language: int, label: int) -> str:
    """Classify a token id relative to (language, label) by set membership.

    ``signal_pos``: signal for this (language, label); ``signal_other``:
    signal for another label of the same language; ``filler``: filler of
    this language; ``foreign``: not part of this language's vocabulary.
    """
    if not vocab.has_ground_truth:
        raise ValueError("vocabulary carries no ground-truth token sets")
    if not (0 <= token < vocab.size):
        raise ValueError(f"token id {token} outside vocabulary")
    if token in vocab.signal_sets[language][label]:
        return "signal_pos"
    for c in range(vocab.n_classes):
        if c != label and token in vocab.signal_sets[language][c]:
            return "signal_other"
    if token in vocab.filler_sets[language]:
        return "filler"
    return "foreign"


def save_vocab(vocab: Vocab, path) -> None:
    write_json(path, vocab.to_dict())


def load_vocab(path) -> Vocab:
    with open(path, encoding="utf-8") as f:
        return Vocab.from_dict(json.load(f))


def save_jsonl(examples, vocab: Vocab, path) -> None:
    """Write examples as one JSON record per line, in surface form.

    Each line is byte for byte ``json.dumps`` of the record {"id", "lang",
    "label", "tokens"}; every vocabulary string is encoded once per call.
    """
    tokens = [json.dumps(t) for t in vocab.token_strings]
    langs = [json.dumps(name) for name in vocab.lang_names]
    labels = [json.dumps(name) for name in vocab.label_names]
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(
            f'{{"id": {json.dumps(ex.id)}, "lang": {langs[ex.language]}, "label": {labels[ex.label]}, '
            f'"tokens": [{", ".join([tokens[t] for t in ex.tokens])}]}}\n'
            for ex in examples
        )


def load_jsonl(path, vocab: Vocab | None = None):
    """Load a JSONL dataset.

    Records: {"id": str, "lang": str, "label": str-or-int, "tokens": [str]}
    or "text" (whitespace-tokenized) instead of "tokens". Unknown fields are
    ignored. With ``vocab`` given (e.g. from a sidecar file), tokens and
    language/label names are mapped through it and unseen values are errors;
    otherwise a fresh vocabulary is built, with tokens, languages and labels
    mapped to dense ids in first-seen order and a fresh mask id appended.
    Either way every token id lies in the vocabulary and none is the mask id.

    Returns (vocab, examples).
    """
    fresh = vocab is None
    if fresh:
        token_ids: dict = {}
        lang_ids: dict = {}
        label_ids: dict = {}
    else:
        token_ids = {s: i for i, s in enumerate(vocab.token_strings)}
        lang_ids = {s: i for i, s in enumerate(vocab.lang_names)}
        label_ids = {s: i for i, s in enumerate(vocab.label_names)}

    examples = []
    seen_ids = set()
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise ValueError(f"{path}: line {lineno}: invalid JSON ({e.msg})") from None
            if not isinstance(rec, dict):
                raise ValueError(f"{path}: line {lineno}: record is not an object")
            for field in ("id", "lang", "label"):
                if field not in rec:
                    raise ValueError(f"{path}: line {lineno}: missing field {field!r}")
            if "tokens" in rec:
                tokens = rec["tokens"]
                if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
                    raise ValueError(f"{path}: line {lineno}: 'tokens' must be a list of strings")
            elif "text" in rec:
                if not isinstance(rec["text"], str):
                    raise ValueError(f"{path}: line {lineno}: 'text' must be a string")
                tokens = rec["text"].split()
            else:
                raise ValueError(f"{path}: line {lineno}: need 'tokens' or 'text'")
            if not tokens:
                raise ValueError(f"{path}: line {lineno}: empty token sequence")

            for field in ("id", "lang", "label"):
                if type(rec[field]) not in (str, int):
                    raise ValueError(f"{path}: line {lineno}: {field!r} must be a string or an int")
            ex_id = str(rec["id"])
            if ex_id in seen_ids:
                raise ValueError(f"{path}: line {lineno}: duplicate id {ex_id!r}")
            seen_ids.add(ex_id)
            lang_key = str(rec["lang"])
            label_key = str(rec["label"])
            if fresh:
                lang = lang_ids.setdefault(lang_key, len(lang_ids))
                label = label_ids.setdefault(label_key, len(label_ids))
                tok_ids = [token_ids.setdefault(t, len(token_ids)) for t in tokens]
            else:
                try:
                    lang = lang_ids[lang_key]
                except KeyError:
                    raise ValueError(f"{path}: line {lineno}: unknown language {lang_key!r}") from None
                try:
                    label = label_ids[label_key]
                except KeyError:
                    raise ValueError(f"{path}: line {lineno}: unknown label {label_key!r}") from None
                try:
                    tok_ids = [token_ids[t] for t in tokens]
                except KeyError as e:
                    raise ValueError(f"{path}: line {lineno}: unknown token {e.args[0]!r}") from None
            examples.append(Example(id=ex_id, language=lang, label=label, tokens=tuple(tok_ids)))

    if fresh:
        vocab = Vocab(
            token_strings=tuple(token_ids),
            lang_names=tuple(lang_ids),
            label_names=tuple(label_ids),
        )
    return vocab, examples
