"""Backoff n-gram language model: counting, Witten-Bell smoothing, ARPA I/O.

Smoothing is interpolated Witten-Bell:

    p(w | h) = (c(h,w) + T(h) * p(w | h')) / (C(h) + T(h))

where C(h) is how often history h was followed by anything, T(h) the
number of distinct successors, and h' the history with its first word
dropped.  The base case interpolates with the uniform distribution over
the full vocabulary, so p sums to one over the vocabulary for every
history; expressed in backoff form, bow(h) = T(h) / (C(h) + T(h)).

All probabilities and backoff weights are log10, matching ARPA files.
Training sentences are lowercased, wrapped in <s>...</s>, and words
outside the vocabulary are counted as <unk>.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field

BOS_WORD = "<s>"
EOS_WORD = "</s>"
UNK_WORD = "<unk>"
RESERVED_WORDS = (BOS_WORD, EOS_WORD, UNK_WORD)

# Ngram entries are (log10 prob, log10 backoff weight or None).
_Entry = tuple[float, "float | None"]


class EmptyCorpusError(ValueError):
    """Raised when LM training receives no usable sentences."""


class ArpaFormatError(ValueError):
    """Raised on malformed ARPA input, with a line number in the message."""


@dataclass(frozen=True)
class Vocabulary:
    """Unique word list with the reserved markers always present first."""

    words: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {w: i for i, w in enumerate(self.words)})
        if len(self._index) != len(self.words):
            raise ValueError("vocabulary contains duplicate words")

    @classmethod
    def from_words(cls, words) -> "Vocabulary":
        extra = sorted(set(words) - set(RESERVED_WORDS))
        return cls(RESERVED_WORDS + tuple(extra))

    @classmethod
    def build(cls, corpus_text) -> "Vocabulary":
        """Unique lowercased whitespace tokens of the corpus, plus reserved words."""
        seen: set[str] = set()
        for sentence in corpus_text:
            seen.update(sentence.lower().split())
        return cls.from_words(seen)

    @classmethod
    def from_text(cls, text: str) -> "Vocabulary":
        return cls.from_words(w for w in text.splitlines() if w.strip())

    def to_text(self) -> str:
        """One corpus word per line (reserved markers are implicit)."""
        words = [w for w in self.words if w not in RESERVED_WORDS]
        return "\n".join(words) + ("\n" if words else "")

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in self._index

    def __iter__(self):
        return iter(self.words)

    def index(self, word: str) -> int:
        return self._index.get(word, self._index[UNK_WORD])


@dataclass
class LmScore:
    """Total log10 probability of a scored sequence plus bookkeeping."""

    total: float
    oov_count: int
    ngrams_used: tuple[int, ...]


class NGramModel:
    """Immutable after training; safe to score from many threads at once."""

    def __init__(self, order: int, vocab: Vocabulary, tables: list[dict[tuple[str, ...], _Entry]]):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.vocab = vocab
        self.tables = tables  # tables[n-1] maps n-word tuples to entries

    def map_word(self, word: str) -> str:
        return word if word in self.vocab else UNK_WORD

    def logprob(self, word: str, history=()) -> float:
        """log10 p(word | history) with standard backoff recursion.

        Inputs are expected already lowercased; OOV words fall back to
        <unk>.  Histories longer than order-1 are truncated on the left.
        """
        return self._logprob(self.map_word(word), tuple(history))[0]

    def _logprob(self, word: str, history: tuple[str, ...]) -> tuple[float, int]:
        h = history[-(self.order - 1) :] if self.order > 1 else ()
        h = tuple(self.map_word(w) for w in h)
        penalty = 0.0
        while True:
            entry = self.tables[len(h)].get(h + (word,))
            if entry is not None:
                return penalty + entry[0], len(h) + 1
            if not h:
                # Unigram missing: only possible for hand-written ARPA files
                # that omit a reserved word. Use the -99 placeholder value.
                return penalty - 99.0, 1
            bow_entry = self.tables[len(h) - 1].get(h)
            if bow_entry is not None and bow_entry[1] is not None:
                penalty += bow_entry[1]
            h = h[1:]


def train_lm(corpus_text, order: int = 3, vocab: Vocabulary | None = None) -> NGramModel:
    """Count n-grams up to ``order`` and build the smoothed model.

    ``corpus_text`` is an iterable of sentence strings.  Raises
    EmptyCorpusError when no non-blank sentence is present.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    sentences = [s.lower().split() for s in corpus_text if s.strip()]
    if not sentences:
        raise EmptyCorpusError("no data")
    if vocab is None:
        vocab = Vocabulary.from_words(w for words in sentences for w in words)

    counts: list[Counter] = [Counter() for _ in range(order)]
    for words in sentences:
        padded = [BOS_WORD] + [w if w in vocab else UNK_WORD for w in words] + [EOS_WORD]
        # <s> is context only, never a predicted unigram event
        for i in range(1, len(padded)):
            counts[0][(padded[i],)] += 1
        for n in range(2, order + 1):
            for i in range(len(padded) - n + 1):
                counts[n - 1][tuple(padded[i : i + n])] += 1

    # Context statistics per history length: C(h) and T(h)
    ctx_total: list[dict] = [defaultdict(int) for _ in range(order)]
    ctx_types: list[dict] = [defaultdict(int) for _ in range(order)]
    for n in range(1, order + 1):
        for gram, c in counts[n - 1].items():
            h = gram[:-1]
            ctx_total[len(h)][h] += c
            ctx_types[len(h)][h] += 1

    # Probabilities bottom-up, in the linear domain for exactness
    probs: list[dict[tuple[str, ...], float]] = [dict() for _ in range(order)]
    uniform = 1.0 / len(vocab)
    t0 = ctx_types[0][()]
    c0 = ctx_total[0][()]

    def lower_prob(word: str, history: tuple[str, ...]) -> float:
        while True:
            p = probs[len(history)].get(history + (word,))
            if p is not None:
                return p
            if not history:
                raise AssertionError("unigram table must cover the vocabulary")
            t = ctx_types[len(history)].get(history, 0)
            c = ctx_total[len(history)].get(history, 0)
            if t:
                # multiply by bow(h) = T/(C+T) in the linear domain
                return (t / (c + t)) * lower_prob(word, history[1:])
            history = history[1:]

    for w in vocab:
        probs[0][(w,)] = (counts[0].get((w,), 0) + t0 * uniform) / (c0 + t0)
    for n in range(2, order + 1):
        for gram, c in counts[n - 1].items():
            h = gram[:-1]
            t = ctx_types[len(h)][h]
            ctotal = ctx_total[len(h)][h]
            probs[n - 1][gram] = (c + t * lower_prob(gram[-1], h[1:])) / (ctotal + t)

    tables: list[dict[tuple[str, ...], _Entry]] = [dict() for _ in range(order)]
    for n in range(1, order + 1):
        for gram, p in probs[n - 1].items():
            bow = None
            if n < order:
                t = ctx_types[n].get(gram, 0)
                c = ctx_total[n].get(gram, 0)
                bow = math.log10(t / (c + t)) if t else 0.0
            tables[n - 1][gram] = (math.log10(p), bow)
    return NGramModel(order, vocab, tables)


def score(model: NGramModel, words) -> LmScore:
    """Sum of log10 p(w_i | preceding window) over the sequence.

    Words are lowercased and OOV words map to <unk>.  No sentence markers
    are added here; callers scoring whole sentences wrap the sequence in
    <s>...</s> themselves.
    """
    mapped = [model.map_word(w.lower()) for w in words]
    oov = sum(1 for w in mapped if w == UNK_WORD)
    # words that literally are <unk> in the input are not OOV events
    oov -= sum(1 for w in words if w.lower() == UNK_WORD)
    total = 0.0
    used = [0] * model.order
    for i, w in enumerate(mapped):
        lp, matched = model._logprob(w, tuple(mapped[:i]))
        total += lp
        used[matched - 1] += 1
    return LmScore(total=total, oov_count=oov, ngrams_used=tuple(used))


def emit_arpa(model: NGramModel) -> str:
    """Serialize to the standard ARPA layout; byte-deterministic.

    Entries are sorted; floats use repr so parsing them back is exact.
    The highest-order section never carries a backoff column.
    """
    lines = ["\\data\\"]
    for n in range(1, model.order + 1):
        lines.append(f"ngram {n}={len(model.tables[n - 1])}")
    for n in range(1, model.order + 1):
        lines.append("")
        lines.append(f"\\{n}-grams:")
        for gram in sorted(model.tables[n - 1]):
            logp, bow = model.tables[n - 1][gram]
            entry = f"{logp!r}\t{' '.join(gram)}"
            if bow is not None:
                entry += f"\t{bow!r}"
            lines.append(entry)
    lines.append("")
    lines.append("\\end\\")
    lines.append("")
    return "\n".join(lines)


def parse_arpa(text: str) -> NGramModel:
    """Parse ARPA text into a model; raises ArpaFormatError with line numbers."""
    lines = text.splitlines()
    pos = 0

    def next_content() -> tuple[int, str]:
        nonlocal pos
        while pos < len(lines):
            line = lines[pos]
            pos += 1
            if line.strip():
                return pos, line.strip()
        return pos, ""

    lineno, line = next_content()
    if line != "\\data\\":
        raise ArpaFormatError(f"line {lineno}: expected \\data\\ header, got {line!r}")
    declared: dict[int, int] = {}
    while True:
        lineno, line = next_content()
        if not line.startswith("ngram "):
            break
        body = line[len("ngram ") :]
        n_text, sep, count_text = body.partition("=")
        try:
            declared[int(n_text)] = int(count_text)
        except ValueError:
            raise ArpaFormatError(f"line {lineno}: malformed ngram count {line!r}") from None
    if not declared:
        raise ArpaFormatError(f"line {lineno}: no ngram count declarations")
    order = max(declared)
    if sorted(declared) != list(range(1, order + 1)):
        raise ArpaFormatError(f"line {lineno}: ngram orders must be contiguous from 1")

    tables: list[dict[tuple[str, ...], _Entry]] = [dict() for _ in range(order)]
    for n in range(1, order + 1):
        if line != f"\\{n}-grams:":
            raise ArpaFormatError(f"line {lineno}: expected \\{n}-grams: section, got {line!r}")
        read = 0
        while True:
            lineno, line = next_content()
            if line.startswith("\\"):
                break
            cols = line.split("\t")
            if len(cols) not in (2, 3):
                raise ArpaFormatError(f"line {lineno}: expected 2 or 3 tab-separated fields")
            try:
                logp = float(cols[0])
                bow = float(cols[2]) if len(cols) == 3 else None
            except ValueError:
                raise ArpaFormatError(f"line {lineno}: malformed number in {line!r}") from None
            gram = tuple(cols[1].split(" "))
            if len(gram) != n or not all(gram):
                raise ArpaFormatError(f"line {lineno}: expected a {n}-gram, got {cols[1]!r}")
            if n == order and bow is not None:
                raise ArpaFormatError(f"line {lineno}: highest order must not carry a backoff")
            tables[n - 1][gram] = (logp, bow if bow is not None else (0.0 if n < order else None))
            read += 1
        if read != declared[n]:
            raise ArpaFormatError(
                f"line {lineno}: \\{n}-grams: section has {read} entries, header declared {declared[n]}"
            )
    if line != "\\end\\":
        raise ArpaFormatError(f"line {lineno}: expected \\end\\, got {line!r}")
    vocab = Vocabulary.from_words(g[0] for g in tables[0])
    return NGramModel(order, vocab, tables)
