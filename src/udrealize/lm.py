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

Storage is the sorted-array layout of KenLM (Heafield 2011, "KenLM:
Faster and Smaller Language Model Queries", WMT).  A word's id is its
position in the vocabulary of V words.  The n-grams of order n form one
``NGramTable`` of parallel arrays sorted by ``key = prefix_row * V +
word_id``, where ``prefix_row`` is the row of the n-gram's first n - 1
words in the order n - 1 table (0 for unigrams): ``logp`` and, below
the highest order, ``bow``.  Finding an n-gram is one binary search per
word, so ``NGramModel.logprob_ids`` answers a whole array of queries
with a few ``searchsorted`` calls.  The layout needs the model to be
prefix-closed: the first n - 1 words of every n-gram are an entry of
the order n - 1 table.  ``train_lm`` output always is, and
``parse_arpa`` rejects a file that is not.

``train-lm`` writes a tables image beside its ARPA file
(``tables_path``): the vocabulary and these arrays, raw, with the
sha256 of the ARPA bytes and of the image's own payload.  ``load_arpa``
trusts the image only when both digests match, so the model it returns
equals ``parse_arpa`` of the text bit for bit; an ARPA file without an
image, edited after training, or beside a damaged image is parsed as
text.  Reading an image takes milliseconds where parsing the text takes
a large share of a whole ``reorder`` command.  ``load_arpa`` reads the
image into a buffer at the shift that starts its arrays 8-byte aligned:
numpy copies a whole unaligned array on every search in it.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path

import numpy as np

BOS_WORD = "<s>"
EOS_WORD = "</s>"
UNK_WORD = "<unk>"
RESERVED_WORDS = (BOS_WORD, EOS_WORD, UNK_WORD)
_TABLES_MAGIC = b"udrealize-ngram-tables-v1\n"
# Longest header line a tables image may have; tables_image writes about 250 bytes.
_HEADER_LIMIT = 1 << 16


class EmptyCorpusError(ValueError):
    """Raised when LM training receives no usable sentences."""


class ArpaFormatError(ValueError):
    """Raised on malformed ARPA input, with a line number in the message."""


class TablesError(ValueError):
    """Raised when a tables image may not stand in for its ARPA file."""


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


@dataclass(frozen=True, eq=False)
class NGramTable:
    """The n-grams of one order as parallel arrays sorted by ``key``.

    ``key = prefix_row * V + word_id`` (int64); ``logp`` and ``bow`` are
    log10 values, and ``bow`` is None at the model's highest order.
    """

    key: np.ndarray
    logp: np.ndarray
    bow: np.ndarray | None

    def __len__(self) -> int:
        return len(self.key)

    def find(self, keys: np.ndarray) -> np.ndarray:
        """Row of each key in the table, or -1 where it has no such entry."""
        rows = self.key.searchsorted(keys)
        found = self.key.take(rows, mode="clip") == keys if len(self.key) else False
        return np.where(found, rows, -1)


def _sorted_table(key: np.ndarray, logp: np.ndarray, bow: np.ndarray | None) -> NGramTable:
    """The table of these entries; of equal keys the last one is kept, as a
    later ARPA line replaces an earlier one."""
    order = np.argsort(key, kind="stable")
    key = key[order]
    last = np.ones(len(key), dtype=bool)
    last[:-1] = key[1:] != key[:-1]
    order = order[last]
    return NGramTable(key[last], logp[order], None if bow is None else bow[order])


def _find_rows(tables: list[NGramTable], ids: np.ndarray, vocab_size: int) -> np.ndarray:
    """Row of each n-gram ``ids[..., :]`` (word ids, oldest first) in the
    table of its order, or -1 where it is absent; an id of -1 is never found."""
    rows = np.zeros(ids.shape[:-1], dtype=np.int64)
    for n in range(ids.shape[-1]):
        rows = tables[n].find(rows * vocab_size + ids[..., n])
    return rows


class NGramModel:
    """Backoff n-gram model on sorted integer-id arrays (KenLM's layout).

    ``tables[n - 1]`` is the ``NGramTable`` of the n-grams, and
    ``len(tables[n - 1])`` their count.  Row r of the order-n table is
    the n-gram whose key is ``key[r] = prefix_row * V + word_id``: its
    first n - 1 words are row ``prefix_row`` of the order n - 1 table,
    which must hold them (the tables are prefix-closed).  Immutable
    after training; safe to score from many threads at once.
    """

    def __init__(self, order: int, vocab: Vocabulary, tables: list[NGramTable]):
        if order < 1:
            raise ValueError("order must be >= 1")
        self.order = order
        self.vocab = vocab
        self.tables = tables

    def logprob(self, word: str, history=()) -> float:
        """log10 p(word | history) with standard backoff recursion.

        Inputs are expected already lowercased; OOV words fall back to
        <unk>.  Histories longer than order-1 are truncated on the left.
        """
        h = tuple(history)[-(self.order - 1) :] if self.order > 1 else ()
        ids = np.array([self.vocab.index(w) for w in h], dtype=np.int64)
        return float(self.logprob_ids(ids, self.vocab.index(word))[0])

    def logprob_ids(self, histories, words) -> tuple[np.ndarray, np.ndarray]:
        """log10 p(word | history) and the order of the n-gram that gave it, elementwise.

        ``histories`` holds word ids with shape ``S + (L,)``, oldest word
        first; an id of -1 on the left makes a history shorter.  ``words``
        holds word ids and broadcasts with ``S``.  Histories longer than
        order - 1 are cut on the left.  Each result is the float the
        backoff recursion computes one query at a time: the penalty starts
        at 0.0 and gains the backoff weight of each history that lacks the
        word, longest history first, and the n-gram's logp is added last.
        A word with no unigram (possible only in a hand-written file) ends
        at the penalty plus -99.0, a placeholder, with matched order 1.
        """
        histories = np.asarray(histories, dtype=np.int64)
        words = np.asarray(words, dtype=np.int64)
        span = min(histories.shape[-1], self.order - 1)
        h = histories[..., histories.shape[-1] - span :]
        v = len(self.vocab)
        # contexts[k]: row of the last k history words in the order-k table.
        # After step t, walk[..., j] is the row of h[..., j : j + t].
        contexts = [np.zeros(h.shape[:-1], dtype=np.int64)]
        walk = np.zeros(h.shape, dtype=np.int64)
        for t in range(1, span + 1):
            walk = self.tables[t - 1].find(walk[..., : span - t + 1] * v + h[..., t - 1 :])
            contexts.append(walk[..., -1])
        shape = np.broadcast(contexts[0], words).shape
        logp = np.empty(shape)
        matched = np.ones(shape, dtype=np.int64)
        penalty = np.zeros(shape)
        pending = np.ones(shape, dtype=bool)
        for k in range(span, -1, -1):
            keys = contexts[k] * v + words  # negative where the context is absent
            rows = self.tables[k].find(keys)
            hit = pending & (rows >= 0)
            logp[hit] = penalty[hit] + self.tables[k].logp[rows[hit]]
            matched[hit] = k + 1
            pending &= rows < 0
            if not pending.any():
                return logp, matched
            if k:
                backoff = pending & (keys >= 0)
                penalty[backoff] += self.tables[k - 1].bow[keys[backoff] // v]
        logp[pending] = penalty[pending] - 99.0
        return logp, matched

    def has_ngram(self, ids) -> np.ndarray:
        """True where the n-gram ``ids[..., :]`` (word ids, oldest first) is in
        the model; an id of -1 is never found."""
        return _find_rows(self.tables, np.asarray(ids, dtype=np.int64), len(self.vocab)) >= 0

    def ngrams(self) -> list[list[tuple[str, ...]]]:
        """The word tuples of every table, order by order, in row order."""
        words, v = self.vocab.words, len(self.vocab)
        out, grams = [], [()]
        for table in self.tables:
            prefixes, ids = np.divmod(table.key, v)
            grams = [grams[p] + (words[w],) for p, w in zip(prefixes.tolist(), ids.tolist())]
            out.append(grams)
        return out


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

    def backoff(gram: tuple[str, ...]) -> float:
        t = ctx_types[len(gram)].get(gram, 0)
        c = ctx_total[len(gram)].get(gram, 0)
        return math.log10(t / (c + t)) if t else 0.0

    tables: list[NGramTable] = []
    for n in range(1, order + 1):
        grams = list(probs[n - 1])
        words = map(vocab._index.__getitem__, chain.from_iterable(grams))  # all in the vocabulary
        ids = np.fromiter(words, np.int64, n * len(grams)).reshape(len(grams), n)
        logp = np.fromiter(map(math.log10, probs[n - 1].values()), np.float64, len(grams))
        bow = np.fromiter(map(backoff, grams), np.float64, len(grams)) if n < order else None
        prefix = _find_rows(tables, ids[:, :-1], len(vocab))
        tables.append(_sorted_table(prefix * len(vocab) + ids[:, -1], logp, bow))
    return NGramModel(order, vocab, tables)


def score(model: NGramModel, words) -> LmScore:
    """Sum of log10 p(w_i | preceding window) over the sequence.

    Words are lowercased and OOV words map to <unk>.  No sentence markers
    are added here; callers scoring whole sentences wrap the sequence in
    <s>...</s> themselves.  The conditionals are added left to right.
    """
    return score_many(model, [words])[0]


def score_many(model: NGramModel, sequences) -> list[LmScore]:
    """``score`` of each word sequence, with one LM call for all of them."""
    lowered = [[w.lower() for w in words] for words in sequences]
    lengths = np.array([len(words) for words in lowered], dtype=np.int64)
    ids = np.array([model.vocab.index(w) for words in lowered for w in words], dtype=np.int64)
    span = model.order - 1
    # position i's history: the span ids before it in its own sequence, -1 where it has none
    seq = np.repeat(np.arange(len(lengths)), lengths)
    col = np.arange(len(ids)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    back = np.arange(len(ids))[:, None] + np.arange(span)  # positions in `padded`
    padded = np.concatenate([np.full(span, -1, dtype=np.int64), ids])
    histories = np.where(col[:, None] + np.arange(span) >= span, padded[back], -1)
    logp, matched = model.logprob_ids(histories, ids)
    # each row is 0.0 and then the sequence's conditionals; a running sum adds them left to right
    rows = np.zeros((len(lengths), lengths.max(initial=0) + 1))
    rows[seq, col + 1] = logp
    totals = np.cumsum(rows, axis=1)[np.arange(len(lengths)), lengths].tolist()
    used = np.bincount(seq * model.order + matched - 1, minlength=len(lengths) * model.order)
    used = used.reshape(len(lengths), model.order).tolist()
    # words that literally are <unk> in the input are not OOV events
    oov = [sum(1 for w in words if w not in model.vocab) for words in lowered]
    return [LmScore(total=t, oov_count=o, ngrams_used=tuple(u)) for t, o, u in zip(totals, oov, used)]


def emit_arpa(model: NGramModel) -> str:
    """Serialize to the standard ARPA layout; byte-deterministic.

    Entries are sorted by their word strings (not by id: the reserved
    words have the first ids); floats use repr so parsing them back is
    exact.  The highest-order section never carries a backoff column.
    """
    lines = ["\\data\\"]
    for n in range(1, model.order + 1):
        lines.append(f"ngram {n}={len(model.tables[n - 1])}")
    for n, (table, grams) in enumerate(zip(model.tables, model.ngrams()), start=1):
        lines.append("")
        lines.append(f"\\{n}-grams:")
        logp = table.logp.tolist()
        bow = None if table.bow is None else table.bow.tolist()
        for row in sorted(range(len(grams)), key=grams.__getitem__):
            entry = f"{logp[row]!r}\t{' '.join(grams[row])}"
            if bow is not None:
                entry += f"\t{bow[row]!r}"
            lines.append(entry)
    lines.append("")
    lines.append("\\end\\")
    lines.append("")
    return "\n".join(lines)


def _columns(texts: list[str], sep: str, width: int) -> list[list[str]] | None:
    """The ``width`` columns of ``texts`` split at ``sep``, or None unless
    every text has exactly ``width`` fields.

    One split does the whole list: a field holding only a newline, which
    no text contains, closes each text, so the texts have ``width``
    fields each exactly when the closing fields fall at every
    ``width + 1``-th place.
    """
    if not texts:
        return [[] for _ in range(width)]
    fields = (sep + "\n" + sep).join(texts).split(sep)
    closing = fields[width :: width + 1]
    if len(fields) != len(texts) * (width + 1) - 1 or closing.count("\n") != len(closing):
        return None
    return [fields[k :: width + 1] for k in range(width)]


def _floats(texts: list[str]) -> tuple[np.ndarray | None, int]:
    """The numbers of the texts and their count, or None and the index of
    the first text ``float`` rejects."""
    try:
        return np.fromiter(map(float, texts), np.float64, len(texts)), len(texts)
    except ValueError:
        for i, text in enumerate(texts):
            try:
                float(text)
            except ValueError:
                return None, i
        raise


def _parse_section(
    body: list[str], linenos: list[int], n: int, top: int, tables: list[NGramTable], vocab: Vocabulary | None
) -> tuple[NGramTable, Vocabulary]:
    """Check and convert the stripped entry lines of the n-grams section.

    The checks run column-wise, in the order one line's checks would run;
    each one looks only at the lines before the first failure so far, so
    the failure left at the end is the one at the earliest line.  Returns
    the table and the vocabulary, which the 1-grams section defines.
    """
    limit, message = len(body), None

    def check(bad: np.ndarray, describe) -> None:
        nonlocal limit, message
        hits = np.flatnonzero(bad[:limit])
        if len(hits):
            limit = int(hits[0])
            message = describe(limit)

    def fail_if_any() -> None:
        if message is not None:
            raise ArpaFormatError(f"line {linenos[limit]}: {message}")

    width = 2 if n == top else 3
    cols = _columns(body, "\t", width)
    if cols is None:  # entries of another width, or of several
        tabs = np.fromiter(map(str.count, body, repeat("\t")), np.int64, len(body))
        check((tabs < 1) | (tabs > 2), lambda r: "expected 2 or 3 tab-separated fields")
        tabs = tabs[:limit]
        width = 3 if 2 in tabs else 2
        rows = body[:limit]
        if width == 3:  # an entry without a backoff column has backoff 0.0
            rows = [line if t == 2 else line + "\t0.0" for line, t in zip(rows, tabs.tolist())]
        cols = _columns(rows, "\t", width)
    else:
        tabs = np.full(limit, width - 1)

    logp, good = _floats(cols[0])
    bow, good_bow = _floats(cols[2]) if width == 3 else (np.zeros(limit), limit)
    check(np.arange(limit) == min(good, good_bow), lambda r: f"malformed number in {body[r]!r}")

    grams = cols[1]
    gram_message = lambda r: f"expected a {n}-gram, got {grams[r]!r}"  # noqa: E731
    words = _columns(grams[:limit], " ", n)
    if words is None:  # a gram with the wrong number of words
        check(np.fromiter(map(str.count, grams, repeat(" ")), np.int64, len(grams)) != n - 1, gram_message)
        words = _columns(grams[:limit], " ", n)
    for col in words:
        if "" in col:
            check(np.array([not w for w in col], dtype=bool), gram_message)
    if n == top:
        check(tabs == 2, lambda r: "highest order must not carry a backoff")
    fail_if_any()

    if n == 1:
        vocab = Vocabulary.from_words(words[0])
    ids = np.empty((limit, n), dtype=np.int64)
    for i, col in enumerate(words):
        ids[:, i] = np.fromiter(map(vocab._index.get, col, repeat(-1)), np.int64, limit)
    check(ids[:, -1] < 0, lambda r: f"word {words[-1][r]!r} has no 1-gram")
    prefix = _find_rows(tables, ids[:, :-1], len(vocab))
    check(prefix < 0, lambda r: f"prefix {' '.join(col[r] for col in words[:-1])!r} has no {n - 1}-gram")
    fail_if_any()
    return _sorted_table(prefix * len(vocab) + ids[:, -1], logp, bow if n < top else None), vocab


def parse_arpa(text: str) -> NGramModel:
    """Parse ARPA text into a model; raises ArpaFormatError with line numbers.

    Each n-grams section is converted column by column.  Besides the
    format, the model must be prefix-closed: an n-gram whose first
    n - 1 words are not an (n-1)-gram, or whose last word is not a
    1-gram, is an error.
    """
    lines = [line.strip() for line in text.splitlines()]
    pos = 0

    def next_content() -> tuple[int, str]:
        nonlocal pos
        while pos < len(lines):
            line = lines[pos]
            pos += 1
            if line:
                return pos, line
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

    # a section's entries run up to the next line that starts with a backslash
    marks = [i for i, entry in enumerate(lines) if entry[:1] == "\\"]
    tables: list[NGramTable] = []
    vocab = None
    for n in range(1, order + 1):
        if line != f"\\{n}-grams:":
            raise ArpaFormatError(f"line {lineno}: expected \\{n}-grams: section, got {line!r}")
        k = bisect.bisect_left(marks, pos)
        end = marks[k] if k < len(marks) else len(lines)
        stop = end
        while stop > pos and not lines[stop - 1]:  # the blank lines before the next header
            stop -= 1
        body, linenos = lines[pos:stop], list(range(pos + 1, stop + 1))
        if "" in body:
            linenos = [i for i, entry in zip(linenos, body) if entry]
            body = [entry for entry in body if entry]
        if end == len(lines):  # no terminator: the end of the text reads as an empty entry, which fails
            linenos.append(len(lines))
            body.append("")
        table, vocab = _parse_section(body, linenos, n, order, tables, vocab)
        tables.append(table)
        pos = end + 1
        lineno, line = pos, lines[end]
        if len(body) != declared[n]:
            raise ArpaFormatError(
                f"line {lineno}: \\{n}-grams: section has {len(body)} entries, header declared {declared[n]}"
            )
    if line != "\\end\\":
        raise ArpaFormatError(f"line {lineno}: expected \\end\\, got {line!r}")
    return NGramModel(order, vocab, tables)


def tables_path(arpa_path) -> Path:
    """Where ``train-lm`` writes the tables image of the ARPA file ``arpa_path``."""
    return Path(f"{arpa_path}.tables")


def tables_image(model: NGramModel, arpa: bytes) -> bytes:
    """The tables image of ``model``, to be trusted beside the ARPA bytes ``arpa``.

    A magic line, a JSON header (sorted keys) and the payload: the
    vocabulary as UTF-8 words joined by newlines, then order by order
    the table's ``key`` (``<i8``), ``logp`` and, below the highest
    order, ``bow`` (``<f8``).  ``arpa`` must parse to ``model`` exactly,
    as ``emit_arpa(model)`` does; the image holds no timestamp, so it is
    byte-deterministic.
    """
    vocab = "\n".join(model.vocab.words).encode("utf-8")
    blocks = [vocab]
    for table in model.tables:
        blocks.append(np.ascontiguousarray(table.key, dtype="<i8").tobytes())
        blocks += [np.ascontiguousarray(a, dtype="<f8").tobytes() for a in (table.logp, table.bow) if a is not None]
    payload = b"".join(blocks)
    header = {
        "arpa_sha256": hashlib.sha256(arpa).hexdigest(),
        "counts": [len(table) for table in model.tables],
        "order": model.order,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
        "vocab_bytes": len(vocab),
    }
    return _TABLES_MAGIC + json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload


# What tables_image writes in the header, field by field.
_TABLES_HEADER = {
    "arpa_sha256": lambda v: type(v) is str,
    "counts": lambda v: type(v) is list and all(type(c) is int and c >= 0 for c in v),
    "order": lambda v: type(v) is int and v >= 1,
    "payload_sha256": lambda v: type(v) is str,
    "vocab_bytes": lambda v: type(v) is int and v >= 0,
}


def _image_header(image) -> tuple[object, int]:
    """The parsed header line of a tables image (None where it is not
    JSON) and the offset of its payload; ``image`` may be only the
    image's start.  Raises TablesError on a wrong magic line."""
    if bytes(image[: len(_TABLES_MAGIC)]) != _TABLES_MAGIC:
        raise TablesError("not an n-gram tables image")
    line = bytes(image[len(_TABLES_MAGIC) : len(_TABLES_MAGIC) + _HEADER_LIMIT])
    end = line.find(b"\n")
    try:
        header = json.loads(line[:end]) if end >= 0 else None
    except ValueError:  # also a header that is not UTF-8
        header = None
    return header, len(_TABLES_MAGIC) + end + 1


def read_tables(image, arpa: bytes) -> NGramModel:
    """The model of a ``tables_image`` written beside the ARPA bytes ``arpa``.

    Raises TablesError on a wrong magic line, a header line without
    exactly the fields ``tables_image`` writes (or longer than
    ``_HEADER_LIMIT``), an ARPA digest that is not that of ``arpa``, a
    payload of another length than the header implies, or a payload
    digest mismatch.  The arrays are read-only views of ``image``, any
    bytes-like object.
    """
    header, at = _image_header(image)
    if (
        type(header) is not dict
        or sorted(header) != sorted(_TABLES_HEADER)
        or not all(fits(header[name]) for name, fits in _TABLES_HEADER.items())
        or len(header["counts"]) != header["order"]
    ):
        raise TablesError("header does not hold the fields train-lm writes")
    if header["arpa_sha256"] != hashlib.sha256(arpa).hexdigest():
        raise TablesError("written for other ARPA bytes (the ARPA file changed after train-lm)")
    payload = memoryview(image).toreadonly()[at:]
    order, counts, at = header["order"], header["counts"], header["vocab_bytes"]
    size = at + sum(8 * c * (3 if n < order else 2) for n, c in enumerate(counts, start=1))
    if len(payload) != size:
        raise TablesError(f"payload has {len(payload)} bytes, the header implies {size}")
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise TablesError("payload digest mismatch")
    try:
        vocab = Vocabulary(tuple(str(payload[:at], "utf-8").split("\n")))
    except ValueError:
        vocab = None
    if vocab is None or vocab.words[: len(RESERVED_WORDS)] != RESERVED_WORDS:
        raise TablesError("malformed vocabulary")

    def block(dtype: str, count: int) -> np.ndarray:
        nonlocal at
        at += 8 * count
        return np.frombuffer(payload, dtype, count, at - 8 * count)

    tables = []
    for n, count in enumerate(counts, start=1):
        key, logp = block("<i8", count), block("<f8", count)
        tables.append(NGramTable(key, logp, block("<f8", count) if n < order else None))
    return NGramModel(order, vocab, tables)


def _read_image(path) -> memoryview:
    """The bytes of the tables image at ``path``, read once into a buffer
    at the shift that starts the image's arrays 8-byte aligned."""
    with open(path, "rb") as f:
        header, at = _image_header(f.read(len(_TABLES_MAGIC) + _HEADER_LIMIT))
        if type(header) is dict and type(header.get("vocab_bytes")) is int:
            at += header["vocab_bytes"]  # the arrays follow the vocabulary
        size = os.fstat(f.fileno()).st_size
        buffer = np.empty(size + 7, dtype=np.uint8)
        shift = -(buffer.ctypes.data + at) % 8
        f.seek(0)
        size = f.readinto(memoryview(buffer)[shift : shift + size])
    return memoryview(buffer)[shift : shift + size]


def load_arpa(path, warn) -> NGramModel:
    """The model of the ARPA file at ``path``.

    It comes from the tables image beside the file (``tables_path``)
    when ``read_tables`` accepts that image for the file's bytes, and
    from ``parse_arpa`` of the text otherwise; both give the same model.
    An image that is present but rejected or unreadable passes one line
    to ``warn``; a missing one is silent.  Errors reading ``path``
    itself propagate as OSError, and malformed text as ArpaFormatError.
    """
    arpa = Path(path).read_bytes()
    image = tables_path(path)
    try:
        return read_tables(_read_image(image), arpa)
    except FileNotFoundError:
        pass
    except OSError as exc:
        warn(f"{image}: {exc.strerror}; parsing the ARPA text instead")
    except TablesError as exc:
        warn(f"{image}: {exc}; parsing the ARPA text instead")
    return parse_arpa(arpa.decode("utf-8", errors="replace"))
