"""The dict-of-tuples trainer and lookup that the sorted-array store replaced.

``train_lm(corpus_text, order)`` is the trainer that counted word tuples
in dicts and converted them into the table layout, verbatim.  It shares
no counting code with ``lm.train_lm``, so tests check the id-counting
trainer against it byte for byte.

``DictLM(model)`` copies a model's tables into dicts keyed by word
tuples and answers one query at a time with the scalar backoff
recursion, verbatim.  It shares no lookup code with
``NGramModel.logprob_ids``, so tests check the array store against it
bit for bit, and the ordering oracles read it.

``ngrams(model)`` is the word-tuple view of a model's tables, and
``emit_arpa(model)`` the writer that sorted each section by those
tuples, verbatim.  ``lm.emit_arpa`` orders and writes the sections from
the tables with no tuples, so tests check it against this one byte for
byte.
"""

import math
from collections import Counter, defaultdict
from itertools import chain

import numpy as np

from udrealize.lm import (
    BOS_WORD,
    EOS_WORD,
    UNK_WORD,
    EmptyCorpusError,
    NGramModel,
    NGramTable,
    Vocabulary,
    _find_rows,
    _sorted_table,
)


def ngrams(model) -> list[list[tuple[str, ...]]]:
    """The word tuples of every table, order by order, in row order."""
    words, v = model.vocab.words, len(model.vocab)
    out, grams = [], [()]
    for table in model.tables:
        prefixes, ids = np.divmod(table.key, v)
        grams = [grams[p] + (words[w],) for p, w in zip(prefixes.tolist(), ids.tolist())]
        out.append(grams)
    return out


def emit_arpa(model) -> str:
    """Serialize to the standard ARPA layout; byte-deterministic.

    Entries are sorted by their word strings (not by id: the reserved
    words have the first ids); floats use repr so parsing them back is
    exact.  The highest-order section never carries a backoff column.
    """
    lines = ["\\data\\"]
    for n in range(1, model.order + 1):
        lines.append(f"ngram {n}={len(model.tables[n - 1])}")
    for n, (table, grams) in enumerate(zip(model.tables, ngrams(model)), start=1):
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


class DictLM:
    def __init__(self, model):
        self.order = model.order
        self.vocab = model.vocab
        self.tables = []
        for table, grams in zip(model.tables, ngrams(model)):
            bows = [None] * len(grams) if table.bow is None else table.bow.tolist()
            self.tables.append(dict(zip(grams, zip(table.logp.tolist(), bows))))

    def map_word(self, word: str) -> str:
        return word if word in self.vocab else UNK_WORD

    def logprob(self, word: str, history=()) -> float:
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


def train_lm(corpus_text, order: int = 3) -> NGramModel:
    """Count n-grams up to ``order`` and build the smoothed model.

    ``corpus_text`` is an iterable of sentence strings.  Raises
    EmptyCorpusError when no non-blank sentence is present.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    sentences = [s.lower().split() for s in corpus_text if s.strip()]
    if not sentences:
        raise EmptyCorpusError("no data")
    vocab = Vocabulary.from_words(w for words in sentences for w in words)

    counts: list[Counter] = [Counter() for _ in range(order)]
    for words in sentences:
        padded = [BOS_WORD, *words, EOS_WORD]
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
