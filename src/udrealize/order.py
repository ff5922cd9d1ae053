"""Word-order recovery for a bag of words, driven by n-gram LM scores.

Three search strategies, dispatched on bag size:

* ``exhaustive``  - score every permutation, for bags of up to
                    ``EXHAUSTIVE_LIMIT`` (4) words;
* ``method2``     - partition the length into unigram/bigram/trigram
                    chunks, fill each chunk greedily with the
                    best-scoring word tuple, then find the best
                    arrangement of the chunks; up to the threshold;
* ``method1``     - pick the best-scoring ordered 4-word seed, then grow
                    the sequence greedily from the remaining words;
                    beyond the threshold.

Every search reads one per-bag ``ScoreTable``.  The bag's distinct words
get integer ids in sorted order, so comparing id tuples compares word
tuples.  The table holds the exact ``model.logprob`` value of every
predicted bag word or ``</s>`` after every history of up to
``order - 1`` bag words, or ``<s>`` followed by bag words, filled by
``NGramModel.logprob_ids``.  Histories of up to two words are dense
arrays (at order 3: a 1-D, a 2-D and a 3-D array), all filled by one LM
call; longer ones, at LM order 4 and up, get a row each on first use,
one LM call per row, or one LM call for a whole grid of them.  The
searches score whole grids of id tuples at once by numpy broadcasting.

Exactness: a candidate's score is the float sum of its conditionals,
added one at a time from the left (from log p(<s>) for a sentence, from
the first word for a bare chunk), so every search computes the same
float a one-candidate-at-a-time loop would.  Score ties always resolve
to the lexicographically smallest sequence; over an id grid that is the
first maximum in C order.

``method2`` arranges its chunks with a Held-Karp dynamic program (Held &
Karp 1962; word ordering as a travelling-salesman problem, Horvat &
Byrne 2014) over states (used-chunk mask, last ``order - 1`` ids)
instead of scoring all k! arrangements.  Rounding is monotone, so a
prefix that scores lower at a state never overtakes a higher one, but
the two may end up tied, and then the smaller sequence wins.  The DP
therefore keeps every prefix within ``_TIE_BAND`` (1e-9) of the best one
at its state: each later addition closes the gap between two sums by at
most one ulp, under 1e-12 while sums stay below 4096 in magnitude, so
fewer than 1000 later additions cannot close a larger gap.  Among prefixes
with the same score at a state it keeps only the smallest, since their
continuations score the same.

``realize_order`` is the one path from tokens to a sentence string: it
preprocesses, dispatches, and applies casing and the final stop.
"""

from __future__ import annotations

import math
import unicodedata
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .lm import BOS_WORD, EOS_WORD, LmScore, NGramModel, score

# Largest bag the exhaustive search handles.  The threshold may not fall
# below it, so every bag past the threshold has the 5 words method1 needs.
EXHAUSTIVE_LIMIT = 4

# Prefixes scoring within this distance of the best at a DP state are kept.
_TIE_BAND = 1e-9

# The score table is dense for histories of up to this many words: the
# seed and chunk searches read every such entry.  Longer histories are
# read only along search paths, so their rows are filled on first use.
_DENSE_HISTORY = 2


class EmptyBagError(ValueError):
    """Raised when preprocessing removes every token."""


class OrderMethod(Enum):
    EXHAUSTIVE = "exhaustive"
    METHOD1 = "method1"
    METHOD2 = "method2"


@dataclass(frozen=True)
class WordBag:
    """Multiset of lowercased, punctuation-free words (stored sorted)."""

    words: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class ChunkScheme:
    """A partition of a sentence length into chunk sizes from {1, 2, 3}."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        if not all(s in (1, 2, 3) for s in self.sizes):
            raise ValueError("chunk sizes must be 1, 2 or 3")


@dataclass
class OrderingResult:
    sequence: list[str]
    lm_score: LmScore
    method: OrderMethod
    candidates_evaluated: int
    seed_candidates: int = 0
    lrw_iterations: int = 0
    diagnostics: list[str] = field(default_factory=list)


@dataclass
class OrderConfig:
    threshold: int = 23
    capitalize: bool = True
    append_full_stop: bool = True

    def validate(self) -> None:
        if self.threshold < EXHAUSTIVE_LIMIT:
            raise ValueError(f"threshold must be >= {EXHAUSTIVE_LIMIT}, the exhaustive limit")


def is_punct(token: str) -> bool:
    """True for non-empty tokens made solely of Unicode punctuation."""
    return bool(token) and all(unicodedata.category(ch).startswith("P") for ch in token)


def preprocess(tokens) -> WordBag:
    """Drop punctuation-only tokens and lowercase the rest."""
    words = tuple(sorted(t.lower() for t in tokens if t and not is_punct(t)))
    if not words:
        raise EmptyBagError("empty after preprocessing")
    return WordBag(words)


class ScoreTable:
    """Exact conditional log10 probabilities among one bag's words.

    Word ids follow sorted word order.  The id ``marker`` (the number of
    distinct words) stands for ``<s>`` as the first word of a history and
    for ``</s>`` as the predicted word.  ``tables[L]`` holds
    log10 p(word | history of L ids), indexed ``[*history, word]``, for
    histories of up to ``_DENSE_HISTORY`` words; longer histories (LM
    order 4 and up) get one row each, filled on first use.
    """

    def __init__(self, bag: WordBag, model: NGramModel):
        self.model = model
        self.words = sorted(set(bag.words))
        self.marker = m = len(self.words)
        index = {w: i for i, w in enumerate(self.words)}
        self.counts = np.bincount([index[w] for w in bag.words], minlength=m)
        self.span = model.order - 1
        ids = [model.vocab.index(w) for w in self.words]
        bos = model.vocab.index(BOS_WORD)
        # vocabulary ids of the history words (the id -1, no word, pads a
        # short history) and of the predicted words
        self.heads = np.array([*ids, bos, -1], dtype=np.int64)
        self.predicted = np.array([*ids, model.vocab.index(EOS_WORD)], dtype=np.int64)
        # One LM call fills every dense table, each history padded on the left
        # to the longest, and gives log p(<s>) after the empty history (row 0).
        dense = min(self.span, _DENSE_HISTORY)
        shapes = [(m + 1,) + (m,) * (length - 1) if length else () for length in range(dense + 1)]
        sizes = [math.prod(shape) for shape in shapes]
        ends = np.cumsum(sizes)
        padded = np.full((ends[-1], dense), -1, dtype=np.int64)
        for shape, size, end in zip(shapes, sizes, ends):
            padded[end - size : end, dense - len(shape) :] = np.indices(shape).reshape(len(shape), size).T
        histories = self.heads[padded]
        logp, _ = model.logprob_ids(histories[:, None, :], np.append(self.predicted, bos))
        self.start = float(logp[0, -1])
        parts = np.split(logp[:, :-1], ends[:-1])
        self.tables = [part.reshape(*shape, m + 1) for part, shape in zip(parts, shapes)]
        self.rows: dict[tuple[int, ...], np.ndarray] = {}

    def lookup(self, histories: np.ndarray) -> np.ndarray:
        """log10 p(w | h) for every predicted id w after each history of ids
        ``histories`` (shape ``S + (L,)``), in one LM call; shape ``S + (m + 1,)``."""
        logp, _ = self.model.logprob_ids(self.heads[histories][..., None, :], self.predicted)
        return logp.reshape(*histories.shape[:-1], self.marker + 1)

    def grid(self, size: int) -> tuple:
        """Open mesh of every ordered ``size``-tuple of word ids."""
        return np.ix_(*[np.arange(self.marker)] * size)

    def row(self, history: tuple[int, ...]) -> np.ndarray:
        """log10 p(w | history) for every predicted id w, for a long history."""
        if history not in self.rows:
            self.rows[history] = self.lookup(np.array(history, dtype=np.int64))
        return self.rows[history]

    def cond(self, history, word):
        """log10 p(word | history); ids may be broadcastable arrays."""
        h = tuple(history[max(0, len(history) - self.span) :])
        if len(h) <= _DENSE_HISTORY:
            return self.tables[len(h)][(*h, word)]
        if all(np.ndim(i) == 0 for i in h):
            return self.row(tuple(int(i) for i in h))[word]
        # a grid of long histories: one LM call for the whole grid
        histories = np.stack(np.broadcast_arrays(*h), axis=-1)
        logp, _ = self.model.logprob_ids(self.heads[histories], self.predicted[word])
        return logp

    def extend(self, total, history, ids):
        """``total`` plus the conditionals of ``ids`` after ``history``, added left to right."""
        history = list(history)
        for w in ids:
            total = total + self.cond(history, w)
            history.append(w)
        return total

    def sentence(self, ids):
        """Score of ``ids`` wrapped in <s>...</s>."""
        total = self.extend(self.start, [self.marker], ids)
        return total + self.cond([self.marker, *ids], self.marker)

    def decode(self, ids) -> list[str]:
        return [self.words[i] for i in ids]


def _fits(counts, ids):
    """True where the id tuple uses no word more often than ``counts`` allows."""
    ok = True
    for i, w in enumerate(ids):
        uses = 1
        for prev in ids[:i]:
            uses = uses + (prev == w)
        ok = ok & (counts[w] >= uses)
    return ok


def _argmax(scores, ok) -> tuple[float, tuple[int, ...]]:
    """Best allowed grid entry as (score, id tuple); a tie goes to the
    first entry in C order, which is the smallest tuple."""
    masked = np.where(ok, scores, -np.inf)
    ids = np.unravel_index(int(np.argmax(masked)), masked.shape)
    return float(masked[ids]), tuple(int(i) for i in ids)


def _final_score(model: NGramModel, sequence) -> LmScore:
    return score(model, [BOS_WORD, *sequence, EOS_WORD])


def exhaustive(bag: WordBag, model: NGramModel) -> OrderingResult:
    """Argmax over every distinct permutation, scored as a full sentence."""
    n = len(bag)
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"bag of {n} words exceeds the exhaustive limit {EXHAUSTIVE_LIMIT}; use method1 or method2"
        )
    table = ScoreTable(bag, model)
    grid = table.grid(n)
    ok = _fits(table.counts, grid)  # exactly the distinct permutations
    _, best = _argmax(table.sentence(grid), ok)
    sequence = table.decode(best)
    return OrderingResult(
        sequence=sequence,
        lm_score=_final_score(model, sequence),
        method=OrderMethod.EXHAUSTIVE,
        candidates_evaluated=int(np.count_nonzero(ok)),
    )


def method1(bag: WordBag, model: NGramModel) -> OrderingResult:
    """Best 4-word sentence-initial seed, then greedy one-word extensions.

    The seed stage scores every ordered 4-tuple of distinct bag positions
    (n(n-1)(n-2)(n-3) candidates) as a sentence prefix, with the full
    ``order - 1`` word history at every LM order, one first word at a
    time; the remaining words then join one at a time, each time
    appending the word whose addition scores highest (the smallest word
    on a tie).
    """
    n = len(bag)
    if n < 5:
        raise ValueError("method1 requires at least 5 words")
    table = ScoreTable(bag, model)
    bos = table.marker
    rest = table.grid(3)
    best, best_seed = -math.inf, None
    for first in range(table.marker):  # ascending, so a tie keeps the smaller seed
        seed = (first, *rest)
        s, tail = _argmax(table.extend(table.start, [bos], seed), _fits(table.counts, seed))
        if s > best:
            best, best_seed = s, (first, *tail)

    sequence = list(best_seed)
    remaining = table.counts.copy()
    for w in best_seed:
        remaining[w] -= 1
    seed_count = n * (n - 1) * (n - 2) * (n - 3)
    evaluated = seed_count
    iterations = 0
    while len(sequence) < n:
        iterations += 1
        candidates = np.flatnonzero(remaining)  # sorted(set(remaining)) as ids
        gains = table.cond([bos, *sequence], candidates)
        w = int(candidates[np.argmax(gains)])  # first maximum: the smallest word
        evaluated += len(candidates)
        sequence.append(w)
        remaining[w] -= 1
    sequence = table.decode(sequence)
    return OrderingResult(
        sequence=sequence,
        lm_score=_final_score(model, sequence),
        method=OrderMethod.METHOD1,
        candidates_evaluated=evaluated,
        seed_candidates=seed_count,
        lrw_iterations=iterations,
    )


def chunk_schemes(n: int) -> list[ChunkScheme]:
    """All partitions of n into parts of size 1..3, descending, with at
    most ceil(n/3)+1 parts; for n=6 that is (3,3), (3,2,1), (2,2,2)."""
    if n < 1:
        raise ValueError("length must be >= 1")
    max_parts = math.ceil(n / 3) + 1
    out: list[ChunkScheme] = []

    def descend(remaining: int, max_size: int, acc: list[int]) -> None:
        if remaining == 0:
            out.append(ChunkScheme(tuple(acc)))
            return
        if len(acc) >= max_parts:
            return
        for size in range(min(max_size, remaining), 0, -1):
            acc.append(size)
            descend(remaining - size, size, acc)
            acc.pop()

    descend(n, 3, [])
    return out


def _arrange(table: ScoreTable, chunks: list[tuple[int, ...]]) -> tuple[float, tuple[int, ...], int]:
    """Best sentence over every order of ``chunks`` (id tuples).

    Held-Karp over states (used-chunk mask, last ``order - 1`` ids), each
    holding {prefix score: smallest prefix} for the scores within
    ``_TIE_BAND`` of its best.  Returns (score, id sequence, transitions).
    """
    span, k = table.span, len(chunks)
    steps = {}

    def step(history: tuple[int, ...], j: int):
        # the chunk's conditionals after `history`, and the history after it
        key = (history, j)
        if key not in steps:
            h, terms = list(history), []
            for w in chunks[j]:
                terms.append(float(table.cond(h, w)))
                h.append(w)
            steps[key] = (tuple(terms), tuple(h[max(0, len(h) - span) :]))
        return steps[key]

    states: list[dict] = [{} for _ in range(1 << k)]
    states[0][(table.marker,) if span else ()] = {table.start: ()}
    transitions = 0
    for mask in range(1 << k):  # every predecessor of a mask is a smaller number
        for history, prefixes in states[mask].items():
            top = max(prefixes)
            kept = [(s, p) for s, p in prefixes.items() if s >= top - _TIE_BAND]
            for j in range(k):
                if mask >> j & 1:
                    continue
                terms, after = step(history, j)
                bucket = states[mask | 1 << j].setdefault(after, {})
                for s, prefix in kept:
                    for t in terms:
                        s += t
                    prefix += chunks[j]
                    transitions += 1
                    if s not in bucket or prefix < bucket[s]:
                        bucket[s] = prefix

    best, best_seq = -math.inf, None
    for history, prefixes in states[-1].items():
        close = float(table.cond(history, table.marker))
        for s, prefix in prefixes.items():
            s += close
            transitions += 1
            if s > best or (s == best and prefix < best_seq):
                best, best_seq = s, prefix
    return best, best_seq, transitions


def method2(
    bag: WordBag,
    model: NGramModel,
    limit: int = 23,
    arrangement_cap: int = 362880,
) -> OrderingResult:
    """Chunk-partition search: greedy chunk filling, exact arrangement.

    For every chunk scheme, chunks are filled in scheme order with the
    highest-scoring ordered tuple of still-unused words (scored as bare
    fragments); the best full-sentence arrangement of the filled chunks
    is then found by ``_arrange``.  The best (score, then lexicographic)
    sequence over all schemes wins.  Schemes whose arrangement count
    exceeds ``arrangement_cap`` are skipped with a diagnostic.
    ``candidates_evaluated`` counts the chunk fragments plus the DP's
    transitions.
    """
    n = len(bag)
    if not 1 <= n <= limit:
        raise ValueError(f"method2 handles 1..{limit} words, got {n}")
    table = ScoreTable(bag, model)
    grids = {size: table.grid(size) for size in (1, 2, 3)}
    fragments = {size: table.extend(0.0, (), grid) for size, grid in grids.items()}
    diagnostics: list[str] = []
    best_seq: tuple[int, ...] | None = None
    best = -math.inf
    evaluated = 0

    for scheme in chunk_schemes(n):
        k = len(scheme.sizes)
        if math.factorial(k) > arrangement_cap:
            diagnostics.append(
                f"scheme {scheme.sizes}: {k}! arrangements exceed cap {arrangement_cap}, skipped"
            )
            continue
        remaining = table.counts.copy()
        unused = n
        chunks: list[tuple[int, ...]] = []
        for size in scheme.sizes:
            _, chunk = _argmax(fragments[size], _fits(remaining, grids[size]))
            evaluated += math.perm(unused, size)
            unused -= size
            chunks.append(chunk)
            for w in chunk:
                remaining[w] -= 1
        s, seq, transitions = _arrange(table, chunks)
        evaluated += transitions
        if s > best or (s == best and seq < best_seq):
            best, best_seq = s, seq
    if best_seq is None:
        raise ValueError("every chunk scheme was skipped by the arrangement cap")
    sequence = table.decode(best_seq)
    return OrderingResult(
        sequence=sequence,
        lm_score=_final_score(model, sequence),
        method=OrderMethod.METHOD2,
        candidates_evaluated=evaluated,
        diagnostics=diagnostics,
    )


def order_words(bag: WordBag, model: NGramModel, cfg: OrderConfig | None = None) -> OrderingResult:
    """Dispatch on bag size: exhaustive, then method2 up to the threshold, then method1."""
    cfg = cfg or OrderConfig()
    cfg.validate()
    n = len(bag)
    if n <= EXHAUSTIVE_LIMIT:
        return exhaustive(bag, model)
    if n <= cfg.threshold:
        return method2(bag, model, limit=cfg.threshold)
    return method1(bag, model)


def realize_order(
    tokens, model: NGramModel, cfg: OrderConfig | None = None
) -> tuple[str, OrderingResult]:
    """Order a token list into a sentence string, with casing and final stop.

    Returns the text together with the search result it was built from.
    """
    cfg = cfg or OrderConfig()
    result = order_words(preprocess(tokens), model, cfg)
    text = " ".join(result.sequence)
    if cfg.capitalize and text:
        text = text[0].upper() + text[1:]
    if cfg.append_full_stop:
        text += " ."
    return text, result
