"""Word-order recovery for a bag of words, driven by n-gram LM scores.

Three search strategies, dispatched on bag size:

* ``exhaustive``  - the best of every distinct permutation, for bags of
                    up to ``EXHAUSTIVE_LIMIT`` (4) words, found exactly
                    by the arrangement DP over one-word chunks;
* ``method2``     - partition the length into unigram/bigram/trigram
                    chunks, fill each chunk greedily with the
                    best-scoring word tuple, then find the best
                    arrangement of the chunks; up to the threshold;
* ``method1``     - pick the best-scoring ordered 4-word seed, then grow
                    the sequence greedily from the remaining words;
                    beyond the threshold.

Every search reads one ``ScoreTable`` per batch of bags.  Each bag's
distinct words get integer ids in sorted order, so comparing id tuples
compares word tuples.  For every bag, the table holds the exact
``model.logprob`` value of every predicted bag word or ``</s>`` after
every history of up to ``min(order - 1, 2)`` of the bag's words, or
``<s>`` followed by them, filled for the whole batch by one
``NGramModel.logprob_ids`` call, one row per LM state, the part of a
history the LM reads (Heafield 2011): a history of two words that are
no bigram of the LM (about 78% of them on the benchmark's inputs) reads
the row of its last word.  Each bag's words, vocabulary ids, histories
and states are found once per command (``_Contexts``, with one
``NGramModel.has_ngram`` call), and each batch's table takes its slice.
Calling the table reads those values, and longer histories (LM order 4
and up) from the LM, for arrays of (bag, history, word) ids, so the
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
instead of scoring all k! arrangements; an exhaustive bag is the same
problem with one chunking, a one-word chunk per word.  Rounding is
monotone, so a prefix that scores lower at a state never overtakes a
higher one, but the two may end up tied, and then the smaller sequence
wins.  The DP therefore keeps every prefix within ``_TIE_BAND`` (1e-9)
of the best one at its state: each later addition closes the gap between
two sums by at most one ulp, under 1e-12 while sums stay below 4096 in
magnitude, so fewer than 1000 later additions cannot close a larger gap.
Among prefixes with the same score at a state it keeps only the
smallest, since their continuations score the same.  One pass arranges
the chunks of every scheme of every ``method2`` and exhaustive bag of a
batch, layer by layer (layer L holds the states with L chunks used):
each kept prefix is a numpy row of (scheme, mask, history, score, prefix
ids).  The band is applied first, after a sort by state alone, and only
the rows within it are sorted by score and prefix to keep the smallest
prefix per score.

``realize_orders`` takes a whole command's token lists to sentence
strings: it preprocesses, dispatches, and applies casing and the final
stop.  The bags go through in batches whose score-table block holds at
most ``ORDER_CHUNK`` entries (LM states times predicted words), each
with one LM call to fill its table, one arrangement pass and one
``lm.score_many`` call for the final scores; a batch that raises is
rerun bag by bag, so a failure degrades only its own sentence.  The
searches are array passes over the batch: ``_grid_best`` finds each
row's best tuple of still-unused ids after a given history, for
``method1``'s seeds, and ``method2``'s chunk fills mask each (bag, chunk
size) grid of fragment scores with the words left.  Grid rows are padded
to the widest bag of their pass, in passes of at most ``ORDER_CHUNK``
entries or one row.  ``realize_order``, ``order_words`` and the three
searches are one-item calls of the same path.
"""

from __future__ import annotations

import functools
import math
import unicodedata
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .lm import BOS_WORD, EOS_WORD, LmScore, NGramModel, score_many

# Largest bag the exhaustive search handles.  The threshold may not fall
# below it, so every bag past the threshold has the 5 words method1 needs.
EXHAUSTIVE_LIMIT = 4

# Longest bag method2 handles by default; longer bags go to method1.
DEFAULT_THRESHOLD = 23

# Score-table block entries (LM states times predicted words, the widest
# bag's distinct words plus 2) that one batch of bags fills with one LM
# call, and grid entries of one search pass; bounds the memory of a
# batch.  A bag larger than this is a batch of its own.  At LM order 2
# and up every bag has at least 3 states (the empty history and one id),
# so a batch of more than one bag has at most ORDER_CHUNK / (3 * width)
# bags, and its history-sized arrays (``ScoreTable.rows``, up to
# width ** 2 codes per bag) at most width * ORDER_CHUNK / 3 entries.
ORDER_CHUNK = 1 << 15

# Chunk schemes with more arrangements than this (9!) are skipped.
_ARRANGEMENT_CAP = 362880

# Prefixes scoring within this distance of the best at a DP state are kept.
_TIE_BAND = 1e-9

# A batch's score table holds, for each bag, every history of up to this
# many of its words, which the grid searches read over and over.  Longer
# histories (LM order 4 and up) are looked up in the LM by each grid or
# growth step that reads them.
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
    threshold: int = DEFAULT_THRESHOLD
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


def _codes(columns, base):
    """Each history of ids, given column by column, oldest first (-1 for
    no word), as one integer: its digits are ``id + 1`` in ``base``.
    Leading -1 digits add nothing, so a short history may leave them out."""
    code = 0
    for column in columns:
        code = code * base + column + 1
    return code


@functools.lru_cache(maxsize=64)
def _dense_histories(m: int, dense: int):
    """Every history of up to ``dense`` ids among ``m`` words, the first of
    which may be the marker, section by section (the empty history, then
    one id, then two, ...), padded on the left with -1 to ``dense`` ids.
    Returns the histories and the row of each history by its ``_codes``
    in base ``m + 2``."""
    shapes = [(m + 1,) + (m,) * (length - 1) if length else () for length in range(dense + 1)]
    sizes = [math.prod(shape) for shape in shapes]
    ends = np.cumsum(sizes)
    padded = np.full((ends[-1], dense), -1, dtype=np.int64)
    for shape, size, end in zip(shapes, sizes, ends):
        padded[end - size : end, dense - len(shape) :] = np.indices(shape).reshape(len(shape), size).T
    rows = np.zeros((m + 2) ** dense, dtype=np.int64)  # without history ids, the one row is row 0
    if dense:
        rows[_codes(padded.T, m + 2)] = np.arange(len(padded))
    for array in (padded, rows):
        array.flags.writeable = False
    return padded, rows


class _Contexts:
    """Each bag of a list as found in an LM, once for a whole command.
    Per bag: its sorted distinct ``words`` and their number, its
    ``marker``.  Flat, bag by bag, never padded: ``heads``, the vocabulary
    ids of its words and then of <s>, with ``counts``, how often the bag
    holds each (0 for <s>); and from ``starts[b]`` on, its
    ``_dense_histories`` in vocabulary ids (-1 for no word), with
    ``state``, whether each is an LM state, from one ``has_ngram`` call."""

    def __init__(self, bags, model: NGramModel):
        dense = min(model.order - 1, _DENSE_HISTORY)
        self.bags, self.words = list(bags), [sorted(set(bag.words)) for bag in bags]
        self.marker = np.array([len(words) for words in self.words], dtype=np.int64)
        self.heads = np.array([model.vocab.index(w) for ws in self.words for w in (*ws, BOS_WORD)], dtype=np.int64)
        counts = [c for bag, words in zip(bags, self.words) for c in (*map(bag.words.count, words), 0)]
        self.counts = np.array(counts, dtype=np.int64)
        local = [_dense_histories(m, dense)[0] for m in self.marker.tolist()]  # ids within the bag, -1 for none
        self.starts = np.cumsum([0, *map(len, local)])
        first = np.repeat(np.cumsum(self.marker + 1) - (self.marker + 1), np.diff(self.starts))  # its bag's first head
        local = np.concatenate([np.zeros((0, dense), dtype=np.int64), *local])
        self.histories = np.where(local >= 0, self.heads[first[:, None] + local], -1)
        two = (local >= 0).sum(axis=1) == 2  # a two-word history that is no bigram is no state
        self.state = ~two
        self.state[two] = model.has_ngram(self.histories[two])

    def __len__(self) -> int:
        return len(self.bags)

    def __getitem__(self, part: slice) -> _Contexts:
        """The bags of ``part``, a slice of step 1, without a new lookup."""
        lo, hi, _ = part.indices(len(self))
        h, s = (slice(*ends[[lo, hi]]) for ends in (np.cumsum([0, *self.marker + 1]), self.starts))
        out = object.__new__(_Contexts)
        out.bags, out.words, out.marker, out.heads = self.bags[part], self.words[part], self.marker[part], self.heads[h]
        out.counts, out.histories, out.state = self.counts[h], self.histories[s], self.state[s]
        out.starts = self.starts[lo : hi + 1] - self.starts[lo]
        return out


class ScoreTable:
    """Exact conditional log10 probabilities among each bag's words, for a
    batch of bags filled by one LM call.

    A bag's word ids follow its sorted word order; ``marker[b]`` (the
    number of distinct words of bag b) stands for ``<s>`` as the first
    word of a history and for ``</s>`` as the predicted word.  Row
    ``rows[b, code]`` of ``block`` holds log10 p(word | history), indexed
    by predicted id, for each history of up to ``_DENSE_HISTORY`` ids of
    bag b with ``_codes`` ``code`` in base ``marker[b] + 2``.  ``counts``,
    ``heads`` and ``predicted`` are the batch's ``_Contexts`` padded to
    the widest bag and indexed ``[bag, id]``: ``heads`` with -1 (no word)
    after the marker, ``predicted`` with ``</s>`` at the marker and
    ``<s>`` after it.

    ``block`` has one row per LM state, the part of a history the LM
    reads (Heafield 2011).  The LM's tables are prefix-closed, so a
    two-word history that is no bigram has no longer n-gram and no
    backoff weight, and ``logprob_ids`` gives it, bit for bit, what it
    gives its last word alone: such a history shares that word's row.
    """

    def __init__(self, contexts: _Contexts, model: NGramModel):
        self.model, self.span = model, model.order - 1
        self.words, self.marker = contexts.words, contexts.marker
        self.length = np.array([len(bag) for bag in contexts.bags])
        dense = min(self.span, _DENSE_HISTORY)
        bags, width = len(contexts), int(self.marker.max()) + 2
        head = np.arange(width) <= self.marker[:, None]  # each bag's words, then its marker
        self.heads = np.full((bags, width), -1, dtype=np.int64)
        self.heads[head] = contexts.heads
        self.predicted = np.where(head, self.heads, model.vocab.index(BOS_WORD))
        self.predicted[np.arange(bags), self.marker] = model.vocab.index(EOS_WORD)
        counts = np.zeros((bags, width), dtype=np.int64)
        counts[head] = contexts.counts
        self.counts = counts[:, :-2]
        self.rows = np.zeros((bags, width**dense), dtype=np.int64)
        for m in np.unique(self.marker).tolist():
            group = np.flatnonzero(self.marker == m)
            self.rows[group, : (m + 2) ** dense] = contexts.starts[group, None] + _dense_histories(m, dense)[1]
        # a history that is no state reads the row of its last id alone, whose code is its own last digit
        alone = np.take_along_axis(self.rows, np.arange(width**dense) % (self.marker[:, None] + 2), axis=1)
        self.rows = (np.cumsum(contexts.state) - 1)[np.where(contexts.state[self.rows], self.rows, alone)]
        # each state before every predicted id of its bag, then <s>, whose
        # log p after the empty history (a bag's first row) starts every sentence
        owner = np.repeat(np.arange(bags), np.diff(contexts.starts))[contexts.state]  # each state's bag
        self.block, _ = model.logprob_ids(contexts.histories[contexts.state, None], self.predicted[owner])
        self.start = self.block[self.rows[:, 0], self.marker + 1]

    def __call__(self, bag: np.ndarray, history: list, word: np.ndarray) -> np.ndarray:
        """log10 p(word | history) of bag ``bag``, elementwise over
        broadcastable id arrays.  A history is a list of id columns, oldest
        first, -1 for no word, of which only the last ``span`` count.  Read
        from the block for histories of up to ``_DENSE_HISTORY`` columns,
        else from the LM: the two give the same floats."""
        history = history[max(0, len(history) - self.span) :]
        if len(history) <= _DENSE_HISTORY:
            return self.block[self.rows[bag, _codes(history, self.marker[bag] + 2)], word]
        heads = [self.heads[bag, h] for h in history]  # the id -1 reads the last column, -1
        logp, _ = self.model.logprob_ids(np.stack(np.broadcast_arrays(*heads), axis=-1), self.predicted[bag, word])
        return logp


def _fits(counts, ids):
    """True where the id tuple uses no word more often than ``counts``
    allows; ``counts`` may have leading axes, one count row per grid."""
    ok = True
    for i, w in enumerate(ids):
        uses = 1
        for prev in ids[:i]:
            uses = uses + (prev == w)
        ok = ok & (counts[..., w] >= uses)
    return ok


def _passes(width: np.ndarray, size: int):
    """Row indices in passes of at most ``ORDER_CHUNK`` grid entries (at
    least one row), narrowest rows first, each with its widest row: a
    pass pads its rows' ``size``-tuple grids to that width."""
    waiting = np.argsort(width, kind="stable")
    while len(waiting):
        cost = np.arange(1, len(waiting) + 1) * width[waiting] ** size
        rows = max(1, int(np.searchsorted(cost, ORDER_CHUNK, side="right")))
        part, waiting = waiting[:rows], waiting[rows:]
        yield part, int(width[part[-1]])


def _axes(size: int, width: int) -> list:
    """The id of each position of a ``(width,) * size`` grid, broadcastable."""
    return [np.arange(width).reshape([width if a == p else 1 for a in range(size)]) for p in range(size)]


def _grid_scores(
    table: ScoreTable, bag: np.ndarray, size: int, width: int, history: list, start: np.ndarray
) -> np.ndarray:
    """Per row r: the score of every ``size``-tuple of ids below ``width``,
    an (R,) + (width,) * size array.  A tuple is scored from ``start[r]``,
    adding left to right the conditional of each of its ids after the
    history so far, which opens with the id columns ``history`` (an entry
    per row).  An id past bag ``bag[r]``'s words reads its last word's
    scores."""
    column = (len(bag),) + (1,) * size  # a value per row, against the row's grid
    b = bag.reshape(column)
    ids = [np.minimum(axis, table.marker[b] - 1) for axis in _axes(size, width)]
    words = [h.reshape(column) for h in history] + ids
    score = start.reshape(column)
    for p, w in enumerate(ids):
        score = score + table(b, words[: len(history) + p], w)
    return score


def _masked_best(score: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the (R,) + (width,) * size grids ``score``: its best tuple
    that uses no word more often than ``counts[r]`` allows, and its score;
    a tie goes to the smallest tuple, the first maximum in C order."""
    rows, size, width = len(score), score.ndim - 1, score.shape[-1]
    masked = np.where(_fits(counts[:, :width], _axes(size, width)), score, -np.inf).reshape(rows, -1)
    first = masked.argmax(axis=1)
    return np.stack(np.unravel_index(first, (width,) * size), axis=1), masked[np.arange(rows), first]


def _grid_best(
    table: ScoreTable, bag: np.ndarray, counts: np.ndarray, size: int, history: list, start: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per row r: the best ``size``-tuple of the word ids of bag ``bag[r]``
    that uses no word more often than ``counts[r]`` allows, as a row of
    an (R, size) array, and its score, as ``_grid_scores`` scores it.

    The rows go through in ``_passes``, with similar word counts
    together, and no count allows a padded id.
    """
    best = np.zeros((len(bag), size), dtype=np.int64)
    scores = np.zeros(len(bag))
    for part, width in _passes(table.marker[bag], size):
        score = _grid_scores(table, bag[part], size, width, [h[part] for h in history], start[part])
        best[part], scores[part] = _masked_best(score, counts[part])
    return best, scores


def _method1_many(table: ScoreTable, which: list[int]) -> list[tuple[tuple[int, ...], dict]]:
    """Per bag in ``which``: its best 4-word sentence-initial seed, grown
    by greedy one-word extensions, and the search's counts.

    The seeds are one ``_grid_best`` call with a row per (bag, first
    word): the best three further words after <s> and the first word;
    per bag, the first maximum over its first words in ascending order
    is the smallest seed.  Growth then steps every bag at once: each
    step appends to each unfinished bag the remaining word that scores
    highest after the sequence so far (the smallest on a tie).
    """
    if not which:
        return []
    owner = np.array(which)
    remaining = table.counts[owner, : int(table.marker[owner].max())]
    bags, width = remaining.shape
    row, first = np.nonzero(remaining)  # every (bag, first word), first words ascending
    b = owner[row]
    rest = remaining[row]
    rest[np.arange(len(row)), first] -= 1
    marker = table.marker[b]
    tails, scores = _grid_best(table, b, rest, 3, [marker, first], table.start[b] + table(b, [marker], first))
    by_first = np.full((bags, width), -np.inf)
    by_first[row, first] = scores
    pick = by_first.argmax(axis=1)

    n = table.length[owner]
    sequence = np.zeros((bags, int(n.max())), dtype=np.int64)
    sequence[:, 0] = pick
    sequence[:, 1:4] = tails[np.searchsorted(row, np.arange(bags)) + pick]  # a bag's rows are consecutive
    for column in sequence[:, :4].T:
        remaining[np.arange(bags), column] -= 1
    seeds = n * (n - 1) * (n - 2) * (n - 3)
    evaluated = seeds.copy()
    for length in range(4, int(n.max())):
        live = np.flatnonzero(n > length)
        b = owner[live, None]
        marker = table.marker[b]
        history = [marker, *sequence[live, :length, None].transpose(1, 0, 2)]
        gains = table(b, history, np.minimum(np.arange(width), marker - 1))  # a padded id reads the last word
        allowed = remaining[live] > 0
        w = np.where(allowed, gains, -np.inf).argmax(axis=1)  # first maximum: the smallest word
        evaluated[live] += allowed.sum(axis=1)
        sequence[live, length] = w
        remaining[live, w] -= 1
    return [
        (
            tuple(sequence[i, :length].tolist()),
            {
                "method": OrderMethod.METHOD1,
                "candidates_evaluated": int(evaluated[i]),
                "seed_candidates": int(seeds[i]),
                "lrw_iterations": int(length) - 4,
            },
        )
        for i, length in enumerate(n.tolist())
    ]


def chunk_schemes(n: int) -> list[ChunkScheme]:
    """All partitions of n into parts of size 1..3, descending, with at
    most ceil(n/3)+1 parts; for n=6 that is (3,3), (3,2,1), (2,2,2)."""
    if n < 1:
        raise ValueError("length must be >= 1")
    return list(_chunk_schemes(n))


@functools.lru_cache(maxsize=64)
def _chunk_schemes(n: int) -> tuple[ChunkScheme, ...]:
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
    return tuple(out)


def _chunkings_many(
    table: ScoreTable, which: list[int], cap: int
) -> list[tuple[list[tuple[tuple[int, ...], ...]], int, list[str]]]:
    """Per bag in ``which``: the greedy chunks of every chunk scheme
    with at most ``cap`` arrangements, the chunk fragments scored, and a
    diagnostic per skipped scheme.

    Chunks are filled in scheme order with the highest-scoring ordered
    tuple of still-unused words, scored as a bare fragment.  Schemes
    sharing their first chunk sizes share those fills, so each distinct
    (bag, sizes prefix) is filled once.  Each (bag, chunk size) grid of
    fragment scores is computed once, in ``_passes``; a fill masks its
    bag's grid with the words left and takes the first maximum.  The
    fills go depth by depth, since a prefix's fill needs its parent's
    remaining words: depth d fills the d-th chunk of every prefix of d
    sizes, chunk size by chunk size, also in ``_passes``.
    """
    plans = [_scheme_plan(int(table.length[b]), cap) for b in which]
    levels: dict = {}  # (depth, chunk size) -> the (bag, sizes prefix) pairs ending there
    for b, (_, _, _, prefixes) in zip(which, plans):
        for sizes in prefixes:
            levels.setdefault((len(sizes), sizes[-1]), []).append((b, sizes))
    grids: dict = {}  # chunk size -> (each bag's pass and row in it, each pass's fragment grids)
    for size in {size for _, size in levels}:
        bags = np.array(sorted({b for (_, s), keys in levels.items() if s == size for b, _ in keys}))
        place = np.zeros((len(table.marker), 2), dtype=np.int64)
        scored = []
        for part, width in _passes(table.marker[bags], size):
            place[bags[part]] = np.stack([np.full(len(part), len(scored)), np.arange(len(part))], axis=1)
            scored.append(_grid_scores(table, bags[part], size, width, [], np.zeros(len(part))))
        grids[size] = place, scored
    # (bag, sizes prefix) -> (the chunks filled, the word counts they leave)
    fills = {(b, ()): ((), table.counts[b]) for b in which}
    for (_, size), keys in sorted(levels.items()):
        parents = [fills[b, sizes[:-1]] for b, sizes in keys]
        remaining = np.stack([counts for _, counts in parents])
        place, scored = grids[size]
        where = place[[b for b, _ in keys]]
        best = np.zeros((len(keys), size), dtype=np.int64)
        for p, score in enumerate(scored):
            rows = np.flatnonzero(where[:, 0] == p)
            for part, _ in _passes(np.full(len(rows), score.shape[-1]), size):
                part = rows[part]
                best[part], _ = _masked_best(score[where[part, 1]], remaining[part])
        for column in best.T:
            remaining[np.arange(len(keys)), column] -= 1
        for key, (chunks, _), chunk, counts in zip(keys, parents, best.tolist(), remaining):
            fills[key] = (chunks + (tuple(chunk),), counts)
    return [
        ([fills[b, sizes][0] for sizes in kept], evaluated, list(diagnostics))
        for b, (kept, evaluated, diagnostics, _) in zip(which, plans)
    ]


@functools.lru_cache(maxsize=256)
def _scheme_plan(n: int, cap: int):
    """The sizes of each chunk scheme of n words with at most ``cap``
    arrangements, the chunk fragments their greedy fills score, a
    diagnostic per skipped scheme, and the distinct prefixes of the kept
    sizes."""
    kept, diagnostics, evaluated, prefixes = [], [], 0, {}
    for scheme in _chunk_schemes(n):
        k = len(scheme.sizes)
        if math.factorial(k) > cap:
            diagnostics.append(f"scheme {scheme.sizes}: {k}! arrangements exceed cap {cap}, skipped")
            continue
        kept.append(scheme.sizes)
        unused = n
        for i, size in enumerate(scheme.sizes):
            evaluated += math.perm(unused, size)
            unused -= size
            prefixes[scheme.sizes[: i + 1]] = None
    return tuple(kept), evaluated, tuple(diagnostics), tuple(prefixes)


def _state_keys(columns) -> np.ndarray:
    """One int64 per row, equal exactly where every column is; each column
    is (values, base) with values in 0..base-1."""
    key = np.zeros(len(columns[0][0]), dtype=np.int64)
    for values, base in columns:
        if len(key) and int(key.max()) >= np.iinfo(np.int64).max // base:
            key = np.unique(key, return_inverse=True)[1]  # renumber densely first
        key = key * base + values
    return key


def _run_heads(*columns) -> np.ndarray:
    """A flag on each row that starts a run of rows equal in every column."""
    head = np.zeros(len(columns[0]), dtype=bool)
    head[:1] = True
    for column in columns:
        head[1:] |= column[1:] != column[:-1]
    return head


def _ranked(key: np.ndarray, score: np.ndarray, prefix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One row per distinct (key, score), the one with the smallest prefix,
    ordered by key and then by score, highest first; and a flag on the
    first row of each key, the key's best."""
    order = np.lexsort((-score, key))
    key, score = key[order], score[order]
    head = _run_heads(key)
    first = np.flatnonzero(_run_heads(key, score))
    rows = order[first]
    counts = np.diff(np.append(first, len(order)))
    tied = counts > 1
    if tied.any():  # equal key and score: rank those rows by prefix
        run = np.repeat(np.arange(len(first)), counts)
        members = np.repeat(tied, counts)
        rows_, run = order[members], run[members]
        ranked = np.lexsort((*prefix[rows_].T[::-1], run))
        rows[tied] = rows_[ranked][_run_heads(run[ranked])]
    return rows, head[first]


def _banded(key: np.ndarray, score: np.ndarray, prefix: np.ndarray) -> np.ndarray:
    """The rows ``_ranked`` keeps whose score is within ``_TIE_BAND`` of
    their key's best: the band is applied first, on a sort by key alone,
    so that only survivors that share their key are ranked."""
    order = np.argsort(key, kind="stable")
    first = np.flatnonzero(_run_heads(key[order]))
    top = np.maximum.reduceat(score[order], first)
    near = order[score[order] >= np.repeat(top, np.diff(np.append(first, len(order)))) - _TIE_BAND]
    head = _run_heads(key[near])  # the survivors are still in key order
    alone = head & np.append(head[1:], True)
    shared = near[~alone]
    return np.concatenate([near[alone], shared[_ranked(key[shared], score[shared], prefix[shared])[0]]])


def _arrange(table: ScoreTable, plans) -> tuple[list, np.ndarray]:
    """Best sentence of each bag over every order of the chunks of each
    of its chunkings (``plans[b]``, lists of id tuples).

    Held-Karp over states (chunking, used-chunk mask, last ``order - 1``
    ids), one layer per chunk used, for all chunkings at once.  Each row
    is one prefix kept at its state.  Returns per bag the best id tuple
    (None without a chunking) and the DP's transitions.
    """
    owner = np.array([b for b, chunkings in enumerate(plans) for _ in chunkings], dtype=np.int64)
    flat = [chunks for chunkings in plans for chunks in chunkings]
    transitions = np.zeros(len(plans), dtype=np.int64)
    if not flat:
        return [None] * len(plans), transitions
    k = np.array([len(chunks) for chunks in flat])
    most = int(k.max())
    sizes = np.zeros((len(flat), most), dtype=np.int64)
    words = np.zeros((len(flat), most, 3), dtype=np.int64)
    for g, chunks in enumerate(flat):
        for j, chunk in enumerate(chunks):
            sizes[g, j] = len(chunk)
            words[g, j, : len(chunk)] = chunk
    full = (1 << k) - 1
    marker = table.marker
    id_type = np.min_scalar_type(-int(marker.max()) - 1)  # word ids and -1, no word
    span = table.span
    columns = np.arange(most)

    # layer 0: the empty prefix of every chunking, after <s>
    g = np.arange(len(flat))
    mask = np.zeros(len(flat), dtype=np.int64)
    score = table.start[owner]
    history = np.full((len(flat), span), -1, dtype=id_type)
    if span:
        history[:, -1] = marker[owner]
    prefix = np.zeros((len(flat), int(sizes.sum(axis=1).max())), dtype=id_type)
    length = np.zeros(len(flat), dtype=np.int64)
    ends = []  # per layer: (bag, sentence score, prefix) of the complete arrangements
    while len(g):
        r, j = np.nonzero((columns < k[g, None]) & (mask[:, None] >> columns & 1 == 0))
        transitions += np.bincount(owner[g[r]], minlength=len(plans))
        g, mask, score, history, prefix, length = (a[r] for a in (g, mask, score, history, prefix, length))
        mask |= 1 << j
        for p in range(3):  # the chunk's words, each after the history so far
            on = np.flatnonzero(sizes[g, j] > p)
            w = words[g[on], j[on], p]
            score[on] += table(owner[g[on]], list(history[on].T), w)
            if span:
                history[on, :-1] = history[on, 1:]
                history[on, -1] = w
            prefix[on, length[on]] = w
            length[on] += 1

        # per state: one prefix per score, the smallest; then the tie band,
        # except for complete arrangements, which all count as transitions
        key = _state_keys(
            [(g, len(flat)), (mask, 1 << most)]
            + [(history[:, i].astype(np.int64) + 1, int(marker.max()) + 2) for i in range(span)]
        )
        done = mask == full[g]
        fin = np.flatnonzero(done)
        fin = fin[_ranked(key[fin], score[fin], prefix[fin])[0]]
        b = owner[g[fin]]
        transitions += np.bincount(b, minlength=len(plans))
        ends.append((b, score[fin] + table(b, list(history[fin].T), marker[b]), prefix[fin]))
        keep = np.flatnonzero(~done)
        keep = keep[_banded(key[keep], score[keep], prefix[keep])]
        g, mask, score, history, prefix, length = (a[keep] for a in (g, mask, score, history, prefix, length))

    owners, totals, prefixes = (np.concatenate(parts) for parts in zip(*ends))
    rows, best = _ranked(owners, totals, prefixes)
    found: list = [None] * len(plans)
    for row in rows[best].tolist():
        b = int(owners[row])
        found[b] = tuple(prefixes[row, : table.length[b]].tolist())
    return found, transitions


def _order_batch(batch: _Contexts, model: NGramModel, methods, cap: int) -> list:
    """``_order`` of one batch: one score-table fill, one ``method1`` seed
    pass and growth, one greedy chunk-fill pass per chunk-size prefix
    depth and chunk size, one arrangement pass and one final-score call.
    An exhaustive bag is arranged as one chunking, a one-word chunk per
    word; it counts its distinct permutations, not the DP's transitions."""
    table = ScoreTable(batch, model)
    which = {method: [b for b, m in enumerate(methods) if m is method] for method in OrderMethod}
    found: list = [None] * len(batch)
    plans: list = [[] for _ in methods]
    for b in which[OrderMethod.EXHAUSTIVE]:
        counts = table.counts[b].tolist()
        plans[b] = [tuple((i,) for i, c in enumerate(counts) for _ in range(c))]
        evaluated = math.factorial(table.length[b]) // math.prod(map(math.factorial, counts))
        found[b] = (None, {"method": OrderMethod.EXHAUSTIVE, "candidates_evaluated": evaluated})
    grown = which[OrderMethod.METHOD1]
    for b, result in zip(grown, _method1_many(table, grown)):
        found[b] = result
    chunked = which[OrderMethod.METHOD2]
    for b, (plan, evaluated, diagnostics) in zip(chunked, _chunkings_many(table, chunked, cap)):
        plans[b] = plan
        fields = {"method": OrderMethod.METHOD2, "candidates_evaluated": evaluated, "diagnostics": diagnostics}
        found[b] = (None, fields)
    arranged, transitions = _arrange(table, plans)
    results: list = []
    for b, ((ids, fields), arrangement, more) in enumerate(zip(found, arranged, transitions.tolist())):
        if fields["method"] is not OrderMethod.METHOD1:
            ids = arrangement
        if fields["method"] is OrderMethod.METHOD2:
            fields["candidates_evaluated"] += more
        if ids is None:
            results.append(ValueError("every chunk scheme was skipped by the arrangement cap"))
        else:
            results.append(OrderingResult(sequence=[table.words[b][i] for i in ids], lm_score=None, **fields))
    done = [r for r in results if isinstance(r, OrderingResult)]
    for result, lm_score in zip(done, score_many(model, [[BOS_WORD, *r.sequence, EOS_WORD] for r in done])):
        result.lm_score = lm_score
    return results


def _order(bags, model: NGramModel, methods, cap: int = _ARRANGEMENT_CAP) -> list:
    """An ``OrderingResult`` per bag searched with its method, or the
    exception that stopped it.

    The bags are looked up once, as ``_Contexts``, and each batch gets
    its slice.  Consecutive bags are searched together while their score
    table's block takes at most ``ORDER_CHUNK`` entries: their LM states
    times the widest bag's distinct words plus 2.  A bag over the budget
    is a batch of its own.
    """
    contexts = _Contexts(bags, model)
    before = np.append(0, np.cumsum(contexts.state))[contexts.starts].tolist()  # the LM states before each bag
    m = contexts.marker.tolist()
    results: list = []
    start = 0
    while start < len(bags):
        stop, width = start + 1, m[start] + 2
        while stop < len(bags) and (before[stop + 1] - before[start]) * max(width, m[stop] + 2) <= ORDER_CHUNK:
            stop, width = stop + 1, max(width, m[stop] + 2)
        results += _order_safely(contexts[start:stop], model, methods[start:stop], cap)
        start = stop
    return results


def _order_safely(batch: _Contexts, model: NGramModel, methods, cap: int) -> list:
    """``_order_batch``; if it raises, its bags one at a time, so that an
    unexpected failure degrades only the bags that raise it."""
    try:
        return _order_batch(batch, model, methods, cap)
    except Exception as exc:
        if len(batch) == 1:
            return [exc]
        return [r for i in range(len(batch)) for r in _order_safely(batch[i : i + 1], model, methods[i : i + 1], cap)]


def _one(results: list):
    """The one result of a one-item call, raising it if it is an exception."""
    (result,) = results
    if isinstance(result, Exception):
        raise result
    return result


def exhaustive(bag: WordBag, model: NGramModel) -> OrderingResult:
    """Argmax over every distinct permutation, scored as a full sentence."""
    n = len(bag)
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"bag of {n} words exceeds the exhaustive limit {EXHAUSTIVE_LIMIT}; use method1 or method2"
        )
    return _one(_order([bag], model, [OrderMethod.EXHAUSTIVE]))


def method1(bag: WordBag, model: NGramModel) -> OrderingResult:
    """Best 4-word sentence-initial seed, then greedy one-word extensions.

    The seed stage scores every ordered 4-tuple of distinct bag positions
    (n(n-1)(n-2)(n-3) candidates) as a sentence prefix, with the full
    ``order - 1`` word history at every LM order, in one grid per first
    word; the remaining words then join one at a time, each time
    appending the word whose addition scores highest (the smallest word
    on a tie).
    """
    if len(bag) < 5:
        raise ValueError("method1 requires at least 5 words")
    return _one(_order([bag], model, [OrderMethod.METHOD1]))


def method2(
    bag: WordBag,
    model: NGramModel,
    limit: int = DEFAULT_THRESHOLD,
    arrangement_cap: int = _ARRANGEMENT_CAP,
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
    return _one(_order([bag], model, [OrderMethod.METHOD2], arrangement_cap))


def _method(n: int, cfg: OrderConfig) -> OrderMethod:
    """Exhaustive up to EXHAUSTIVE_LIMIT words, method2 up to the threshold, then method1."""
    if n <= EXHAUSTIVE_LIMIT:
        return OrderMethod.EXHAUSTIVE
    return OrderMethod.METHOD2 if n <= cfg.threshold else OrderMethod.METHOD1


def order_words(bag: WordBag, model: NGramModel, cfg: OrderConfig | None = None) -> OrderingResult:
    """Dispatch on bag size: exhaustive, then method2 up to the threshold, then method1."""
    cfg = cfg or OrderConfig()
    cfg.validate()
    return _one(_order([bag], model, [_method(len(bag), cfg)]))


def realize_orders(
    token_lists, model: NGramModel, cfg: OrderConfig | None = None
) -> list[tuple[str, OrderingResult] | Exception]:
    """Order each token list into a sentence string, with casing and final stop.

    Returns per token list the text together with the search result it
    was built from, or the exception that stopped it (``EmptyBagError``
    when preprocessing leaves no word).
    """
    cfg = cfg or OrderConfig()
    cfg.validate()
    bags: list = []
    for tokens in token_lists:
        try:
            bags.append(preprocess(tokens))
        except EmptyBagError as exc:
            bags.append(exc)
    valid = [bag for bag in bags if isinstance(bag, WordBag)]
    ordered = iter(_order(valid, model, [_method(len(bag), cfg) for bag in valid]))
    out: list = []
    for bag in bags:
        result = bag if isinstance(bag, Exception) else next(ordered)
        if isinstance(result, Exception):
            out.append(result)
            continue
        text = " ".join(result.sequence)
        if cfg.capitalize and text:
            text = text[0].upper() + text[1:]
        if cfg.append_full_stop:
            text += " ."
        out.append((text, result))
    return out


def realize_order(
    tokens, model: NGramModel, cfg: OrderConfig | None = None
) -> tuple[str, OrderingResult]:
    """Order a token list into a sentence string, with casing and final stop.

    Returns the text together with the search result it was built from.
    """
    return _one(realize_orders([tokens], model, cfg))
