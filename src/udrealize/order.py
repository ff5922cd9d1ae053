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
the row of its last word.  Each bag's words, vocabulary ids, counts,
histories and states are found once per command (``_Contexts``, with one
``NGramModel.has_ngram`` call), in one layout: the per-word arrays are
padded to the widest bag and indexed [bag, id], and each batch takes its
rows, trimmed to its own widest bag, whose width is the one base in
which its table codes every history.  Calling the table reads those
values, and longer histories (LM order 4 and up) from the LM, for arrays
of (bag, history, word) ids, so the searches score whole grids of id
tuples at once by numpy broadcasting.

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
each kept prefix is a numpy row of (scheme, mask, score, context, the
row of layer L - 1 it grew from), without its ids.  Its context, the
chunks that fix the history it ends with, indexes tables that hold what
appending each chunk adds, filled once per batch (``_ChunkSteps``).  The
band is applied first, after a sort by state alone, and only the rows
within it are sorted by score; a prefix's ids are spelled out from the
parent pointers only where rows tie on state and score, and for each
bag's winner.

``realize_orders`` takes a whole command's token lists to sentence
strings: it preprocesses, dispatches, and applies casing and the final
stop.  The bags go through in batches whose score-table block holds at
most ``ORDER_CHUNK`` entries (LM states times predicted words), each
with one LM call to fill its table, one arrangement pass and one
``lm.score_many`` call for the final scores; a batch that raises is
rerun bag by bag, so a failure degrades only its own sentence.  The
searches are array passes over the batch: ``_grid_best`` finds each
row's best tuple of still-unused ids after a given history, one row of
4-tuples after <s> per bag for ``method1``'s seeds, and ``method2``'s
chunk fills mask each (bag, chunk size) grid of fragment scores with the
words left.  Grid rows are padded to the widest bag of their pass, in
passes of at most ``ORDER_CHUNK`` entries or one row; a ``_grid_best``
row whose grid alone is larger is split along its first id.  A seed's
fourth word mostly reads only the two words before it, so ``_grid_best``
ranks what may follow each two ids of a bag once (``_Continuations``)
and scores the n ** 3 tuples of the first three words, not the n ** 4
seeds (``_continued_best``).  A pick whose candidates all score -inf
takes the smallest (``_or_smallest``).  ``order_words`` and the three
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

# Ids that ``_Continuations`` keeps after each two ids, best first; a
# seed rescans a cell when all of them tie with its best total.
_KEPT = 4


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
    no word), as one int64 whatever the columns' type: its digits are
    ``id + 1`` in ``base``, a batch's width.  Leading -1 digits add
    nothing, so a short history may leave them out."""
    code = np.int64(0)
    for column in columns:
        code = code * base + column + 1
    return code


@functools.lru_cache(maxsize=64)
def _dense_histories(m: int, dense: int) -> np.ndarray:
    """Every history of up to ``dense`` ids among ``m`` words, the first of
    which may be the marker, section by section (the empty history, then
    one id, then two, ...), padded on the left with -1 to ``dense`` ids."""
    shapes = [(m + 1,) + (m,) * (length - 1) if length else () for length in range(dense + 1)]
    sizes = [math.prod(shape) for shape in shapes]
    ends = np.cumsum(sizes)
    padded = np.full((ends[-1], dense), -1, dtype=np.int64)
    for shape, size, end in zip(shapes, sizes, ends):
        padded[end - size : end, dense - len(shape) :] = np.indices(shape).reshape(len(shape), size).T
    padded.flags.writeable = False
    return padded


class _Contexts:
    """Each bag of a list as found in an LM, once for a whole command
    (``find``); a slice of it is a batch.  Per bag: its sorted distinct
    ``words`` and their number, its ``marker``.  ``heads`` and ``counts``
    are padded to the widest bag plus 2 and indexed ``[bag, id]``:
    ``heads`` holds the vocabulary ids of its words, then of <s> at the
    marker, then -1 (no word); ``counts`` how often the bag holds each
    word, 0 from the marker on.  Flat, bag by bag: each bag's
    ``_dense_histories`` in its own ids (``local``, -1 for no word), with
    its ``owner``, the bag's index, and ``state``, whether it is an LM
    state, from one ``has_ngram`` call."""

    def __init__(self, bags, words, marker, heads, counts, local, owner, state):
        self.bags, self.words, self.marker, self.heads = bags, words, marker, heads
        self.counts, self.local, self.owner, self.state = counts, local, owner, state

    @classmethod
    def find(cls, bags, model: NGramModel) -> _Contexts:
        dense = min(model.order - 1, _DENSE_HISTORY)
        words = [sorted(set(bag.words)) for bag in bags]
        marker = np.array([len(ws) for ws in words], dtype=np.int64)
        head = np.arange(marker.max(initial=0) + 2) <= marker[:, None]  # each bag's words, then its marker
        heads = np.full(head.shape, -1, dtype=np.int64)
        heads[head] = [model.vocab.index(w) for ws in words for w in (*ws, BOS_WORD)]
        counts = np.zeros(head.shape, dtype=np.int64)
        counts[head] = [c for bag, ws in zip(bags, words) for c in (*map(bag.words.count, ws), 0)]
        local = [_dense_histories(m, dense) for m in marker.tolist()]
        owner = np.repeat(np.arange(len(bags)), [len(histories) for histories in local])
        local = np.concatenate([np.zeros((0, dense), dtype=np.int64), *local])
        two = (local >= 0).sum(axis=1) == 2  # a two-word history that is no bigram is no state
        state = ~two
        state[two] = model.has_ngram(heads[owner[two, None], local[two]])
        for array in (heads, counts, local, owner, state):  # each batch reads views of them
            array.flags.writeable = False
        return cls(list(bags), words, marker, heads, counts, local, owner, state)

    def __len__(self) -> int:
        return len(self.bags)

    def __getitem__(self, part: slice) -> _Contexts:
        """The bags of ``part``, a slice of step 1, padded to its widest bag
        plus 2, without a new lookup."""
        lo, hi, _ = part.indices(len(self))
        columns, s = slice(int(self.marker[part].max(initial=0)) + 2), slice(*self.owner.searchsorted([lo, hi]))
        return _Contexts(
            self.bags[part], self.words[part], self.marker[part], self.heads[part, columns],
            self.counts[part, columns], self.local[s], self.owner[s] - lo, self.state[s],
        )


class ScoreTable:
    """Exact conditional log10 probabilities among each bag's words, for a
    batch of bags filled by one LM call.

    A bag's word ids follow its sorted word order; ``marker[b]`` (the
    number of distinct words of bag b) stands for ``<s>`` as the first
    word of a history and for ``</s>`` as the predicted word.  ``heads``,
    ``counts`` and ``predicted`` are indexed ``[bag, id]``, padded to the
    batch's width, its widest bag plus 2: ``heads`` and ``counts`` are the
    batch's ``_Contexts`` (``counts`` without the last two columns), and
    ``predicted`` is ``heads`` with ``</s>`` at the marker and ``<s>``
    after it.  Row ``rows[b, code]`` of ``block`` holds log10 p(word |
    history), indexed by predicted id, for each history of up to
    ``_DENSE_HISTORY`` ids of bag b with ``_codes`` ``code`` in the one
    base of the batch, its width.

    ``block`` has one row per LM state, the part of a history the LM
    reads (Heafield 2011).  The LM's tables are prefix-closed, so a
    two-word history that is no bigram has no longer n-gram and no
    backoff weight, and ``logprob_ids`` gives it, bit for bit, what it
    gives its last word alone: such a history shares that word's row.
    """

    def __init__(self, contexts: _Contexts, model: NGramModel):
        self.model, self.span = model, model.order - 1
        self.words, self.marker, self.heads = contexts.words, contexts.marker, contexts.heads
        self.counts = contexts.counts[:, :-2]
        self.length = self.counts.sum(axis=1)
        dense = min(self.span, _DENSE_HISTORY)
        bags, width = self.heads.shape
        self.predicted = np.where(self.heads >= 0, self.heads, model.vocab.index(BOS_WORD))
        self.predicted[np.arange(bags), self.marker] = model.vocab.index(EOS_WORD)
        rows = np.zeros((bags, width**dense), dtype=np.int64)
        rows[contexts.owner, _codes(contexts.local.T, width)] = np.arange(len(contexts.local))
        # a history that is no state reads the row of its last id alone, whose code is its own last digit
        alone = rows[:, np.arange(width**dense) % width]
        self.rows = (np.cumsum(contexts.state) - 1)[np.where(contexts.state[rows], rows, alone)]
        # each state before every predicted id of its bag, then <s>, whose
        # log p after the empty history (a bag's first row) starts every
        # sentence; the id -1 reads the last column of heads, -1
        owner, local = contexts.owner[contexts.state], contexts.local[contexts.state]
        self.block, _ = model.logprob_ids(self.heads[owner[:, None], local][:, None], self.predicted[owner])
        self.start = self.block[self.rows[:, 0], self.marker + 1]

    def __call__(self, bag: np.ndarray, history: list, word: np.ndarray) -> np.ndarray:
        """log10 p(word | history) of bag ``bag``, elementwise over
        broadcastable id arrays.  A history is a list of id columns, oldest
        first, -1 for no word, of which only the last ``span`` count.  Read
        from the block for histories of up to ``_DENSE_HISTORY`` columns,
        else from the LM: the two give the same floats."""
        history = history[max(0, len(history) - self.span) :]
        if len(history) <= _DENSE_HISTORY:
            return self.block[self.rows[bag, _codes(history, self.heads.shape[1])], word]
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
        allowed = counts[..., w]  # laid out row index last
        if counts.shape[0] < counts.shape[-1]:  # few wide rows compare faster in C order
            allowed = np.ascontiguousarray(allowed)
        ok = ok & (allowed >= uses)
    return ok


def _passes(width: np.ndarray, size: int):
    """Row indices in passes of at most ``ORDER_CHUNK`` grid entries (at
    least one row), narrowest rows first, each with its widest row: a
    pass pads its rows' ``size``-tuple grids to that width."""
    waiting = np.argsort(width, kind="stable")
    while len(waiting):
        head = waiting[: ORDER_CHUNK // int(width[waiting[0]]) ** size + 1]  # a pass holds no more rows
        cost = np.arange(1, len(head) + 1) * width[head] ** size
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


def _or_smallest(best: np.ndarray, score: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``best``, (R, size) tuples that score ``score``, with each -inf row
    set to the first maximum of its tied tuples, the smallest that
    ``counts[r]`` allows: the first ``size`` ids of its multiset."""
    lost = score == -np.inf
    if lost.any():
        total = counts[lost].cumsum(axis=1)
        best[lost] = np.stack([(total > i).argmax(axis=1) for i in range(best.shape[1])], axis=1)
    return best


def _masked_best(score: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of the (R,) + (width,) * size grids ``score``: its best tuple
    that uses no word more often than ``counts[r]`` allows, and its score;
    a tie goes to the smallest tuple, the first maximum in C order."""
    rows, size, width = len(score), score.ndim - 1, score.shape[-1]
    masked = np.where(_fits(counts[:, :width], _axes(size, width)), score, -np.inf).reshape(rows, -1)
    first = masked.argmax(axis=1)
    top = masked[np.arange(rows), first]
    return _or_smallest(np.stack(np.unravel_index(first, (width,) * size), axis=1), top, counts), top


class _Continuations:
    """What may follow two ids: per bag of ``bags`` (distinct bag indices)
    and pair (a, c) of its ids, the ``_KEPT`` ids w of the bag with the
    highest log10 p(w | a c), highest first and the smallest on a tie,
    and those conditionals.  An id is left out if it is padding, if a
    and c use up the bag's copies of it, or if its conditional is -inf; a
    row left with fewer ids ends in -1.  ``ids[k]`` and ``logp[k]`` hold
    each row's k-th, flat at ``(slot[bag] * wide + a) * wide + c``.
    Filled in ``_passes`` of at most ``ORDER_CHUNK`` entries; see
    ``_continued_best`` for when a seed's last word may read them."""

    def __init__(self, table: ScoreTable, bags: np.ndarray):
        m = table.marker[bags]
        self.wide = wide = int(m.max())
        self.slot = np.zeros(len(table.marker), dtype=np.int64)
        self.slot[bags] = np.arange(len(bags))
        on = np.arange(wide) < m[:, None]
        s, a, c = np.nonzero(on[:, :, None] & on[:, None, :])
        at = (s * wide + a) * wide + c
        self.ids = np.full((_KEPT, len(bags) * wide * wide), -1, dtype=np.int64)
        self.logp = np.full(self.ids.shape, -np.inf)
        counts = table.counts[bags]
        for part, w in _passes(m[s], 1):
            rows, to = np.arange(len(part)), at[part]
            left = counts[s[part], :w]
            left[rows, a[part]] -= 1
            left[rows, c[part]] -= 1
            # a padded id has no copies: its conditional, which reads another column of the block, is masked
            logp = table(bags[s[part], None], [a[part, None], c[part, None]], np.arange(w))
            logp[left <= 0] = -np.inf
            for k in range(_KEPT):
                top = logp.argmax(axis=1)  # first maximum: the smallest id
                value = logp[rows, top]
                self.ids[k, to], self.logp[k, to] = np.where(value > -np.inf, top, -1), value
                logp[rows, top] = -np.inf


def _continued_best(
    table: ScoreTable, last: _Continuations, bag: np.ndarray, counts: np.ndarray, size: int, width: int,
    history: list, start: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``_masked_best`` of the ``_grid_scores`` grids of a pass: each
    (size - 1)-tuple before the last id, a cell, is scored once, to P.

    The LM is prefix-closed, so a history that is no n-gram gives, bit for
    bit, the conditional of its suffix one id shorter (see ``ScoreTable``).
    So the last id reads only the two ids before it, whose continuations
    ``last`` ranks, unless a suffix of 3 to ``span`` ids of its history
    (``history`` and the cell's) is an n-gram: the cell is then long (LM
    order 4 and up only).  P plus a conditional is monotone in the
    conditional, so a cell's best total is P plus that of the first of
    its pair's kept ids that it leaves a copy of.  A later id whose total
    rounds to the same float ties, and the smallest of them wins.  A long
    cell, and one whose kept ids never drop below its best total, is
    rescanned over every id after its whole history.  Each row's winner
    is its first maximum cell."""
    rows, cells = len(bag), (width,) * (size - 1)
    prefix = _axes(size - 1, width)
    counts = np.ascontiguousarray(counts[:, :width])
    score = np.where(_fits(counts, prefix), _grid_scores(table, bag, size - 1, width, history, start), -np.inf)
    column = (rows,) + (1,) * len(cells)
    a, c = ([h.reshape(column) for h in history] + prefix)[-2:]  # the two ids before the last
    at = np.broadcast_to((last.slot[bag].reshape(column) * last.wide + a) * last.wide + c, score.shape)
    offset = (np.arange(rows) * width).reshape(column)
    long = np.zeros(score.shape, dtype=bool)
    for k in range(3, min(table.span, len(history) + size - 1) + 1):  # each suffix of 3 or more ids the LM reads
        cell = np.nonzero(score > -np.inf)
        ids = [h[cell[0]] for h in history] + list(cell[1:])
        long[cell] |= table.model.has_ngram(table.heads[bag[cell[0], None], np.stack(ids[-k:], axis=1)])

    def left(ids, base, used):  # the copies of ids that a cell with ids ``used`` leaves; base: its row's offset
        return counts.take(base + ids) - sum(u == ids for u in used)

    # every cell's first kept id, and whether its second scores below
    ids = last.ids[0].take(at)
    on = (score > -np.inf) & ~long & (ids >= 0)
    ok = on & (left(np.maximum(ids, 0), offset, prefix) > 0)
    best = score + last.logp[0].take(at)
    best[~ok] = -np.inf
    pick = np.where(ok, ids, 0)
    ok &= (last.ids[1].take(at) < 0) | (score + last.logp[1].take(at) < best)  # every later id scores below
    live = np.flatnonzero(on & ~ok)
    at, score, best, pick, n = at.ravel(), score.ravel(), best.ravel(), pick.ravel(), score.size // rows
    for k in range(1, _KEPT):  # a live cell has seen no id that scores below its best
        ids = last.ids[k].take(at[live])
        total = score[live] + last.logp[k].take(at[live])
        on = (ids >= 0) & ~(total < best[live])  # else the kept ids ended, or this and every later one scores below
        live, ids, total = live[on], ids[on], total[on]
        some = left(ids, live // n * width, np.unravel_index(live % n, cells) if cells else ()) > 0
        top = best[live]
        new, tie = some & (top == -np.inf), some & (total == top)
        best[live[new]], pick[live[new]] = total[new], ids[new]
        pick[live[tie]] = np.minimum(pick[live[tie]], ids[tie])
    live = np.concatenate([live, np.flatnonzero(long)])
    word = np.arange(width)
    step = max(1, ORDER_CHUNK // width)
    for lo in range(0, len(live), step):  # rescan: every id after the cell's whole history
        cell = live[lo : lo + step, None]
        r = cell // n
        used = [u[:, None] for u in np.unravel_index(cell[:, 0] % n, cells)] if cells else []
        logp = table(bag[r], [h[r] for h in history] + used, np.minimum(word, table.marker[bag[r]] - 1))
        total = np.where(left(word, r * width, used) > 0, score[cell] + logp, -np.inf)
        pick[cell[:, 0]], best[cell[:, 0]] = total.argmax(axis=1), total.max(axis=1)
    best, pick = best.reshape(rows, n), pick.reshape(rows, n)
    first = best.argmax(axis=1)  # first maximum: the smallest tuple
    found = [*(np.unravel_index(first, cells) if cells else ()), pick[np.arange(rows), first]]
    return np.stack(found, axis=1), best[np.arange(rows), first]


def _grid_best(
    table: ScoreTable, last: _Continuations, bag: np.ndarray, counts: np.ndarray, size: int, history: list,
    start: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Per row r: the best ``size``-tuple of the word ids of bag ``bag[r]``
    that uses no word more often than ``counts[r]`` (at most what the bag
    holds) allows, as a row of an (R, size) array, and its score, as
    ``_grid_scores`` scores it; a tie goes to the first maximum in C
    order, and a row that allows no finite total takes its smallest
    tuple (``_or_smallest``).  The last id follows at least two bag ids,
    as a ``method1`` seed's does, and each row scores only the tuples
    before it, its cells, taking the last from the bag's continuations
    ``last`` (``_continued_best``).

    The rows go through in ``_passes``, with similar word counts
    together, and no count allows a padded id.  A row whose cells hold
    more than ``ORDER_CHUNK`` entries is split along its first id: each
    first id it allows starts a row of the (size - 1)-tuples after it,
    from ``start[r]`` plus that id's conditional, which adds the same
    floats in the same order.  Of its parts, in ascending first id, the
    row keeps the first that scores highest, the first maximum in C
    order.
    """
    best = np.zeros((len(bag), size), dtype=np.int64)
    scores = np.zeros(len(bag))
    width = table.marker[bag]
    whole = width ** (size - 1) <= ORDER_CHUNK
    rows = np.flatnonzero(whole)
    for part, w in _passes(width[rows], size - 1):
        part = rows[part]
        after = [h[part] for h in history]
        best[part], scores[part] = _continued_best(table, last, bag[part], counts[part], size, w, after, start[part])
    split = np.flatnonzero(~whole)
    if len(split):
        row, first = np.nonzero(counts[split] > 0)  # each row's allowed first ids, ascending
        r = split[row]
        rest = counts[r]
        rest[np.arange(len(r)), first] -= 1
        after = [h[r] for h in history]
        tails, tail_scores = _grid_best(
            table, last, bag[r], rest, size - 1, after + [first], start[r] + table(bag[r], after, first)
        )
        part = np.full(counts[split].shape, -1)
        part[row, first] = np.arange(len(r))
        by_first = np.full(part.shape, -np.inf)
        by_first[row, first] = tail_scores
        pick = by_first.argmax(axis=1)  # first maximum: the smallest first id; -inf rows are set below
        scores[split] = by_first[np.arange(len(split)), pick]
        best[split] = np.column_stack([pick, tails[part[np.arange(len(split)), pick]]])
    return _or_smallest(best, scores, counts), scores


def _method1_many(table: ScoreTable, which: list[int]) -> list[tuple[tuple[int, ...], dict]]:
    """Per bag in ``which``: its best 4-word sentence-initial seed, grown
    by greedy one-word extensions, and the search's counts.

    The seeds are one ``_grid_best`` call with a row per bag: its best
    4-tuple after <s>, the smallest on a tie, from the 3-tuples before
    the fourth word (split past 32 distinct words) and the bag's
    ``_Continuations``.  Growth then steps every bag at once: each step
    appends to each unfinished bag the remaining word that scores highest
    after the sequence so far (the smallest on a tie, also of -inf gains).
    """
    if not which:
        return []
    owner = np.array(which)
    remaining = table.counts[owner, : int(table.marker[owner].max())]
    bags, width = remaining.shape
    n = table.length[owner]
    sequence = np.zeros((bags, int(n.max())), dtype=np.int64)
    last = _Continuations(table, owner)
    sequence[:, :4], _ = _grid_best(table, last, owner, remaining, 4, [table.marker[owner]], table.start[owner])
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
        gains = np.where(allowed, gains, -np.inf)
        w = gains.argmax(axis=1)  # first maximum: the smallest word
        w = _or_smallest(w[:, None], gains[np.arange(len(live)), w], remaining[live])[:, 0]
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
    # counted, not searched: a scheme is its numbers of threes and twos, and
    # each two fewer for the same threes is one part more
    max_parts = math.ceil(n / 3) + 1
    out: list[ChunkScheme] = []
    for threes in range(n // 3, -1, -1):
        twos = (n - 3 * threes) // 2
        rest = n - 3 * threes - 2 * twos
        if threes + twos + rest > max_parts:
            break  # the fewest parts with this many threes; fewer threes take at least as many
        while twos >= 0 and threes + twos + rest <= max_parts:
            out.append(ChunkScheme((3,) * threes + (2,) * twos + (1,) * rest))
            twos, rest = twos - 1, rest + 2
    return tuple(out)


def _chunkings_many(
    table: ScoreTable, which: list[int]
) -> list[tuple[list[tuple[tuple[int, ...], ...]], int, list[str]]]:
    """Per bag in ``which``: the greedy chunks of every chunk scheme
    with at most ``_ARRANGEMENT_CAP`` arrangements, the chunk fragments
    scored, and a diagnostic per skipped scheme.

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
    plans = [_scheme_plan(int(table.length[b]), _ARRANGEMENT_CAP) for b in which]
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


def _ranked(key: np.ndarray, score: np.ndarray, prefix) -> np.ndarray:
    """One row per distinct (key, score), the one with the smallest prefix,
    ordered by key and then by score, highest first.  ``prefix(rows)``
    gives the prefixes of ``rows`` as an array, one row each; it is called
    only when some key and score are shared by several rows."""
    order = np.lexsort((-score, key))
    key, score = key[order], score[order]
    first = np.flatnonzero(_run_heads(key, score))
    rows = order[first]
    counts = np.diff(np.append(first, len(order)))
    tied = counts > 1
    if tied.any():  # equal key and score: rank those rows by prefix
        run = np.repeat(np.arange(len(first)), counts)
        members = np.repeat(tied, counts)
        rows_, run = order[members], run[members]
        ranked = np.lexsort((*prefix(rows_).T[::-1], run))
        rows[tied] = rows_[ranked][_run_heads(run[ranked])]
    return rows


def _stable_argsort(key: np.ndarray) -> np.ndarray:
    """``np.argsort(key, kind="stable")`` of non-negative int64 keys, by
    stable sorts of their 16-bit digits, least significant first, as many
    as the largest key has: numpy radix-sorts 16-bit integers."""
    order = np.argsort(key.astype(np.uint16), kind="stable")
    shift, top = 16, int(key.max(initial=0))
    while top >> shift:
        order = order[np.argsort((key[order] >> shift).astype(np.uint16), kind="stable")]
        shift += 16
    return order


def _banded(key: np.ndarray, score: np.ndarray, prefix) -> np.ndarray:
    """The rows ``_ranked`` keeps whose score is within ``_TIE_BAND`` of
    their key's best: the band is applied first, on a sort by key alone,
    so that only survivors that share their key are ranked."""
    order = _stable_argsort(key)
    first = np.flatnonzero(_run_heads(key[order]))
    top = np.maximum.reduceat(score[order], first)
    near = order[score[order] >= np.repeat(top, np.diff(np.append(first, len(order)))) - _TIE_BAND]
    head = _run_heads(key[near])  # the survivors are still in key order
    alone = head & np.append(head[1:], True)
    shared = near[~alone]
    kept = _ranked(key[shared], score[shared], lambda rows: prefix(shared[rows]))
    return np.concatenate([near[alone], shared[kept]])


class _ChunkSteps:
    """What appending a chunk adds to an ``_arrange`` row, for an LM that
    reads at most ``_DENSE_HISTORY`` history words, read from tables
    filled once per batch.

    A row's context fixes the ids its next conditionals read: its
    chunking g, its last chunk c (``most`` for the empty prefix after
    <s>) and, when the LM reads two words and c holds one, the chunk a
    before c (else ``most``), numbered x = ``(g * (most + 1) + c) *
    (most + 1) + a``.  The tables hold, for appending chunk j, its
    conditionals, each after everything before it: ``first`` per (x, j),
    ``second`` per (g, c, j) and ``third`` per (g, j), -0.0 past the
    chunk's end, which adds nothing, bit for bit; and ``follow``, the
    context after the step, per (g, c, j).  Per context, ``end`` is </s>
    after it and ``code`` the ``_codes`` of the ids it ends with.
    """

    def __init__(self, table: ScoreTable, owner: np.ndarray, sizes: np.ndarray, words: np.ndarray):
        chunkings, most = sizes.shape
        self.most, self.span = most, table.span
        self.base = table.heads.shape[1] ** self.span
        g, b = np.arange(chunkings)[:, None], owner[:, None, None]
        last = np.zeros((chunkings, most + 1), dtype=np.int64)  # [g, c]: the last id of chunk c, then <s>
        last[:, :most] = words[g, np.arange(most), np.maximum(sizes - 1, 0)]
        last[:, most] = table.marker[owner]
        inner = words[g, np.arange(most), np.maximum(sizes - 2, 0)]  # the id before a chunk's last
        before = np.full((chunkings, most + 1, most + 1), -1, dtype=np.int64)  # [g, c, a]: the id before c's last
        before[:, :most] = np.where(sizes[:, :, None] == 1, last[:, None], inner[:, :, None])
        ids = [before, np.broadcast_to(last[:, :, None], before.shape)]  # the two ids each context ends with
        w0, w1, w2 = (words[:, None, :, p] for p in range(3))  # [g, 0, j]
        after_last = (chunkings, most + 1, most)  # [g, c, j]
        # a history the LM does not read is dropped, and its axis with it: broadcast back
        first = table(b[..., None], [i[..., None] for i in ids], w0[:, None])
        self.first = np.broadcast_to(first, before.shape + (most,)).ravel()
        second = np.where(sizes[:, None] > 1, table(b, [last[:, :, None], w0], w1), -0.0)
        self.second = np.broadcast_to(second, after_last).ravel()
        self.third = np.where(sizes > 2, table(b[..., 0], [w0[:, 0], w1[:, 0]], w2[:, 0]), -0.0).ravel()
        a = np.where(sizes[:, None] == 1, np.arange(most + 1)[:, None], most) if self.span == 2 else most
        follow = (g[..., None] * (most + 1) + np.arange(most)) * (most + 1) + a
        self.follow = np.broadcast_to(follow, after_last).ravel()
        self.end = np.broadcast_to(table(b, ids, table.marker[b]), before.shape).ravel()
        self.code = np.broadcast_to(_codes(ids[2 - self.span :], table.heads.shape[1]), before.shape).ravel()

    def initial(self, chunkings: int) -> np.ndarray:
        return (np.arange(chunkings) * (self.most + 1) + self.most) * (self.most + 1) + self.most

    def after(self, g: np.ndarray, context: np.ndarray, j: np.ndarray):
        at = context * self.most + j
        last = context // (self.most + 1) * self.most + j  # at (g, c, j)
        conditionals = [self.first.take(at), self.second.take(last), self.third.take(g * self.most + j)]
        return self.follow.take(last), conditionals

    def keys(self, g: np.ndarray, context: np.ndarray) -> list:
        return [(self.code.take(context), self.base)] if self.span else []

    def ends(self, g: np.ndarray, context: np.ndarray) -> np.ndarray:
        return self.end.take(context)


class _IdSteps:
    """``_ChunkSteps`` for an LM that reads more than ``_DENSE_HISTORY``
    history words, which the score table has no block for: a row's
    context is its last ``span`` ids, and each step looks its
    conditionals up for the rows it advances."""

    def __init__(self, table: ScoreTable, owner: np.ndarray, sizes: np.ndarray, words: np.ndarray):
        self.table, self.owner, self.sizes, self.words = table, owner, sizes, words
        self.id_type = np.min_scalar_type(-int(table.marker.max()) - 1)  # word ids and -1, no word

    def initial(self, chunkings: int) -> np.ndarray:
        history = np.full((chunkings, self.table.span), -1, dtype=self.id_type)
        history[:, -1] = self.table.marker[self.owner]
        return history

    def after(self, g: np.ndarray, history: np.ndarray, j: np.ndarray):
        conditionals = []
        for p in range(3):  # the chunk's words, each after the history so far
            on = np.flatnonzero(self.sizes[g, j] > p)
            w = self.words[g[on], j[on], p]
            conditional = np.full(len(g), -0.0)
            conditional[on] = self.table(self.owner[g[on]], list(history[on].T), w)
            conditionals.append(conditional)
            history[on, :-1] = history[on, 1:]
            history[on, -1] = w
        return history, conditionals

    def keys(self, g: np.ndarray, history: np.ndarray) -> list:
        base = self.table.heads.shape[1]
        return [(column.astype(np.int64) + 1, base) for column in history.T]

    def ends(self, g: np.ndarray, history: np.ndarray) -> np.ndarray:
        b = self.owner[g]
        return self.table(b, list(history.T), self.table.marker[b])


def _arrange(table: ScoreTable, plans) -> tuple[list, np.ndarray]:
    """Best sentence of each bag over every order of the chunks of each
    of its chunkings (``plans[b]``, lists of id tuples).

    Held-Karp over states (chunking, used-chunk mask, last ``order - 1``
    ids), one layer per chunk used, for all chunkings at once.  Each row
    is one prefix kept at its state: its chunking, mask, score, context
    (``_ChunkSteps``) and the row of the layer before that it grew from.
    A prefix's ids are spelled out from those pointers only to break an
    exact tie and for each bag's winner.  Returns per bag the best id
    tuple (None without a chunking) and the DP's transitions.
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
    columns = np.arange(most)
    id_type = np.min_scalar_type(int(table.marker.max()))  # a word id; sorts fastest at 8 bits
    steps = (_ChunkSteps if table.span <= _DENSE_HISTORY else _IdSteps)(table, owner, sizes, words)
    trail: list = []  # per layer from the first: each kept row's last chunk and the row it grew from

    def spelled(g: np.ndarray, last: np.ndarray, parent: np.ndarray, depth: int) -> np.ndarray:
        """The ids, padded with 0, of the prefixes of chunking ``g`` that
        append chunk ``last`` to row ``parent`` of layer ``depth - 1``."""
        chain = [last]
        for chunk, up in reversed(trail[: depth - 1]):
            chain.append(chunk[parent])
            parent = up[parent]
        chain = np.stack(chain[::-1], axis=1)
        there = (np.arange(3) < sizes[g[:, None], chain][..., None]).reshape(len(g), 3 * depth)
        ids = np.zeros((len(g), int(there.sum(axis=1).max(initial=0))), dtype=id_type)
        at = (np.nonzero(there)[0], (np.cumsum(there, axis=1) - 1)[there])
        ids[at] = words[g[:, None], chain].reshape(there.shape)[there]
        return ids

    # layer 0: the empty prefix of every chunking, after <s>
    g = np.arange(len(flat))
    mask = np.zeros(len(flat), dtype=np.int64)
    score = table.start[owner]
    context = steps.initial(len(flat))
    ends = []  # per layer, of its complete arrangements: bag, sentence score, chunking, last chunk, parent row
    depth = 0
    while len(g):
        depth += 1
        parent, j = np.nonzero((columns < k[g, None]) & (mask[:, None] >> columns & 1 == 0))
        transitions += np.bincount(owner[g[parent]], minlength=len(plans))
        g, mask, score, context = g[parent], mask[parent] | 1 << j, score[parent], context[parent]
        context, conditionals = steps.after(g, context, j)
        for conditional in conditionals:  # the chunk's words, left to right
            score += conditional

        # per state: one prefix per score, the smallest, within the tie band;
        # complete arrangements all end a sentence, and count as transitions
        # once per state and score
        key = _state_keys([(g, len(flat)), (mask, 1 << most), *steps.keys(g, context)])
        done = mask == full[g]
        fin = np.flatnonzero(done)
        fin = fin[np.lexsort((score[fin], key[fin]))]
        transitions += np.bincount(owner[g[fin[_run_heads(key[fin], score[fin])]]], minlength=len(plans))
        ends.append((owner[g[fin]], score[fin] + steps.ends(g[fin], context[fin]), g[fin], j[fin], parent[fin]))
        keep = np.flatnonzero(~done)
        grown = g[keep], j[keep], parent[keep]
        keep = keep[_banded(key[keep], score[keep], lambda some: spelled(*(a[some] for a in grown), depth))]
        trail.append((j[keep], parent[keep]))
        g, mask, score, context = (a[keep] for a in (g, mask, score, context))

    # each bag's best sentences, spelled out, and the smallest of them on a tie
    owners, totals = (np.concatenate([end[i] for end in ends]) for i in range(2))
    top = np.full(len(plans), -np.inf)
    np.maximum.at(top, owners, totals)
    best = totals == top[owners]
    ids = np.zeros((int(best.sum()), int(table.length.max())), dtype=id_type)
    at = row = 0
    for depth, (bags, _, g, last, parent) in enumerate(ends, start=1):
        some = np.flatnonzero(best[at : at + len(bags)])
        spelt = spelled(g[some], last[some], parent[some], depth)
        ids[row : row + len(some), : spelt.shape[1]] = spelt
        at, row = at + len(bags), row + len(some)
    owners, totals = owners[best], totals[best]
    found: list = [None] * len(plans)
    for row in _ranked(owners, totals, ids.__getitem__).tolist():
        b = int(owners[row])
        found[b] = tuple(ids[row, : table.length[b]].tolist())
    return found, transitions


def _order_batch(batch: _Contexts, model: NGramModel, methods) -> list:
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
    for b, (plan, evaluated, diagnostics) in zip(chunked, _chunkings_many(table, chunked)):
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


def _order(bags, model: NGramModel, methods) -> list:
    """An ``OrderingResult`` per bag searched with its method, or the
    exception that stopped it.

    The bags are looked up once, as ``_Contexts``, and each batch gets
    its slice.  Consecutive bags are searched together while their score
    table's block takes at most ``ORDER_CHUNK`` entries: their LM states
    times the widest bag's distinct words plus 2.  A bag over the budget
    is a batch of its own.
    """
    contexts = _Contexts.find(bags, model)
    states = np.bincount(contexts.owner[contexts.state], minlength=len(bags)).tolist()  # each bag's LM states
    m = contexts.marker.tolist()
    results: list = []
    start = 0
    while start < len(bags):
        stop, width, filled = start + 1, m[start] + 2, states[start]
        while stop < len(bags) and (filled + states[stop]) * max(width, m[stop] + 2) <= ORDER_CHUNK:
            stop, width, filled = stop + 1, max(width, m[stop] + 2), filled + states[stop]
        results += _order_safely(contexts[start:stop], model, methods[start:stop])
        start = stop
    return results


def _order_safely(batch: _Contexts, model: NGramModel, methods) -> list:
    """``_order_batch``; if it raises, its bags one at a time, so that an
    unexpected failure degrades only the bags that raise it."""
    try:
        return _order_batch(batch, model, methods)
    except Exception as exc:
        if len(batch) == 1:
            return [exc]
        return [r for i in range(len(batch)) for r in _order_safely(batch[i : i + 1], model, methods[i : i + 1])]


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

    The seed stage finds the best of every ordered 4-tuple of distinct bag
    positions (n(n-1)(n-2)(n-3) candidates, the ``seed_candidates``) as a
    sentence prefix, with the full ``order - 1`` word history at every LM
    order, the smallest on a tie, in about n ** 3 steps
    (``_continued_best``).  The remaining words then join one at a time,
    each time appending the word whose addition scores highest (the
    smallest word on a tie).
    """
    if len(bag) < 5:
        raise ValueError("method1 requires at least 5 words")
    return _one(_order([bag], model, [OrderMethod.METHOD1]))


def method2(bag: WordBag, model: NGramModel) -> OrderingResult:
    """Chunk-partition search: greedy chunk filling, exact arrangement.

    For every chunk scheme, chunks are filled in scheme order with the
    highest-scoring ordered tuple of still-unused words (scored as bare
    fragments); the best full-sentence arrangement of the filled chunks
    is then found by ``_arrange``.  The best (score, then lexicographic)
    sequence over all schemes wins.  A scheme of more than 9 chunks has
    more arrangements than the fixed cap of 9! (``_ARRANGEMENT_CAP``)
    and is skipped with a diagnostic: at 25 to 27 words some schemes go,
    and a bag of 28 or more words has none left and raises ValueError.
    ``candidates_evaluated`` counts the chunk fragments plus the DP's
    transitions.
    """
    n = len(bag)
    if not 1 <= n <= DEFAULT_THRESHOLD:
        raise ValueError(f"method2 handles 1..{DEFAULT_THRESHOLD} words, got {n}")
    return _one(_order([bag], model, [OrderMethod.METHOD2]))


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
