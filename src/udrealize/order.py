"""Word-order recovery for a bag of words, driven by n-gram LM scores.

Three search strategies, dispatched on bag size:

* ``exhaustive``  - score every permutation, for bags of up to
                    ``EXHAUSTIVE_LIMIT`` (4) words;
* ``method2``     - partition the length into unigram/bigram/trigram
                    chunks, fill each chunk greedily with the
                    best-scoring word tuple, then score every relative
                    arrangement of the chunks; up to the threshold;
* ``method1``     - pick the best-scoring ordered 4-word seed, then grow
                    the sequence greedily from the remaining words;
                    beyond the threshold.

``realize_order`` is the one path from tokens to a sentence string: it
preprocesses, dispatches, and applies casing and the final stop.

All candidate scoring is deterministic; score ties always resolve to the
lexicographically smallest sequence.
"""

from __future__ import annotations

import itertools
import math
import unicodedata
from dataclasses import dataclass, field
from enum import Enum

from .lm import BOS_WORD, EOS_WORD, LmScore, NGramModel, score

# Largest bag the exhaustive search handles.  The threshold may not fall
# below it, so every bag past the threshold has the 5 words method1 needs.
EXHAUSTIVE_LIMIT = 4


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


class _Scorer:
    """Conditional log10 probabilities with a per-call memo cache."""

    def __init__(self, model: NGramModel):
        self.model = model
        self.span = model.order - 1
        self.cache: dict[tuple, float] = {}

    def cond(self, word: str, history: tuple[str, ...]) -> float:
        key = (history[-self.span :] if self.span else (), word)
        hit = self.cache.get(key)
        if hit is None:
            hit = self.model.logprob(word, key[0])
            self.cache[key] = hit
        return hit

    def fragment(self, words) -> float:
        """Bare fragment score: no sentence markers added."""
        total = 0.0
        for i, w in enumerate(words):
            total += self.cond(w, tuple(words[max(0, i - self.span) : i]))
        return total

    def sentence(self, words) -> float:
        """Score as a full sentence wrapped in <s>...</s>."""
        wrapped = (BOS_WORD, *words, EOS_WORD)
        return self.fragment(wrapped)


def _final_score(model: NGramModel, sequence) -> LmScore:
    return score(model, [BOS_WORD, *sequence, EOS_WORD])


def exhaustive(bag: WordBag, model: NGramModel) -> OrderingResult:
    """Argmax over every distinct permutation, scored as a full sentence."""
    n = len(bag)
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"bag of {n} words exceeds the exhaustive limit {EXHAUSTIVE_LIMIT}; use method1 or method2"
        )
    scorer = _Scorer(model)
    best_seq: tuple[str, ...] | None = None
    best = -math.inf
    evaluated = 0
    for perm in sorted(set(itertools.permutations(bag.words))):
        s = scorer.sentence(perm)
        evaluated += 1
        if s > best or (s == best and perm < best_seq):
            best, best_seq = s, perm
    return OrderingResult(
        sequence=list(best_seq),
        lm_score=_final_score(model, best_seq),
        method=OrderMethod.EXHAUSTIVE,
        candidates_evaluated=evaluated,
    )


def method1(bag: WordBag, model: NGramModel) -> OrderingResult:
    """Best 4-word sentence-initial seed, then greedy one-word extensions.

    The seed stage scores every ordered 4-tuple of distinct bag positions
    (n(n-1)(n-2)(n-3) candidates) as a sentence prefix; the remaining
    words then join one at a time, each time appending the word whose
    addition scores highest.
    """
    words = list(bag.words)  # sorted by WordBag construction
    n = len(words)
    if n < 5:
        raise ValueError("method1 requires at least 5 words")
    scorer = _Scorer(model)
    bos = (BOS_WORD,)

    best_seed: tuple[str, ...] | None = None
    best = -math.inf
    seed_count = 0
    c0 = scorer.cond(BOS_WORD, ())
    for quad in itertools.permutations(range(n), 4):
        w = (words[quad[0]], words[quad[1]], words[quad[2]], words[quad[3]])
        s = (
            c0
            + scorer.cond(w[0], bos)
            + scorer.cond(w[1], (BOS_WORD, w[0]))
            + scorer.cond(w[2], (w[0], w[1]))
            + scorer.cond(w[3], (w[1], w[2]))
        )
        seed_count += 1
        if s > best or (s == best and w < best_seed):
            best, best_seed = s, w

    sequence = list(best_seed)
    remaining = words.copy()
    for w in best_seed:
        remaining.remove(w)

    evaluated = seed_count
    iterations = 0
    running = best
    while remaining:
        iterations += 1
        prefix = (BOS_WORD, *sequence)
        best_word: str | None = None
        best_gain = -math.inf
        for w in sorted(set(remaining)):
            gain = scorer.cond(w, prefix)
            evaluated += 1
            if gain > best_gain:
                best_gain, best_word = gain, w
        sequence.append(best_word)
        remaining.remove(best_word)
        running += best_gain
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


def method2(
    bag: WordBag,
    model: NGramModel,
    limit: int = 23,
    arrangement_cap: int = 362880,
) -> OrderingResult:
    """Chunk-partition search: greedy chunk filling, exhaustive arrangement.

    For every chunk scheme, chunks are filled in scheme order with the
    highest-scoring ordered tuple of still-unused words (scored as bare
    fragments); every relative arrangement of the filled chunks is then
    scored as a full sentence.  The best (score, then lexicographic)
    sequence over all schemes wins.  Schemes whose arrangement count
    exceeds ``arrangement_cap`` are skipped with a diagnostic.
    """
    n = len(bag)
    if not 1 <= n <= limit:
        raise ValueError(f"method2 handles 1..{limit} words, got {n}")
    scorer = _Scorer(model)
    diagnostics: list[str] = []
    best_seq: tuple[str, ...] | None = None
    best = -math.inf
    evaluated = 0

    for scheme in chunk_schemes(n):
        k = len(scheme.sizes)
        if math.factorial(k) > arrangement_cap:
            diagnostics.append(
                f"scheme {scheme.sizes}: {k}! arrangements exceed cap {arrangement_cap}, skipped"
            )
            continue
        remaining = list(bag.words)
        chunks: list[tuple[str, ...]] = []
        for size in scheme.sizes:
            best_chunk: tuple[str, ...] | None = None
            chunk_score = -math.inf
            for combo in itertools.permutations(range(len(remaining)), size):
                tup = tuple(remaining[i] for i in combo)
                s = scorer.fragment(tup)
                evaluated += 1
                if s > chunk_score or (s == chunk_score and tup < best_chunk):
                    chunk_score, best_chunk = s, tup
            chunks.append(best_chunk)
            for w in best_chunk:
                remaining.remove(w)
        for arrangement in itertools.permutations(sorted(chunks)):
            seq = tuple(w for chunk in arrangement for w in chunk)
            s = scorer.sentence(seq)
            evaluated += 1
            if s > best or (s == best and seq < best_seq):
                best, best_seq = s, seq
    if best_seq is None:
        raise ValueError("every chunk scheme was skipped by the arrangement cap")
    return OrderingResult(
        sequence=list(best_seq),
        lm_score=_final_score(model, best_seq),
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
