"""BLEU, NIST, and normalized edit-distance scoring of realized sentences.

BLEU follows the original corpus-level definition (modified n-gram
precision up to 4-grams, geometric mean, brevity penalty), with one
smoothing rule: for n >= 2 a zero match count is replaced by
(0+1)/(den+1) so near misses differentiate while exact matches still
score 100.  NIST weights matched n-grams (up to 5-grams) by information
content computed from the reference corpus and applies its own smoother
brevity factor.  DIST is 100 * (1 - levenshtein / max length) over
lowercased, punctuation-stripped characters.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter
from dataclasses import dataclass

_BLEU_ORDER = 4
_NIST_ORDER = 5
# NIST brevity beta: factor is 0.5 when the hypothesis/reference ratio is 2/3
_NIST_BETA = math.log(0.5) / math.log(2.0 / 3.0) ** 2


def _ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(hypotheses: list[list[str]], references: list[list[str]]) -> float:
    """Corpus-level BLEU in [0, 100], single reference per hypothesis."""
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis and reference lists must have equal length")
    numerators = [0] * _BLEU_ORDER
    denominators = [0] * _BLEU_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, _BLEU_ORDER + 1):
            ref_counts = _ngram_counts(ref, n)
            for gram, count in _ngram_counts(hyp, n).items():
                numerators[n - 1] += min(count, ref_counts[gram])
            denominators[n - 1] += max(len(hyp) - n + 1, 0)
    log_precisions = []
    for n in range(1, _BLEU_ORDER + 1):
        num, den = numerators[n - 1], denominators[n - 1]
        if den == 0:
            continue  # no n-grams of this order anywhere: drop it from the mean
        if num == 0 and n >= 2:
            num, den = 1, den + 1
        if num == 0:
            return 0.0
        log_precisions.append(math.log(num / den))
    if not log_precisions or hyp_len == 0:
        return 0.0
    geo_mean = math.exp(sum(log_precisions) / len(log_precisions))
    brevity = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * brevity * geo_mean


def nist(hypotheses: list[list[str]], references: list[list[str]]) -> float:
    """Corpus-level NIST score (non-negative, unbounded above)."""
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis and reference lists must have equal length")
    ref_counts: list[Counter] = [Counter() for _ in range(_NIST_ORDER)]
    total_ref_tokens = 0
    for ref in references:
        total_ref_tokens += len(ref)
        for n in range(1, _NIST_ORDER + 1):
            ref_counts[n - 1].update(_ngram_counts(ref, n))

    def info(gram: tuple) -> float:
        n = len(gram)
        prefix = ref_counts[n - 2][gram[:-1]] if n > 1 else total_ref_tokens
        return math.log2(prefix / ref_counts[n - 1][gram])

    hyp_len = sum(len(h) for h in hypotheses)
    ref_len = sum(len(r) for r in references)
    if hyp_len == 0 or ref_len == 0:
        return 0.0
    total = 0.0
    for n in range(1, _NIST_ORDER + 1):
        gained = 0.0
        count = 0
        for hyp, ref in zip(hypotheses, references):
            ref_grams = _ngram_counts(ref, n)
            for gram, c in _ngram_counts(hyp, n).items():
                matched = min(c, ref_grams[gram])
                if matched:
                    gained += matched * info(gram)
            count += max(len(hyp) - n + 1, 0)
        if count:
            total += gained / count
    ratio = min(hyp_len / ref_len, 1.0)
    brevity = math.exp(_NIST_BETA * math.log(ratio) ** 2)
    return total * brevity


def levenshtein(a: str, b: str) -> int:
    """Classic edit distance (insert/delete/substitute, unit costs)."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb))
            )
        previous = current
    return previous[-1]


def _normalize_for_dist(text: str) -> str:
    stripped = "".join(
        ch for ch in text.lower() if not unicodedata.category(ch).startswith("P")
    )
    return " ".join(stripped.split())


def dist(hypothesis: str, reference: str) -> float:
    """Normalized character edit similarity in [0, 100]; 100 when both empty."""
    h = _normalize_for_dist(hypothesis)
    r = _normalize_for_dist(reference)
    if not h and not r:
        return 100.0
    return 100.0 * (1.0 - levenshtein(h, r) / max(len(h), len(r)))


@dataclass
class EvalReport:
    bleu: float
    nist: float
    dist: float
    sentences: int
    hyp_tokens: int
    ref_tokens: int

    def table(self) -> str:
        lines = [
            f"{'metric':<12}{'score':>10}",
            f"{'-' * 22}",
            f"{'BLEU':<12}{self.bleu:>10.2f}",
            f"{'NIST':<12}{self.nist:>10.2f}",
            f"{'DIST':<12}{self.dist:>10.2f}",
            f"{'-' * 22}",
            f"sentences={self.sentences} hyp_tokens={self.hyp_tokens} ref_tokens={self.ref_tokens}",
        ]
        return "\n".join(lines)

    def machine_lines(self) -> str:
        return (
            f"bleu\t{self.bleu:.6f}\n"
            f"nist\t{self.nist:.6f}\n"
            f"dist\t{self.dist:.6f}\n"
            f"sentences\t{self.sentences}\n"
        )


def _tokenize(text: str) -> list[str]:
    return text.lower().split()


def evaluate_pairs(hypotheses: list[str], references: list[str]) -> EvalReport:
    """Score aligned sentence strings: corpus BLEU, NIST and DIST.

    Tokenization is whitespace splitting after lowercasing.  Corpus DIST
    is the mean of the per-sentence DIST values.
    """
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis and reference lists must have equal length")
    hyp_tokens = [_tokenize(h) for h in hypotheses]
    ref_tokens = [_tokenize(r) for r in references]
    dists = [dist(h, r) for h, r in zip(hypotheses, references)]
    return EvalReport(
        bleu=bleu(hyp_tokens, ref_tokens),
        nist=nist(hyp_tokens, ref_tokens),
        dist=sum(dists) / len(dists) if dists else 100.0,
        sentences=len(hypotheses),
        hyp_tokens=sum(len(t) for t in hyp_tokens),
        ref_tokens=sum(len(t) for t in ref_tokens),
    )
