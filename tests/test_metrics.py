import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udrealize.metrics import bleu, dist, evaluate_pairs, levenshtein, nist


# ---------------------------------------------------------------------- BLEU

def test_bleu_identity_is_100():
    hyps = [["the", "cat", "sat", "down"], ["a", "dog"]]
    assert bleu(hyps, [list(h) for h in hyps]) == pytest.approx(100.0)


def test_bleu_disjoint_is_zero():
    assert bleu([["x", "y"]], [["a", "b"]]) == 0.0


def test_bleu_hand_trace_clipped_counts():
    # hyp "the the the" vs ref "the cat":
    #   p1 clipped to 1/3; p2 raw 0/2 -> smoothed 1/3; p3 raw 0/1 -> 1/2;
    #   no 4-grams so that order drops out; hyp longer than ref -> BP = 1
    expected = 100.0 * math.exp(
        (math.log(1 / 3) + math.log(1 / 3) + math.log(1 / 2)) / 3
    )
    assert bleu([["the", "the", "the"]], [["the", "cat"]]) == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(38.15714141844439, abs=1e-6)


def test_bleu_brevity_penalty():
    # hyp is a 3-token prefix of a 6-token reference: precisions are all 1,
    # so the whole score is the brevity penalty exp(1 - 6/3)
    ref = ["a", "b", "c", "d", "e", "f"]
    got = bleu([ref[:3]], [ref])
    assert got == pytest.approx(100.0 * math.exp(1 - 2), abs=1e-9)


def test_bleu_corpus_order_invariance():
    hyps = [["the", "cat"], ["a", "dog", "ran"], ["birds", "sing"]]
    refs = [["the", "cat"], ["the", "dog", "ran"], ["a", "bird", "sings"]]
    direct = bleu(hyps, refs)
    shuffled = bleu(hyps[::-1], refs[::-1])
    assert direct == pytest.approx(shuffled, abs=1e-12)


def test_bleu_length_mismatch():
    with pytest.raises(ValueError):
        bleu([["a"]], [])


# ---------------------------------------------------------------------- NIST

def test_nist_empty_is_zero():
    assert nist([], []) == 0.0
    assert nist([[]], [["a"]]) == 0.0


def test_nist_identity_hand_trace():
    # single sentence "a b c": unigram info = log2(3/1) each, matched 3 of 3;
    # higher orders have info log2(1/1) = 0; brevity factor 1
    assert nist([["a", "b", "c"]], [["a", "b", "c"]]) == pytest.approx(math.log2(3.0), abs=1e-12)


def test_nist_reference_frequency_ratio_invariance():
    hyps = [["the", "cat", "sat"], ["a", "dog", "ran", "home"]]
    refs = [["the", "cat", "sat"], ["the", "dog", "ran", "away"]]
    once = nist(hyps, refs)
    doubled = nist(hyps + hyps, refs + refs)
    assert once == pytest.approx(doubled, abs=1e-12)


def test_nist_brevity_factor_half_at_two_thirds():
    # hyp = first 2 of 3 reference tokens, all matched, unigram info only
    refs = [["a", "b", "c"]]
    hyps = [["a", "b"]]
    full = nist([["a", "b", "c"]], refs)
    short = nist(hyps, refs)
    # short hyp: unigram gain = 2*log2(3)/2 = log2(3), bigram gain log2(1)=0of1
    # so the pre-brevity sum equals the identity case; factor must be 0.5
    assert short == pytest.approx(0.5 * full, abs=1e-9)


def test_nist_info_weights_nonnegative():
    refs = [["a", "b", "a", "b", "c"], ["a", "a", "c"]]
    hyps = [["a", "b", "c"], ["c", "a"]]
    assert nist(hyps, refs) >= 0.0


def test_nist_length_mismatch():
    with pytest.raises(ValueError):
        nist([["a"]], [["a"], ["b"]])


# ---------------------------------------------------------------------- DIST

def test_dist_identity():
    assert dist("The cat sat .", "The cat sat .") == 100.0


def test_dist_disjoint_equal_length():
    assert dist("abc", "xyz") == 0.0


def test_dist_single_substitution():
    assert dist("abc", "abd") == pytest.approx(100.0 * (1 - 1 / 3), abs=1e-9)


def test_dist_both_empty_and_punct_only():
    assert dist("", "") == 100.0
    assert dist("...", "!!!") == 100.0  # both normalize to empty


def test_dist_ignores_case_and_punctuation():
    assert dist("The cat, sat!", "the cat sat") == 100.0


def test_dist_bounded():
    assert 0.0 <= dist("completely different", "zzz") <= 100.0


# --------------------------------------------------------------- levenshtein

def test_levenshtein_known_values():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("", "abc") == 3
    assert levenshtein("abc", "") == 3
    assert levenshtein("same", "same") == 0


_short = st.text(alphabet="abcd", max_size=8)


@given(_short, _short)
def test_levenshtein_symmetry(a, b):
    assert levenshtein(a, b) == levenshtein(b, a)


@given(_short, _short, _short)
@settings(max_examples=120)
def test_levenshtein_triangle_inequality(a, b, c):
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@given(_short, _short)
def test_levenshtein_bounds(a, b):
    d = levenshtein(a, b)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))


# -------------------------------------------------------------------- report

def test_evaluate_pairs_identity():
    report = evaluate_pairs(["The cat sat ."], ["The cat sat ."])
    assert report.bleu == pytest.approx(100.0)
    assert report.dist == pytest.approx(100.0)
    assert report.sentences == 1


def test_evaluate_pairs_tokenizes_case_insensitively():
    report = evaluate_pairs(["THE CAT"], ["the cat"])
    assert report.bleu == pytest.approx(100.0)


def test_report_machine_lines_format():
    report = evaluate_pairs(["a b"], ["a b"])
    lines = report.machine_lines().splitlines()
    assert lines[0].startswith("bleu\t")
    assert lines[1].startswith("nist\t")
    assert lines[2].startswith("dist\t")
    parsed = float(lines[0].split("\t")[1])
    assert parsed == pytest.approx(100.0)


def test_report_table_mentions_all_metrics():
    table = evaluate_pairs(["a"], ["a"]).table()
    for name in ("BLEU", "NIST", "DIST"):
        assert name in table
