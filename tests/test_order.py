import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udrealize import lm
from udrealize.order import (
    EXHAUSTIVE_LIMIT,
    ChunkScheme,
    EmptyBagError,
    OrderConfig,
    OrderMethod,
    ScoreTable,
    WordBag,
    chunk_schemes,
    exhaustive,
    method1,
    method2,
    order_words,
    preprocess,
    realize_order,
)

from conftest import TOY_VOCAB, random_bag
from _lm_oracle import DictLM


def brute_force_best(model, words):
    """Independent oracle: full enumeration with the same tie-breaking."""
    best_total, best_perm = -math.inf, None
    for perm in sorted(set(itertools.permutations(words))):
        total = lm.score(model, ["<s>", *perm, "</s>"]).total
        if total > best_total or (total == best_total and perm < best_perm):
            best_total, best_perm = total, perm
    return list(best_perm), best_total


# Words the toy LM has never seen; each maps to <unk>.
_OOV = ["blorft", "quix", "zandor"]


def _oracle_bags(seed, count, low, high):
    """``count`` seeded bags of low..high toy words; about half hold an
    out-of-vocabulary word and about half a duplicated word."""
    rng = np.random.default_rng(seed)
    bags = []
    for _ in range(count):
        words = random_bag(rng, int(rng.integers(low, high + 1)))
        if rng.random() < 0.5:
            words[-1] = str(rng.choice(_OOV))
        if len(words) > 1 and rng.random() < 0.5:
            words[0] = words[-1]
        bags.append(WordBag(tuple(sorted(words))))
    assert any(len(set(b.words)) < len(b) for b in bags)
    assert any(set(b.words) & set(_OOV) for b in bags)
    return bags


def _assert_matches_oracle(result, model, expected):
    assert result.sequence == list(expected)
    assert result.lm_score.total == lm.score(model, ["<s>", *expected, "</s>"]).total


# ---------------------------------------------------------------- preprocess

def test_preprocess_strips_punctuation_and_lowercases():
    assert preprocess(["Hello", ",", "world", "!"]).words == ("hello", "world")


def test_preprocess_single_word():
    assert preprocess(["a"]).words == ("a",)


def test_preprocess_all_punctuation_errors():
    with pytest.raises(EmptyBagError):
        preprocess(["..."])
    with pytest.raises(EmptyBagError):
        preprocess(["!", "?", ";"])


def test_preprocess_keeps_duplicates():
    assert preprocess(["the", "dog", "THE"]).words == ("dog", "the", "the")


# ---------------------------------------------------------------- exhaustive

def test_exhaustive_singleton(toy_lm):
    result = exhaustive(WordBag(("dog",)), toy_lm)
    assert result.sequence == ["dog"]
    assert result.method == OrderMethod.EXHAUSTIVE
    assert result.candidates_evaluated == 1


def test_exhaustive_identical_words(toy_lm):
    result = exhaustive(WordBag(("a", "a")), toy_lm)
    assert result.sequence == ["a", "a"]
    assert result.candidates_evaluated == 1  # both permutations coincide


def test_exhaustive_matches_brute_force_oracle(toy_lm):
    bag = preprocess(["dog", "the", "ran", "old"])
    result = exhaustive(bag, toy_lm)
    expected_seq, expected_total = brute_force_best(toy_lm, bag.words)
    assert result.sequence == expected_seq
    assert result.lm_score.total == pytest.approx(expected_total, abs=1e-12)


def test_exhaustive_oracle_agreement_random_bags(toy_lm):
    for bag in _oracle_bags(17, 40, 1, EXHAUSTIVE_LIMIT):
        _assert_matches_oracle(exhaustive(bag, toy_lm), toy_lm, brute_force_best(toy_lm, bag.words)[0])


def test_exhaustive_rejects_large_bags(toy_lm):
    with pytest.raises(ValueError, match="method1 or method2"):
        exhaustive(WordBag(("a", "b", "c", "d", "e")), toy_lm)


# ------------------------------------------------------------------- method1

def test_method1_recovers_dominant_sentence():
    # the gold order dominates this corpus, so the greedy search must find
    # the same sequence as full 120-permutation enumeration (and the gold)
    gold = "alpha beta gamma delta epsilon"
    corpus = [gold] * 60 + ["alpha beta", "gamma delta epsilon", "beta gamma"]
    model = lm.train_lm(corpus, order=3)
    bag = preprocess(gold.split())
    result = method1(bag, model)
    oracle_seq, _ = brute_force_best(model, bag.words)
    assert oracle_seq == gold.split()
    assert result.sequence == oracle_seq


def test_method1_identical_words(toy_lm):
    result = method1(WordBag(("the",) * 5), toy_lm)
    assert result.sequence == ["the"] * 5


def test_method1_counting(toy_lm):
    bag = WordBag(tuple(sorted(["the", "dog", "ran", "old", "cat", "home"])))
    result = method1(bag, toy_lm)
    assert result.seed_candidates == 6 * 5 * 4 * 3
    assert result.lrw_iterations == 2
    assert result.method == OrderMethod.METHOD1


def test_method1_requires_five_words(toy_lm):
    with pytest.raises(ValueError):
        method1(WordBag(("a", "b", "c", "d")), toy_lm)


def test_method1_permutation_invariant(toy_lm):
    rng = np.random.default_rng(23)
    for _ in range(20):
        words = random_bag(rng, int(rng.integers(5, 12)))
        result = method1(preprocess(words), toy_lm)
        assert Counter(result.sequence) == Counter(w.lower() for w in words)


def _memo_logprob(model):
    """The dict oracle's ``logprob``, memoized per (history cut to order - 1 words, word)."""
    oracle = DictLM(model)
    span = model.order - 1
    memo = {}

    def cond(word, history):
        key = (history[-span:] if span else (), word)
        if key not in memo:
            memo[key] = oracle.logprob(word, key[0])
        return memo[key]

    return cond


def _method1_oracle(model, words):
    """The seed-and-grow loop of method1, one candidate at a time.

    Every ordered 4-tuple of bag words is scored as ``lm.score`` scores
    the sentence prefix <s> w0 w1 w2 w3: each word's conditional given
    everything before it (cut to order - 1 words), added left to right.
    Calling ``lm.score`` itself for each of the hundreds of thousands of
    tuples the random-bag test visits would take minutes; the winner's
    score is checked against it.
    """
    cond = _memo_logprob(model)
    words = sorted(words)
    best, best_seed = -math.inf, None
    c0 = cond("<s>", ())
    for quad in itertools.permutations(range(len(words)), 4):
        w = tuple(words[i] for i in quad)
        s = (
            c0
            + cond(w[0], ("<s>",))
            + cond(w[1], ("<s>", w[0]))
            + cond(w[2], ("<s>", w[0], w[1]))
            + cond(w[3], ("<s>", w[0], w[1], w[2]))
        )
        if s > best or (s == best and w < best_seed):
            best, best_seed = s, w
    assert lm.score(model, ["<s>", *best_seed]).total == best
    sequence = list(best_seed)
    remaining = words.copy()
    for w in best_seed:
        remaining.remove(w)
    while remaining:
        prefix = ("<s>", *sequence)
        best_word, best_gain = None, -math.inf
        for w in sorted(set(remaining)):
            gain = cond(w, prefix)
            if gain > best_gain:
                best_gain, best_word = gain, w
        sequence.append(best_word)
        remaining.remove(best_word)
    return sequence


def test_method1_oracle_agreement_random_bags(toy_lm):
    for bag in _oracle_bags(29, 20, 5, 26):
        _assert_matches_oracle(method1(bag, toy_lm), toy_lm, _method1_oracle(toy_lm, bag.words))


def test_method1_final_score_is_full_sentence_score(toy_lm):
    bag = preprocess(["the", "dog", "ran", "home", "tonight"])
    result = method1(bag, toy_lm)
    expected = lm.score(toy_lm, ["<s>", *result.sequence, "</s>"]).total
    assert result.lm_score.total == pytest.approx(expected, abs=1e-12)


# ------------------------------------------------------------- chunk schemes

def test_chunk_schemes_length_six_matches_published_breakdown():
    assert [s.sizes for s in chunk_schemes(6)] == [(3, 3), (3, 2, 1), (2, 2, 2)]


def test_chunk_schemes_length_one():
    assert [s.sizes for s in chunk_schemes(1)] == [(1,)]


def test_chunk_schemes_length_four():
    # partitions of 4 into parts <= 3, at most ceil(4/3)+1 = 3 parts
    assert [s.sizes for s in chunk_schemes(4)] == [(3, 1), (2, 2), (2, 1, 1)]


def test_chunk_schemes_rejects_nonpositive():
    with pytest.raises(ValueError):
        chunk_schemes(0)


@pytest.mark.parametrize("n", list(range(1, 24)))
def test_chunk_scheme_properties(n):
    schemes = chunk_schemes(n)
    assert schemes
    seen = set()
    for scheme in schemes:
        assert sum(scheme.sizes) == n
        assert all(s in (1, 2, 3) for s in scheme.sizes)
        assert len(scheme.sizes) <= math.ceil(n / 3) + 1
        assert tuple(sorted(scheme.sizes, reverse=True)) == scheme.sizes
        assert scheme.sizes not in seen
        seen.add(scheme.sizes)


def test_chunk_scheme_validates_sizes():
    with pytest.raises(ValueError):
        ChunkScheme((4, 2))


# ------------------------------------------------------------------- method2

def _method2_oracle(model, words):
    """Direct reimplementation of the documented chunk procedure."""
    span = model.order - 1
    cond = _memo_logprob(model)
    best_total, best_seq = -math.inf, None
    for scheme in chunk_schemes(len(words)):
        remaining = sorted(words)
        chunks = []
        for size in scheme.sizes:
            chunk_best = (-math.inf, None)
            for combo in itertools.permutations(range(len(remaining)), size):
                tup = tuple(remaining[i] for i in combo)
                total = 0.0
                for j, w in enumerate(tup):
                    total += cond(w, tup[max(0, j - span):j])
                if total > chunk_best[0] or (total == chunk_best[0] and tup < chunk_best[1]):
                    chunk_best = (total, tup)
            chunks.append(chunk_best[1])
            for w in chunk_best[1]:
                remaining.remove(w)
        for arrangement in itertools.permutations(sorted(chunks)):
            seq = tuple(w for chunk in arrangement for w in chunk)
            wrapped = ("<s>", *seq, "</s>")
            total = 0.0
            for j, w in enumerate(wrapped):
                total += cond(w, wrapped[max(0, j - span):j])
            if total > best_total or (total == best_total and seq < best_seq):
                best_total, best_seq = total, seq
    return list(best_seq)


def test_method2_singleton(toy_lm):
    result = method2(WordBag(("dog",)), toy_lm)
    assert result.sequence == ["dog"]
    assert result.method == OrderMethod.METHOD2


def test_method2_small_bags_stay_permutations(toy_lm):
    rng = np.random.default_rng(31)
    for _ in range(20):
        words = random_bag(rng, int(rng.integers(1, 5)))
        result = method2(preprocess(words), toy_lm)
        assert Counter(result.sequence) == Counter(w.lower() for w in words)


def test_method2_matches_independent_oracle(toy_lm):
    bag = preprocess(["the", "boy", "reads", "a", "book", "tonight"])
    result = method2(bag, toy_lm)
    assert result.sequence == _method2_oracle(toy_lm, bag.words)


def test_method2_oracle_agreement_random_bags(toy_lm):
    for bag in _oracle_bags(37, 30, 5, 14):
        _assert_matches_oracle(method2(bag, toy_lm), toy_lm, _method2_oracle(toy_lm, bag.words))


def test_method2_twenty_words_matches_oracle(toy_lm):
    # 20 words allow 8 chunks: the deepest arrangement the oracle can enumerate here
    (bag,) = _oracle_bags(53, 1, 20, 20)
    assert max(len(s.sizes) for s in chunk_schemes(len(bag))) == 8
    _assert_matches_oracle(method2(bag, toy_lm), toy_lm, _method2_oracle(toy_lm, bag.words))


def test_unknown_words_tie_break_to_smallest_sequence(toy_lm):
    # every word maps to <unk>, so all orders score the same and the tie-break decides
    bag = WordBag(("qa", "qb", "qc", "qd", "qe", "qf", "qg"))
    assert not set(bag.words) & set(toy_lm.vocab)
    _assert_matches_oracle(method2(bag, toy_lm), toy_lm, _method2_oracle(toy_lm, bag.words))
    _assert_matches_oracle(method1(bag, toy_lm), toy_lm, _method1_oracle(toy_lm, bag.words))
    assert method2(bag, toy_lm).sequence == list(bag.words)


def _unigram_model(logp):
    """Order-1 model with the given log10 probabilities. Every order of a
    bag sums the same terms, so scores differ only by rounding."""
    entries = "".join(f"{v!r}\t{w}\n" for w, v in logp.items())
    return lm.parse_arpa(f"\\data\\\nngram 1={len(logp)}\n\n\\1-grams:\n{entries}\n\\end\\\n")


def test_method2_keeps_prefixes_that_differ_by_rounding():
    # a prefix a few ulps below the best at its DP state ends up tied with
    # it and wins on the smaller sequence
    model = _unigram_model({"<s>": -0.3, "</s>": -1.3, "<unk>": -0.2, "w0": -0.7,
                            "w1": -0.2, "w2": -0.1, "w3": -1.1, "w4": -0.1, "w5": -0.2})
    bag = WordBag(("w0", "w1", "w2", "w3", "w4", "w5"))
    _assert_matches_oracle(method2(bag, model), model, _method2_oracle(model, bag.words))


def test_method1_seed_sums_round_like_the_oracle():
    # the seed ranking depends on adding its terms left to right
    model = _unigram_model({"<s>": -0.7, "</s>": -1.1, "<unk>": -0.7, "w0": -0.3,
                            "w1": -1.3, "w2": -0.2, "w3": -0.3, "w4": -0.3, "w5": -1.3})
    bag = WordBag(("w0", "w1", "w2", "w3", "w4", "w5"))
    _assert_matches_oracle(method1(bag, model), model, _method1_oracle(model, bag.words))


@pytest.mark.parametrize("lm_order", [1, 2, 3, 4, 5])
def test_score_table_holds_exact_logprobs(lm_order):
    from conftest import toy_corpus_sentences

    model = lm.train_lm(toy_corpus_sentences(), order=lm_order)
    table = ScoreTable(preprocess(["the", "dog", "the", "quix"]), model)
    m = table.marker
    heads, predicted = [*table.words, "<s>"], [*table.words, "</s>"]
    assert table.start == model.logprob("<s>", ())
    for length in range(lm_order):
        axes = [range(m + 1)] + [range(m)] * (length - 1) if length else []
        for history in itertools.product(*axes):
            for w in range(m + 1):
                expected = model.logprob(predicted[w], [heads[i] for i in history])
                assert table.cond(history, w) == expected


@pytest.mark.parametrize("lm_order", [4, 5])
def test_method1_seeds_see_the_full_history(lm_order):
    # at order 4 and up a seed's third and fourth words are scored after
    # three and four earlier words, not after two
    from conftest import toy_corpus_sentences

    model = lm.train_lm(toy_corpus_sentences(), order=lm_order)
    for bag in _oracle_bags(61, 12, 5, 12):
        _assert_matches_oracle(method1(bag, model), model, _method1_oracle(model, bag.words))


@pytest.mark.parametrize("lm_order", [1, 2, 4, 5])
def test_searches_match_oracles_at_other_lm_orders(lm_order):
    from conftest import toy_corpus_sentences

    model = lm.train_lm(toy_corpus_sentences(), order=lm_order)
    small = preprocess(["the", "dog", "the", "quix"])
    large = preprocess(["the", "old", "dog", "ran", "in", "the", "park", "quix"])
    _assert_matches_oracle(exhaustive(small, model), model, brute_force_best(model, small.words)[0])
    _assert_matches_oracle(method2(large, model), model, _method2_oracle(model, large.words))
    _assert_matches_oracle(method1(large, model), model, _method1_oracle(model, large.words))


def test_method2_never_beats_full_enumeration(toy_lm):
    # method2's candidates are a subset of all permutations; log the gap
    bag = preprocess(["the", "boy", "reads", "a", "book", "tonight"])
    result = method2(bag, toy_lm)
    _, full_best = brute_force_best(toy_lm, bag.words)
    print(f"method2 score {result.lm_score.total:.4f} vs full argmax {full_best:.4f}")
    assert result.lm_score.total <= full_best + 1e-9


def test_method2_arrangement_cap_skips_schemes(toy_lm):
    bag = WordBag(tuple(sorted(["the", "boy", "reads", "a", "book", "tonight"])))
    result = method2(bag, toy_lm, arrangement_cap=2)
    # only the two-chunk scheme (3,3) fits under the cap
    assert len(result.diagnostics) == 2
    assert Counter(result.sequence) == Counter(bag.words)
    with pytest.raises(ValueError, match="skipped"):
        method2(bag, toy_lm, arrangement_cap=1)


def test_method2_limit(toy_lm):
    with pytest.raises(ValueError):
        method2(WordBag(tuple("abcdef")), toy_lm, limit=5)


# ------------------------------------------------------------------ dispatch

def test_dispatch_thirty_tokens_uses_method1(toy_lm):
    rng = np.random.default_rng(41)
    result = order_words(preprocess(random_bag(rng, 30)), toy_lm)
    assert result.method == OrderMethod.METHOD1


def test_dispatch_ten_tokens_uses_method2(toy_lm):
    rng = np.random.default_rng(43)
    result = order_words(preprocess(random_bag(rng, 10)), toy_lm)
    assert result.method == OrderMethod.METHOD2


def test_dispatch_small_uses_exhaustive(toy_lm):
    result = order_words(preprocess(["the", "dog"]), toy_lm)
    assert result.method == OrderMethod.EXHAUSTIVE


@pytest.mark.parametrize("threshold", [4, 5, 6])
def test_dispatch_every_accepted_threshold_is_safe(toy_lm, threshold):
    # README: exhaustive up to 4 words, method2 up to the threshold, method1 beyond
    cfg = OrderConfig(threshold=threshold)
    rng = np.random.default_rng(threshold)
    for n in range(1, threshold + 3):
        result = order_words(preprocess(random_bag(rng, n)), toy_lm, cfg)
        if n <= EXHAUSTIVE_LIMIT:
            expected = OrderMethod.EXHAUSTIVE
        elif n <= threshold:
            expected = OrderMethod.METHOD2
        else:
            expected = OrderMethod.METHOD1
        assert result.method == expected, n
        assert len(result.sequence) == n


def test_realize_order_appends_full_stop_and_capitalizes(toy_lm):
    out, result = realize_order(["dog", "the", "ran"], toy_lm)
    assert out.endswith(" .")
    assert out[0].isupper()
    assert out[:-2].lower().split() == result.sequence


def test_realize_order_flags(toy_lm):
    cfg = OrderConfig(capitalize=False, append_full_stop=False)
    out, result = realize_order(["dog", "the"], toy_lm, cfg)
    assert not out.endswith(".")
    assert out == out.lower()
    assert out.split() == result.sequence


def test_realize_order_propagates_empty_bag(toy_lm):
    with pytest.raises(EmptyBagError):
        realize_order([",", "!"], toy_lm)


def test_order_config_validation():
    with pytest.raises(ValueError):
        OrderConfig(threshold=3).validate()
    OrderConfig(threshold=EXHAUSTIVE_LIMIT).validate()


def test_ordering_is_deterministic(toy_lm):
    rng = np.random.default_rng(47)
    words = random_bag(rng, 9)
    first = order_words(preprocess(words), toy_lm)
    second = order_words(preprocess(words), toy_lm)
    assert first.sequence == second.sequence
    assert first.lm_score.total == second.lm_score.total
    assert first.candidates_evaluated == second.candidates_evaluated


@given(st.lists(st.sampled_from(TOY_VOCAB + ["!", ",", "."]), min_size=1, max_size=9))
@settings(max_examples=60, deadline=None)
def test_permutation_invariant_property(tokens):
    model = _model()
    try:
        bag = preprocess(tokens)
    except EmptyBagError:
        return
    result = order_words(bag, model)
    assert Counter(result.sequence) == Counter(bag.words)


_CACHE = {}


def _model():
    if "m" not in _CACHE:
        from conftest import toy_corpus_sentences

        _CACHE["m"] = lm.train_lm(toy_corpus_sentences(), order=3)
    return _CACHE["m"]
