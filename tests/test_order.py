import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udrealize import cli, conllu, lm, order
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
    realize_orders,
)

from conftest import DATA_DIR, TOY_VOCAB, random_bag, toy_corpus_sentences
from _lm_oracle import DictLM
import _order_oracle


def brute_force_best(model, words):
    """Independent oracle: full enumeration with the same tie-breaking,
    from the first permutation, so that a model where every one scores
    -inf also has an answer."""
    best_total, best_perm = None, None
    for perm in sorted(set(itertools.permutations(words))):
        total = lm.score(model, ["<s>", *perm, "</s>"]).total
        if best_perm is None or total > best_total or (total == best_total and perm < best_perm):
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


@pytest.mark.parametrize("lm_order", [1, 2, 3, 4, 5])
def test_exhaustive_oracle_agreement_random_bags(lm_order):
    model = lm.train_lm(toy_corpus_sentences(), order=lm_order)
    bags = _oracle_bags(17, 40, 1, EXHAUSTIVE_LIMIT) + [
        WordBag(("blorft", "quix", "zandor")),  # every word out of vocabulary: all permutations tie
        WordBag(("blorft", "blorft", "quix", "zandor")),
    ]
    for bag in bags:
        result = exhaustive(bag, model)
        _assert_matches_oracle(result, model, brute_force_best(model, bag.words)[0])
        assert result.candidates_evaluated == _exhaustive_oracle(model, bag.words)[1]


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
    score is checked against it.  Each pick starts from its first
    candidate, so that -inf totals and gains also have an answer.  Returns
    the sequence, and the candidates, seeds and growth steps the loop
    visited.
    """
    cond = _memo_logprob(model)
    words = sorted(words)
    best, best_seed = None, None
    c0 = cond("<s>", ())
    seeds = iterations = 0
    for quad in itertools.permutations(range(len(words)), 4):
        seeds += 1
        w = tuple(words[i] for i in quad)
        s = (
            c0
            + cond(w[0], ("<s>",))
            + cond(w[1], ("<s>", w[0]))
            + cond(w[2], ("<s>", w[0], w[1]))
            + cond(w[3], ("<s>", w[0], w[1], w[2]))
        )
        if best_seed is None or s > best or (s == best and w < best_seed):
            best, best_seed = s, w
    assert lm.score(model, ["<s>", *best_seed]).total == best
    sequence = list(best_seed)
    remaining = words.copy()
    for w in best_seed:
        remaining.remove(w)
    evaluated = seeds
    while remaining:
        iterations += 1
        prefix = ("<s>", *sequence)
        best_word, best_gain = None, None
        for w in sorted(set(remaining)):
            evaluated += 1
            gain = cond(w, prefix)
            if best_word is None or gain > best_gain:
                best_gain, best_word = gain, w
        sequence.append(best_word)
        remaining.remove(best_word)
    return sequence, {"candidates_evaluated": evaluated, "seed_candidates": seeds, "lrw_iterations": iterations}


def test_method1_oracle_agreement_random_bags(toy_lm):
    for bag in _oracle_bags(29, 20, 5, 26):
        _assert_matches_oracle(method1(bag, toy_lm), toy_lm, _method1_oracle(toy_lm, bag.words)[0])


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


def _brute_force_schemes(n):
    """Every descending tuple of parts from {1, 2, 3} that sums to n within the part cap, largest first."""
    cap = math.ceil(n / 3) + 1
    found = [
        sizes
        for parts in range(1, cap + 1)
        for sizes in itertools.combinations_with_replacement((3, 2, 1), parts)
        if sum(sizes) == n
    ]
    return sorted(found, reverse=True)


@pytest.mark.parametrize("n", list(range(1, 31)))
def test_chunk_schemes_equal_a_brute_force_enumeration(n):
    assert [s.sizes for s in chunk_schemes(n)] == _brute_force_schemes(n)


def test_chunk_schemes_of_a_huge_bag_are_few_and_in_order():
    # validation puts no upper bound on the threshold, so n may be large
    n = 10**5
    sizes = [s.sizes for s in chunk_schemes(n)]
    assert len(sizes) == 5
    assert all(sum(s) == n and len(s) <= math.ceil(n / 3) + 1 for s in sizes)
    assert all(tuple(sorted(s, reverse=True)) == s for s in sizes)
    assert sizes == sorted(sizes, reverse=True)


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
    _assert_matches_oracle(method1(bag, toy_lm), toy_lm, _method1_oracle(toy_lm, bag.words)[0])
    assert method2(bag, toy_lm).sequence == list(bag.words)


def _unigram_model(logp):
    """Order-1 model with the given log10 probabilities. Every order of a
    bag sums the same terms, so scores differ only by rounding."""
    return _arpa_model(1, logp)


def _arpa_model(order_, entries):
    """A model of LM order ``order_`` from {n-gram: logp or (logp, bow)};
    every n-gram's prefix must be an entry."""
    sections = [[] for _ in range(order_)]
    for gram, value in entries.items():
        logp, bow = value if isinstance(value, tuple) else (value, 0.0)
        n = len(gram.split())
        sections[n - 1].append(f"{logp!r}\t{gram}" + (f"\t{bow!r}" if n < order_ else ""))
    head = "".join(f"ngram {n + 1}={len(lines)}\n" for n, lines in enumerate(sections))
    body = "".join(
        f"\\{n + 1}-grams:\n" + "".join(f"{line}\n" for line in lines) + "\n" for n, lines in enumerate(sections)
    )
    return lm.parse_arpa(f"\\data\\\n{head}\n{body}\\end\\\n")


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
    _assert_matches_oracle(method1(bag, model), model, _method1_oracle(model, bag.words)[0])


def _seed_search_entries(model, n, monkeypatch):
    """The size of every score array that ``method1`` reads from the score
    table for a bag of n distinct words, and the result."""
    bag = WordBag(tuple(sorted(TOY_VOCAB + [f"w{i:03d}" for i in range(n - len(TOY_VOCAB))])))
    sizes = []
    real = ScoreTable.__call__

    def spy(self, bag, history, word):
        out = real(self, bag, history, word)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(ScoreTable, "__call__", spy)
    result = method1(bag, model)
    assert Counter(result.sequence) == Counter(bag.words)
    assert result.seed_candidates == n * (n - 1) * (n - 2) * (n - 3)
    return sizes


def test_method1_seed_grids_of_a_huge_bag_stay_within_the_chunk_bound(toy_lm, monkeypatch):
    # 120 distinct words.  At LM order 3 a seed's fourth word reads only the
    # two before it, so the search scores the 120 ** 3 tuples before it,
    # split along the first word into grids of 120 ** 2, and ranks the
    # 120 ** 3 continuations of each pair once, in passes: about
    # 2 * 120 ** 3 entries, where scoring every seed took 120 ** 4
    sizes = _seed_search_entries(toy_lm, 120, monkeypatch)
    assert 0 < max(sizes) <= order.ORDER_CHUNK
    assert sum(sizes) <= 8 * 120**3


def test_method1_seed_grids_of_a_large_bag_at_lm_order_4_stay_within_the_chunk_bound(monkeypatch):
    # at LM order 4 the seed search also scores the 40 ** 3 tuples before
    # the fourth word, split along the seed's first word into grids of
    # 40 ** 2; a tuple whose three words are an n-gram rescans its fourth
    model = lm.train_lm(toy_corpus_sentences(), order=4)
    assert 0 < max(_seed_search_entries(model, 40, monkeypatch)) <= order.ORDER_CHUNK


@pytest.mark.parametrize("lm_order", [4, 5])
def test_method1_seed_grids_of_a_huge_bag_at_lm_orders_4_and_5_stay_as_small_as_at_order_3(lm_order, monkeypatch):
    # 120 distinct words: the fourth word of a tuple whose history holds no
    # n-gram of 3 or more words reads only the two words before it, as at
    # order 3, and the few others are rescanned
    model = lm.train_lm(toy_corpus_sentences(), order=lm_order)
    sizes = _seed_search_entries(model, 120, monkeypatch)
    assert 0 < max(sizes) <= order.ORDER_CHUNK
    assert sum(sizes) <= 8 * 120**3


@pytest.mark.parametrize("lm_order", [1, 2, 3, 4, 5])
def test_method1_seeds_split_past_the_chunk_bound_match_the_oracle(lm_order, monkeypatch):
    # a bound this small splits every seed grid along its second word, and
    # most of those parts again along the third
    model = lm.train_lm(toy_corpus_sentences(), order=lm_order)
    bags = _oracle_bags(97, 8, 5, 14)
    whole = [method1(bag, model) for bag in bags]
    monkeypatch.setattr(order, "ORDER_CHUNK", 30)
    for bag, unsplit in zip(bags, whole):
        result = method1(bag, model)
        _assert_matches_oracle(result, model, _method1_oracle(model, bag.words)[0])
        assert (result.sequence, result.lm_score, result.candidates_evaluated) == (
            unsplit.sequence, unsplit.lm_score, unsplit.candidates_evaluated
        )


@pytest.mark.parametrize("lm_order", [1, 2, 3, 4, 5])
def test_method1_whole_and_split_seed_rows_in_one_call_match_the_oracle(lm_order, monkeypatch):
    # 8 distinct words give a whole 4-grid of 8 ** 4 entries; 18 give one
    # of 18 ** 4, past ORDER_CHUNK, split along the first word; both bags
    # are rows of the same seed search
    model = lm.train_lm(toy_corpus_sentences(), order=lm_order)
    small = ["the", "old", "dog", "ran", "in", "the", "park", "quix", "home"]
    large = TOY_VOCAB[:17] + ["blorft", TOY_VOCAB[3]]
    assert (len(set(small)), len(set(large))) == (8, 18)
    widths = []  # the distinct words of each row of each 4-tuple call
    real = order._grid_best

    def spy(table, last, bag, counts, size, history, start):
        if size == 4:
            widths.append(sorted(table.marker[bag].tolist()))
        return real(table, last, bag, counts, size, history, start)

    monkeypatch.setattr(order, "_grid_best", spy)
    found = realize_orders([small, large], model, OrderConfig(threshold=4))
    assert widths == [[8, 18]]
    for words, (_, result) in zip((small, large), found):
        sequence, counts = _method1_oracle(model, words)
        assert result.method is OrderMethod.METHOD1
        _assert_matches_oracle(result, model, sequence)
        assert (result.candidates_evaluated, result.seed_candidates, result.lrw_iterations) == (
            counts["candidates_evaluated"], counts["seed_candidates"], counts["lrw_iterations"]
        )


def _assert_method1_matches_oracle(bag, model):
    result = method1(bag, model)
    sequence, counts = _method1_oracle(model, bag.words)
    _assert_matches_oracle(result, model, sequence)
    assert (result.candidates_evaluated, result.seed_candidates, result.lrw_iterations) == (
        counts["candidates_evaluated"], counts["seed_candidates"], counts["lrw_iterations"]
    )


_ULP = 2.0**-53  # a unit in the last place of a float in [0.5, 1)


@pytest.mark.parametrize("lm_order", [1, 2, 3])
@pytest.mark.parametrize("bos", [-0.3, -3.0, -100.0])
def test_method1_seed_continuations_that_round_to_a_tie_match_the_oracle(lm_order, bos):
    # the words' log probabilities are a few ulps apart, with the larger
    # ids the more likely, so the totals of a seed's last word round to
    # ties that its smaller ids win; at <s> = -100 every total of a cell
    # rounds to the same float, and the winner's last word is past the
    # continuations kept for the two words before it, so only a rescan
    # finds it
    words = [f"w{i}" for i in range(8)]
    entries = {"<s>": (bos, 0.0), "</s>": -1.0, "<unk>": -2.0}
    entries.update({w: (-0.5 - (8 - i) * _ULP, 0.0) for i, w in enumerate(words)})
    if lm_order >= 2:  # bigrams that back off to nothing, also a few ulps apart
        entries.update({f"w1 {w}": (-0.5 - (i % 3) * _ULP, 0.0) for i, w in enumerate(words)})
    if lm_order >= 3:
        entries.update({f"w1 w2 {w}": -0.5 - (i % 2) * _ULP for i, w in enumerate(words)})
    model = _arpa_model(lm_order, entries)
    bag = WordBag(tuple(words))
    _assert_method1_matches_oracle(bag, model)
    if bos == -100.0 and lm_order == 1:
        seed = _method1_oracle(model, bag.words)[0][:4]
        assert seed == ["w0", "w1", "w2", "w3"]
        ranked = sorted((w for w in words if w not in seed[1:3]), key=lambda w: (-model.logprob(w, []), w))
        assert ranked.index("w3") >= order._KEPT


@pytest.mark.parametrize("lm_order", [1, 2, 3])
def test_method1_seed_tie_among_the_kept_continuations_goes_to_the_smaller_word(lm_order):
    # the seed opens <s> a b c; after b c the best word, a, is used up, and
    # e and d (one ulp less likely) round to the same total: d, the smaller
    # word, wins, and f scores below both, so no rescan is needed
    d = math.nextafter(-0.7, -math.inf)
    entries = {"<s>": (-0.4, 0.0), "</s>": -1.0, "<unk>": -2.0, "a": (-0.1, 0.0), "b": (-0.1, 0.0),
               "c": (-0.1, 0.0), "d": (d, 0.0), "e": (-0.7, 0.0), "f": (-0.9, 0.0)}
    model = _arpa_model(lm_order, entries)
    bag = WordBag(tuple("abcdef"))
    prefix = -0.4 - 0.1 - 0.1 - 0.1
    assert prefix + d == prefix - 0.7 and _method1_oracle(model, bag.words)[0][:4] == list("abcd")
    _assert_method1_matches_oracle(bag, model)


@pytest.mark.parametrize("lm_order", [1, 2, 3])
def test_method1_seeds_whose_best_last_word_is_used_up_match_the_oracle(lm_order):
    # "the" is the best word after almost anything, and its copies are
    # used up by the seed's first three words, or by its first only
    model = lm.train_lm(toy_corpus_sentences(), order=lm_order)
    for words in (
        ("the", "the", "the", "dog", "ran", "park", "in"),
        ("the", "dog", "ran", "park", "in", "a"),
        ("the", "the", "a", "a", "dog", "ran"),
        ("quix", "quix", "blorft", "the", "dog", "the"),
    ):
        _assert_method1_matches_oracle(WordBag(tuple(sorted(words))), model)
    heavy = {"<s>": (-0.5, 0.0), "</s>": -1.0, "<unk>": -2.0, "x": (-0.1, 0.0), "y": (-1.3, 0.0),
             "z": (-1.2, 0.0), "u": (-1.25, 0.0), "v": (-1.5, 0.0)}
    for words in (("u", "v", "x", "y", "z"), ("u", "x", "x", "y", "z"), ("x", "x", "x", "y", "z", "z")):
        _assert_method1_matches_oracle(WordBag(words), _arpa_model(lm_order, heavy))


@pytest.mark.parametrize("lm_order", [1, 2, 3])
def test_method1_seeds_of_bags_of_two_and_three_distinct_words_match_the_oracle(lm_order):
    model = lm.train_lm(toy_corpus_sentences(), order=lm_order)
    for words in (
        ("dog", "dog", "dog", "the", "the"),
        ("a", "a", "a", "a", "quix"),
        ("dog", "ran", "the", "dog", "ran", "the"),
        ("the", "the", "old", "old", "dog", "dog", "the"),
    ):
        assert len(set(words)) in (2, 3)
        _assert_method1_matches_oracle(WordBag(tuple(sorted(words))), model)


@pytest.mark.parametrize("lm_order", [1, 2, 3])
def test_method1_seeds_with_minus_infinity_conditionals_match_the_oracle(lm_order):
    # hand-written, with -inf log probabilities and a -inf backoff after
    # <s>: many seeds score -inf, and so do some of their continuations.
    # f and g score -inf after anything: a bag that holds them reaches
    # growth steps in which every gain is -inf, and at LM order 1 every
    # order of it scores -inf; such a pick takes the smallest word left
    inf = float("-inf")
    entries = {"<s>": (-0.4, 0.0), "</s>": -1.0, "<unk>": -2.0, "a": (-0.9, -0.1), "b": (-1.1, 0.0),
               "c": (-1.0, -0.2), "d": (-1.2, 0.0), "e": (-0.8, 0.0), "f": (inf, 0.0), "g": (inf, 0.0)}
    if lm_order >= 2:
        entries.update({"<s> e": (inf, 0.0), "<s> d": (inf, 0.0), "<s> c": (-0.5, inf), "<s> a": (-0.6, 0.0),
                        "c d": (-0.3, 0.0), "a b": (-0.2, 0.0)})
    if lm_order >= 3:
        entries.update({"<s> c a": -0.2, "<s> a d": inf, "<s> a c": -0.1, "a b c": -0.1})
    model = _arpa_model(lm_order, entries)
    assert model.logprob("f", []) == model.logprob("g", ["a", "b"]) == -math.inf
    assert lm_order == 1 or model.logprob("e", ["<s>"]) == -math.inf
    for words in (
        ("a", "b", "c", "d", "e"), ("a", "b", "c", "d", "e", "e"), ("a", "a", "b", "c", "d", "d", "e"),
        ("a", "b", "c", "d", "f", "g"), ("a", "b", "c", "e", "f", "f", "g"), ("a", "f", "f", "g", "g"),
    ):
        _assert_method1_matches_oracle(WordBag(words), model)


_INF_WORDS = ["a", "b", "c", "d"]


@st.composite
def _minus_infinity_models(draw):
    """An LM of order 1 to 5 over ``_INF_WORDS``, hand-written as ARPA,
    whose log probabilities and backoff weights are often -inf; its
    n-grams past the unigrams are a drawn prefix-closed set."""
    lm_order = draw(st.integers(1, 5))
    logp = st.sampled_from([-math.inf, -0.2, -0.7, -1.5])
    bow = st.sampled_from([0.0, -0.3, -math.inf])
    grams = [("<s>",), ("</s>",), ("<unk>",)] + [(w,) for w in _INF_WORDS]
    entries, level = {}, grams
    for n in range(2, lm_order + 1):
        extensions = [(*g, w) for g in level if g[-1] != "</s>" for w in [*_INF_WORDS, "</s>"]]
        level = draw(st.lists(st.sampled_from(extensions), max_size=10, unique=True)) if extensions else []
        grams += level
    for gram in grams:
        entries[" ".join(gram)] = (draw(logp), draw(bow))
    return _arpa_model(lm_order, entries)


@settings(max_examples=150, deadline=None)
@given(_minus_infinity_models(), st.lists(st.sampled_from([*_INF_WORDS, "zyzzyva"]), min_size=1, max_size=9))
def test_every_search_keeps_its_bag_under_minus_infinity_log_probabilities(model, words):
    # where every candidate a pick may take scores -inf, it takes the
    # smallest, as it does on any tie, never a word the bag has no copy
    # left of; the DP of exhaustive and method2 bags may keep a different
    # -inf prefix from the one brute force would, so only the multiset is
    # checked there, and method1 also against its oracle
    bag = WordBag(tuple(sorted(words)))
    searches = [method2] + ([exhaustive] if len(bag) <= EXHAUSTIVE_LIMIT else [method1])
    for search in searches:
        result = search(bag, model)
        assert Counter(result.sequence) == Counter(bag.words), search.__name__
        assert result.lm_score == lm.score(model, ["<s>", *result.sequence, "</s>"])
        if search is method1:
            assert result.sequence == _method1_oracle(model, bag.words)[0]


_SEED_WORDS = ["a", "dog", "old", "ran", "the", "while", "zyzzyva"]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 5),
    st.lists(st.lists(st.sampled_from(_SEED_WORDS), min_size=1, max_size=12), min_size=1, max_size=4),
    st.sampled_from([4, 8, 30, 100, 5000]),
)
def test_seed_search_rows_match_one_whole_grid(lm_order, drawn, chunk):
    # per row, the seed search (with its continuations at every LM order,
    # and split along leading ids past ORDER_CHUNK, down to rows of one id
    # when a bag has more distinct words than ORDER_CHUNK) finds the tuple
    # and score of one unsplit grid of every 4-tuple, also for a bag of
    # fewer than 4 words, which allows none: its words in order, then 0s,
    # and -inf
    model = _arrange_lm(lm_order)
    bags = [WordBag(tuple(sorted(words))) for words in drawn]
    table = ScoreTable(order._Contexts.find(bags, model), model)
    owner = np.arange(len(bags))
    width = int(table.marker.max())
    counts = table.counts[owner, :width]
    history, start = [table.marker[owner]], table.start[owner]
    expected = order._masked_best(order._grid_scores(table, owner, 4, width, history, start), counts)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(order, "ORDER_CHUNK", chunk)
        found = order._grid_best(table, order._Continuations(table, owner), owner, counts.copy(), 4, history, start)
    assert found[0].tolist() == expected[0].tolist()
    assert found[1].tolist() == expected[1].tolist()


def _assert_exact_conditionals(table, b, model):
    """Every conditional of bag ``b`` of the table, after every history of up
    to ``order`` words, equals ``model.logprob``: histories of up to
    order - 1 words are read from the score block and then from the LM,
    and one word longer, which both cut."""
    m = table.marker[b]
    words = table.words[b]
    heads, predicted = [*words, "<s>"], [*words, "</s>"]
    assert table.start[b] == model.logprob("<s>", ())
    for length in range(model.order + 1):
        axes = [range(m + 1)] + [range(m)] * (length - 1) if length else []
        for history in itertools.product(*axes):
            got = table(np.array(b), [np.array(i) for i in history], np.arange(m + 1))
            for w in range(m + 1):
                assert got[w] == model.logprob(predicted[w], [heads[i] for i in history])


@pytest.mark.parametrize(
    "lm_order, where",
    [pytest.param(o, w, id=str(o) if w == "alone" else f"{o}-{w}") for w in ("alone", "middle") for o in range(1, 6)],
)
def test_score_table_holds_exact_logprobs(lm_order, where):
    from conftest import toy_corpus_sentences

    model = lm.train_lm(toy_corpus_sentences(), order=lm_order)
    bag = preprocess(["the", "dog", "the", "quix"])
    alone = ScoreTable(order._Contexts.find([bag], model), model)
    if where == "alone":
        table, b = alone, 0
    else:  # between a one-word bag and one with more distinct words, so its arrays are padded
        wider = preprocess(["the", "old", "dog", "ran", "in", "park"])
        table, b = ScoreTable(order._Contexts.find([preprocess(["dog"]), bag, wider], model), model), 1
        assert table.counts.shape[1] > alone.counts.shape[1]
    m = table.marker[b]
    assert (table.start[b], m, table.length[b]) == (alone.start[0], alone.marker[0], alone.length[0])
    assert table.counts[b].tolist() == [*alone.counts[0].tolist(), *[0] * (table.counts.shape[1] - m)]
    # one block row per LM state: from order 3 on, some two-word histories
    # are no bigram and share the row of their last word
    histories = len(order._dense_histories(m, min(lm_order - 1, 2)))
    assert len(alone.block) < histories if lm_order >= 3 else len(alone.block) == histories
    _assert_exact_conditionals(table, b, model)


# A prefix-closed trigram model: "a b" is a bigram with a backoff weight
# but no trigram continues it with a word of the bag {a, b, c}, and "<s> c"
# is no bigram.
_STATES_ARPA = (
    "\\data\\\n"
    "ngram 1=6\n"
    "ngram 2=3\n"
    "ngram 3=1\n"
    "\n"
    "\\1-grams:\n"
    "-99\t<s>\t-0.25\n"
    "-1.0\t</s>\n"
    "-1.5\t<unk>\n"
    "-0.5\ta\t-0.125\n"
    "-0.75\tb\t-0.0625\n"
    "-0.625\tc\n"
    "\n"
    "\\2-grams:\n"
    "-0.25\t<s> a\t-0.5\n"
    "-0.125\ta b\t-0.375\n"
    "-0.5\tb c\n"
    "\n"
    "\\3-grams:\n"
    "-0.0625\t<s> a b\n"
    "\n"
    "\\end\\\n"
)


def test_score_table_rows_follow_the_lm_states():
    model = lm.parse_arpa(_STATES_ARPA)
    table = ScoreTable(order._Contexts.find([preprocess(["c", "b", "a"])], model), model)
    a, b, c, bos = range(4)  # sorted word ids, then the marker
    histories = [(a,), (b,), (c,), (a, b), (bos, a), (bos, c)]
    row = {history: table.rows[0, order._codes(history, table.marker[0] + 2)] for history in histories}
    assert row[a, b] != row[b,]  # a bigram with a backoff weight, though no trigram of the bag's words follows it
    assert row[bos, a] != row[a,]
    assert row[bos, c] == row[c,]  # no bigram: the LM reads c alone
    assert model.logprob("a", ["a", "b"]) != model.logprob("a", ["b"])
    _assert_exact_conditionals(table, 0, model)


@pytest.mark.parametrize("lm_order", [4, 5])
def test_method1_seeds_see_the_full_history(lm_order):
    # at order 4 and up a seed's third and fourth words are scored after
    # three and four earlier words, not after two
    from conftest import toy_corpus_sentences

    model = lm.train_lm(toy_corpus_sentences(), order=lm_order)
    for bag in _oracle_bags(61, 12, 5, 12):
        _assert_matches_oracle(method1(bag, model), model, _method1_oracle(model, bag.words)[0])


def test_method1_seeds_read_a_long_history_that_is_no_suffix_n_gram():
    # order 5, not suffix-closed: <s> a b c and <s> a b c d are n-grams, a b c
    # is not.  The seed <s> a b c d reads its 5-gram; a search that checked
    # only the last three words of d's history would read what follows b c
    # alone, and take e
    entries = {"<s>": (-0.4, 0.0), "</s>": -1.0, "<unk>": -2.0, "a": -1.0, "b": -1.0, "c": -1.0, "d": -1.5,
               "e": -1.0, "f": -1.2, "<s> a": -0.1, "<s> a b": -0.1, "<s> a b c": -0.1, "<s> a b c d": -0.1}
    model = _arpa_model(5, entries)
    assert not model.has_ngram(np.array([model.vocab.index(w) for w in "abc"]))
    bag = WordBag(tuple("abcdef"))
    assert _method1_oracle(model, bag.words)[0] == list("abcdef")
    _assert_method1_matches_oracle(bag, model)


@pytest.mark.parametrize("lm_order", [1, 2, 4, 5])
def test_searches_match_oracles_at_other_lm_orders(lm_order):
    from conftest import toy_corpus_sentences

    model = lm.train_lm(toy_corpus_sentences(), order=lm_order)
    small = preprocess(["the", "dog", "the", "quix"])
    large = preprocess(["the", "old", "dog", "ran", "in", "the", "park", "quix"])
    _assert_matches_oracle(exhaustive(small, model), model, brute_force_best(model, small.words)[0])
    _assert_matches_oracle(method2(large, model), model, _method2_oracle(model, large.words))
    _assert_matches_oracle(method1(large, model), model, _method1_oracle(model, large.words)[0])


def test_method2_never_beats_full_enumeration(toy_lm):
    # method2's candidates are a subset of all permutations; log the gap
    bag = preprocess(["the", "boy", "reads", "a", "book", "tonight"])
    result = method2(bag, toy_lm)
    _, full_best = brute_force_best(toy_lm, bag.words)
    print(f"method2 score {result.lm_score.total:.4f} vs full argmax {full_best:.4f}")
    assert result.lm_score.total <= full_best + 1e-9


def test_method2_arrangement_cap_skips_schemes(toy_lm, monkeypatch):
    bag = WordBag(tuple(sorted(["the", "boy", "reads", "a", "book", "tonight"])))
    monkeypatch.setattr(order, "_ARRANGEMENT_CAP", 2)
    result = method2(bag, toy_lm)
    # only the two-chunk scheme (3,3) fits under the cap
    assert len(result.diagnostics) == 2
    assert Counter(result.sequence) == Counter(bag.words)
    monkeypatch.setattr(order, "_ARRANGEMENT_CAP", 1)
    with pytest.raises(ValueError, match="skipped"):
        method2(bag, toy_lm)


def _long_bag(n):
    """A bag of the first n of the 34 distinct toy words."""
    return WordBag(tuple(TOY_VOCAB[:n]))


def test_order_words_past_the_nine_chunk_cap(toy_lm):
    # with the threshold at 30, method2 takes bags of 25 to 30 words; its
    # schemes of 10 or more chunks have more than 9! arrangements
    cfg = OrderConfig(threshold=30)
    result = order_words(_long_bag(25), toy_lm, cfg)
    assert result.method is OrderMethod.METHOD2
    assert result.diagnostics == [
        f"scheme {sizes}: 10! arrangements exceed cap 362880, skipped"
        for sizes in ((3, 3, 3, 3, 3, 3, 3, 2, 1, 1), (3, 3, 3, 3, 3, 3, 2, 2, 2, 1), (3, 3, 3, 3, 3, 2, 2, 2, 2, 2))
    ]
    assert Counter(result.sequence) == Counter(_long_bag(25).words)
    with pytest.raises(ValueError, match="every chunk scheme was skipped"):
        order_words(_long_bag(28), toy_lm, cfg)


@pytest.mark.parametrize(
    "words, evaluated",
    [
        (["the", "boy", "reads", "a", "book", "tonight"], 345),
        (["the", "old", "dog", "ran", "in", "the", "park", "quix"], 1488),
        (["a", "a", "the", "the", "dog", "cat", "ran", "sat", "home", "old", "quix", "blorft"], 6227),
    ],
)
def test_method2_candidate_counts(toy_lm, words, evaluated):
    # chunk fragments plus DP transitions, as the per-state loop counted them
    assert method2(preprocess(words), toy_lm).candidates_evaluated == evaluated


def _fragment_logprob(cond, span, words):
    """The conditionals of ``words``, each after the words before it (cut
    to ``span``), added left to right from 0.0."""
    total = 0.0
    for j, w in enumerate(words):
        total += cond(w, words[max(0, j - span) : j])
    return total


def _exhaustive_oracle(model, words):
    """The per-bag exhaustive search: the best distinct permutation of the
    bag scored as a full sentence, as ids among its sorted distinct words,
    and the number of distinct permutations."""
    cond = _memo_logprob(model)
    ids = sorted(set(words))
    best, best_perm = -math.inf, None
    perms = sorted(set(itertools.permutations(words)))
    for perm in perms:  # ascending, so a tie keeps the smaller permutation
        total = _fragment_logprob(cond, model.order - 1, ("<s>", *perm, "</s>"))
        if total > best:
            best, best_perm = total, perm
    return tuple(ids.index(w) for w in best_perm), len(perms)


def _chunkings_oracle(model, words, caps):
    """The per-bag greedy chunk fills, per cap in ``caps``: the chunks of
    every kept scheme as ids among the bag's sorted distinct words, the
    chunk fragments scored and the skip diagnostics.  The fill of each
    prefix of chunk sizes is made once."""
    cond = _memo_logprob(model)
    ids = sorted(set(words))
    n = len(words)
    fills = {(): ((), sorted(words))}  # sizes prefix -> (chunks, remaining words, sorted)

    def fill(sizes):
        if sizes not in fills:
            chunks, remaining = fill(sizes[:-1])
            best, chunk = -math.inf, None
            # permutations of a sorted list come in ascending order, so a tie keeps the smaller tuple
            for tup in itertools.permutations(remaining, sizes[-1]):
                total = _fragment_logprob(cond, model.order - 1, tup)
                if total > best:
                    best, chunk = total, tup
            rest = list(remaining)
            for w in chunk:
                rest.remove(w)
            fills[sizes] = (chunks + (tuple(ids.index(w) for w in chunk),), rest)
        return fills[sizes]

    out = []
    for cap in caps:
        chunkings, diagnostics, evaluated = [], [], 0
        for scheme in chunk_schemes(n):
            k = len(scheme.sizes)
            if math.factorial(k) > cap:
                diagnostics.append(f"scheme {scheme.sizes}: {k}! arrangements exceed cap {cap}, skipped")
                continue
            unused = n
            for size in scheme.sizes:
                evaluated += math.perm(unused, size)
                unused -= size
            chunkings.append(fill(scheme.sizes)[0])
        out.append((chunkings, evaluated, diagnostics))
    return out


@pytest.mark.parametrize("lm_order", [1, 2, 3, 4, 5])
def test_batched_fills_match_the_per_bag_searches(lm_order, monkeypatch):
    model = lm.train_lm(toy_corpus_sentences(), order=lm_order)
    bags = _oracle_bags(89 + lm_order, 24, 1, 16) + [
        WordBag(("qa", "qb", "qc", "qd", "qe", "qf", "qg")),  # every word out of vocabulary: all fills tie
        WordBag(("old",) * 6),
        WordBag(tuple(sorted(["a", "a", "the", "the", "dog", "ran", "quix", "blorft", "blorft"]))),
        WordBag(("dog", "dog", "dog", "dog")),
        WordBag(("a", "a", "dog", "the")),
        WordBag(("dog", "ran", "the", "zandor")),
        WordBag(("quix", "the", "the")),
    ]
    assert len({len(set(bag.words)) for bag in bags}) >= 10  # rows of a pass are padded
    small = [t for t, bag in enumerate(bags) if len(bag) <= EXHAUSTIVE_LIMIT]
    assert {len(set(bags[t].words)) for t in small if len(bags[t]) == 4} >= {1, 3, 4}
    large = [t for t, bag in enumerate(bags) if len(bag) >= 5]
    assert max(len(set(bags[t].words)) for t in large) >= 8  # a seed row of 512 grid entries
    caps = (2, 24, 720)
    chunkings = list(zip(*[_chunkings_oracle(model, bag.words, caps) for bag in bags]))
    exhaustive = [_exhaustive_oracle(model, bags[t].words) for t in small]
    grown = []
    for t in large:
        sequence, counts = _method1_oracle(model, bags[t].words)
        ids = sorted(set(bags[t].words))
        grown.append((tuple(ids.index(w) for w in sequence), {"method": OrderMethod.METHOD1, **counts}))

    passes = []  # (grid entries, rows) of each masking pass and each scoring pass
    fits, grid_scores = order._fits, order._grid_scores
    scoring = []  # rows of each scoring pass

    def spy(counts, ids):  # a pass's count rows, cut to its width
        passes.append((len(counts) * counts.shape[1] ** len(ids), len(counts)))
        return fits(counts, ids)

    def scoring_spy(table, bag, size, width, *rest):  # a pass's grids, padded to its width
        passes.append((len(bag) * width**size, len(bag)))
        scoring.append(len(bag))
        return grid_scores(table, bag, size, width, *rest)

    monkeypatch.setattr(order, "_fits", spy)
    monkeypatch.setattr(order, "_grid_scores", scoring_spy)
    for chunk in (order.ORDER_CHUNK, 400):  # the default; then a pass per grid of 8 or more words
        monkeypatch.setattr(order, "ORDER_CHUNK", chunk)
        passes.clear()
        table = ScoreTable(order._Contexts.find(bags, model), model)
        for cap, expected in zip(caps, chunkings):
            scoring.clear()
            monkeypatch.setattr(order, "_ARRANGEMENT_CAP", cap)
            assert order._chunkings_many(table, list(range(len(bags)))) == list(expected)
            # one fragment grid per (bag, chunk size), each masked by every fill of that size
            grids = {(t, len(chunk)) for t, (plan, _, _) in enumerate(expected) for cs in plan for chunk in cs}
            assert sum(scoring) == len(grids)
        # the exhaustive bags, batched by the same budget, through the arrangement DP
        found = order._order([bags[t] for t in small], model, [OrderMethod.EXHAUSTIVE] * len(small))
        ids = [tuple(sorted(set(r.sequence)).index(w) for w in r.sequence) for r in found]
        assert list(zip(ids, [r.candidates_evaluated for r in found])) == exhaustive
        assert order._method1_many(table, large) == grown
        assert all(entries <= chunk or rows == 1 for entries, rows in passes)
        assert any(rows > 1 for _, rows in passes)
    assert any(entries > 400 for entries, _ in passes)


def test_method2_limit(toy_lm):
    with pytest.raises(ValueError, match=f"1..{order.DEFAULT_THRESHOLD} words, got 24"):
        method2(_long_bag(24), toy_lm)


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
    ((out, result),) = realize_orders([["dog", "the", "ran"]], toy_lm)
    assert out.endswith(" .")
    assert out[0].isupper()
    assert out[:-2].lower().split() == result.sequence


def test_realize_order_flags(toy_lm):
    cfg = OrderConfig(capitalize=False, append_full_stop=False)
    ((out, result),) = realize_orders([["dog", "the"]], toy_lm, cfg)
    assert not out.endswith(".")
    assert out == out.lower()
    assert out.split() == result.sequence


def test_realize_order_propagates_empty_bag(toy_lm):
    (outcome,) = realize_orders([[",", "!"]], toy_lm)
    assert isinstance(outcome, EmptyBagError)


def _outcome(result):
    """Everything a realization reports, or the text of the exception that stopped it."""
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    text, r = result
    s = r.lm_score
    return (text, r.sequence, s.total.hex(), s.oov_count, s.ngrams_used, r.method,
            r.candidates_evaluated, r.seed_candidates, r.lrw_iterations, r.diagnostics)


@pytest.mark.parametrize("lm_order", [1, 2, 3, 4, 5])
def test_realize_orders_matches_one_at_a_time(lm_order, monkeypatch):
    from conftest import toy_corpus_sentences

    model = lm.train_lm(toy_corpus_sentences(), order=lm_order)
    rng = np.random.default_rng(71 + lm_order)
    token_lists = [list(bag.words) for bag in _oracle_bags(73 + lm_order, 14, 1, 14)]
    token_lists += [
        [",", "!"],  # empty after punctuation
        ["qa", "qb", "qc", "qd", "qe", "qf", "qg"],  # every word out of vocabulary: all orders tie
        ["The", "the", "dog", "DOG", ",", "the"],
        random_bag(rng, 24),
        random_bag(rng, 30),  # at threshold 30, method2 skips every scheme of it
    ]
    batches = []
    real = order._order_batch
    monkeypatch.setattr(order, "_order_batch", lambda bags, *rest: batches.append(len(bags)) or real(bags, *rest))
    for threshold in (4, 9, 23, 30):
        cfg = OrderConfig(threshold=threshold)
        expected = [_outcome(realize_orders([tokens], model, cfg)[0]) for tokens in token_lists]
        sizes = []
        for chunk in (order.ORDER_CHUNK, 400):  # the default; then many batches, some of a single bag
            batches.clear()
            with monkeypatch.context() as patch:
                patch.setattr(order, "ORDER_CHUNK", chunk)
                assert [_outcome(r) for r in realize_orders(token_lists, model, cfg)] == expected
            sizes.append(list(batches))
        assert max(sizes[0]) > 1 and min(sizes[1]) == 1 and len(sizes[1]) > len(sizes[0])
    assert any(e.startswith("EmptyBagError") for e in expected if isinstance(e, str))
    assert "ValueError: every chunk scheme was skipped by the arrangement cap" in expected


def test_a_command_looks_its_bigrams_up_once_whatever_its_batches(monkeypatch):
    model = lm.train_lm(toy_corpus_sentences(), order=3)
    token_lists = [list(bag.words) for bag in _oracle_bags(83, 30, 1, 14)]
    calls, batches = [], []
    has_ngram, batch = lm.NGramModel.has_ngram, order._order_batch
    monkeypatch.setattr(lm.NGramModel, "has_ngram", lambda self, ids: calls.append(len(ids)) or has_ngram(self, ids))
    monkeypatch.setattr(order, "_order_batch", lambda bags, *rest: batches.append(len(bags)) or batch(bags, *rest))
    monkeypatch.setattr(order, "ORDER_CHUNK", 400)
    realize_orders(token_lists, model)
    assert len(batches) > 1 and sum(batches) == len(token_lists)
    assert len(calls) == 1 and calls[0] > 0


@pytest.mark.parametrize("lm_order", [1, 2, 3, 4])
def test_each_batch_fills_the_states_it_was_budgeted(lm_order, monkeypatch):
    # the budget counts a batch's LM states in the arrays its table fills
    # its block rows from: one row per state, in batches under ORDER_CHUNK
    model = lm.train_lm(toy_corpus_sentences(), order=lm_order)
    token_lists = [list(bag.words) for bag in _oracle_bags(89, 30, 1, 14)]
    budgeted, filled = [], []
    batch = order._order_batch

    def batch_spy(contexts, *rest):
        budgeted.append((int(contexts.state.sum()), int(contexts.marker.max()) + 2, len(contexts)))
        return batch(contexts, *rest)

    class Spy(ScoreTable):
        def __init__(self, contexts, model):
            super().__init__(contexts, model)
            filled.append(len(self.block))

    monkeypatch.setattr(order, "_order_batch", batch_spy)
    monkeypatch.setattr(order, "ScoreTable", Spy)
    monkeypatch.setattr(order, "ORDER_CHUNK", 400)
    realize_orders(token_lists, model)
    assert [states for states, _, _ in budgeted] == filled
    assert len(budgeted) > 1 and sum(bags for _, _, bags in budgeted) == len(token_lists)
    assert all(states * width <= 400 or bags == 1 for states, width, bags in budgeted)


@pytest.mark.parametrize("lm_order", [3, 4, 5])
def test_reorder_output_matches_the_golden_file(tmp_path, lm_order):
    # golden.conllu holds bags of 1-26 words (every method, duplicates, OOV
    # words, an all-OOV tie); the expected output, method, candidate count
    # and score bits were made by `reorder` and `realize_orders` before the
    # batched fills and exhaustive search.  Ordering uses no BLAS and the LM
    # is parsed from committed ARPA text, so the bytes hold on any machine.
    arpa = DATA_DIR / f"golden-o{lm_order}.arpa"
    lines = (DATA_DIR / f"golden-o{lm_order}.expected").read_text("utf-8").splitlines()
    expected = [line.split("\t") for line in lines]
    pred = tmp_path / "pred.txt"
    assert cli.main(["reorder", str(DATA_DIR / "golden.conllu"), "--lm", str(arpa), "--out", str(pred)]) == 0
    assert pred.read_bytes() == "".join(f"{sid}\t{text}\n" for sid, text, *_ in expected).encode("utf-8")
    corpus = conllu.parse_conllu((DATA_DIR / "golden.conllu").read_text("utf-8"))
    token_lists = [[t.form or t.lemma for t in sorted(s.tokens, key=lambda t: t.id)] for s in corpus.sentences]
    results = realize_orders(token_lists, lm.parse_arpa(arpa.read_text("utf-8")))
    assert [
        [s.sent_id, text, r.method.value, str(r.candidates_evaluated), r.lm_score.total.hex()]
        for s, (text, r) in zip(corpus.sentences, results)
    ] == expected
    assert {row[2] for row in expected} == {"exhaustive", "method1", "method2"}


def _golden_reorder(tmp_path, capfd):
    """The output lines and stderr notes of ``reorder`` on the golden file at LM order 3."""
    pred = tmp_path / "pred.txt"
    arpa = DATA_DIR / "golden-o3.arpa"
    assert cli.main(["reorder", str(DATA_DIR / "golden.conllu"), "--lm", str(arpa), "--out", str(pred)]) == 0
    return pred.read_bytes().splitlines(keepends=True), capfd.readouterr().err.splitlines()


def _repeat_first(ids):
    return tuple(ids[:1]) * len(ids)


@pytest.mark.parametrize(
    "planted, sent_id, method",
    [("_arrange", "g05", "method2"), ("_arrange", "g03", "exhaustive"), ("_method1_many", "g24", "method1")],
)
def test_a_result_that_is_no_permutation_of_its_bag_degrades_only_its_sentence(
    tmp_path, capfd, monkeypatch, planted, sent_id, method
):
    # a search that returns a repeated id writes words the bag does not
    # hold; the check against the bag turns that into a stated failure
    clean_lines, clean_notes = _golden_reorder(tmp_path, capfd)
    corpus = conllu.parse_conllu((DATA_DIR / "golden.conllu").read_text("utf-8"))
    victim = next(i for i, s in enumerate(corpus.sentences) if s.sent_id == sent_id)
    tokens = [sorted(s.tokens, key=lambda t: t.id) for s in corpus.sentences]
    distinct = [sorted(set(preprocess([t.form or t.lemma for t in toks]).words)) for toks in tokens]
    assert distinct.count(distinct[victim]) == 1 and len(distinct[victim]) > 1
    # stderr also holds the parser's notes on the file
    note = next(i for i, line in enumerate(clean_notes) if line.startswith(f"{sent_id}: "))
    assert clean_notes[note].startswith(f"{sent_id}: method={method} ")

    real = getattr(order, planted)
    if planted == "_arrange":
        def planting(table, plans):
            arranged, transitions = real(table, plans)
            return [_repeat_first(ids) if table.words[b] == distinct[victim] else ids
                    for b, ids in enumerate(arranged)], transitions
    else:
        def planting(table, which):
            return [(_repeat_first(ids) if table.words[b] == distinct[victim] else ids, fields)
                    for b, (ids, fields) in zip(which, real(table, which))]
    monkeypatch.setattr(order, planted, planting)
    lines, notes = _golden_reorder(tmp_path, capfd)

    lemmas = " ".join(t.lemma for t in tokens[victim] if t.lemma)
    assert lines[victim] == f"{sent_id}\t{lemmas}\n".encode("utf-8")
    assert notes[note] == (
        f"{sent_id}: realization failed ({method} wrote words that are not a permutation of its bag),"
        " emitted lemmas in id order"
    )
    assert lines[:victim] + lines[victim + 1 :] == clean_lines[:victim] + clean_lines[victim + 1 :]
    assert notes[:note] + notes[note + 1 :] == clean_notes[:note] + clean_notes[note + 1 :]


def test_a_failing_bag_degrades_only_its_own_sentence(toy_lm, monkeypatch):
    token_lists = [list(bag.words) for bag in _oracle_bags(97, 12, 1, 14)]
    clean = [_outcome(r) for r in realize_orders(token_lists, toy_lm)]
    poisoned = preprocess(token_lists[5])
    assert [preprocess(tokens) for tokens in token_lists].count(poisoned) == 1

    class Failing(ScoreTable):  # an unexpected failure inside any batch that holds the poisoned bag
        def __init__(self, contexts, model):
            if poisoned in contexts.bags:
                raise RuntimeError("planted failure")
            super().__init__(contexts, model)

    batches = []
    real = order._order_batch
    monkeypatch.setattr(order, "_order_batch", lambda bags, *rest: batches.append(len(bags)) or real(bags, *rest))
    monkeypatch.setattr(order, "ScoreTable", Failing)
    got = [_outcome(r) for r in realize_orders(token_lists, toy_lm)]
    assert batches == [len(token_lists)] + [1] * len(token_lists)  # the batch, then bag by bag
    assert got[5] == "RuntimeError: planted failure"
    assert got[:5] + got[6:] == clean[:5] + clean[6:]


_ARRANGE_LMS: dict = {}
_ARRANGE_WORDS = ["the", "a", "man", "dog", "saw", "in", "park", "old", "zyzzyva"]


def _arrange_lm(lm_order):
    if lm_order not in _ARRANGE_LMS:
        _ARRANGE_LMS[lm_order] = lm.train_lm(toy_corpus_sentences(), order=lm_order)
    return _ARRANGE_LMS[lm_order]


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5),
    st.lists(
        st.tuples(
            # few words, so that bags repeat them; "zyzzyva" is unknown to the LM
            st.lists(st.sampled_from(_ARRANGE_WORDS), min_size=1, max_size=12),
            st.sampled_from(["one-word chunks", "method2", "no chunking"]),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_arrangement_matches_the_prefix_copying_oracle(lm_order, drawn):
    # a batch of bags arranged at once: exhaustive plans (one chunking of
    # one-word chunks, up to 8 words), method2's greedy chunkings, and bags
    # with none; the DP must find what the prefix-copying DP found and count
    # the same transitions
    model = _arrange_lm(lm_order)
    bags = [WordBag(tuple(sorted(words))) for words, _ in drawn]
    table = ScoreTable(order._Contexts.find(bags, model), model)
    kinds = [
        "method2" if kind == "one-word chunks" and len(bag) > 8 else kind for bag, (_, kind) in zip(bags, drawn)
    ]
    plans: list = [[] for _ in bags]
    for b, kind in enumerate(kinds):
        if kind == "one-word chunks":
            plans[b] = [tuple((i,) for i, c in enumerate(table.counts[b].tolist()) for _ in range(c))]
    chunked = [b for b, kind in enumerate(kinds) if kind == "method2"]
    for b, (plan, _, _) in zip(chunked, order._chunkings_many(table, chunked)):
        plans[b] = plan
    found, transitions = order._arrange(table, plans)
    expected, expected_transitions = _order_oracle._arrange(table, plans)
    assert found == expected
    assert transitions.tolist() == expected_transitions.tolist()


_NEAR = [0.0, 0.0, 2.5e-10, -2.5e-10, 1e-9, -1e-9, 1.5e-9, -1.5e-9, 0.5]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_band_first_ranking_keeps_what_ranking_then_banding_keeps(data):
    # exact ties, near-ties within 1e-9 and rows just outside the band
    n = data.draw(st.integers(0, 40))
    key = np.array(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)), dtype=np.int64)
    base = data.draw(st.lists(st.sampled_from([-2.0, -7.25, -7.250000000499]), min_size=n, max_size=n))
    near = data.draw(st.lists(st.sampled_from(_NEAR), min_size=n, max_size=n))
    score = np.array(base) + np.array(near)
    prefix = np.array(data.draw(st.lists(st.lists(st.integers(0, 2), min_size=3, max_size=3), min_size=n, max_size=n)))
    prefix = prefix.reshape(n, 3).astype(np.int64)
    asked = []

    def spell(rows):  # the prefix getter; only rows that share their key and score need spelling
        asked.extend(rows.tolist())
        return prefix[rows]

    pairs = Counter(zip(key.tolist(), score.tolist()))
    rows = order._ranked(key, score, spell)
    best = {}  # each key's best score
    for k, v in zip(key.tolist(), score.tolist()):
        best[k] = max(v, best.get(k, -math.inf))
    top = np.array([best[k] for k in key[rows].tolist()])
    expected = rows[score[rows] >= top - order._TIE_BAND]
    got = order._banded(key, score, spell)
    assert all(pairs[int(key[r]), float(score[r])] > 1 for r in asked)

    def kept(rows):
        return sorted((int(key[r]), float(score[r]), tuple(prefix[r].tolist())) for r in rows)

    assert len(got) == len(expected) and kept(got) == kept(expected)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([1, 3, 1 << 16, 1 << 17, 1 << 33, 1 << 48, 1 << 50, (1 << 63) - 1]),
    st.lists(st.integers(0, (1 << 63) - 1), max_size=60),
)
def test_stable_argsort_of_state_keys_is_numpys_stable_argsort(top, drawn):
    # as many 16-bit passes as the largest key needs, from one up to four;
    # a small top repeats keys, so that stability shows
    key = np.array([k % top for k in drawn], dtype=np.int64)
    assert order._stable_argsort(key).tolist() == np.argsort(key, kind="stable").tolist()


@pytest.mark.parametrize(
    "key",
    [[], [7], [5] * 9, [1 << 48, 3, (1 << 48) + 3, 1 << 48, (1 << 62) + 1, 3, 0], [(1 << 63) - 1, 0, (1 << 63) - 1]],
    ids=["empty", "one row", "all equal", "past 2**48", "largest"],
)
def test_stable_argsort_edge_cases(key):
    key = np.array(key, dtype=np.int64)
    assert order._stable_argsort(key).tolist() == np.argsort(key, kind="stable").tolist()


def test_state_keys_equal_exactly_where_the_columns_are():
    # bases whose product overflows int64 force a dense renumbering on the way
    rng = np.random.default_rng(83)
    columns = [(rng.integers(0, 3, 60), 1 << 40) for _ in range(3)]
    key = order._state_keys(columns)
    rows = list(zip(*(values.tolist() for values, _ in columns)))
    for a, b in itertools.combinations(range(60), 2):
        assert (key[a] == key[b]) == (rows[a] == rows[b])


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
