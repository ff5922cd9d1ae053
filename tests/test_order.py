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
    realize_order,
    realize_orders,
)

from conftest import DATA_DIR, TOY_VOCAB, random_bag, toy_corpus_sentences
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
    score is checked against it.  Returns the sequence, and the
    candidates, seeds and growth steps the loop visited.
    """
    cond = _memo_logprob(model)
    words = sorted(words)
    best, best_seed = -math.inf, None
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
        if s > best or (s == best and w < best_seed):
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
        best_word, best_gain = None, -math.inf
        for w in sorted(set(remaining)):
            evaluated += 1
            gain = cond(w, prefix)
            if gain > best_gain:
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
    _assert_matches_oracle(method1(bag, model), model, _method1_oracle(model, bag.words)[0])


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
    alone = ScoreTable(order._Contexts([bag], model), model)
    if where == "alone":
        table, b = alone, 0
    else:  # between a one-word bag and one with more distinct words, so its arrays are padded
        wider = preprocess(["the", "old", "dog", "ran", "in", "park"])
        table, b = ScoreTable(order._Contexts([preprocess(["dog"]), bag, wider], model), model), 1
        assert table.counts.shape[1] > alone.counts.shape[1]
    m = table.marker[b]
    assert (table.start[b], m, table.length[b]) == (alone.start[0], alone.marker[0], alone.length[0])
    assert table.counts[b].tolist() == [*alone.counts[0].tolist(), *[0] * (table.counts.shape[1] - m)]
    # one block row per LM state: from order 3 on, some two-word histories
    # are no bigram and share the row of their last word
    histories = len(order._dense_histories(m, min(lm_order - 1, 2))[0])
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
    table = ScoreTable(order._Contexts([preprocess(["c", "b", "a"])], model), model)
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


def test_method2_arrangement_cap_skips_schemes(toy_lm):
    bag = WordBag(tuple(sorted(["the", "boy", "reads", "a", "book", "tonight"])))
    result = method2(bag, toy_lm, arrangement_cap=2)
    # only the two-chunk scheme (3,3) fits under the cap
    assert len(result.diagnostics) == 2
    assert Counter(result.sequence) == Counter(bag.words)
    with pytest.raises(ValueError, match="skipped"):
        method2(bag, toy_lm, arrangement_cap=1)


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
        table = ScoreTable(order._Contexts(bags, model), model)
        for cap, expected in zip(caps, chunkings):
            scoring.clear()
            assert order._chunkings_many(table, list(range(len(bags))), cap) == list(expected)
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


def _outcome(result):
    """Everything a realization reports, or the text of the exception that stopped it."""
    if isinstance(result, Exception):
        return f"{type(result).__name__}: {result}"
    text, r = result
    s = r.lm_score
    return (text, r.sequence, s.total.hex(), s.oov_count, s.ngrams_used, r.method,
            r.candidates_evaluated, r.seed_candidates, r.lrw_iterations, r.diagnostics)


def _realize_alone(tokens, model, cfg):
    try:
        return realize_order(tokens, model, cfg)
    except Exception as exc:
        return exc


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
        expected = [_outcome(_realize_alone(tokens, model, cfg)) for tokens in token_lists]
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
    rows, best = order._ranked(key, score, prefix)
    top = score[rows[best]][np.cumsum(best) - 1]
    expected = rows[score[rows] >= top - order._TIE_BAND]
    got = order._banded(key, score, prefix)

    def kept(rows):
        return sorted((int(key[r]), float(score[r]), tuple(prefix[r].tolist())) for r in rows)

    assert len(got) == len(expected) and kept(got) == kept(expected)


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
