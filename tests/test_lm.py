import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udrealize import lm
from udrealize.lm import (
    ArpaFormatError,
    EmptyCorpusError,
    NGramModel,
    Vocabulary,
    emit_arpa,
    parse_arpa,
    score,
    train_lm,
)

from conftest import TOY_VOCAB, random_bag


def prob_sum(model: NGramModel, history) -> float:
    return sum(10 ** model.logprob(w, history) for w in model.vocab)


# ---------------------------------------------------------------- vocabulary

def test_build_vocab_basic():
    vocab = Vocabulary.build(["a b a"])
    assert set(vocab.words) == {"a", "b", "<s>", "</s>", "<unk>"}


def test_build_vocab_empty():
    assert set(Vocabulary.build([]).words) == {"<s>", "</s>", "<unk>"}


def test_build_vocab_case_folds():
    assert set(Vocabulary.build(["A a"]).words) == {"a", "<s>", "</s>", "<unk>"}


def test_vocab_text_round_trip():
    vocab = Vocabulary.build(["b a c"])
    text = vocab.to_text()
    assert text == "a\nb\nc\n"
    assert Vocabulary.from_text(text) == vocab


# ------------------------------------------------------------------ training

def test_unigram_witten_bell_hand_computation():
    # corpus "a a a": events a,a,a,</s>; N=4, T=2 distinct, V=4 words,
    # so p(w) = (c(w) + 2*(1/4)) / (4 + 2)
    model = train_lm(["a a a"], order=1)
    assert 10 ** model.logprob("a") == pytest.approx(3.5 / 6, abs=1e-12)
    assert 10 ** model.logprob("</s>") == pytest.approx(1.5 / 6, abs=1e-12)
    assert 10 ** model.logprob("<s>") == pytest.approx(0.5 / 6, abs=1e-12)
    assert 10 ** model.logprob("<unk>") == pytest.approx(0.5 / 6, abs=1e-12)
    assert prob_sum(model, ()) == pytest.approx(1.0, abs=1e-9)


def test_bos_distribution_normalizes(toy_lm):
    assert prob_sum(toy_lm, ("<s>",)) == pytest.approx(1.0, abs=1e-6)


def test_symmetric_counts_give_equal_probs():
    model = train_lm(["a b", "a c"], order=2)
    assert model.logprob("b", ("a",)) == pytest.approx(model.logprob("c", ("a",)), abs=1e-12)


def test_empty_corpus_raises():
    with pytest.raises(EmptyCorpusError):
        train_lm([])
    with pytest.raises(EmptyCorpusError):
        train_lm(["   ", ""])


def test_training_lowercases():
    model = train_lm(["The Cat", "the cat"], order=2)
    assert "the" in model.vocab
    assert "The" not in model.vocab


def test_prefix_closure_invariant(toy_lm):
    # every (n>1)-gram's prefix exists one order down, with a backoff weight
    for n in range(2, toy_lm.order + 1):
        for gram in toy_lm.tables[n - 1]:
            prefix = gram[:-1]
            entry = toy_lm.tables[n - 2].get(prefix)
            assert entry is not None, gram
            assert entry[1] is not None, gram


def test_backoff_weights_nonpositive(toy_lm):
    # Witten-Bell leftover mass T/(C+T) is always < 1
    for n in range(1, toy_lm.order):
        for gram, (_, bow) in toy_lm.tables[n - 1].items():
            assert bow is not None and bow <= 0.0


# ------------------------------------------------------------------- scoring

def test_score_empty_sequence(toy_lm):
    out = score(toy_lm, [])
    assert out.total == 0.0
    assert out.oov_count == 0


def test_score_chain_rule_additivity(toy_lm):
    one = score(toy_lm, ["the"])
    two = score(toy_lm, ["the", "cat"])
    assert two.total == pytest.approx(one.total + toy_lm.logprob("cat", ("the",)), abs=1e-12)


def test_score_hand_backoff_trace():
    # Witten-Bell oracle computed from first principles for the 3-sentence
    # corpus below, query ["a", "b"] where "b" is OOV.
    corpus = ["the cat sat", "the dog sat", "a cat ran"]
    model = train_lm(corpus, order=3)

    v = 9  # {the,cat,sat,dog,a,ran} + <s>,</s>,<unk>
    n_events, t_types = 12, 7  # unigram events incl. three </s>; distinct types
    p1_a = (1 + t_types / v) / (n_events + t_types)
    p1_unk = (0 + t_types / v) / (n_events + t_types)
    # history (a): one bigram continuation (a->cat), so bow = 1/(1+1)
    expected = math.log10(p1_a) + math.log10(0.5 * p1_unk)

    got = score(model, ["a", "b"])
    assert got.total == pytest.approx(expected, abs=1e-12)
    assert got.oov_count == 1
    assert got.ngrams_used == (2, 0, 0)  # both positions resolved at unigram level


def test_score_counts_ngram_hits(toy_lm):
    out = score(toy_lm, ["<s>", "the", "dog", "ran", "</s>"])
    assert sum(out.ngrams_used) == 5


def test_score_weakly_decreasing_as_extended(toy_lm):
    rng = np.random.default_rng(5)
    for _ in range(50):
        words = random_bag(rng, int(rng.integers(1, 8)))
        prefix_total = score(toy_lm, words[:-1]).total
        full_total = score(toy_lm, words).total
        assert full_total <= prefix_total + 1e-12


def test_oov_maps_to_unk(toy_lm):
    out = score(toy_lm, ["zebrawood", "the"])
    assert out.oov_count == 1
    assert out.total == pytest.approx(
        toy_lm.logprob("<unk>") + toy_lm.logprob("the", ("<unk>",)), abs=1e-12
    )


# ------------------------------------------------------------- normalization

def test_normalization_over_random_histories(toy_lm):
    rng = np.random.default_rng(11)
    words = list(toy_lm.vocab)
    for _ in range(100):
        length = int(rng.integers(0, toy_lm.order))
        history = tuple(str(rng.choice(words)) for _ in range(length))
        assert prob_sum(toy_lm, history) == pytest.approx(1.0, abs=1e-6)


def test_removing_ngram_never_raises_its_probability(toy_lm):
    # with non-positive backoff weights, the backed-off estimate must not
    # exceed the explicit entry it replaces
    trigrams = sorted(toy_lm.tables[2])[:50]
    for gram in trigrams:
        explicit = toy_lm.logprob(gram[-1], gram[:-1])
        pruned = NGramModel(toy_lm.order, toy_lm.vocab,
                            [dict(t) for t in toy_lm.tables])
        del pruned.tables[2][gram]
        assert pruned.logprob(gram[-1], gram[:-1]) <= explicit + 1e-12


# ---------------------------------------------------------------------- ARPA

def test_arpa_round_trip_scores_exactly(toy_lm):
    parsed = parse_arpa(emit_arpa(toy_lm))
    rng = np.random.default_rng(3)
    for _ in range(1000):
        words = random_bag(rng, int(rng.integers(1, 10)))
        assert abs(score(parsed, words).total - score(toy_lm, words).total) <= 1e-9


def test_arpa_emit_deterministic(toy_sentences):
    a = emit_arpa(train_lm(toy_sentences, order=3))
    b = emit_arpa(train_lm(list(toy_sentences), order=3))
    assert a == b


def test_order1_arpa_has_no_backoff_column():
    text = emit_arpa(train_lm(["a b a"], order=1))
    section = text.split("\\1-grams:")[1].split("\\end\\")[0].strip()
    for line in section.splitlines():
        assert len(line.split("\t")) == 2


def test_hand_written_unigram_arpa():
    text = (
        "\\data\\\n"
        "ngram 1=2\n"
        "\n"
        "\\1-grams:\n"
        "-0.30103\ta\n"
        "-0.60206\tb\n"
        "\n"
        "\\end\\\n"
    )
    model = parse_arpa(text)
    assert model.order == 1
    assert 10 ** model.logprob("a") == pytest.approx(0.5, abs=1e-6)
    assert 10 ** model.logprob("b") == pytest.approx(0.25, abs=1e-6)
    # words missing from a hand-written table fall back to the -99 placeholder
    assert model.logprob("zzz") == pytest.approx(-99.0)


def test_arpa_structure(toy_lm):
    text = emit_arpa(toy_lm)
    assert text.startswith("\\data\\\n")
    assert "\\1-grams:" in text and "\\3-grams:" in text
    assert text.rstrip().endswith("\\end\\")
    for n in range(1, 4):
        declared = int(text.split(f"ngram {n}=")[1].splitlines()[0])
        assert declared == len(toy_lm.tables[n - 1])


@pytest.mark.parametrize(
    "mutation, message",
    [
        (lambda t: t.replace("\\data\\", "\\dta\\"), "data"),
        (lambda t: t.replace("ngram 2=", "ngram 2=9999", 1), "declared"),
        (lambda t: t.replace("\\end\\", ""), "end"),
        (lambda t: t.replace("\\2-grams:", "\\4-grams:"), "section"),
    ],
)
def test_arpa_parse_errors_carry_line_numbers(toy_lm, mutation, message):
    text = mutation(emit_arpa(toy_lm))
    with pytest.raises(ArpaFormatError) as err:
        parse_arpa(text)
    assert "line" in str(err.value)


def test_arpa_malformed_count_line():
    with pytest.raises(ArpaFormatError):
        parse_arpa("\\data\\\nngram x=y\n\\end\\\n")


# ------------------------------------------------------------------ property

@given(st.lists(st.sampled_from(TOY_VOCAB), min_size=1, max_size=6))
@settings(max_examples=50, deadline=None)
def test_score_total_is_sum_of_conditionals(words):
    model = _cached_model()
    total = sum(
        model.logprob(words[i], tuple(words[:i])) for i in range(len(words))
    )
    assert score(model, words).total == pytest.approx(total, abs=1e-12)


_MODEL_CACHE = {}


def _cached_model():
    if "m" not in _MODEL_CACHE:
        from conftest import toy_corpus_sentences

        _MODEL_CACHE["m"] = train_lm(toy_corpus_sentences(), order=3)
    return _MODEL_CACHE["m"]
