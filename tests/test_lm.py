import hashlib
import json
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
    TablesError,
    Vocabulary,
    emit_arpa,
    parse_arpa,
    score,
    train_lm,
)

from conftest import DATA_DIR, TOY_VOCAB, random_bag, toy_corpus_sentences
import _lm_oracle
from _lm_oracle import DictLM
from _lm_oracle import train_lm as oracle_train_lm


def prob_sum(model: NGramModel, history) -> float:
    return sum(10 ** model.logprob(w, history) for w in model.vocab)


# ---------------------------------------------------------------- vocabulary

def test_build_vocab_basic():
    vocab = train_lm(["a b a"], order=1).vocab
    assert set(vocab.words) == {"a", "b", "<s>", "</s>", "<unk>"}


def test_build_vocab_case_folds():
    assert set(train_lm(["A a"], order=1).vocab.words) == {"a", "<s>", "</s>", "<unk>"}


def test_vocab_text_round_trip():
    vocab = train_lm(["b a c"], order=1).vocab
    text = vocab.to_text()
    assert text == "a\nb\nc\n"
    assert Vocabulary.from_words(text.split()) == vocab


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
    # every (n>1)-gram's prefix exists one order down, with a backoff weight;
    # so does its suffix, whose probability train_lm interpolates with
    grams = _lm_oracle.ngrams(toy_lm)
    for n in range(2, toy_lm.order + 1):
        lower = set(grams[n - 2])
        for gram in grams[n - 1]:
            assert gram[:-1] in lower, gram
            assert gram[1:] in lower, gram
        assert len(toy_lm.tables[n - 2].bow) == len(toy_lm.tables[n - 2])


def test_backoff_weights_nonpositive(toy_lm):
    # Witten-Bell leftover mass T/(C+T) is always < 1
    for n in range(1, toy_lm.order):
        bow = toy_lm.tables[n - 1].bow
        assert bow is not None and np.all(bow <= 0.0)
    assert toy_lm.tables[-1].bow is None


def _assert_same_model(model, expected):
    """The same vocabulary, table bytes and ARPA text."""
    assert model.order == expected.order and model.vocab == expected.vocab
    for got, want in zip(model.tables, expected.tables, strict=True):
        assert got.key.dtype == want.key.dtype and got.key.tobytes() == want.key.tobytes()
        assert got.logp.dtype == want.logp.dtype and got.logp.tobytes() == want.logp.tobytes()
        assert (got.bow is None) == (want.bow is None)
        if want.bow is not None:
            assert got.bow.dtype == want.bow.dtype and got.bow.tobytes() == want.bow.tobytes()
    assert emit_arpa(model) == emit_arpa(expected)


# mixed case, literal reserved words, blank lines, and sentences shorter than the highest orders
_EDGE_CORPUS = ["The <S> cat", "", "   ", "<UNK> a <unk> A", "a </s> B c d", "x", "THE cat"]


@pytest.mark.parametrize("lm_order", [1, 2, 3, 4, 5])
@pytest.mark.parametrize(
    "corpus", [toy_corpus_sentences(), _EDGE_CORPUS, ["word"]], ids=["toy", "edge", "one-word"]
)
def test_train_lm_matches_the_dict_oracle(corpus, lm_order):
    _assert_same_model(train_lm(corpus, order=lm_order), oracle_train_lm(corpus, order=lm_order))


@given(
    corpus=st.lists(
        st.lists(st.sampled_from(["a", "b", "C", "d", "<s>", "</s>", "<unk>"]), max_size=7).map(" ".join),
        min_size=1,
        max_size=8,
    ).filter(lambda c: any(s.strip() for s in c)),
    lm_order=st.integers(1, 5),
)
@settings(max_examples=100, deadline=None)
def test_train_lm_matches_the_dict_oracle_on_drawn_corpora(corpus, lm_order):
    _assert_same_model(train_lm(corpus, order=lm_order), oracle_train_lm(corpus, order=lm_order))


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
    grams = _lm_oracle.ngrams(toy_lm)[2]
    top = toy_lm.tables[2]
    for gram in sorted(grams)[:50]:
        explicit = toy_lm.logprob(gram[-1], gram[:-1])
        keep = np.arange(len(top)) != grams.index(gram)
        tables = [*toy_lm.tables[:2], lm.NGramTable(top.key[keep], top.logp[keep], None)]
        pruned = NGramModel(toy_lm.order, toy_lm.vocab, tables)
        assert pruned.logprob(gram[-1], gram[:-1]) <= explicit + 1e-12


# -------------------------------------------------------------- array store

def _same_floats(a, b) -> bool:
    return np.asarray(a, dtype=np.float64).tobytes() == np.asarray(b, dtype=np.float64).tobytes()


def _assert_matches_dict_oracle(model, histories, words):
    """logprob_ids, logprob and score against the dict oracle, bit for bit."""
    oracle = DictLM(model)
    width = max(len(h) for h in histories)
    ids = np.array([[-1] * (width - len(h)) + [model.vocab.index(w) for w in h] for h in histories])
    logp, matched = model.logprob_ids(ids[:, None, :], np.array([model.vocab.index(w) for w in words]))
    for i, h in enumerate(histories):
        for j, w in enumerate(words):
            expected = oracle._logprob(oracle.map_word(w), h)
            assert _same_floats(logp[i, j], expected[0]) and matched[i, j] == expected[1], (h, w)
            assert _same_floats(model.logprob(w, h), expected[0])
        if h:
            got, (total, used) = score(model, h), _score_oracle(oracle, h)
            assert _same_floats(got.total, total) and got.ngrams_used == used


def _score_oracle(oracle, words):
    total, used = 0.0, [0] * oracle.order
    for i, w in enumerate(words):
        lp, n = oracle._logprob(oracle.map_word(w), tuple(oracle.map_word(v) for v in words[:i]))
        total += lp
        used[n - 1] += 1
    return total, tuple(used)


@pytest.mark.parametrize("lm_order", [1, 2, 3, 4, 5])
def test_logprob_ids_matches_the_dict_oracle(lm_order):
    model = train_lm(toy_corpus_sentences(), order=lm_order)
    words = [*model.vocab.words, "zebrawood", "quix"]  # <s>, </s>, <unk> and two OOV words
    rng = np.random.default_rng(lm_order)
    histories = [()] + [
        tuple(str(w) for w in rng.choice(words, size=int(rng.integers(1, lm_order + 2)))) for _ in range(60)
    ]
    # histories longer than order - 1 are cut on the left
    histories += [("<s>", *TOY_VOCAB[i : i + lm_order + 1]) for i in range(0, 30, 3)]
    _assert_matches_dict_oracle(model, histories, words)


_HAND_WRITTEN_UNIGRAMS = (
    "\\data\\\n"
    "ngram 1=2\n"
    "\n"
    "\\1-grams:\n"
    "-0.30103\ta\n"
    "-0.60206\tb\n"
    "\n"
    "\\end\\\n"
)

_HAND_WRITTEN_BIGRAMS = (
    "\\data\\\n"
    "ngram 1=2\n"
    "ngram 2=2\n"
    "\n"
    "\\1-grams:\n"
    "-0.30103\ta\t-0.5\n"
    "-0.60206\tb\n"
    "\n"
    "\\2-grams:\n"
    "-0.1\ta b\n"
    "-0.2\tb a\n"
    "\n"
    "\\end\\\n"
)


@pytest.mark.parametrize("text", [_HAND_WRITTEN_UNIGRAMS, _HAND_WRITTEN_BIGRAMS], ids=["unigrams", "bigrams"])
def test_logprob_ids_matches_the_dict_oracle_without_reserved_unigrams(text):
    # no <s>, </s> or <unk> unigram: those words get the -99 placeholder,
    # after any backoff weight
    model = parse_arpa(text)
    words = ["a", "b", "zzz", "<s>", "</s>", "<unk>"]
    histories = [()] + [(w,) for w in words] + [(v, w) for v in words for w in words]
    _assert_matches_dict_oracle(model, histories, words)


def test_backoff_reaches_the_placeholder():
    model = parse_arpa(_HAND_WRITTEN_BIGRAMS)
    assert model.logprob("zzz", ("a",)) == -0.5 - 99.0
    assert model.logprob("b", ("b",)) == 0.0 + -0.60206  # "b" has no backoff column: weight 0.0


@pytest.mark.parametrize("lm_order", [1, 2, 3, 4])
def test_emit_parse_round_trip_is_byte_identical(lm_order):
    text = emit_arpa(train_lm(toy_corpus_sentences(), order=lm_order))
    assert emit_arpa(parse_arpa(text)) == text


@pytest.mark.parametrize("source", ["o1", "o2", "o3", "o4", "o5", "golden-o3", "golden-o4", "golden-o5"])
def test_emit_arpa_matches_the_tuple_sorting_oracle(source):
    if source.startswith("golden"):
        model = parse_arpa((DATA_DIR / f"{source}.arpa").read_text(encoding="utf-8"))
    else:
        model = train_lm(toy_corpus_sentences(), order=int(source[-1]))
    assert emit_arpa(model) == _lm_oracle.emit_arpa(model)


@given(
    corpus=st.lists(
        # words that sort before "<", between the reserved words, and after ASCII, so string order is not id order
        st.lists(st.sampled_from(["a", "b", "0", "!", ";", "<t", "é", "Ж", "<s>", "</s>", "<unk>"]), max_size=7).map(
            " ".join
        ),
        min_size=1,
        max_size=8,
    ).filter(lambda c: any(s.strip() for s in c)),
    lm_order=st.integers(1, 5),
)
@settings(max_examples=100, deadline=None)
def test_emit_arpa_matches_the_tuple_sorting_oracle_on_drawn_corpora(corpus, lm_order):
    model = train_lm(corpus, order=lm_order)
    assert emit_arpa(model) == _lm_oracle.emit_arpa(model)


def test_score_adds_conditionals_left_to_right(toy_lm):
    # nine or more terms: a pairwise sum (np.sum) would round differently
    rng = np.random.default_rng(19)
    for _ in range(40):
        words = ["<s>", *random_bag(rng, int(rng.integers(9, 16))), "</s>"]
        total = 0.0
        for i, w in enumerate(words):
            total += toy_lm.logprob(w, words[:i])
        assert score(toy_lm, words).total == total


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_score_many_matches_the_oracle_per_sequence(order):
    # one call over sequences of different lengths, empty and OOV ones among them
    model = train_lm(toy_corpus_sentences(), order=order)
    oracle = DictLM(model)
    rng = np.random.default_rng(23 + order)
    sequences = [["<s>", *random_bag(rng, int(rng.integers(0, 12))), "</s>"] for _ in range(20)]
    sequences += [[], ["zebrawood"], ["The", "<unk>", "quix", "dog"], ["dog"] * 3]
    for words, got in zip(sequences, lm.score_many(model, sequences)):
        total, used = _score_oracle(oracle, [w.lower() for w in words])
        assert _same_floats(got.total, total) and got.ngrams_used == used, words
        assert got.oov_count == sum(w.lower() not in model.vocab for w in words)
        assert got == score(model, words)


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
    model = parse_arpa(_HAND_WRITTEN_UNIGRAMS)
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


def test_arpa_huge_declared_order_is_rejected_without_allocating():
    # the orders are compared with as many as are declared, not with a range up to the largest
    text = "\\data\\\nngram 1=1\nngram 1000000000000000000=1\n\n\\1-grams:\n-1.0\ta\n\n\\end\\\n"
    with pytest.raises(ArpaFormatError, match="^line 5: ngram orders must be contiguous from 1$"):
        parse_arpa(text)


# Ways to break one entry (its tab-separated fields), and the error each gives.
_BAD_ENTRIES = {
    "one-field": (lambda f: f[0], "expected 2 or 3 tab-separated fields"),
    "four-fields": (lambda f: "\t".join(f + ["0.0"] * (4 - len(f))), "expected 2 or 3 tab-separated fields"),
    "bad-logp": (lambda f: "\t".join(["-1.2.3", *f[1:]]), "malformed number"),
    "bad-bow": (lambda f: "\t".join([*f[:2], "x"]), "malformed number"),
    "nan-logp": (lambda f: "\t".join(["nan", *f[1:]]), "malformed number"),
    "nan-bow": (lambda f: "\t".join([*f[:2], "NaN"]), "malformed number"),
    "long-gram": (lambda f: "\t".join([f[0], f[1] + " the", *f[2:]]), "expected a [1-3]-gram, got"),
    "empty-word": (lambda f: "\t".join([f[0], " " + f[1], *f[2:]]), "expected a [1-3]-gram, got"),
    "top-bow": (lambda f: "\t".join([*f, "-0.5"]), "highest order must not carry a backoff"),
}


def _break_entries(text, edits):
    """``text`` with entry ``index`` of the n-grams section broken as ``kind``,
    for each (n, index, kind) in ``edits``; returns the text and the entries' line numbers."""
    lines = text.split("\n")
    numbers = []
    for n, index, kind in edits:
        at = lines.index(f"\\{n}-grams:") + 1 + index
        lines[at] = _BAD_ENTRIES[kind][0](lines[at].split("\t"))
        numbers.append(at + 1)
    return "\n".join(lines), numbers


@pytest.mark.parametrize(
    "n, kind",
    [(n, kind) for n in (1, 2) for kind in _BAD_ENTRIES if kind != "top-bow"]
    + [(3, kind) for kind in _BAD_ENTRIES if kind not in ("bad-bow", "nan-bow")],
)
def test_arpa_bad_entry_reports_its_line(toy_lm, n, kind):
    text, (lineno,) = _break_entries(emit_arpa(toy_lm), [(n, 7, kind)])
    with pytest.raises(ArpaFormatError, match=f"^line {lineno}: {_BAD_ENTRIES[kind][1]}"):
        parse_arpa(text)


@pytest.mark.parametrize("bare", [3, 12])
@pytest.mark.parametrize("n, kind", [(n, kind) for n in (1, 2) for kind in _BAD_ENTRIES if kind != "top-bow"])
def test_arpa_bad_entry_beside_an_entry_without_backoff_reports_its_line(toy_lm, n, kind, bare):
    # the column route pads entry `bare` with backoff 0.0 and still meets the broken entry 7
    lines = emit_arpa(toy_lm).split("\n")
    at = lines.index(f"\\{n}-grams:") + 1 + bare
    lines[at] = lines[at].rsplit("\t", 1)[0]
    text, (lineno,) = _break_entries("\n".join(lines), [(n, 7, kind)])
    with pytest.raises(ArpaFormatError, match=f"^line {lineno}: {_BAD_ENTRIES[kind][1]}"):
        parse_arpa(text)


@pytest.mark.parametrize(
    "first, second",
    [
        ("long-gram", "one-field"),
        ("bad-logp", "four-fields"),
        ("top-bow", "empty-word"),
        ("one-field", "bad-logp"),
    ],
)
def test_arpa_earliest_bad_entry_wins(toy_lm, first, second):
    # of two malformed entries in a section, the one on the earlier line is reported
    text, (lineno, _) = _break_entries(emit_arpa(toy_lm), [(3, 20, first), (3, 40, second)])
    with pytest.raises(ArpaFormatError, match=f"^line {lineno}: {_BAD_ENTRIES[first][1]}"):
        parse_arpa(text)


def _insert_trigram(text, entry):
    lines = text.split("\n")
    at = lines.index("\\3-grams:") + 1
    lines.insert(at, entry)
    count = next(i for i, line in enumerate(lines) if line.startswith("ngram 3="))
    lines[count] = f"ngram 3={int(lines[count].split('=')[1]) + 1}"
    return "\n".join(lines), at + 1


def test_arpa_missing_prefix_is_rejected_with_its_line(toy_lm):
    bigrams = set(_lm_oracle.ngrams(toy_lm)[1])
    prefix = next((a, b) for a in TOY_VOCAB for b in TOY_VOCAB if (a, b) not in bigrams)
    text, lineno = _insert_trigram(emit_arpa(toy_lm), f"-1.0\t{' '.join(prefix)} dog")
    with pytest.raises(ArpaFormatError, match=f"^line {lineno}: prefix '{' '.join(prefix)}' has no 2-gram"):
        parse_arpa(text)


def test_arpa_prefix_word_without_unigram_is_rejected_with_its_line():
    # as ids the prefix "</s> zz" is [1, -1], whose walk reaches the key 1 * 4 - 1 of the 2-gram "<s> a"
    text = "\n".join([
        "\\data\\", "ngram 1=4", "ngram 2=1", "ngram 3=1", "",
        "\\1-grams:", "-1.0\t<s>\t-0.1", "-1.0\t</s>\t-0.1", "-1.0\t<unk>\t-0.1", "-1.0\ta\t-0.1", "",
        "\\2-grams:", "-1.0\t<s> a\t-0.1", "",
        "\\3-grams:", "-1.0\t</s> zz a", "", "\\end\\", "",
    ])
    with pytest.raises(ArpaFormatError, match="^line 16: prefix '</s> zz' has no 2-gram$"):
        parse_arpa(text)


def test_arpa_word_without_unigram_is_rejected_with_its_line(toy_lm):
    first = _lm_oracle.ngrams(toy_lm)[1][0]
    text, lineno = _insert_trigram(emit_arpa(toy_lm), f"-1.0\t{' '.join(first)} zebrawood")
    with pytest.raises(ArpaFormatError, match=f"^line {lineno}: word 'zebrawood' has no 1-gram"):
        parse_arpa(text)


def test_arpa_entry_without_backoff_column_gets_zero(toy_lm):
    lines = emit_arpa(toy_lm).split("\n")
    at = lines.index("\\2-grams:") + 4
    logp, gram, _ = lines[at].split("\t")
    expected = lines.copy()
    lines[at] = f"{logp}\t{gram}"
    expected[at] = f"{logp}\t{gram}\t0.0"
    assert emit_arpa(parse_arpa("\n".join(lines))) == "\n".join(expected)


def test_arpa_repeated_entry_keeps_the_last(toy_lm):
    lines = emit_arpa(toy_lm).split("\n")
    lines.insert(lines.index("\\2-grams:") - 1, "-0.25\tdog\t-0.5")
    lines[1] = f"ngram 1={len(toy_lm.tables[0]) + 1}"
    model = parse_arpa("\n".join(lines))
    assert len(model.tables[0]) == len(toy_lm.tables[0])
    assert model.logprob("dog") == -0.25
    assert model.tables[0].bow[_lm_oracle.ngrams(model)[0].index(("dog",))] == -0.5


def _sections_without_some_backoffs(text):
    """``text`` with every third entry below the highest order stripped of its backoff."""
    lines, top = text.split("\n"), text.count("-grams:")
    for n in range(1, top):
        start = lines.index(f"\\{n}-grams:") + 1
        for at in range(start, lines.index("", start), 3):
            lines[at] = lines[at].rsplit("\t", 1)[0]
    return "\n".join(lines)


@pytest.mark.parametrize(
    "source", ["golden-o3", "golden-o4", "golden-o5", "o1", "o2", "o3", "o4", "o5", "bare-bows-o3", "bare-bows-o5"]
)
def test_line_route_reads_the_model_the_column_route_does(monkeypatch, source):
    if source.startswith("golden"):
        text = (DATA_DIR / f"{source}.arpa").read_text(encoding="utf-8")
    else:
        text = emit_arpa(train_lm(toy_corpus_sentences(), order=int(source[-1])))
    if source.startswith("bare-bows"):
        text = _sections_without_some_backoffs(text)
    columns = parse_arpa(text)
    monkeypatch.setattr(lm, "_columns", lambda *args: None)  # every section takes the line route
    _assert_same_model(parse_arpa(text), columns)


@pytest.mark.parametrize("field", [0, 2], ids=["logp", "bow"])
@pytest.mark.parametrize("spelling", ["inf", "-inf", "1e999", "1_0", "١٢", "nan", "NaN", "0x1p3", "1,0"])
def test_line_route_accepts_the_numbers_the_column_route_does(monkeypatch, toy_lm, spelling, field):
    lines = emit_arpa(toy_lm).split("\n")
    at = lines.index("\\2-grams:") + 1 + 7
    fields = lines[at].split("\t")
    fields[field] = spelling
    lines[at] = "\t".join(fields)
    text = "\n".join(lines)

    def read():
        try:
            return parse_arpa(text)
        except ArpaFormatError as exc:
            return str(exc)

    columns = read()
    monkeypatch.setattr(lm, "_columns", lambda *args: None)  # every section takes the line route
    by_lines = read()
    if spelling in ("nan", "NaN", "0x1p3", "1,0"):  # float rejects these or reads them as NaN
        assert columns == by_lines and columns.startswith(f"line {at + 1}: malformed number")
    else:
        _assert_same_model(by_lines, columns)
        column = columns.tables[1].logp if field == 0 else columns.tables[1].bow
        assert float(spelling) in column.tolist()


# -------------------------------------------------------------- tables image

def _write_lm(directory, model):
    """The ARPA file and tables image of ``model``, as train-lm writes them; returns the ARPA path."""
    arpa = emit_arpa(model).encode("utf-8")
    path = directory / "m.arpa"
    path.write_bytes(arpa)
    lm.tables_path(path).write_bytes(lm.tables_image(model, arpa))
    return path


def _text_parses(monkeypatch):
    """Make lm.parse_arpa record its calls; returns the list of parsed texts."""
    calls, real = [], lm.parse_arpa
    monkeypatch.setattr(lm, "parse_arpa", lambda text: calls.append(text) or real(text))
    return calls


@pytest.mark.parametrize("lm_order", [1, 2, 3, 4, 5])
def test_load_arpa_through_the_tables_equals_parse_arpa(tmp_path, monkeypatch, lm_order):
    path = _write_lm(tmp_path, train_lm(toy_corpus_sentences(), order=lm_order))
    expected = parse_arpa(path.read_text(encoding="utf-8"))
    parsed, notes = _text_parses(monkeypatch), []
    _assert_same_model(lm.load_arpa(path, notes.append), expected)
    assert parsed == [] and notes == []


@pytest.mark.parametrize("vocab_words", [0, 1, 3, 7])
def test_tables_image_arrays_are_aligned_views_of_one_read(tmp_path, vocab_words):
    # words of other lengths move the arrays to every offset mod 8 in the file
    sentences = toy_corpus_sentences()[:60] + ["x" * (n + 2) for n in range(vocab_words)]
    path = _write_lm(tmp_path, train_lm(sentences, order=3))
    model = lm.load_arpa(path, pytest.fail)
    arrays = [a for table in model.tables for a in (table.key, table.logp, table.bow) if a is not None]
    assert all(a.flags.aligned and not a.flags.writeable for a in arrays)
    assert len({id(a.base.obj) for a in arrays}) == 1  # the image is held once
    _assert_same_model(model, parse_arpa(path.read_text(encoding="utf-8")))


def _edit_header(edit):
    def apply(image):
        magic, header, payload = image.split(b"\n", 2)
        return b"\n".join([magic, json.dumps(edit(json.loads(header))).encode(), payload])

    return apply


def _flip_byte(image, at):
    return image[:at] + bytes([image[at] ^ 1]) + image[at + 1 :]


# Ways to damage a tables image, and the reason read_tables gives.
_IMAGE_EDITS = {
    "wrong-magic": (lambda img: b"udrealize-ngram-tables-v0" + img[img.index(b"\n") :], "not an n-gram tables"),
    "no-header-line": (lambda img: img[: img.index(b"\n") + 1] + b'{"order": 3', "header does not hold"),
    "not-json": (lambda img: img.replace(b"{", b"{{", 1), "header does not hold"),
    "nested-header": (lambda img: img.replace(img.split(b"\n", 2)[1], b"[" * 60_000, 1), "header does not hold"),
    "array-header": (_edit_header(lambda h: list(h.items())), "header does not hold"),
    "missing-field": (_edit_header(lambda h: {k: h[k] for k in h if k != "vocab_bytes"}), "header does not hold"),
    "extra-field": (_edit_header(lambda h: {**h, "created": 0}), "header does not hold"),
    "string-order": (_edit_header(lambda h: {**h, "order": str(h["order"])}), "header does not hold"),
    "counts-length": (_edit_header(lambda h: {**h, "counts": h["counts"] + [0]}), "header does not hold"),
    "other-arpa": (_edit_header(lambda h: {**h, "arpa_sha256": "0" * 64}), "written for other ARPA bytes"),
    "counts-edit": (_edit_header(lambda h: {**h, "counts": [h["counts"][0] + 1, *h["counts"][1:]]}), "payload has"),
    "truncated": (lambda img: img[:-8], "payload has"),
    "trailing-byte": (lambda img: img + b"\0", "payload has"),
    "flipped-vocab-byte": (lambda img: _flip_byte(img, img.index(b"<unk>")), "payload digest mismatch"),
    "flipped-table-byte": (lambda img: _flip_byte(img, len(img) - 100), "payload digest mismatch"),
}


@pytest.mark.parametrize("edit", list(_IMAGE_EDITS))
def test_damaged_tables_image_is_rejected_and_the_text_parsed(tmp_path, monkeypatch, toy_lm, edit):
    path = _write_lm(tmp_path, toy_lm)
    damage, reason = _IMAGE_EDITS[edit]
    image = damage(lm.tables_path(path).read_bytes())
    with pytest.raises(TablesError, match=reason):
        lm.read_tables(image, hashlib.sha256(path.read_bytes()).hexdigest())
    lm.tables_path(path).write_bytes(image)
    parsed, notes = _text_parses(monkeypatch), []
    _assert_same_model(lm.load_arpa(path, notes.append), parse_arpa(emit_arpa(toy_lm)))
    assert len(parsed) == 1
    assert len(notes) == 1 and notes[0].startswith(f"{lm.tables_path(path)}: ") and reason in notes[0]


def test_stale_tables_image_is_rejected_and_the_text_parsed(tmp_path, monkeypatch, toy_lm):
    path = _write_lm(tmp_path, toy_lm)
    path.write_bytes(path.read_bytes() + b"\n")  # the same model, other bytes
    parsed, notes = _text_parses(monkeypatch), []
    _assert_same_model(lm.load_arpa(path, notes.append), toy_lm)
    assert len(parsed) == 1
    assert len(notes) == 1 and "written for other ARPA bytes" in notes[0]


def test_missing_tables_image_parses_the_text_silently(tmp_path, monkeypatch, toy_lm):
    path = _write_lm(tmp_path, toy_lm)
    lm.tables_path(path).unlink()
    parsed, notes = _text_parses(monkeypatch), []
    _assert_same_model(lm.load_arpa(path, notes.append), toy_lm)
    assert len(parsed) == 1 and notes == []


def test_unreadable_tables_image_is_rejected_and_the_text_parsed(tmp_path, toy_lm):
    path = _write_lm(tmp_path, toy_lm)
    lm.tables_path(path).unlink()
    lm.tables_path(path).mkdir()
    notes = []
    _assert_same_model(lm.load_arpa(path, notes.append), toy_lm)
    assert notes == [f"{lm.tables_path(path)}: Is a directory; parsing the ARPA text instead"]


def test_malformed_arpa_beside_stale_tables_reports_its_line(tmp_path, toy_lm):
    path = _write_lm(tmp_path, toy_lm)
    text, (lineno,) = _break_entries(emit_arpa(toy_lm), [(2, 7, "bad-logp")])
    path.write_text(text, encoding="utf-8")
    notes = []
    with pytest.raises(ArpaFormatError, match=f"^line {lineno}: malformed number"):
        lm.load_arpa(path, notes.append)
    assert len(notes) == 1 and "written for other ARPA bytes" in notes[0]


def test_tables_image_without_the_reserved_words_is_rejected():
    # only a hand-made image can get here: the payload digest matches
    table = lm.NGramTable(np.arange(2, dtype=np.int64), np.array([-0.3, -0.3]), None)
    model = NGramModel(1, Vocabulary(("a", "b")), [table])
    with pytest.raises(TablesError, match="malformed vocabulary"):
        lm.read_tables(lm.tables_image(model, b"arpa"), hashlib.sha256(b"arpa").hexdigest())


def test_tables_image_is_byte_deterministic(toy_sentences):
    images = []
    for _ in range(2):
        model = train_lm(list(toy_sentences), order=3)
        images.append(lm.tables_image(model, emit_arpa(model).encode("utf-8")))
    assert images[0] == images[1]


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
