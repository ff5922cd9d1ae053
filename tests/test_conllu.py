import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from udrealize.conllu import (
    Corpus,
    Token,
    UdSentence,
    emit_conllu,
    parse_conllu,
    parse_reference_text,
)

from conftest import DATA_DIR

TWO_TOKENS = (
    "1\tread\tread\tVERB\t_\tTense=Past\t0\troot\t_\t_\n"
    "2\tbook\tbook\tNOUN\t_\tNumber=Sing\t1\tobj\t_\t_\n"
)


def test_parse_two_token_block():
    corpus = parse_conllu(TWO_TOKENS)
    assert len(corpus.sentences) == 1
    sent = corpus.sentences[0]
    assert len(sent.tokens) == 2
    t1, t2 = sent.tokens
    assert (t1.id, t1.lemma, t1.upos, t1.head, t1.deprel) == (1, "read", "VERB", 0, "root")
    assert t1.feats == [("Tense", "Past")]
    assert (t2.id, t2.head) == (2, 1)
    assert t2.feats == [("Number", "Sing")]
    assert corpus.diagnostics == []


def test_parse_empty_input():
    assert parse_conllu("").sentences == []


def test_multiword_range_skipped():
    # hand-built 4-token block with a 3-4 range line; the range is dropped,
    # tokens 3 and 4 survive
    text = (
        "1\tDo\tdo\tAUX\t_\t_\t4\taux\t_\t_\n"
        "2\tyou\tyou\tPRON\t_\t_\t4\tnsubj\t_\t_\n"
        "3-4\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
        "3\tdo\tdo\tAUX\t_\t_\t4\taux\t_\t_\n"
        "4\tknow\tknow\tVERB\t_\t_\t0\troot\t_\t_\n"
    )
    corpus = parse_conllu(text)
    assert len(corpus.sentences) == 1
    assert [t.id for t in corpus.sentences[0].tokens] == [1, 2, 3, 4]


def test_empty_node_skipped():
    text = (
        "1\ta\ta\tDET\t_\t_\t0\troot\t_\t_\n"
        "1.1\tghost\tghost\tNOUN\t_\t_\t_\t_\t_\t_\n"
    )
    corpus = parse_conllu(text)
    assert [t.id for t in corpus.sentences[0].tokens] == [1]


def test_malformed_column_count_skips_sentence():
    text = TWO_TOKENS + "\n" + "1\tonly\tthree\n2\tok\tok\tNOUN\t_\t_\t1\tobj\t_\t_\n"
    corpus = parse_conllu(text)
    assert len(corpus.sentences) == 1  # the good block survives
    assert any("line 4" in d and "columns" in d for d in corpus.diagnostics)


def test_non_integer_head_skips_sentence():
    text = "1\tx\tx\tNOUN\t_\t_\tzzz\troot\t_\t_\n"
    corpus = parse_conllu(text)
    assert corpus.sentences == []
    assert any("non-integer HEAD" in d for d in corpus.diagnostics)


def test_structural_violations_flagged_not_fatal():
    text = (
        "1\ta\ta\tDET\t_\t_\t2\tdet\t_\t_\n"
        "2\tb\tb\tNOUN\t_\t_\t9\tobj\t_\t_\n"
    )
    corpus = parse_conllu(text)
    assert len(corpus.sentences) == 1
    assert any("head 9" in d for d in corpus.diagnostics)
    assert any("root" in d for d in corpus.diagnostics)


@pytest.mark.parametrize(
    "heads, expected",
    [
        ((0, -1), "token 2 has negative head"),
        ((0, 2), "token 2 is its own head"),
        ((0, 9), "token 2 head 9 does not exist"),
        ((2, 1), "0 root tokens (expected 1)"),
        ((0, 0), "2 root tokens (expected 1)"),
    ],
)
def test_each_head_fault_gives_one_diagnostic(heads, expected):
    text = "".join(f"{i}\tw{i}\tw{i}\tNOUN\t_\t_\t{h}\tdep\t_\t_\n" for i, h in enumerate(heads, 1))
    corpus = parse_conllu(text)
    assert len(corpus.sentences) == 1
    assert corpus.diagnostics == [f"sentence 1: {expected}"]


def test_sent_id_comment_and_running_index():
    text = "# sent_id = alpha\n" + TWO_TOKENS + "\n" + TWO_TOKENS
    corpus = parse_conllu(text)
    assert [s.sent_id for s in corpus.sentences] == ["alpha", "2"]


def test_token_count_matches_integer_id_lines():
    text = DATA_DIR.joinpath("toy.conllu").read_text()
    corpus = parse_conllu(text)
    for block, sent in zip(text.strip().split("\n\n"), corpus.sentences):
        integer_lines = [
            line
            for line in block.splitlines()
            if not line.startswith("#") and line.split("\t")[0].isdigit()
        ]
        assert len(sent.tokens) == len(integer_lines)


def test_emit_round_trip():
    original = parse_conllu(TWO_TOKENS)
    again = parse_conllu(emit_conllu(original))
    assert again.sentences == original.sentences


def test_emit_round_trip_toy_treebank():
    corpus = parse_conllu(DATA_DIR.joinpath("toy.conllu").read_text())
    again = parse_conllu(emit_conllu(corpus))
    assert again.sentences == corpus.sentences


def test_emit_empty_feats_and_empty_corpus():
    sent = UdSentence("x", [Token(id=1, lemma="hi", upos="INTJ")])
    out = emit_conllu(Corpus(sentences=[sent]))
    assert out.splitlines()[1].split("\t")[5] == "_"
    assert emit_conllu(Corpus()) == ""


def test_emit_sorts_feats_case_insensitively():
    sent = UdSentence("x", [Token(id=1, lemma="a", upos="NOUN",
                                  feats=[("b", "1"), ("Aa", "2")])])
    line = emit_conllu(Corpus(sentences=[sent])).splitlines()[1]
    assert line.split("\t")[5] == "Aa=2|b=1"


@given(st.text(max_size=400))
@settings(max_examples=200)
def test_parser_never_raises(text):
    corpus = parse_conllu(text)
    assert isinstance(corpus.sentences, list)
    assert isinstance(corpus.diagnostics, list)


_word = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=6)


@st.composite
def _corpora(draw):
    sentences = []
    for si in range(draw(st.integers(1, 4))):
        n = draw(st.integers(1, 5))
        tokens = []
        for i in range(1, n + 1):
            feats = sorted(
                {draw(_word).capitalize(): draw(_word).capitalize() for _ in range(draw(st.integers(0, 2)))}.items(),
                key=lambda kv: (kv[0].casefold(), kv[0]),
            )
            tokens.append(
                Token(
                    id=i,
                    lemma=draw(_word),
                    upos="NOUN",
                    feats=list(feats),
                    head=0 if i == 1 else draw(st.integers(1, i)),
                )
            )
        sentences.append(UdSentence(sent_id=f"g{si}", tokens=tokens))
    return Corpus(sentences=sentences)


@given(_corpora())
@settings(max_examples=60)
def test_round_trip_property(corpus):
    once = parse_conllu(emit_conllu(corpus))
    twice = parse_conllu(emit_conllu(once))
    assert once.sentences == twice.sentences


def test_parse_reference_text_basic():
    assert parse_reference_text("s1\tThe boy reads a book .") == [
        ("s1", "The boy reads a book .")
    ]
    assert parse_reference_text("") == []
    assert parse_reference_text("a\tx\nb\ty\n") == [("a", "x"), ("b", "y")]


def test_parse_reference_text_missing_tab():
    diags = []
    out = parse_reference_text("no tab here", diags)
    assert out == [("", "no tab here")]
    assert len(diags) == 1
