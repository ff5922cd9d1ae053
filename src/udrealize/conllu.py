"""CoNLL-U parsing and emission for the realization pipeline.

Only the columns the pipeline consumes are modeled.  Multiword-token
ranges and empty nodes are skipped, DEPS/MISC are dropped.  Treebanks in
the wild are dirty, so problems never raise: malformed lines skip their
sentence and everything else lands in the corpus diagnostics list.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

_NUM_COLUMNS = 10
_RANGE_ID = re.compile(r"^\d+-\d+$")
_EMPTY_NODE_ID = re.compile(r"^\d+\.\d+$")
_PLAIN_ID = re.compile(r"^\d+$")


@dataclass
class Token:
    """One syntactic word: 1-based id, lemma, tags, head link, surface form.

    ``form`` stays empty until reinflection fills it in.
    """

    id: int
    lemma: str
    upos: str
    xpos: str = ""
    feats: list[tuple[str, str]] = field(default_factory=list)
    head: int = 0
    deprel: str = ""
    form: str = ""


@dataclass
class UdSentence:
    """An unordered bag of tokens; file order carries no word order."""

    sent_id: str
    tokens: list[Token] = field(default_factory=list)


@dataclass
class Corpus:
    sentences: list[UdSentence] = field(default_factory=list)
    diagnostics: list[str] = field(default_factory=list)


def _parse_feats(raw: str, where: str, diagnostics: list[str]) -> list[tuple[str, str]]:
    """Parse 'Key=Val|Key=Val' into pairs, canonically ordered by key."""
    if raw in ("_", ""):
        return []
    pairs: list[tuple[str, str]] = []
    seen: set[str] = set()
    for item in raw.split("|"):
        key, sep, val = item.partition("=")
        if not sep or not key:
            diagnostics.append(f"{where}: malformed feature {item!r} dropped")
            continue
        if key in seen:
            diagnostics.append(f"{where}: duplicate feature key {key!r} dropped")
            continue
        seen.add(key)
        pairs.append((key, val))
    pairs.sort(key=lambda kv: (kv[0].casefold(), kv[0]))
    return pairs


def _check_structure(sent: UdSentence, diagnostics: list[str]) -> None:
    ids = [t.id for t in sent.tokens]
    n = len(ids)
    if sorted(ids) != list(range(1, n + 1)):
        diagnostics.append(f"sentence {sent.sent_id}: token ids are not exactly 1..{n}")
    id_set = set(ids)
    roots = 0
    for tok in sent.tokens:
        if tok.head < 0:
            diagnostics.append(f"sentence {sent.sent_id}: token {tok.id} has negative head")
        elif tok.head == 0:
            roots += 1
        elif tok.head not in id_set:
            diagnostics.append(
                f"sentence {sent.sent_id}: token {tok.id} head {tok.head} does not exist"
            )
        if tok.head == tok.id:
            diagnostics.append(f"sentence {sent.sent_id}: token {tok.id} is its own head")
    if roots != 1:
        diagnostics.append(f"sentence {sent.sent_id}: {roots} root tokens (expected 1)")


def parse_conllu(text: str) -> Corpus:
    """Parse CoNLL-U text into a Corpus, collecting diagnostics instead of raising.

    Sentences are blank-line separated; '#' lines are comments.  A line
    with the wrong column count or a non-integer HEAD invalidates its
    whole sentence (reported with the line number); parsing continues
    with the next block.
    """
    corpus = Corpus()
    block: list[tuple[int, str]] = []

    def flush() -> None:
        if not block:
            return
        sent_id = ""
        tokens: list[Token] = []
        bad = False
        for lineno, line in block:
            if line.startswith("#"):
                body = line[1:].strip()
                key, sep, val = body.partition("=")
                if sep and key.strip() == "sent_id":
                    sent_id = val.strip()
                continue
            cols = line.split("\t")
            if len(cols) != _NUM_COLUMNS:
                corpus.diagnostics.append(
                    f"line {lineno}: expected {_NUM_COLUMNS} columns, got {len(cols)}; sentence skipped"
                )
                bad = True
                continue
            tid = cols[0]
            if _RANGE_ID.match(tid) or _EMPTY_NODE_ID.match(tid):
                continue
            if not _PLAIN_ID.match(tid):
                corpus.diagnostics.append(
                    f"line {lineno}: unparseable token id {tid!r}; sentence skipped"
                )
                bad = True
                continue
            try:
                head = int(cols[6])
            except ValueError:
                corpus.diagnostics.append(
                    f"line {lineno}: non-integer HEAD {cols[6]!r}; sentence skipped"
                )
                bad = True
                continue
            where = f"line {lineno}"
            tokens.append(
                Token(
                    id=int(tid),
                    form="" if cols[1] == "_" else cols[1],
                    lemma="" if cols[2] == "_" else cols[2],
                    upos="" if cols[3] == "_" else cols[3],
                    xpos="" if cols[4] == "_" else cols[4],
                    feats=_parse_feats(cols[5], where, corpus.diagnostics),
                    head=head,
                    deprel="" if cols[7] == "_" else cols[7],
                )
            )
        if bad:
            return
        if not tokens and not sent_id:
            return
        sent = UdSentence(sent_id=sent_id or str(len(corpus.sentences) + 1), tokens=tokens)
        _check_structure(sent, corpus.diagnostics)
        corpus.sentences.append(sent)

    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip() == "":
            flush()
            block = []
        else:
            block.append((lineno, line))
    flush()

    ids_seen: set[str] = set()
    for sent in corpus.sentences:
        if sent.sent_id in ids_seen:
            corpus.diagnostics.append(f"duplicate sent_id {sent.sent_id!r}")
        ids_seen.add(sent.sent_id)
    return corpus


def parse_reference_text(
    text: str, diagnostics: list[str] | None = None
) -> list[tuple[str, str]]:
    """Parse 'sent_id<TAB>sentence' lines into (id, sentence) pairs.

    Blank lines are ignored; a line without a tab yields a pair with an
    empty id plus a warning in ``diagnostics``.
    """
    out: list[tuple[str, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if line.strip() == "":
            continue
        sid, sep, sentence = line.partition("\t")
        if not sep:
            if diagnostics is not None:
                diagnostics.append(f"line {lineno}: no tab separator, id left empty")
            out.append(("", line))
        else:
            out.append((sid, sentence))
    return out


def _field(value: str) -> str:
    return value if value else "_"


def emit_conllu(corpus: Corpus) -> str:
    """Serialize a corpus back to CoNLL-U (FEATS sorted case-insensitively by key)."""
    blocks: list[str] = []
    for sent in corpus.sentences:
        lines = [f"# sent_id = {sent.sent_id}"]
        for tok in sent.tokens:
            feats = sorted(tok.feats, key=lambda kv: (kv[0].casefold(), kv[0]))
            feat_col = "|".join(f"{k}={v}" for k, v in feats) if feats else "_"
            lines.append(
                "\t".join(
                    [
                        str(tok.id),
                        _field(tok.form),
                        _field(tok.lemma),
                        _field(tok.upos),
                        _field(tok.xpos),
                        feat_col,
                        str(tok.head),
                        _field(tok.deprel),
                        "_",
                        "_",
                    ]
                )
            )
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n" if blocks else ""
