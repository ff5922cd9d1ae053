"""Seeded workload inputs for the benchmark.

Everything is built from the toy grammar in ``tests/conftest.py`` and the
rule-generated morphology in ``tests/_synth.py``; both are imported
read-only.  The same seed always gives byte-identical files.

Sentences follow the six toy templates of ``conftest.toy_corpus_sentences``
(the templates are closures there, so their slot sequences are mirrored
below).  Noun and verb slots draw either a toy word or a ``_synth``
pseudo-word inflected by ``_synth.plural`` / ``_synth.past``, which gives
the LM a vocabulary of about two thousand words and the reinflector real
work on unseen stems.
"""

from __future__ import annotations

import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import _synth  # noqa: E402
import conftest  # noqa: E402

# Slot sequences of the six templates in conftest.toy_corpus_sentences.
TEMPLATES = (
    "D N V",
    "D A N V",
    "D N V P D N",
    "D A N V R",
    "D N V P D A N R",
    "D A N V and D N V R",
)
TEMPLATE_LENGTHS = tuple(len(t.split()) for t in TEMPLATES)
JOINERS = ("and", "while")

LM_SENTENCES = 20000
LM_STEMS = 2000
SYNTH_SHARE = 0.5  # share of noun and verb slots filled by pseudo-words
JOINED_SHARE = 0.2  # share of LM sentences made of two joined templates

# Reinflector training data: the _synth triples plus identity triples for
# the closed toy vocabulary, so that every tag the inputs carry is trained.
CHECKPOINT_DATA_SEED = 11
CHECKPOINT_PER_CLASS = 700
IDENTITY_REPEATS = 3
# default hyperparameters except the epoch count: 12 epochs already decode
# the held-out forms of the inputs to the reference lengths
CHECKPOINT_EPOCHS = 12


@dataclass(frozen=True)
class Word:
    form: str
    lemma: str
    upos: str
    feats: str  # CoNLL-U FEATS column


def _closed_words() -> dict[str, list[Word]]:
    def same(words, upos, feats="_"):
        return [Word(w, w, upos, feats) for w in words]

    return {
        "D": [
            Word(w, w, "DET", "Definite=Def|PronType=Art" if w == "the" else "Definite=Ind|PronType=Art")
            for w in conftest.DETS
        ],
        "A": same(conftest.ADJS, "ADJ", "Degree=Pos"),
        "N": same(conftest.NOUNS, "NOUN", "Number=Sing"),
        "V": same(conftest.VERBS, "VERB", "VerbForm=Fin"),
        "P": same(conftest.PREPS, "ADP"),
        "R": same(conftest.ADVS, "ADV"),
        "and": [Word("and", "and", "CCONJ", "_")],
        "while": [Word("while", "while", "SCONJ", "_")],
    }


CLOSED = _closed_words()


class Generator:
    """Draws annotated sentences; one instance per independent stream."""

    def __init__(self, stems: list[str], seed: int):
        self.rng = np.random.default_rng(seed)
        self.nouns = [Word(_synth.plural(s), s, "NOUN", "Number=Plur") for s in stems[0::2]]
        self.verbs = [Word(_synth.past(s), s, "VERB", "Tense=Past") for s in stems[1::2]]

    def _pick(self, words: list[Word]) -> Word:
        return words[int(self.rng.integers(0, len(words)))]

    def slot(self, name: str) -> Word:
        if name == "N" and self.rng.random() < SYNTH_SHARE:
            return self._pick(self.nouns)
        if name == "V" and self.rng.random() < SYNTH_SHARE:
            return self._pick(self.verbs)
        return self._pick(CLOSED[name])

    def template(self, index: int) -> list[Word]:
        return [self.slot(name) for name in TEMPLATES[index].split()]

    def single(self) -> list[Word]:
        return self.template(int(self.rng.integers(0, len(TEMPLATES))))

    def joined(self, indices) -> list[Word]:
        words = self.template(indices[0])
        for index in indices[1:]:
            words.append(self._pick(CLOSED[JOINERS[int(self.rng.integers(0, 2))]]))
            words.extend(self.template(index))
        return words

    def with_length(self, length: int) -> list[Word]:
        """2 to 4 joined templates whose total length (joiners included) is ``length``."""
        options = list(_template_splits(length))
        if not options:
            raise ValueError(f"no 2-4 template combination has {length} words")
        return self.joined(options[int(self.rng.integers(0, len(options)))])


def _template_splits(length: int, parts=(2, 3, 4)):
    def rec(remaining, count, acc):
        if count == 0:
            if remaining == 0:
                yield tuple(acc)
            return
        for i, n in enumerate(TEMPLATE_LENGTHS):
            if n <= remaining:
                yield from rec(remaining - n, count - 1, acc + [i])

    for k in parts:
        yield from rec(length - (k - 1), k, [])


def text_of(words: list[Word]) -> str:
    return " ".join(w.form for w in words)


def reference_of(words: list[Word]) -> str:
    """The sentence as the CLI prints it: first letter capitalized, final stop."""
    text = text_of(words)
    return text[0].upper() + text[1:] + " ."


def conllu_block(sent_id: str, words: list[Word], rng: np.random.Generator, with_form: bool) -> str:
    """One sentence with token ids shuffled; the first verb is the root."""
    perm = rng.permutation(len(words))  # perm[position] = id - 1
    root = next((i for i, w in enumerate(words) if w.upos == "VERB"), 0)
    rows = []
    for pos, w in enumerate(words):
        head = 0 if pos == root else int(perm[root]) + 1
        deprel = "root" if pos == root else "dep"
        form = w.form if with_form else "_"
        rows.append((int(perm[pos]) + 1, f"{form}\t{w.lemma}\t{w.upos}\t_\t{w.feats}\t{head}\t{deprel}\t_\t_"))
    rows.sort()
    body = "\n".join(f"{tid}\t{rest}" for tid, rest in rows)
    return f"# sent_id = {sent_id}\n{body}\n"


def lm_corpus(seed: int) -> tuple[list[str], list[str]]:
    """(corpus sentences, stems) shared by every workload of a seed."""
    stems = _synth.make_stems(seed, LM_STEMS)
    gen = Generator(stems, seed + 1)
    sentences = []
    for _ in range(LM_SENTENCES):
        if gen.rng.random() < JOINED_SHARE:
            words = gen.joined([int(gen.rng.integers(0, len(TEMPLATES))) for _ in range(2)])
        else:
            words = gen.single()
        sentences.append(text_of(words))
    return sentences, stems


def write_inputs(out: Path, name: str, sentences: list[list[Word]], seed: int, with_form: bool) -> None:
    rng = np.random.default_rng(seed)
    ids = [f"{name}-{i + 1:04d}" for i in range(len(sentences))]
    blocks = [conllu_block(sid, words, rng, with_form) for sid, words in zip(ids, sentences)]
    (out / f"{name}.conllu").write_text("\n".join(blocks), encoding="utf-8")
    refs = "".join(f"{sid}\t{reference_of(words)}\n" for sid, words in zip(ids, sentences))
    (out / f"{name}.refs").write_text(refs, encoding="utf-8")


def write_triples(path: Path, examples) -> None:
    path.write_text("".join(f"{ex.lemma}\t{ex.tag}\t{ex.target}\n" for ex in examples), encoding="utf-8")


def checkpoint_triples():
    """Training triples for the reinflector that realize-short loads."""
    from udrealize import morphmap

    train, _ = _synth.make_dataset(seed=CHECKPOINT_DATA_SEED, per_class=CHECKPOINT_PER_CLASS)
    table = morphmap.default_table()
    identity = []
    for key in ("D", "A", "N", "V", "P", "R", "and", "while"):
        for w in CLOSED[key]:
            feats = [] if w.feats == "_" else [tuple(f.split("=")) for f in w.feats.split("|")]
            tag = morphmap.convert(w.upos, feats, table)
            identity.append(_synth.TrainExample(lemma=w.lemma, tag=tag, target=w.form))
    return train + identity * IDENTITY_REPEATS


def bag_histogram(sentences: list[list[Word]]) -> dict[int, int]:
    return dict(sorted(Counter(len(s) for s in sentences).items()))
