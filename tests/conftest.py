import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from udrealize import lm

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

# Hypothesis reports a falsifying example through its patch writer, which
# imports libcst; libcst's import warns that mypy_extensions.TypedDict is
# deprecated, and under ``error::DeprecationWarning`` that ends the run in
# an INTERNALERROR.  Import it here, with that warning ignored, so the
# report needs no further import.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst installed
        pass

DATA_DIR = Path(__file__).parent / "data"

DETS = ["the", "a"]
ADJS = ["old", "young", "cold", "empty", "quick"]
NOUNS = ["man", "dog", "cat", "park", "rain", "wind", "street", "boy", "book", "home"]
VERBS = ["saw", "ran", "fell", "blew", "reads", "runs", "sleeps", "sat"]
PREPS = ["in", "over", "under", "near"]
ADVS = ["tonight", "today", "quietly"]

TOY_VOCAB = sorted(set(DETS + ADJS + NOUNS + VERBS + PREPS + ADVS + ["and", "while"]))


def toy_corpus_sentences(seed: int = 7, count: int = 520) -> list[str]:
    """Template-generated ordered sentences; deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    pick = lambda xs: str(rng.choice(xs))
    templates = [
        lambda: f"{pick(DETS)} {pick(NOUNS)} {pick(VERBS)}",
        lambda: f"{pick(DETS)} {pick(ADJS)} {pick(NOUNS)} {pick(VERBS)}",
        lambda: f"{pick(DETS)} {pick(NOUNS)} {pick(VERBS)} {pick(PREPS)} {pick(DETS)} {pick(NOUNS)}",
        lambda: f"{pick(DETS)} {pick(ADJS)} {pick(NOUNS)} {pick(VERBS)} {pick(ADVS)}",
        lambda: (
            f"{pick(DETS)} {pick(NOUNS)} {pick(VERBS)} {pick(PREPS)} {pick(DETS)} "
            f"{pick(ADJS)} {pick(NOUNS)} {pick(ADVS)}"
        ),
        lambda: (
            f"{pick(DETS)} {pick(ADJS)} {pick(NOUNS)} {pick(VERBS)} and "
            f"{pick(DETS)} {pick(NOUNS)} {pick(VERBS)} {pick(ADVS)}"
        ),
    ]
    return [templates[int(rng.integers(0, len(templates)))]() for _ in range(count)]


@pytest.fixture(scope="session")
def toy_sentences() -> list[str]:
    return toy_corpus_sentences()


@pytest.fixture(scope="session")
def toy_lm(toy_sentences) -> lm.NGramModel:
    return lm.train_lm(toy_sentences, order=3)


def random_bag(rng: np.random.Generator, size: int) -> list[str]:
    return [str(rng.choice(TOY_VOCAB)) for _ in range(size)]
