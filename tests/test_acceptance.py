"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The heavyweight criterion (reinflection on the rule-generated morphology
set with default hyperparameters) trains once in a module fixture and is
reused by the end-to-end checks.
"""

import itertools
import math
import sys
import time
from collections import Counter

import numpy as np
import pytest

from udrealize import cli, conllu, lm, metrics, morphmap, order, reinflect

from conftest import DATA_DIR, random_bag, toy_corpus_sentences
from _synth import make_dataset
from test_reinflect import relative_grad_error


_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_report(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def criterion(name: str, ok: bool, detail: str) -> None:
    """Print one pass/fail line straight to the terminal, then assert."""
    line = f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(f"\n{line}", flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def trained_reinflector():
    train_set, held = make_dataset(seed=11, per_class=700)
    assert len(train_set) + len(held) >= 2000
    model = reinflect.build_model(train_set)  # default hyperparameters
    start = time.perf_counter()
    model, trace = reinflect.train(model, train_set)
    elapsed = time.perf_counter() - start
    return model, held, elapsed, trace


@pytest.fixture(scope="module")
def toy_model():
    return lm.train_lm(toy_corpus_sentences(), order=3)


def test_reinflection_accuracy_analog(trained_reinflector):
    model, held, elapsed, trace = trained_reinflector
    correct = sum(
        reinflect.predict(model, ex.lemma, ex.tag) == ex.target for ex in held
    )
    accuracy = correct / len(held)
    ok = accuracy >= 0.90 and elapsed < 15 * 60
    criterion(
        "reinflection-analog",
        ok,
        f"held-out exact match {accuracy:.3f} on {len(held)} unseen-stem triples "
        f"(>= 0.90 required), trained {len(trace)} epochs in {elapsed:.0f}s (< 900s)",
    )


def test_gradient_correctness():
    examples = [
        reinflect.TrainExample("ab", morphmap.MorphTag(("N", "PL")), "abs"),
        reinflect.TrainExample("bce", morphmap.MorphTag(("V", "PST")), "bced"),
        reinflect.TrainExample("ea", morphmap.MorphTag(("N",)), "ea"),
    ]
    model = reinflect.build_model(examples, hidden_size=3, max_len=10, seed=13)
    analytic = reinflect.grad(model, examples)
    rng = np.random.default_rng(29)
    names = list(model.params)
    worst = 0.0
    checked = 0
    while checked < 120:
        name = names[int(rng.integers(0, len(names)))]
        index = int(rng.integers(0, model.params[name].size))
        worst = max(worst, relative_grad_error(model, examples, analytic, name, index))
        checked += 1
    criterion(
        "gradient-correctness",
        worst < 1e-4,
        f"{checked} random parameters, max relative error {worst:.2e} (< 1e-4)",
    )


def test_lm_normalization_and_arpa_drift(toy_model):
    sentences = toy_corpus_sentences()
    assert len(sentences) >= 500
    rng = np.random.default_rng(31)
    words = list(toy_model.vocab)
    worst_sum = 0.0
    for _ in range(100):
        history = tuple(
            str(rng.choice(words)) for _ in range(int(rng.integers(0, toy_model.order)))
        )
        total = sum(10 ** toy_model.logprob(w, history) for w in toy_model.vocab)
        worst_sum = max(worst_sum, abs(total - 1.0))

    parsed = lm.parse_arpa(lm.emit_arpa(toy_model))
    drift = 0.0
    for _ in range(1000):
        query = random_bag(rng, int(rng.integers(1, 9)))
        drift = max(
            drift, abs(lm.score(parsed, query).total - lm.score(toy_model, query).total)
        )
    ok = worst_sum <= 1e-6 and drift <= 1e-9
    criterion(
        "lm-normalization",
        ok,
        f"100 histories: max |sum-1| {worst_sum:.2e} (<= 1e-6); "
        f"ARPA round-trip drift {drift:.2e} over 1000 queries (<= 1e-9)",
    )


def test_ordering_oracle_equivalence(toy_model):
    rng = np.random.default_rng(37)
    start = time.perf_counter()
    agree = 0
    for _ in range(200):
        bag = order.WordBag(tuple(sorted(random_bag(rng, int(rng.integers(1, 5))))))
        got = order.exhaustive(bag, toy_model)
        best_total, best_perm = -math.inf, None
        for perm in sorted(set(itertools.permutations(bag.words))):
            total = lm.score(toy_model, ["<s>", *perm, "</s>"]).total
            if total > best_total or (total == best_total and perm < best_perm):
                best_total, best_perm = total, perm
        agree += got.sequence == list(best_perm)
    elapsed = time.perf_counter() - start
    ok = agree == 200 and elapsed < 10.0
    criterion(
        "ordering-oracle",
        ok,
        f"{agree}/200 bags match brute-force argmax in {elapsed:.2f}s (< 10s)",
    )


def test_end_to_end_permutation_invariant(trained_reinflector, toy_model):
    model, _, _, _ = trained_reinflector
    corpus = conllu.parse_conllu(DATA_DIR.joinpath("toy.conllu").read_text())
    cfg = order.OrderConfig()
    sizes = set()
    methods = set()
    violations = 0
    for sentence in corpus.sentences:
        forms = cli.surface_forms(model, sorted(sentence.tokens, key=lambda t: t.id))
        bag = order.preprocess(forms)
        sizes.add(len(bag))
        result = order.order_words(bag, toy_model, cfg)
        methods.add(result.method)
        if Counter(result.sequence) != Counter(bag.words):
            violations += 1
    has_branch_lengths = {1, 5, 24} <= sizes
    all_methods = methods == {
        order.OrderMethod.EXHAUSTIVE, order.OrderMethod.METHOD1, order.OrderMethod.METHOD2
    }
    ok = violations == 0 and has_branch_lengths and all_methods
    criterion(
        "end-to-end-permutation",
        ok,
        f"{len(corpus.sentences)} sentences, sizes {sorted(sizes)} "
        f"(need 1, 5, 24), methods {sorted(m.value for m in methods)}, "
        f"{violations} multiset violations (need 0)",
    )


def test_chunk_scheme_reconstruction():
    got = {s.sizes for s in order.chunk_schemes(6)}
    expected = {(3, 3), (3, 2, 1), (2, 2, 2)}
    criterion(
        "chunk-schemes",
        got == expected,
        f"chunk_schemes(6) = {sorted(got, reverse=True)} (expected the published three)",
    )


def test_method1_counting(toy_model):
    rng = np.random.default_rng(41)
    ok = True
    details = []
    for n in (5, 6, 10):
        bag = order.preprocess(random_bag(rng, n))
        result = order.method1(bag, toy_model)
        expected_seed = n * (n - 1) * (n - 2) * (n - 3)
        ok &= result.seed_candidates == expected_seed
        ok &= result.lrw_iterations == n - 4
        details.append(f"n={n}: seed {result.seed_candidates}={expected_seed}, "
                       f"lrw {result.lrw_iterations}={n - 4}")
    criterion("method1-counting", ok, "; ".join(details))


def test_metric_identities():
    sentences = ["The cat sat .", "A dog ran home tonight .", "Hello ."]
    tokens = [s.lower().split() for s in sentences]
    bleu_identity = metrics.bleu(tokens, [list(t) for t in tokens])
    dist_identity = min(metrics.dist(s, s) for s in sentences)
    abd = metrics.dist("abc", "abd")
    ok = (
        bleu_identity == pytest.approx(100.0, abs=1e-9)
        and dist_identity == pytest.approx(100.0, abs=1e-9)
        and abs(abd - 66.67) <= 0.01
    )
    criterion(
        "metric-identities",
        ok,
        f"BLEU(x,x)={bleu_identity:.2f}, DIST(x,x)={dist_identity:.2f}, "
        f"DIST(abc,abd)={abd:.4f} (66.67 +- 0.01)",
    )


def test_pipeline_determinism(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("\n".join(toy_corpus_sentences()) + "\n", encoding="utf-8")
    train_set, _ = make_dataset(seed=3, per_class=30)
    tsv = tmp_path / "morph.tsv"
    tsv.write_text(
        "".join(f"{ex.lemma}\t{ex.tag}\t{ex.target}\n" for ex in train_set), encoding="utf-8"
    )
    treebank = str(DATA_DIR / "toy.conllu")

    artifacts = []
    for run in ("one", "two"):
        base = tmp_path / run
        base.mkdir()
        arpa, vocab = base / "m.arpa", base / "m.vocab"
        ckpt, pred = base / "r.bin", base / "pred.txt"
        assert cli.main(["train-lm", str(corpus), "--lm-out", str(arpa),
                         "--vocab-out", str(vocab), "--seed", "5"]) == 0
        assert cli.main(["train-reinflector", str(tsv), "--model-out", str(ckpt),
                         "--hidden-size", "16", "--epochs", "2", "--seed", "5"]) == 0
        assert cli.main(["realize", treebank, "--lm", str(arpa),
                         "--reinflector", str(ckpt), "--out", str(pred),
                         "--jobs", "8", "--seed", "5"]) == 0
        artifacts.append([p.read_bytes() for p in (arpa, lm.tables_path(arpa), vocab, ckpt, pred)])
    identical = all(a == b for a, b in zip(*artifacts))
    criterion(
        "pipeline-determinism",
        identical,
        "two seeded runs: ARPA, tables image, vocab, checkpoint, and --jobs 8 realization "
        f"outputs byte-identical = {identical}",
    )
