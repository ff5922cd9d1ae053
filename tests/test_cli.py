import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from udrealize import cli, conllu, lm, metrics, morphmap, order, reinflect

from conftest import DATA_DIR, TOY_VOCAB, toy_corpus_sentences
from _synth import make_dataset


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus, treebank, and trained artifacts shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.txt"
    corpus.write_text("\n".join(toy_corpus_sentences()) + "\n", encoding="utf-8")

    treebank = root / "toy.conllu"
    treebank.write_text(DATA_DIR.joinpath("toy.conllu").read_text(), encoding="utf-8")
    refs = root / "refs.txt"
    refs.write_text(DATA_DIR.joinpath("toy_refs.txt").read_text(), encoding="utf-8")

    arpa = root / "toy.arpa"
    vocab = root / "toy.vocab"
    assert cli.main(["train-lm", str(corpus), "--lm-out", str(arpa), "--vocab-out", str(vocab)]) == 0

    train, held = make_dataset(seed=2, per_class=25)
    tsv = root / "morph.tsv"
    tsv.write_text(
        "".join(f"{ex.lemma}\t{ex.tag}\t{ex.target}\n" for ex in train + held),
        encoding="utf-8",
    )
    checkpoint = root / "reinflector.bin"
    assert (
        cli.main(
            [
                "train-reinflector", str(tsv),
                "--model-out", str(checkpoint),
                "--hidden-size", "16", "--epochs", "2", "--batch-size", "16",
            ]
        )
        == 0
    )
    return {
        "root": root, "corpus": corpus, "treebank": treebank, "refs": refs,
        "arpa": arpa, "vocab": vocab, "tsv": tsv, "checkpoint": checkpoint,
    }


# ------------------------------------------------------------------ train-lm

def test_train_lm_outputs(workspace):
    text = workspace["arpa"].read_text()
    assert text.startswith("\\data\\")
    for n in (1, 2, 3):
        assert f"\\{n}-grams:" in text
    vocab_words = workspace["vocab"].read_text().split()
    assert "the" in vocab_words
    assert "<s>" not in vocab_words
    image = lm.tables_path(workspace["arpa"]).read_bytes()
    arpa_sha256 = hashlib.sha256(workspace["arpa"].read_bytes()).hexdigest()
    assert lm.read_tables(image, arpa_sha256).vocab.words == lm.parse_arpa(text).vocab.words


def test_train_lm_missing_input_is_data_error(tmp_path):
    code = cli.main(
        ["train-lm", str(tmp_path / "absent.txt"),
         "--lm-out", str(tmp_path / "o.arpa"), "--vocab-out", str(tmp_path / "o.vocab")]
    )
    assert code == cli.EXIT_DATA


def test_train_lm_empty_corpus_is_data_error(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    code = cli.main(
        ["train-lm", str(empty),
         "--lm-out", str(tmp_path / "o.arpa"), "--vocab-out", str(tmp_path / "o.vocab")]
    )
    assert code == cli.EXIT_DATA


def test_train_lm_reruns_are_byte_identical(workspace, tmp_path):
    again = tmp_path / "again.arpa"
    vocab2 = tmp_path / "again.vocab"
    assert cli.main(
        ["train-lm", str(workspace["corpus"]), "--lm-out", str(again), "--vocab-out", str(vocab2)]
    ) == 0
    assert again.read_bytes() == workspace["arpa"].read_bytes()
    assert vocab2.read_bytes() == workspace["vocab"].read_bytes()
    assert lm.tables_path(again).read_bytes() == lm.tables_path(workspace["arpa"]).read_bytes()


def test_train_lm_respects_order_flag(workspace, tmp_path):
    out = tmp_path / "o2.arpa"
    assert cli.main(
        ["train-lm", str(workspace["corpus"]), "--lm-out", str(out),
         "--vocab-out", str(tmp_path / "o2.vocab"), "--order", "2"]
    ) == 0
    text = out.read_text()
    assert "\\2-grams:" in text and "\\3-grams:" not in text


# ---------------------------------------------------------- train-reinflector

def test_reinflector_checkpoint_loads(workspace):
    model = reinflect.load_model(workspace["checkpoint"])
    assert model.hidden_size == 16
    out = reinflect.predict(model, "dog", morphmap.MorphTag(("N", "PL")))
    assert isinstance(out, str)


def test_reinflector_rerun_is_byte_identical(workspace, tmp_path):
    other = tmp_path / "again.bin"
    assert cli.main(
        ["train-reinflector", str(workspace["tsv"]), "--model-out", str(other),
         "--hidden-size", "16", "--epochs", "2", "--batch-size", "16"]
    ) == 0
    assert other.read_bytes() == workspace["checkpoint"].read_bytes()


def test_reinflector_skips_corrupt_lines(tmp_path, capfd):
    data = tmp_path / "dirty.tsv"
    data.write_text("walk\tV;PST\twalked\nnot enough fields\nrun\tV;PST\tran\n")
    out = tmp_path / "m.bin"
    code = cli.main(
        ["train-reinflector", str(data), "--model-out", str(out),
         "--hidden-size", "8", "--epochs", "1"]
    )
    assert code == 0
    captured = capfd.readouterr()
    assert "skipped 1 bad lines" in captured.err


def test_reinflector_max_len_drops_are_reported(tmp_path, capfd):
    data = tmp_path / "long.tsv"
    data.write_text("walk\tV;PST\twalked\nrun\tV;PST\tran\n")
    out = tmp_path / "m.bin"
    flags = ["--model-out", str(out), "--hidden-size", "4", "--epochs", "1"]
    assert cli.main(["train-reinflector", str(data), *flags, "--max-len", "4"]) == 0
    assert "skipped 1 examples too long for max_len 4\n" in capfd.readouterr().err

    # every example too long: a data error with a message, not a traceback
    assert cli.main(["train-reinflector", str(data), *flags, "--max-len", "3"]) == cli.EXIT_DATA
    err = capfd.readouterr().err
    assert "skipped 2 examples too long for max_len 3\n" in err
    assert f"error: {data}: no training example fits max_len 3\n" in err
    assert "Traceback" not in err


def test_reinflector_no_usable_data_is_data_error(tmp_path):
    data = tmp_path / "junk.tsv"
    data.write_text("only one field\n")
    code = cli.main(["train-reinflector", str(data), "--model-out", str(tmp_path / "m.bin")])
    assert code == cli.EXIT_DATA


# ------------------------------------------------------------------- realize

def _read_predictions(path):
    return dict(
        line.split("\t", 1) for line in path.read_text().splitlines() if line.strip()
    )


def test_realize_end_to_end(workspace, tmp_path):
    out = tmp_path / "pred.txt"
    code = cli.main(
        ["realize", str(workspace["treebank"]), "--lm", str(workspace["arpa"]),
         "--reinflector", str(workspace["checkpoint"]), "--out", str(out)]
    )
    assert code == 0
    preds = _read_predictions(out)
    corpus = conllu.parse_conllu(workspace["treebank"].read_text())
    assert set(preds) == {s.sent_id for s in corpus.sentences}
    model = reinflect.load_model(workspace["checkpoint"])
    for sentence in corpus.sentences:
        text = preds[sentence.sent_id]
        assert text.endswith(" .")
        assert text[0].isupper()
        forms = cli.surface_forms(model, sorted(sentence.tokens, key=lambda t: t.id))
        expected = Counter(order.preprocess(forms).words)
        got = Counter(w.lower() for w in text[:-2].split())
        assert got == expected, sentence.sent_id


def test_realize_single_token_sentence(workspace, tmp_path):
    tb = tmp_path / "one.conllu"
    tb.write_text("# sent_id = solo\n1\t_\thello\tINTJ\t_\t_\t0\troot\t_\t_\n")
    out = tmp_path / "pred.txt"
    assert cli.main(
        ["reorder", str(tb), "--lm", str(workspace["arpa"]), "--out", str(out)]
    ) == 0
    assert _read_predictions(out)["solo"] == "Hello ."


def test_realize_degrades_per_sentence(workspace, tmp_path, capfd):
    # middle sentence has an empty lemma: prediction fails, lemmas are emitted
    tb = tmp_path / "mixed.conllu"
    tb.write_text(
        "# sent_id = good\n"
        "1\t_\tdog\tNOUN\tNN\tNumber=Sing\t0\troot\t_\t_\n"
        "2\t_\tthe\tDET\t_\t_\t1\tdet\t_\t_\n"
        "\n"
        "# sent_id = broken\n"
        "1\t_\t_\tNOUN\t_\t_\t0\troot\t_\t_\n"
    )
    out = tmp_path / "pred.txt"
    code = cli.main(
        ["realize", str(tb), "--lm", str(workspace["arpa"]),
         "--reinflector", str(workspace["checkpoint"]), "--out", str(out)]
    )
    assert code == 0
    captured = capfd.readouterr()
    assert "failed" in captured.err
    preds = _read_predictions(out)
    assert set(preds) == {"good", "broken"}
    notes = captured.err.splitlines()
    assert "broken: realization failed (empty input), emitted lemmas in id order" in notes
    [good_note] = [line for line in notes if line.startswith("good: ")]
    assert re.fullmatch(r"good: method=\S+ lm_score=-?\d+\.\d{4}", good_note)

    # the failing sentence changes nothing for the good one
    alone = tmp_path / "good.conllu"
    alone.write_text(tb.read_text().split("\n\n")[0] + "\n")
    alone_out = tmp_path / "alone.txt"
    assert cli.main(
        ["realize", str(alone), "--lm", str(workspace["arpa"]),
         "--reinflector", str(workspace["checkpoint"]), "--out", str(alone_out)]
    ) == 0
    assert capfd.readouterr().err.splitlines() == [good_note]
    assert _read_predictions(alone_out) == {"good": preds["good"]}


def test_reorder_degrades_a_bag_past_the_nine_chunk_cap(workspace, tmp_path, capfd):
    # with --threshold 30, method2 takes the 28-word bag, and each of its
    # chunk schemes has 10 or more chunks: more than 9! arrangements
    words = TOY_VOCAB[:28]
    rows = "".join(f"{i}\t_\t{w}\tX\t_\t_\t{int(i > 1)}\tdep\t_\t_\n" for i, w in enumerate(words, 1))
    tb = tmp_path / "long.conllu"
    tb.write_text(
        "# sent_id = long\n" + rows + "\n# sent_id = short\n"
        "1\t_\tdog\tNOUN\t_\t_\t0\troot\t_\t_\n2\t_\tthe\tDET\t_\t_\t1\tdet\t_\t_\n"
    )
    out = tmp_path / "pred.txt"
    assert cli.main(
        ["reorder", str(tb), "--lm", str(workspace["arpa"]), "--out", str(out), "--threshold", "30"]
    ) == 0
    notes = capfd.readouterr().err.splitlines()
    assert notes[0] == (
        "long: realization failed (every chunk scheme was skipped by the arrangement cap), emitted lemmas in id order"
    )
    assert re.fullmatch(r"short: method=exhaustive lm_score=-?\d+\.\d{4}", notes[1])
    assert _read_predictions(out) == {"long": " ".join(words), "short": "The dog ."}


@pytest.mark.parametrize(
    "threshold, method", [([], "method2"), (["--threshold", "4"], "method1")], ids=["method2", "method1"]
)
def test_reorder_with_a_minus_infinity_word_keeps_the_bag(tmp_path, capfd, threshold, method):
    # every order of the bag scores -inf: each search takes the smallest
    # order its words allow, not the id 0 wherever every candidate is -inf
    arpa = tmp_path / "inf.arpa"
    unigrams = {"<s>": -99.0, "</s>": -1.0, "<unk>": -2.0, "a": -0.5, "b": -0.6, "c": -0.7, "d": -0.8,
                "e": -0.9, "f": float("-inf")}
    arpa.write_text(
        f"\\data\\\nngram 1={len(unigrams)}\n\n\\1-grams:\n"
        + "".join(f"{logp}\t{w}\n" for w, logp in unigrams.items()) + "\n\\end\\\n"
    )
    tb = tmp_path / "bag.conllu"
    rows = "".join(f"{i}\t_\t{w}\tX\t_\t_\t{int(i > 1)}\tdep\t_\t_\n" for i, w in enumerate("fedcba", 1))
    tb.write_text("# sent_id = s1\n" + rows)
    out = tmp_path / "pred.txt"
    assert cli.main(["reorder", str(tb), "--lm", str(arpa), "--out", str(out), *threshold]) == 0
    assert capfd.readouterr().err.splitlines() == [f"s1: method={method} lm_score=-inf"]
    assert _read_predictions(out) == {"s1": "A b c d e f ."}


def test_realize_all_failed_is_data_error(workspace, tmp_path):
    tb = tmp_path / "allbad.conllu"
    tb.write_text("# sent_id = b1\n1\t_\t.\tPUNCT\t_\t_\t0\troot\t_\t_\n")
    code = cli.main(
        ["reorder", str(tb), "--lm", str(workspace["arpa"]), "--out", str(tmp_path / "p.txt")]
    )
    assert code == cli.EXIT_DATA


def test_realize_jobs_byte_identical(workspace, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        assert cli.main(
            ["realize", str(workspace["treebank"]), "--lm", str(workspace["arpa"]),
             "--reinflector", str(workspace["checkpoint"]), "--out", str(path),
             "--jobs", "8"]
        ) == 0
    assert a.read_bytes() == b.read_bytes()


def test_reorder_lm_declaring_a_huge_order_is_data_error(workspace, tmp_path, capsys):
    bad = tmp_path / "huge.arpa"
    bad.write_text("\\data\\\nngram 1=1\nngram 1000000000000000000=1\n\n\\1-grams:\n-1.0\ta\n\n\\end\\\n")
    code = cli.main(["reorder", str(workspace["treebank"]), "--lm", str(bad), "--out", str(tmp_path / "p.txt")])
    assert code == cli.EXIT_DATA
    assert capsys.readouterr().err.endswith("line 5: ngram orders must be contiguous from 1\n")


def test_realize_malformed_lm_is_data_error(workspace, tmp_path):
    bad = tmp_path / "bad.arpa"
    bad.write_text("this is not arpa\n")
    code = cli.main(
        ["realize", str(workspace["treebank"]), "--lm", str(bad),
         "--out", str(tmp_path / "p.txt")]
    )
    assert code == cli.EXIT_DATA


def _copy_lm(workspace, directory, edit=None):
    """The workspace LM and its tables image copied into ``directory``, changed by
    ``edit(arpa, image) -> (arpa, image or None)``; returns the ARPA path."""
    arpa, image = workspace["arpa"].read_bytes(), lm.tables_path(workspace["arpa"]).read_bytes()
    if edit is not None:
        arpa, image = edit(arpa, image)
    path = directory / "m.arpa"
    path.write_bytes(arpa)
    if image is not None:
        lm.tables_path(path).write_bytes(image)
    return path


def _flip_last_byte(image):
    return image[:-1] + bytes([image[-1] ^ 1])


# Changes after train-lm that leave the model as it was but the tables image untrusted.
_LM_EDITS = {
    "arpa-edited": lambda arpa, image: (arpa + b"\n", image),
    "tables-missing": lambda arpa, image: (arpa, None),
    "wrong-magic": lambda arpa, image: (arpa, b"#" + image),
    "header-edit": lambda arpa, image: (arpa, image.replace(b'"order": 3', b'"order": 2', 1)),
    "truncated": lambda arpa, image: (arpa, image[:-1]),
    "flipped-byte": lambda arpa, image: (arpa, _flip_last_byte(image)),
}


def _reorder(workspace, arpa, out, monkeypatch):
    """Run reorder with ``arpa``; returns how many ARPA texts it parsed."""
    parsed, real = [], lm.parse_arpa
    monkeypatch.setattr(lm, "parse_arpa", lambda text: parsed.append(text) or real(text))
    assert cli.main(["reorder", str(workspace["treebank"]), "--lm", str(arpa), "--out", str(out)]) == 0
    return len(parsed)


def test_reorder_loads_the_tables_image_without_a_new_stderr_line(workspace, tmp_path, monkeypatch, capfd):
    parsed = _reorder(workspace, workspace["arpa"], tmp_path / "pred.txt", monkeypatch)
    assert parsed == 0
    assert not any(line.startswith("warning: ") for line in capfd.readouterr().err.splitlines())


@pytest.mark.parametrize("edit", list(_LM_EDITS))
def test_reorder_parses_the_text_beside_an_untrusted_tables_image(workspace, tmp_path, monkeypatch, capfd, edit):
    expected = tmp_path / "expected.txt"
    _reorder(workspace, workspace["arpa"], expected, monkeypatch)
    clean = capfd.readouterr().err.splitlines()
    arpa, out = _copy_lm(workspace, tmp_path, _LM_EDITS[edit]), tmp_path / "pred.txt"
    assert _reorder(workspace, arpa, out, monkeypatch) == 1
    assert out.read_bytes() == expected.read_bytes()
    err = capfd.readouterr().err.splitlines()
    warnings = [line for line in err if line.startswith("warning: ")]
    assert [line for line in err if line not in warnings] == clean
    # a missing image is no fault: a hand-written ARPA file has none
    assert len(warnings) == (0 if edit == "tables-missing" else 1)
    assert all(line.startswith(f"warning: {lm.tables_path(arpa)}: ") for line in warnings)


@pytest.mark.parametrize("edit", [None, _LM_EDITS["arpa-edited"]], ids=["trusted", "stale"])
def test_reorder_writes_no_file_but_its_out(workspace, tmp_path, edit):
    arpa = _copy_lm(workspace, tmp_path, edit)
    image = lm.tables_path(arpa).read_bytes()
    before = sorted(p.name for p in tmp_path.iterdir())
    assert cli.main(["reorder", str(workspace["treebank"]), "--lm", str(arpa), "--out", str(tmp_path / "p.txt")]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(before + ["p.txt"])
    assert lm.tables_path(arpa).read_bytes() == image


@pytest.mark.parametrize("which", ["lm", "conllu", "reinflector", "pred", "refs"])
def test_unreadable_input_is_data_error(workspace, tmp_path, capfd, which):
    folder = tmp_path / "folder"
    folder.mkdir()
    paths = {
        "lm": workspace["arpa"], "conllu": workspace["treebank"], "reinflector": workspace["checkpoint"],
        "pred": workspace["refs"], "refs": workspace["refs"], which: folder,
    }
    if which in ("pred", "refs"):
        argv = ["evaluate", str(paths["pred"]), str(paths["refs"])]
    else:
        argv = [
            "realize", str(paths["conllu"]), "--lm", str(paths["lm"]),
            "--reinflector", str(paths["reinflector"]), "--out", str(tmp_path / "p.txt"),
        ]
    assert cli.main(argv) == cli.EXIT_DATA
    assert f"error: {folder}: Is a directory" in capfd.readouterr().err.splitlines()


@pytest.mark.parametrize(
    "command, option",
    [("realize", "--out"), ("reorder", "--out"), ("reinflect", "--out"), ("train-lm", "--lm-out"),
     ("train-lm", "--vocab-out"), ("train-reinflector", "--model-out")],
)
def test_unwritable_output_is_data_error(workspace, tmp_path, capfd, command, option):
    folder = tmp_path / "folder"
    folder.mkdir()
    w = {name: str(path) for name, path in workspace.items()}
    out, other = str(tmp_path / "out"), str(tmp_path / "other")
    argv = {
        "realize": ["realize", w["treebank"], "--lm", w["arpa"], "--reinflector", w["checkpoint"], "--out", out],
        "reorder": ["reorder", w["treebank"], "--lm", w["arpa"], "--out", out],
        "reinflect": ["reinflect", w["treebank"], "--model", w["checkpoint"], "--out", out],
        "train-lm": ["train-lm", w["corpus"], "--lm-out", out, "--vocab-out", other],
        "train-reinflector": [
            "train-reinflector", w["tsv"], "--model-out", out, "--hidden-size", "4", "--epochs", "1",
        ],
    }[command]
    argv[argv.index(option) + 1] = str(folder)
    assert cli.main(argv) == cli.EXIT_DATA
    assert f"error: {folder}: Is a directory" in capfd.readouterr().err.splitlines()


def test_reorder_no_full_stop_flag(workspace, tmp_path):
    out = tmp_path / "pred.txt"
    assert cli.main(
        ["reorder", str(workspace["treebank"]), "--lm", str(workspace["arpa"]),
         "--out", str(out), "--no-full-stop"]
    ) == 0
    for text in _read_predictions(out).values():
        assert not text.endswith(" .")


# ----------------------------------------------------------------- reinflect

def test_reinflect_fills_form_column(workspace, tmp_path):
    out = tmp_path / "filled.conllu"
    assert cli.main(
        ["reinflect", str(workspace["treebank"]), "--model", str(workspace["checkpoint"]),
         "--out", str(out)]
    ) == 0
    corpus = conllu.parse_conllu(out.read_text())
    assert corpus.sentences
    for sentence in corpus.sentences:
        for tok in sentence.tokens:
            assert tok.form != ""


# ------------------------------------------------------------------ evaluate

def test_evaluate_identity_scores_100(workspace, tmp_path, capfd):
    code = cli.main(["evaluate", str(workspace["refs"]), str(workspace["refs"])])
    assert code == 0
    out = capfd.readouterr().out
    values = dict(
        line.split("\t") for line in out.splitlines() if "\t" in line
    )
    assert float(values["bleu"]) == pytest.approx(100.0)
    assert float(values["dist"]) == pytest.approx(100.0)


def test_evaluate_disjoint_ids_is_data_error(workspace, tmp_path):
    other = tmp_path / "other.txt"
    other.write_text("zz1\tsomething else\n")
    assert cli.main(["evaluate", str(other), str(workspace["refs"])]) == cli.EXIT_DATA


def test_evaluate_warns_on_duplicate_ids(workspace, tmp_path, capfd):
    pred = tmp_path / "pred.txt"
    pred.write_text("s1\tHello .\ns1\tHello again .\ns2\trun dogs .\n")
    refs = tmp_path / "refs.txt"
    refs.write_text("s1\tHello .\ns2\tDogs run .\ns2\tThe dogs run .\ns2\tRun .\n")
    assert cli.main(["evaluate", str(pred), str(refs)]) == 0
    err = capfd.readouterr().err
    assert f"warning: {pred}: id 's1' occurs 2 times" in err
    assert f"warning: {refs}: id 's2' occurs 3 times" in err
    assert "'s2' occurs 1" not in err


def test_evaluate_matches_library_scores(workspace, tmp_path, capfd):
    pred = tmp_path / "pred.txt"
    pred.write_text("s1\tHello .\ns2\trun dogs .\ns3\tThe cat sat .\n")
    refs = dict(conllu.parse_reference_text(DATA_DIR.joinpath("toy_refs.txt").read_text()))
    shared = ["s1", "s2", "s3"]
    expected = metrics.evaluate_pairs(
        ["Hello .", "run dogs .", "The cat sat ."], [refs[i] for i in shared]
    )
    assert cli.main(["evaluate", str(pred), str(workspace["refs"])]) == 0
    out = capfd.readouterr().out
    values = dict(line.split("\t") for line in out.splitlines() if "\t" in line)
    assert float(values["bleu"]) == pytest.approx(expected.bleu, abs=1e-4)
    assert float(values["nist"]) == pytest.approx(expected.nist, abs=1e-4)
    assert float(values["dist"]) == pytest.approx(expected.dist, abs=1e-4)


# ---------------------------------------------------------------- exit codes

def test_unknown_subcommand_is_usage_error(capfd):
    assert cli.main(["frobnicate"]) == cli.EXIT_USAGE
    assert cli.main([]) == cli.EXIT_USAGE


def test_missing_required_flag_is_usage_error(workspace):
    assert cli.main(["train-lm", str(workspace["corpus"])]) == cli.EXIT_USAGE


def test_internal_error_is_exit_3(workspace, tmp_path, monkeypatch, capfd):
    def boom(path):
        raise RuntimeError("simulated crash")

    monkeypatch.setattr(cli, "_read_text", boom)
    code = cli.main(
        ["train-lm", str(workspace["corpus"]),
         "--lm-out", str(tmp_path / "x.arpa"), "--vocab-out", str(tmp_path / "y.vocab")]
    )
    assert code == cli.EXIT_INTERNAL
    assert "simulated crash" in capfd.readouterr().err


def test_missing_model_file_is_data_error(workspace, tmp_path):
    code = cli.main(
        ["realize", str(workspace["treebank"]), "--lm", str(workspace["arpa"]),
         "--reinflector", str(tmp_path / "absent.bin"), "--out", str(tmp_path / "p.txt")]
    )
    assert code == cli.EXIT_DATA


_HEADER_EDITS = {
    "unknown-block": lambda h: {**h, "params": [["embedding", h["params"][0][1]]] + h["params"][1:]},
    "missing-key": lambda h: {k: v for k, v in h.items() if k != "emb_dim"},
    "array-header": lambda h: list(h.items()),
    "string-hidden-size": lambda h: {**h, "hidden_size": str(h["hidden_size"])},
    "duplicate-char": lambda h: {**h, "chars": h["chars"][:-1] + h["chars"][-2:-1]},
    "duplicate-tag": lambda h: {**h, "inventory": h["inventory"][:-1] + h["inventory"][-2:-1]},
    # consistent shapes of about 2**55 bytes: rejected before any block is read
    "huge-hidden-size": lambda h: {
        **h,
        "hidden_size": 2**40,
        "params": [
            [name, list(shape)]
            for name, shape in reinflect.Seq2SeqModel.shapes(len(h["chars"]), len(h["inventory"]), 2**40).items()
        ],
    },
}
# header lines that are not JSON, as raw bytes
_RAW_HEADERS = {"not-json": b"{nope", "not-utf8": b'{"chars": "\xff', "nested": b"[" * 100_000}


@pytest.mark.parametrize(
    "edit",
    ["unknown-block", "trailing-bytes", "missing-key", "array-header", "string-hidden-size", "duplicate-char",
     "duplicate-tag", "huge-hidden-size", *_RAW_HEADERS],
)
def test_realize_inconsistent_checkpoint_is_data_error(workspace, tmp_path, capfd, edit):
    magic, header, blocks = workspace["checkpoint"].read_bytes().split(b"\n", 2)
    if edit == "trailing-bytes":
        blocks += b"\0" * 8
    elif edit in _RAW_HEADERS:
        header = _RAW_HEADERS[edit]
    else:
        header = json.dumps(_HEADER_EDITS[edit](json.loads(header))).encode()
    bad = tmp_path / "bad.bin"
    bad.write_bytes(magic + b"\n" + header + b"\n" + blocks)
    code = cli.main(
        ["realize", str(workspace["treebank"]), "--lm", str(workspace["arpa"]),
         "--reinflector", str(bad), "--out", str(tmp_path / "p.txt")]
    )
    assert code == cli.EXIT_DATA
    assert f"error: {bad}: " in capfd.readouterr().err


# -------------------------------------------------------------------- config

def test_config_file_applies_and_flags_win(workspace, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"lm_order": 2, "threshold": 10}))
    out = tmp_path / "o.arpa"
    assert cli.main(
        ["train-lm", str(workspace["corpus"]), "--lm-out", str(out),
         "--vocab-out", str(tmp_path / "o.vocab"), "--config", str(config)]
    ) == 0
    assert "\\3-grams:" not in out.read_text()

    out2 = tmp_path / "o3.arpa"
    assert cli.main(
        ["train-lm", str(workspace["corpus"]), "--lm-out", str(out2),
         "--vocab-out", str(tmp_path / "o3.vocab"), "--config", str(config),
         "--order", "3"]
    ) == 0
    assert "\\3-grams:" in out2.read_text()


def test_config_unknown_key_is_usage_error(workspace, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"nonsense": 1}))
    code = cli.main(
        ["train-lm", str(workspace["corpus"]), "--lm-out", str(tmp_path / "o.arpa"),
         "--vocab-out", str(tmp_path / "o.vocab"), "--config", str(config)]
    )
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("key, value", [("exhaustive_limit", 4), ("arrangement_cap", 362880)])
def test_config_fixed_search_limits_are_unknown_keys(workspace, tmp_path, capfd, key, value):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({key: value}))
    code = cli.main(
        ["reorder", str(workspace["treebank"]), "--lm", str(workspace["arpa"]),
         "--out", str(tmp_path / "p.txt"), "--config", str(config)]
    )
    assert code == cli.EXIT_USAGE
    assert "unknown config key" in capfd.readouterr().err


@pytest.mark.parametrize("text", ["{nope", "[" * 100_000], ids=["not-json", "nested"])
def test_config_that_is_not_json_is_data_error(workspace, tmp_path, capfd, text):
    config = tmp_path / "cfg.json"
    config.write_text(text)
    code = cli.main(
        ["train-lm", str(workspace["corpus"]), "--lm-out", str(tmp_path / "o.arpa"),
         "--vocab-out", str(tmp_path / "o.vocab"), "--config", str(config)]
    )
    assert code == cli.EXIT_DATA
    assert f"error: {config}: invalid JSON" in capfd.readouterr().err


def test_config_invalid_values_are_usage_error(workspace, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"threshold": 3}))
    code = cli.main(
        ["train-lm", str(workspace["corpus"]), "--lm-out", str(tmp_path / "o.arpa"),
         "--vocab-out", str(tmp_path / "o.vocab"), "--config", str(config)]
    )
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "raw, key",
    [
        ([1], None),
        ({"threshold": "5"}, "threshold"),
        ({"lr": "x"}, "lr"),
        ({"jobs": None}, "jobs"),
        ({"epochs": True}, "epochs"),
        ({"seed": 1.5}, "seed"),
        ({"lr": False}, "lr"),
        ({"capitalize": 1}, "capitalize"),
    ],
    ids=["array", "string-int", "string-lr", "null-int", "bool-int", "float-int", "bool-lr", "int-bool"],
)
def test_config_wrong_types_are_usage_error(workspace, tmp_path, capfd, raw, key):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(raw))
    code = cli.main(
        ["reorder", str(workspace["treebank"]), "--lm", str(workspace["arpa"]),
         "--out", str(tmp_path / "p.txt"), "--config", str(config)]
    )
    assert code == cli.EXIT_USAGE
    err = capfd.readouterr().err
    assert f"{config}: " in err
    assert key is None or repr(key) in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_lr_flag_is_usage_error(workspace, tmp_path, capfd, value):
    out = tmp_path / "m.bin"
    code = cli.main(
        ["train-reinflector", str(workspace["tsv"]), "--model-out", str(out),
         "--hidden-size", "4", "--epochs", "1", "--lr", value]
    )
    assert code == cli.EXIT_USAGE
    assert "config field lr" in capfd.readouterr().err
    assert not out.exists()


def test_config_nan_lr_is_usage_error(workspace, tmp_path, capfd):
    config = tmp_path / "cfg.json"
    config.write_text('{"lr": NaN}')  # Python's json module reads NaN as a float
    out = tmp_path / "m.bin"
    code = cli.main(
        ["train-reinflector", str(workspace["tsv"]), "--model-out", str(out),
         "--hidden-size", "4", "--epochs", "1", "--config", str(config)]
    )
    assert code == cli.EXIT_USAGE
    assert "config field lr" in capfd.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_is_usage_error(workspace, tmp_path, capfd, source):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"seed": -1}))
    out = tmp_path / "m.bin"
    code = cli.main(
        ["train-reinflector", str(workspace["tsv"]), "--model-out", str(out), "--hidden-size", "4", "--epochs", "1"]
        + (["--seed", "-1"] if source == "flag" else ["--config", str(config)])
    )
    assert code == cli.EXIT_USAGE
    assert "config field seed must be at least 0, got -1" in capfd.readouterr().err
    assert not out.exists()


def test_config_accepts_integer_lr(workspace, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"lr": 1, "capitalize": False}))
    code = cli.main(
        ["reorder", str(workspace["treebank"]), "--lm", str(workspace["arpa"]),
         "--out", str(tmp_path / "p.txt"), "--config", str(config)]
    )
    assert code == cli.EXIT_OK


# Each flag: the subcommand that takes it, its arguments, and the
# PipelineConfig field it sets, with the value it sets and a --config value.
_FLAG_FIELDS = [
    ("train-lm", ["--order", "2"], "lm_order", 2, 4),
    ("reorder", ["--threshold", "10"], "threshold", 10, 12),
    ("train-reinflector", ["--hidden-size", "8"], "hidden_size", 8, 16),
    ("train-reinflector", ["--epochs", "3"], "epochs", 3, 5),
    ("train-reinflector", ["--lr", "0.5"], "lr", 0.5, 0.25),
    ("train-reinflector", ["--batch-size", "4"], "batch_size", 4, 8),
    ("train-reinflector", ["--max-len", "9"], "max_len", 9, 30),
    ("reorder", ["--seed", "7"], "seed", 7, 3),
    ("realize", ["--no-capitalize"], "capitalize", False, True),
    ("realize", ["--no-full-stop"], "append_full_stop", False, True),
    ("realize", ["--jobs", "3"], "jobs", 3, 2),
]

_REQUIRED_ARGS = {  # _load_config reads none of these files
    "train-lm": ["corpus.txt", "--lm-out", "lm.arpa", "--vocab-out", "lm.vocab"],
    "train-reinflector": ["triples.tsv", "--model-out", "model.bin"],
    "reorder": ["in.conllu", "--lm", "lm.arpa", "--out", "pred.txt"],
    "realize": ["in.conllu", "--lm", "lm.arpa", "--out", "pred.txt"],
}


def test_every_config_field_has_a_flag():
    assert sorted(field for _, _, field, _, _ in _FLAG_FIELDS) == sorted(f.name for f in fields(cli.PipelineConfig))


@pytest.mark.parametrize("command, flag, field, value, config_value", _FLAG_FIELDS, ids=[f[1][0] for f in _FLAG_FIELDS])
def test_each_flag_sets_its_config_field_over_the_config_file(tmp_path, command, flag, field, value, config_value):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({field: config_value}))
    base = [command, *_REQUIRED_ARGS[command]]

    def loaded(*extra):
        return getattr(cli._load_config(cli.build_parser().parse_args(base + list(extra))), field)

    assert value != getattr(cli.PipelineConfig(), field)
    assert loaded() == getattr(cli.PipelineConfig(), field)
    assert loaded(*flag) == value
    assert loaded("--config", str(config)) == config_value
    assert loaded(*flag, "--config", str(config)) == value
    assert loaded("--config", str(config), *flag) == value


def _fresh_process(argv):
    """Exit code, stdout and stderr of ``udrealize`` run alone in a new process."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-m", "udrealize.cli", *argv], capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


def test_one_process_builds_the_parser_once(workspace, tmp_path, capfd):
    # a usage error, then a valid command, in one process: each ends as it
    # does alone in a fresh process, and both parse with one parser tree
    out = tmp_path / "p.txt"
    bad = ["reorder", str(workspace["treebank"]), "--out", str(out)]  # no --lm
    good = ["reorder", str(workspace["treebank"]), "--lm", str(workspace["arpa"]), "--out", str(out)]
    alone = []
    for argv in (bad, good):
        alone.append((*_fresh_process(argv), out.read_bytes() if out.exists() else None))
    out.unlink()
    cli.build_parser.cache_clear()
    together = []
    for argv in (bad, good):
        code = cli.main(argv)
        captured = capfd.readouterr()
        together.append((code, captured.out, captured.err, out.read_bytes() if out.exists() else None))
    assert together == alone
    assert [code for code, *_ in together] == [cli.EXIT_USAGE, cli.EXIT_OK]
    assert cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("flag, value", [("--config", "/nonexistent.json"), ("--seed", "-3")])
def test_reinflect_takes_no_config_or_seed(workspace, tmp_path, capfd, flag, value):
    # no PipelineConfig field applies to reinflect: the checkpoint fixes its sizes
    out = tmp_path / "filled.conllu"
    argv = ["reinflect", str(workspace["treebank"]), "--model", str(workspace["checkpoint"]), "--out", str(out)]
    assert cli.main([*argv, flag, value]) == cli.EXIT_USAGE
    assert f"unrecognized arguments: {flag}" in capfd.readouterr().err
    assert not out.exists()
