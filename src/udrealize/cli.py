"""Batch command-line pipeline: train models, realize sentences, evaluate.

Subcommands: train-lm, train-reinflector, reinflect, reorder, realize,
evaluate.  Exit codes: 0 success, 1 usage error, 2 data error,
3 internal error.  All files are UTF-8.

``realize`` and ``reorder`` order a whole file's sentences with one call
of ``order.realize_orders``, in input order; ``--jobs`` is accepted and
validated but runs no worker pool.  ``--config`` takes a JSON object of
``PipelineConfig`` fields.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields
from itertools import islice
from pathlib import Path

from . import conllu, lm, metrics, morphmap, order, reinflect

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class DataError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(f"{self.prog}: {message}")


@dataclass
class PipelineConfig:
    """Tunables shared by the ordering and reinflection stages."""

    lm_order: int = 3
    threshold: int = order.DEFAULT_THRESHOLD
    hidden_size: int = 128
    epochs: int = 20
    lr: float = 1e-3
    batch_size: int = 32
    max_len: int = 40
    seed: int = 0
    capitalize: bool = True
    append_full_stop: bool = True
    jobs: int = 1

    def validate(self) -> None:
        least = dict.fromkeys(("lm_order", "threshold", "hidden_size", "epochs", "batch_size", "max_len", "jobs"), 1)
        for name, low in {**least, "seed": 0}.items():  # numpy's generators take no negative seed
            if getattr(self, name) < low:
                raise UsageError(f"config field {name} must be at least {low}, got {getattr(self, name)}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise UsageError(f"config field lr must be a finite positive number, got {self.lr}")
        try:
            self.order_config().validate()
        except ValueError as exc:
            raise UsageError(f"config field {exc}") from None

    def order_config(self) -> order.OrderConfig:
        return order.OrderConfig(
            threshold=self.threshold,
            capitalize=self.capitalize,
            append_full_stop=self.append_full_stop,
        )


# The JSON values each PipelineConfig field type accepts; true and false are not integers.
_CONFIG_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "bool": ((bool,), "true or false"),
}


def _load_config(args) -> PipelineConfig:
    """Start from defaults, apply --config file values, let explicit flags win."""
    cfg = PipelineConfig()
    kinds = {f.name: f.type for f in fields(PipelineConfig)}
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            raw = json.loads(_read_text(config_path))
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep to parse
            raise DataError(f"{config_path}: invalid JSON ({exc})") from None
        if type(raw) is not dict:
            raise UsageError(f"{config_path}: config must be a JSON object")
        for key, value in raw.items():
            if key not in kinds:
                raise UsageError(f"{config_path}: unknown config key {key!r}")
            accepted, kind = _CONFIG_TYPES[kinds[key]]
            if type(value) not in accepted:
                raise UsageError(f"{config_path}: config key {key!r} must be {kind}, got {json.dumps(value)}")
            setattr(cfg, key, value)
    for name in kinds:  # each flag's dest is its field's name; a flag not given is None
        if getattr(args, name, None) is not None:
            setattr(cfg, name, getattr(args, name))
    cfg.validate()
    return cfg


def _input_error(path, exc: OSError) -> DataError:
    """The data error for an input file that cannot be read."""
    if isinstance(exc, FileNotFoundError):
        return DataError(f"{path}: no such file")
    return DataError(f"{path}: {exc.strerror}")


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError as exc:
        raise _input_error(path, exc) from None


@contextmanager
def _output(path):
    """Turns an output file that cannot be written into a data error."""
    try:
        yield
    except OSError as exc:
        raise DataError(f"{path}: {exc.strerror}") from None


def _report(lines, label: str) -> None:
    for line in lines:
        print(f"{label}: {line}", file=sys.stderr)


def cmd_train_lm(args) -> int:
    cfg = _load_config(args)
    sentences = [line for line in _read_text(args.corpus).splitlines() if line.strip()]
    try:
        model = lm.train_lm(sentences, order=cfg.lm_order)
    except lm.EmptyCorpusError as exc:
        raise DataError(f"{args.corpus}: {exc}") from None
    arpa = lm.emit_arpa(model).encode("utf-8")
    tables = lm.tables_path(args.lm_out)
    with _output(args.vocab_out):
        Path(args.vocab_out).write_text(model.vocab.to_text(), encoding="utf-8")
    with _output(args.lm_out):
        Path(args.lm_out).write_bytes(arpa)
    with _output(tables):
        tables.write_bytes(lm.tables_image(model, arpa))
    counts = " ".join(f"{n + 1}-grams={len(t)}" for n, t in enumerate(model.tables))
    print(f"trained order-{model.order} model on {len(sentences)} sentences: {counts}")
    print(f"vocabulary: {len(model.vocab)} words -> {args.vocab_out}")
    print(f"model -> {args.lm_out}")
    print(f"tables -> {tables}")
    return EXIT_OK


def cmd_train_reinflector(args) -> int:
    cfg = _load_config(args)
    examples, warnings = reinflect.load_training_file(_read_text(args.data))
    _report(warnings, "warning")
    if warnings:
        print(f"skipped {len(warnings)} bad lines", file=sys.stderr)
    if not examples:
        raise DataError(f"{args.data}: no usable training examples")
    fitting = [ex for ex in examples if len(ex.lemma) <= cfg.max_len and len(ex.target) < cfg.max_len]
    if len(fitting) < len(examples):
        dropped = len(examples) - len(fitting)
        print(f"skipped {dropped} examples too long for max_len {cfg.max_len}", file=sys.stderr)
    if not fitting:
        raise DataError(f"{args.data}: no training example fits max_len {cfg.max_len}")
    examples = fitting
    model = reinflect.build_model(
        examples, hidden_size=cfg.hidden_size, max_len=cfg.max_len, seed=cfg.seed
    )
    model, trace = reinflect.train(
        model,
        examples,
        epochs=cfg.epochs,
        lr=cfg.lr,
        seed=cfg.seed,
        batch_size=cfg.batch_size,
        log=print,
    )
    with _output(args.model_out):
        reinflect.save_model(model, args.model_out)
    print(f"trained on {len(examples)} examples, final loss {trace[-1]:.6f}" if trace else "no epochs run")
    print(f"checkpoint -> {args.model_out}")
    return EXIT_OK


def _load_corpus(path) -> conllu.Corpus:
    corpus = conllu.parse_conllu(_read_text(path))
    _report(corpus.diagnostics, "conllu")
    return corpus


def surface_forms(model, tokens) -> list[str | None]:
    """Surface forms of tokens, decoding each distinct (lemma, tag) once.

    Punctuation passes through unchanged.  A token with an empty lemma
    gets None: it has nothing to reinflect.
    """
    table = morphmap.default_table()  # looked up once, not per token
    keys = [
        None if tok.upos == "PUNCT" or order.is_punct(tok.lemma)
        else (tok.lemma, morphmap.convert(tok.upos, tok.feats, table))
        for tok in tokens
    ]
    wanted = [key for key in keys if key is not None and key[0]]
    decoded = dict(zip(wanted, reinflect.predict_many(model, wanted)))
    forms: list[str | None] = []
    for tok, key in zip(tokens, keys):
        if key is None:
            forms.append(tok.lemma)
        elif key[0]:
            forms.append(decoded[key] or tok.lemma)
        else:
            forms.append(None)
    return forms


def _load_reinflector(path) -> reinflect.Seq2SeqModel:
    try:
        return reinflect.load_model(path)
    except OSError as exc:
        raise _input_error(path, exc) from None
    except ValueError as exc:
        raise DataError(str(exc)) from None


def cmd_reinflect(args) -> int:
    corpus = _load_corpus(args.conllu)
    model = _load_reinflector(args.model)
    tokens = [tok for sentence in corpus.sentences for tok in sentence.tokens]
    for tok, form in zip(tokens, surface_forms(model, tokens)):
        tok.form = tok.lemma if form is None else form
    with _output(args.out):
        Path(args.out).write_text(conllu.emit_conllu(corpus), encoding="utf-8")
    print(f"reinflected {len(tokens)} tokens in {len(corpus.sentences)} sentences -> {args.out}")
    return EXIT_OK


def cmd_realize(args) -> int:
    cfg = _load_config(args)
    corpus = _load_corpus(args.conllu)
    lm_model = _parse_lm(args.lm)
    reinf_model = _load_reinflector(args.reinflector) if args.reinflector else None
    order_cfg = cfg.order_config()

    sentence_tokens = [sorted(s.tokens, key=lambda t: t.id) for s in corpus.sentences]
    if reinf_model is None:
        sentence_words = [[tok.form or tok.lemma for tok in tokens] for tokens in sentence_tokens]
    else:
        # one batch over the whole file; each sentence takes back its share
        all_tokens = [tok for tokens in sentence_tokens for tok in tokens]
        flat = iter(surface_forms(reinf_model, all_tokens))
        sentence_words = [list(islice(flat, len(tokens))) for tokens in sentence_tokens]

    # a token whose lemma is empty could not be reinflected
    ready = [i for i, words in enumerate(sentence_words) if None not in words]
    outcomes: list = [ValueError("empty input")] * len(sentence_words)  # what predict raises
    for i, outcome in zip(ready, order.realize_orders([sentence_words[i] for i in ready], lm_model, order_cfg)):
        outcomes[i] = outcome

    failures = 0
    out_lines = []
    for sentence, tokens, outcome in zip(corpus.sentences, sentence_tokens, outcomes):
        if isinstance(outcome, Exception):  # per-sentence degradation keeps the batch going
            text = " ".join(tok.lemma for tok in tokens if tok.lemma)
            note = f"{sentence.sent_id}: realization failed ({outcome}), emitted lemmas in id order"
            failures += 1
        else:
            text, result = outcome
            note = f"{sentence.sent_id}: method={result.method.value} lm_score={result.lm_score.total:.4f}"
        out_lines.append(f"{sentence.sent_id}\t{text}")
        print(note, file=sys.stderr)
    with _output(args.out):
        Path(args.out).write_text("\n".join(out_lines) + ("\n" if out_lines else ""), encoding="utf-8")
    print(f"realized {len(out_lines)} sentences ({failures} degraded) -> {args.out}")
    if out_lines and failures == len(out_lines):
        raise DataError("every sentence failed to realize")
    return EXIT_OK


def cmd_reorder(args) -> int:
    args.reinflector = None
    return cmd_realize(args)


def _parse_lm(path) -> lm.NGramModel:
    try:
        return lm.load_arpa(path, warn=lambda note: _report([note], "warning"))
    except OSError as exc:
        raise _input_error(path, exc) from None
    except lm.ArpaFormatError as exc:
        raise DataError(f"{path}: {exc}") from None


def cmd_evaluate(args) -> int:
    diags: list[str] = []
    pred_pairs = conllu.parse_reference_text(_read_text(args.pred), diags)
    ref_pairs = conllu.parse_reference_text(_read_text(args.refs), diags)
    _report(diags, "warning")
    pred, refs = dict(pred_pairs), dict(ref_pairs)
    shared = sorted(set(pred) & set(refs))
    if not shared:
        raise DataError("prediction and reference files share no sentence ids")
    missing = len(set(pred) ^ set(refs))
    if missing:
        print(f"warning: {missing} ids present on one side only", file=sys.stderr)
    for path, pairs in ((args.pred, pred_pairs), (args.refs, ref_pairs)):
        for sid, count in Counter(sid for sid, _ in pairs).items():
            if count > 1:
                print(
                    f"warning: {path}: id {sid!r} occurs {count} times, the last one is scored",
                    file=sys.stderr,
                )
    report = metrics.evaluate_pairs([pred[i] for i in shared], [refs[i] for i in shared])
    print(report.table())
    print(report.machine_lines(), end="")
    return EXIT_OK


def _add_config_flags(sub) -> None:
    sub.add_argument("--config", help="JSON config file; explicit flags win")
    sub.add_argument("--seed", type=int, help="RNG seed (default 0)")


@functools.lru_cache(maxsize=1)  # built once per process: parsing leaves the tree unchanged
def build_parser() -> _Parser:
    parser = _Parser(prog="udrealize", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("train-lm", help="train the backoff n-gram model, write vocab + ARPA + tables image")
    p.add_argument("corpus", help="ordered sentences, one per line")
    p.add_argument("--lm-out", required=True)
    p.add_argument("--vocab-out", required=True)
    p.add_argument("--order", type=int, dest="lm_order", help="n-gram order (default 3)")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train_lm)

    p = subs.add_parser("train-reinflector", help="train the character reinflection model")
    p.add_argument("data", help="training triples: lemma<TAB>tag<TAB>target")
    p.add_argument("--model-out", required=True)
    p.add_argument("--hidden-size", type=int, dest="hidden_size")
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--max-len", type=int, dest="max_len")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train_reinflector)

    p = subs.add_parser("reinflect", help="fill surface forms into a CoNLL-U file")
    p.add_argument("conllu")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_reinflect)

    for name, helptext in (
        ("realize", "reinflect + order: the full pipeline"),
        ("reorder", "order only, using lemmas (or present forms) as words"),
    ):
        p = subs.add_parser(name, help=helptext)
        p.add_argument("conllu")
        p.add_argument("--lm", required=True, help="ARPA model from train-lm")
        if name == "realize":
            p.add_argument("--reinflector", help="checkpoint from train-reinflector")
        p.add_argument("--out", required=True)
        p.add_argument(
            "--threshold", type=int, help=f"max length handled by method2 (default {order.DEFAULT_THRESHOLD})"
        )
        p.add_argument("--no-full-stop", action="store_false", dest="append_full_stop", default=None)
        p.add_argument("--no-capitalize", action="store_false", dest="capitalize", default=None)
        p.add_argument(
            "--jobs", type=int,
            help="accepted and validated (default 1); sentences are realized in input order in one thread",
        )
        _add_config_flags(p)
        p.set_defaults(func=cmd_realize if name == "realize" else cmd_reorder)

    p = subs.add_parser("evaluate", help="score predictions against references")
    p.add_argument("pred", help="id<TAB>sentence predictions")
    p.add_argument("refs", help="id<TAB>sentence references")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (lm.EmptyCorpusError, lm.ArpaFormatError, UnicodeDecodeError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
