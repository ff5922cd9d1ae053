"""Untimed preparation of one benchmark run, in its own process.

Writes the seed's inputs into ``--out`` and makes sure the shared
reinflector checkpoint exists.  Runs as a child of ``run.py`` so that the
generators (which import pytest through ``tests/conftest.py``) and the
checkpoint training stay out of the measured process and its peak memory.

    python3 perfbench/prepare.py --workload realize-short --seed 1 --out DIR --checkpoints DIR
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import time
from pathlib import Path

import gen  # puts src/ and tests/ on sys.path

import _synth  # noqa: E402
from udrealize import cli  # noqa: E402

# realize-short: single-template sentences, an equal number of each template
# so that every seed has the same token count.
REALIZE_PER_TEMPLATE = 25
# reorder-long: fixed bag sizes, so every seed does the same search work.
# 14-18 words go to method2 (6 or 7 chunks), 24-26 to method1 (threshold 23).
REORDER_SIZES = (14, 14, 15, 15, 16, 16, 17, 17, 18, 24, 25, 26)

# train: a small _synth set and few epochs, with default hyperparameters.
TRAIN_PER_CLASS = 200
TRAIN_EPOCHS = 2
TRAIN_CHECK_SENTENCES = 60


def source_digest(root: Path) -> str:
    """Hash of the program and of the checkpoint recipe: a checkpoint is reused
    only by the code that trained it."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")) + [root / "tests" / "_synth.py", Path(gen.__file__)]:
        if path.is_file() and path.suffix in (".py", ".map"):
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_cli(argv: list[str]) -> tuple[float, str]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    elapsed = time.perf_counter() - start
    if rc != 0:
        raise SystemExit(f"udrealize {argv[0]} exited {rc}: {err.getvalue()[-2000:]}")
    return elapsed, out.getvalue()


def ensure_checkpoint(directory: Path) -> dict:
    """Train the realize-short reinflector once per program version."""
    directory.mkdir(parents=True, exist_ok=True)
    digest = source_digest(gen.ROOT)
    ckpt, info_path = directory / f"{digest}.bin", directory / f"{digest}.json"
    if info_path.exists() and ckpt.exists():
        return dict(json.loads(info_path.read_text()), path=str(ckpt))
    tsv = directory / f"{digest}.{os.getpid()}.tsv"
    tmp = directory / f"{digest}.{os.getpid()}.bin"
    gen.write_triples(tsv, gen.checkpoint_triples())
    elapsed, stdout = run_cli(
        ["train-reinflector", str(tsv), "--model-out", str(tmp), "--epochs", str(gen.CHECKPOINT_EPOCHS)]
    )
    loss = float(re.search(r"final loss (\S+)", stdout).group(1))
    tsv.unlink()
    os.replace(tmp, ckpt)
    info = {"file": ckpt.name, "final_loss": loss, "train_s": elapsed}
    tmp_info = directory / f"{digest}.{os.getpid()}.json"
    tmp_info.write_text(json.dumps(info))
    os.replace(tmp_info, info_path)
    return dict(info, path=str(ckpt))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("realize-short", "reorder-long", "train"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--checkpoints", required=True)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    info: dict = {"checkpoint": ensure_checkpoint(Path(args.checkpoints))}

    sentences, stems = gen.lm_corpus(args.seed)
    corpus = out / "corpus.txt"
    corpus.write_text("\n".join(sentences) + "\n", encoding="utf-8")
    info["corpus_sentences"] = len(sentences)
    if args.workload != "train":  # train builds its LM in the measured loop
        info["lm_train_s"], _ = run_cli(
            ["train-lm", str(corpus), "--lm-out", str(out / "lm.arpa"), "--vocab-out", str(out / "lm.vocab")]
        )

    # held-out sentences: same stems and templates, an independent stream
    held = gen.Generator(stems, args.seed + 1000)
    if args.workload == "realize-short":
        items = [held.template(i) for i in range(len(gen.TEMPLATES)) for _ in range(REALIZE_PER_TEMPLATE)]
        order = held.rng.permutation(len(items))
        items = [items[i] for i in order]
        gen.write_inputs(out, "input", items, args.seed, with_form=False)
    elif args.workload == "reorder-long":
        items = [held.with_length(n) for n in REORDER_SIZES]
        gen.write_inputs(out, "input", items, args.seed, with_form=True)
    else:
        train_set, _ = _synth.make_dataset(seed=args.seed, per_class=TRAIN_PER_CLASS)
        gen.write_triples(out / "morph.tsv", train_set)
        info["examples"] = len(train_set)
        info["epochs"] = TRAIN_EPOCHS
        items = [held.single() for _ in range(TRAIN_CHECK_SENTENCES)]
        gen.write_inputs(out, "check", items, args.seed, with_form=True)
    info["sentences"] = len(items)
    info["bag_histogram"] = gen.bag_histogram(items)
    (out / "prep.json").write_text(json.dumps(info, indent=1), encoding="utf-8")


if __name__ == "__main__":
    main()
