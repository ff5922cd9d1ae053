#!/usr/bin/env python3
"""udrealize benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload realize-short --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Each workload is a closed loop: one caller runs one batch command through
``udrealize.cli.main`` to completion, then the next, for as many commands
as fit in ``--seconds`` (at least one).  Inputs are generated from
``--seed`` by ``prepare.py`` in a child process.  Every run checks the
outputs; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``).  A fuller
record, with machine information and output hashes, goes to
``perfbench/work/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "work"
REQUIRED = ("src/udrealize/cli.py", "tests/conftest.py", "tests/_synth.py")
WORKLOADS = ("realize-short", "reorder-long", "train")
REALIZE_JOBS = {"realize-short": 1, "reorder-long": 2}
SETUP_REPEATS = {"realize-short": 5, "reorder-long": 5, "train": 101}
PREPARE_TIMEOUT_S = 900

# name -> (unit, better); the order is the order of the printed report
END_TO_END = {
    "setup_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "ok_share": ("ratio", "higher"),
    "xent_ratio": ("ratio", "lower"),
    "final_loss": ("loss", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
# Printed and recorded on every untraced run but not bounded: degraded_share
# is 0 when all is well, and the others spread across seeds by more than
# any bound allows (see README.md).
RECORDED = {
    "lm_train_sentences_per_s": ("1/s", "higher"),
    "degraded_share": ("ratio", "lower"),
    "bleu": ("score", "higher"),
    "nist": ("score", "higher"),
    "dist": ("score", "higher"),
}
# per-layer metrics where a larger value is the good direction
PER_LAYER_BETTER = {"conllu.sentences": "higher", "lm.ngrams": "higher"}


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def sha256s(*paths: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


class Cli:
    """Calls ``udrealize.cli.main`` in-process with captured output."""

    def __init__(self, tracer=None):
        from udrealize import cli

        self.main = cli.main
        self.tracer = tracer

    def run(self, argv: list[str], traced: bool = False) -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            if traced:
                rc = self.tracer.command(f"cli.{argv[0]}", self.main, argv)
            else:
                rc = self.main(argv)
            wall = time.perf_counter() - start
        return {"rc": rc, "wall": wall, "stdout": out.getvalue(), "stderr": err.getvalue()}


# -- workloads -----------------------------------------------------------------


class Realize:
    """realize-short and reorder-long: one realize/reorder batch per iteration."""

    def __init__(self, name: str, run_dir: Path, prep: dict):
        self.name = name
        self.dir = run_dir
        self.input = run_dir / "input.conllu"
        self.refs = run_dir / "input.refs"
        self.arpa = run_dir / "lm.arpa"
        self.ckpt = Path(prep["checkpoint"]["path"]) if name == "realize-short" else None
        self.pred = run_dir / "pred.txt"
        self.items = prep["sentences"]
        self.failures: list[str] = []
        self.degraded = 0
        self.hashes: list[dict[str, str]] = []

    def argv(self) -> list[list[str]]:
        command = "realize" if self.ckpt else "reorder"
        argv = [command, str(self.input), "--lm", str(self.arpa), "--out", str(self.pred)]
        if self.ckpt:
            argv += ["--reinflector", str(self.ckpt)]
        return [argv + ["--jobs", str(REALIZE_JOBS[self.name])]]

    def check_iteration(self, results: list[dict]) -> None:
        res = results[0]
        if res["rc"] != 0:
            self.failures.append(f"{res['stdout']}{res['stderr']}".strip()[-500:] or f"exit {res['rc']}")
            return
        self.hashes.append(sha256s(self.pred))
        m = re.search(r"realized (\d+) sentences \((\d+) degraded\)", res["stdout"])
        if not m or int(m.group(1)) != self.items:
            self.failures.append(f"unexpected summary line: {res['stdout'].strip()!r}")
            return
        self.degraded += int(m.group(2))

    def finish(self, cli: Cli) -> None:
        from udrealize import conllu, order

        if any(h != self.hashes[0] for h in self.hashes):
            self.failures.append("outputs differ between iterations of the same input")
        if self.failures:
            return
        corpus = conllu.parse_conllu(self.input.read_text(encoding="utf-8"))
        if self.ckpt:
            # the bag a realized line must hold is the reinflector's surface forms
            inflected = self.dir / "reinflected.conllu"
            res = cli.run(["reinflect", str(self.input), "--model", str(self.ckpt), "--out", str(inflected)])
            if res["rc"] != 0:
                self.failures.append(f"reinflect exited {res['rc']}")
                return
            corpus = conllu.parse_conllu(inflected.read_text(encoding="utf-8"))
        bags = {}
        for sent in corpus.sentences:
            tokens = sorted(sent.tokens, key=lambda t: t.id)
            bags[sent.sent_id] = Counter(order.preprocess([t.form or t.lemma for t in tokens]).words)
        self.failures += check_realized(self.pred, [s.sent_id for s in corpus.sentences], bags)


class Train:
    """train: train-lm on the LM corpus, then train-reinflector, per iteration."""

    def __init__(self, name: str, run_dir: Path, prep: dict):
        self.dir = run_dir
        self.prep = prep
        self.corpus = run_dir / "corpus.txt"
        self.tsv = run_dir / "morph.tsv"
        self.arpa = run_dir / "trained.arpa"
        self.vocab = run_dir / "trained.vocab"
        self.ckpt = run_dir / "trained.bin"
        self.pred = run_dir / "check.pred"
        self.refs = run_dir / "check.refs"
        self.items = prep["examples"] * prep["epochs"]
        self.failures: list[str] = []
        self.degraded = 0
        self.hashes: list[dict[str, str]] = []
        self.losses: list[float] = []

    def argv(self) -> list[list[str]]:
        return [
            ["train-lm", str(self.corpus), "--lm-out", str(self.arpa), "--vocab-out", str(self.vocab)],
            ["train-reinflector", str(self.tsv), "--model-out", str(self.ckpt), "--epochs", str(self.prep["epochs"])],
        ]

    def check_iteration(self, results: list[dict]) -> None:
        for res in results:
            if res["rc"] != 0:
                self.failures.append(f"{res['stdout']}{res['stderr']}".strip()[-500:] or f"exit {res['rc']}")
                return
        m = re.search(r"final loss (\S+)", results[1]["stdout"])
        loss = float(m.group(1)) if m else math.nan
        if not math.isfinite(loss):
            self.failures.append(f"train-reinflector reported no finite final loss: {results[1]['stdout'][-300:]!r}")
            return
        self.losses.append(loss)
        self.hashes.append(sha256s(self.arpa, self.vocab, self.ckpt))

    def finish(self, cli: Cli) -> None:
        from udrealize import conllu, lm, order, reinflect

        if any(h != self.hashes[0] for h in self.hashes):
            self.failures.append("outputs differ between iterations of the same input")
        if self.failures:
            return
        try:
            reinflect.load_model(self.ckpt)
            lm.parse_arpa(self.arpa.read_text(encoding="utf-8"))
        except (ValueError, OSError) as exc:
            self.failures.append(f"trained model does not load back: {exc}")
            return
        # the trained LM orders a held-out check set; its BLEU/DIST guard LM training
        check = self.dir / "check.conllu"
        res = cli.run(["reorder", str(check), "--lm", str(self.arpa), "--out", str(self.pred)])
        m = re.search(r"\((\d+) degraded\)", res["stdout"])
        if res["rc"] != 0 or not m or int(m.group(1)) != 0:
            self.failures.append(f"reorder with the trained LM failed: {res['stdout'][-300:]!r}")
            return
        corpus = conllu.parse_conllu(check.read_text(encoding="utf-8"))
        bags = {
            s.sent_id: Counter(order.preprocess([t.form for t in s.tokens]).words) for s in corpus.sentences
        }
        self.failures += check_realized(self.pred, [s.sent_id for s in corpus.sentences], bags)


def check_realized(pred: Path, ids: list[str], bags: dict[str, Counter]) -> list[str]:
    """Ids in input order, and each line's words are exactly its bag."""
    lines = pred.read_text(encoding="utf-8").splitlines()
    got_ids = [line.split("\t", 1)[0] for line in lines]
    if got_ids != ids:
        return [f"sentence ids not in input order ({len(got_ids)} lines, {len(ids)} inputs)"]
    bad = []
    for line in lines:
        sid, _, text = line.partition("\t")
        words = text.lower().split()
        if words and words[-1] == ".":
            words.pop()
        if Counter(words) != bags[sid]:
            bad.append(sid)
    return [f"{len(bad)} lines whose words differ from their bag, e.g. {bad[:3]}"] if bad else []


def cross_entropy_ratio(pred: Path, refs: Path, arpa: Path) -> float:
    """Per-word LM cross-entropy of the realized sentences over that of the
    references, under the LM that ordered them.  The search maximizes this
    LM's score, so an inexact faster search raises the ratio; dividing by the
    references' cross-entropy removes most of what the seed's words add."""
    from udrealize import lm

    model = lm.parse_arpa(arpa.read_text(encoding="utf-8"))

    def cross_entropy(path: Path) -> float:
        total, words = 0.0, 0
        for line in path.read_text(encoding="utf-8").splitlines():
            tokens = line.partition("\t")[2].lower().split()
            if tokens and tokens[-1] == ".":
                tokens.pop()
            total += lm.score(model, [lm.BOS_WORD, *tokens, lm.EOS_WORD]).total
            words += len(tokens) + 1  # </s> is predicted too
        return -total / words

    return cross_entropy(pred) / cross_entropy(refs)


def evaluate(cli: Cli, workload, traced: bool) -> dict:
    """BLEU, NIST and DIST of the workload's output, via ``udrealize evaluate``."""
    res = cli.run(["evaluate", str(workload.pred), str(workload.refs)], traced=traced)
    scores = dict(re.findall(r"^(bleu|dist|nist)\t(\S+)$", res["stdout"], re.M))
    if res["rc"] != 0 or set(scores) != {"bleu", "dist", "nist"}:
        workload.failures.append(f"evaluate failed: {res['stdout'][-300:]}{res['stderr'][-300:]}")
        return {}
    return {k: float(v) for k, v in scores.items()}


def setup_time(workload, name: str) -> float:
    """One set-up: the public loaders the measured command calls first."""
    from udrealize import conllu, lm, morphmap, reinflect

    start = time.perf_counter()
    if name == "train":
        examples, _ = reinflect.load_training_file(workload.tsv.read_text(encoding="utf-8"))
        reinflect.build_model(examples)
    else:
        conllu.parse_conllu(workload.input.read_text(encoding="utf-8", errors="replace"))
        lm.parse_arpa(workload.arpa.read_text(encoding="utf-8", errors="replace"))
        if workload.ckpt:
            reinflect.load_model(workload.ckpt)
        getattr(morphmap.default_table, "cache_clear", lambda: None)()
        morphmap.default_table()
    return time.perf_counter() - start


# -- run -------------------------------------------------------------------------


def machine_info() -> dict:
    import numpy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
    }


def prepare(name: str, seed: int, run_dir: Path) -> dict:
    cmd = [
        sys.executable, str(HERE / "prepare.py"), "--workload", name, "--seed", str(seed),
        "--out", str(run_dir), "--checkpoints", str(WORK / "checkpoints"),
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PREPARE_TIMEOUT_S, env=env)
    except subprocess.TimeoutExpired:
        die(f"preparation exceeded {PREPARE_TIMEOUT_S}s")
    if proc.returncode != 0:
        die(f"preparation failed:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads((run_dir / "prep.json").read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if missing:
        die(f"{', '.join(missing)} not found under {ROOT}; run from the root of a udrealize checkout")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import udrealize

    if Path(udrealize.__file__).resolve().parent != (ROOT / "src" / "udrealize").resolve():
        die(f"imported udrealize from {udrealize.__file__}, not from this checkout")

    run_dir = WORK / "runs" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        record = run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    for key, m in record["metrics"].items():
        print(f"{key:36s} {m['value']:>14.6g} {m['unit']:6s} ({m['better']} is better, n={m['samples']})")
    for key, m in record.get("recorded", {}).items():
        print(f"{key:36s} {m['value']:>14.6g} {m['unit']:6s} "
              f"({m['better']} is better, n={m['samples']}, recorded, no bound)")
    for key, reason in record.get("absent", {}).items():
        print(f"absent: {key}: {reason}")
    for failure in record["failures"]:
        print(f"FAILED CHECK: {failure}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]} for k, m in record["metrics"].items()},
    }))
    return 0


def run(args, run_dir: Path) -> dict:
    prep = prepare(args.workload, args.seed, run_dir)
    workload = (Train if args.workload == "train" else Realize)(args.workload, run_dir, prep)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    cli = Cli(tracer)

    # closed loop: each iteration runs the workload's command(s) to completion
    walls: list[list[float]] = []
    traced_flags: list[bool] = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls) % 2 == 1
        results = [cli.run(argv, traced=traced) for argv in workload.argv()]
        workload.check_iteration(results)
        walls.append([r["wall"] for r in results])
        traced_flags.append(traced)
        if len(walls) == 1:  # the high-water mark of one iteration, not of many
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # stop when another iteration would run past --seconds
        done = time.perf_counter() - start + sum(walls[-1]) > args.seconds
        if workload.failures or (done and (not args.trace or any(traced_flags))):
            break
    iteration = len(walls)

    record: dict = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "iterations": iteration, "machine": machine_info(), "prep": prep,
        "command_walls_s": walls,
    }
    if tracer is not None:
        spans, counts = tracer.spans, tracer.counts
        tracer.clear()
    workload.finish(cli)
    scores = {} if workload.failures else evaluate(cli, workload, traced=tracer is not None)

    attempted = workload.items * iteration
    failed = attempted if workload.failures else workload.degraded
    metrics: dict[str, dict] = {}

    def put(name, value, unit, better, samples):
        metrics[name] = {"value": value, "unit": unit, "better": better, "samples": samples}

    if tracer is None:
        setups = [setup_time(workload, args.workload) for _ in range(SETUP_REPEATS[args.workload])]
        if args.workload == "train":
            lm_walls = [w[0] for w in walls]
            final_loss, loss_samples = (workload.losses[-1] if workload.losses else 0.0), len(workload.losses)
        else:
            lm_walls = [prep["lm_train_s"]]  # the run's LM, trained by prepare.py
            final_loss, loss_samples = prep["checkpoint"]["final_loss"], 1
        xent = cross_entropy_ratio(workload.pred, workload.refs, workload.arpa) if not workload.failures else 0.0
        values = {
            "setup_s": (median(setups), len(setups)),
            "items_per_s": (median(workload.items / w[-1] for w in walls), iteration),
            "ok_share": (1.0 - failed / attempted, attempted),
            "xent_ratio": (xent, 1),
            "final_loss": (final_loss, loss_samples),
            "peak_rss_mb": (peak_rss_mb, 1),
        }
        for name, (unit, better) in END_TO_END.items():
            put(name, values[name][0], unit, better, values[name][1])
        recorded = {
            "lm_train_sentences_per_s": (median(prep["corpus_sentences"] / w for w in lm_walls), len(lm_walls)),
            "degraded_share": (failed / attempted, attempted),
            **{k: (scores.get(k, 0.0), 1) for k in ("bleu", "nist", "dist")},
        }
        record["recorded"] = {
            name: {"value": recorded[name][0], "unit": unit, "better": better, "samples": recorded[name][1]}
            for name, (unit, better) in RECORDED.items()
        }
        record["setup_samples_s"] = setups
    else:
        import tracing

        eval_spans = tracer.spans
        tracer.uninstall()
        totals = [sum(w) for w in walls]
        traced_totals = [t for t, flag in zip(totals, traced_flags) if flag]
        untraced_totals = [t for t, flag in zip(totals, traced_flags) if not flag]
        layers = tracing.layer_metrics(spans, counts, len(traced_totals), eval_spans)
        for name, (value, unit) in layers.items():
            put(name, value, unit, PER_LAYER_BETTER.get(name, "lower"), len(traced_totals))
        overhead = median(traced_totals) / median(untraced_totals) if traced_totals else 0.0
        put("trace.overhead_ratio", overhead, "ratio", "lower", len(traced_totals))
        record["absent"] = tracing.absences(metrics, tracer.absent)
        record["spans_written"] = write_spans(spans + eval_spans, args)

    record.update({
        "correct": not workload.failures,
        "attempted": attempted,
        "failed": failed,
        "degraded": workload.degraded,
        "failures": workload.failures,
        "output_sha256": workload.hashes[-1] if workload.hashes else None,
        "scores": scores,
        "metrics": metrics,
    })
    return record



def write_spans(spans, args) -> str:
    path = WORK / "results" / f"{args.workload}-seed{args.seed}-spans.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans:
            fh.write(json.dumps(s.as_dict()) + "\n")
    return str(path.relative_to(ROOT))


if __name__ == "__main__":
    sys.exit(main())
