"""Tracing from outside the program: spans and counters around udrealize calls.

The tracer replaces module attributes that the CLI and the library call
through (``order.method1``, ``reinflect.predict``, ``NGramModel.logprob``,
the ``autodiff`` op functions, ...) with wrappers.  Nothing under ``src/``
is modified.  A span records name, start, end and parent; spans stay in
memory until the run ends.  Hot functions get a counter only, because a
span per call would dominate what they cost.

A target that a later version of the program no longer has is recorded
as absent with a reason instead of failing the run.
"""

from __future__ import annotations

import importlib
import itertools
import math
import sys
import threading
import time
from collections import Counter
from statistics import median

# Functions that get a span: (module, attribute).  "order.score" is the
# ``lm.score`` binding the ordering search calls for its final LmScore.
SPANS = (
    ("conllu", "parse_conllu"),
    ("morphmap", "default_table"),
    ("morphmap", "convert"),
    ("lm", "parse_arpa"),
    ("lm", "train_lm"),
    ("lm", "emit_arpa"),
    ("lm", "score"),
    ("reinflect", "load_model"),
    ("reinflect", "predict"),
    ("reinflect", "load_training_file"),
    ("reinflect", "build_model"),
    ("reinflect", "train"),
    ("reinflect", "save_model"),
    ("autodiff", "backward"),
    ("order", "order_words"),
    ("order", "exhaustive"),
    ("order", "method1"),
    ("order", "method2"),
    ("metrics", "evaluate_pairs"),
    ("metrics", "bleu"),
    ("metrics", "nist"),
    ("metrics", "dist"),
)

# Graph-building op functions of the autodiff kernel.
AUTODIFF_OPS = (
    "add", "mul", "scale", "matmul", "sigmoid", "tanh",
    "concat", "cols", "rows", "softmax_cross_entropy", "sum_all",
)

# Functions that only get a call counter: (module, attribute path).
COUNTERS = (
    ("reinflect", "decode_step"),
    ("lm", "NGramModel.logprob"),
) + tuple(("autodiff", op) for op in AUTODIFF_OPS)

# Spans that set the phase their callees' counters are filed under.
PHASES = {"reinflect.predict": "predict", "reinflect.train": "train"}


def _ordering_fields(result):
    fields = {"candidates": result.candidates_evaluated}
    if hasattr(result, "seed_candidates"):
        fields["seed_candidates"] = result.seed_candidates
    if hasattr(result, "diagnostics"):
        fields["schemes_skipped"] = sum("skipped" in d for d in result.diagnostics)
    return fields


def _score_fields(result, args):
    model, words = args[0], list(args[1])
    used = tuple(result.ngrams_used)
    # the first order-1 positions cannot have a full-order history
    full_possible = max(0, len(words) - (model.order - 1))
    return {
        "ngrams": sum(used),
        "full_possible": full_possible,
        "backed_off": full_possible - used[-1],
        "oov": result.oov_count,
    }


# Per-span extraction of counts from return values.
RESULT_FIELDS = {
    "conllu.parse_conllu": lambda r, a: {"sentences": len(r.sentences), "diagnostics": len(r.diagnostics)},
    "lm.parse_arpa": lambda r, a: {"ngrams": sum(len(t) for t in r.tables)},
    "lm.score": _score_fields,
    "order.exhaustive": lambda r, a: _ordering_fields(r),
    "order.method1": lambda r, a: _ordering_fields(r),
    "order.method2": lambda r, a: _ordering_fields(r),
    "reinflect.train": lambda r, a: {"epochs": len(r[1])},
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "id", "phase", "fields", "root")

    def as_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "parent": self.parent, "root": self.root,
            "start": self.start, "end": self.end, "fields": self.fields,
        }


class Tracer:
    """Installs wrappers; records spans and counts only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.root: Span | None = None  # the CLI command being traced
        self.absent: dict[str, str] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._span_lists: list[list[Span]] = []
        self._counters: list[Counter] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- per-thread storage -------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = []
            local.counts = Counter()
            with self._lock:
                self._span_lists.append(local.spans)
                self._counters.append(local.counts)
        return local

    @property
    def spans(self) -> list[Span]:
        return sorted((s for lst in self._span_lists for s in lst), key=lambda s: s.id)

    @property
    def counts(self) -> Counter:
        total = Counter()
        for c in self._counters:
            total.update(c)
        return total

    def clear(self) -> None:
        with self._lock:
            for lst in self._span_lists:
                lst.clear()
            for c in self._counters:
                c.clear()

    # -- spans ----------------------------------------------------------------
    def begin(self, name: str) -> Span:
        state = self._state()
        span = Span()
        span.name = name
        span.id = next(self._ids)
        span.fields = None
        if state.stack:
            parent = state.stack[-1]
        else:
            parent = self.root  # worker threads hang off the command span
        span.parent = parent.id if parent is not None else None
        span.root = self.root.id if self.root is not None else span.id
        span.phase = PHASES.get(name, parent.phase if parent is not None else "other")
        state.stack.append(span)
        span.end = None
        span.start = time.perf_counter()
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        state = self._state()
        state.stack.pop()
        state.spans.append(span)

    def command(self, name: str, fn, *args):
        """Run ``fn(*args)`` traced, as the root span ``name`` (one CLI command)."""
        self.enabled = True
        span = self.begin(name)
        self.root = span
        try:
            return fn(*args)
        finally:
            self.end(span)
            self.root = None
            self.enabled = False

    def _span_wrapper(self, name: str, fn):
        tracer = self
        extract = RESULT_FIELDS.get(name)

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if extract is not None:
                try:
                    span.fields = extract(result, args)
                except (AttributeError, TypeError, IndexError) as exc:
                    tracer.absent.setdefault(name, f"result not understood: {exc!r}")
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.enabled:
                state = tracer._state()
                phase = state.stack[-1].phase if state.stack else "other"
                state.counts[name] += 1
                state.counts[f"{name}@{phase}"] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        # import every target module first, so that names bound by
        # "from .x import f" exist before f is wrapped
        for module in dict.fromkeys(m for m, _ in SPANS + COUNTERS):
            try:
                importlib.import_module(f"udrealize.{module}")
            except ImportError:
                pass  # _patch records it as absent
        for module, attr in SPANS:
            self._patch(module, attr, self._span_wrapper)
        for module, attr in COUNTERS:
            self._patch(module, attr, self._count_wrapper)

    def _patch(self, module: str, path: str, make) -> None:
        name = f"{module}.{path.split('.')[-1]}"
        try:
            mod = importlib.import_module(f"udrealize.{module}")
        except ImportError as exc:
            self.absent[name] = f"udrealize.{module} cannot be imported: {exc}"
            return
        *owners, attr = path.split(".")
        owner = mod
        for part in owners:
            owner = getattr(owner, part, None)
            if owner is None:
                self.absent[name] = f"udrealize.{module} has no {part}"
                return
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent[name] = f"udrealize.{module} has no callable {path}"
            return
        wrapper = make(name, original)
        # rebind every module-level name that refers to the same function,
        # e.g. order.score is lm.score
        targets = [(owner, attr)]
        if owner is mod:
            for other_name, other in list(sys.modules.items()):
                if other is None or other is mod or not other_name.startswith("udrealize"):
                    continue
                for key, value in list(vars(other).items()):
                    if value is original:
                        targets.append((other, key))
        for obj, key in targets:
            self._restore.append((obj, key, getattr(obj, key)))
            setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, value in reversed(self._restore):
            setattr(obj, key, value)
        self._restore.clear()


def _union_length(intervals, lo: float, hi: float) -> float:
    covered = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def _quantile(values, q: float) -> float:
    """Nearest-rank quantile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def layer_metrics(spans: list[Span], counts: Counter, commands: int, eval_spans: list[Span]) -> dict:
    """Per-layer metrics, each normalized to one traced workload iteration.

    ``commands`` is the number of traced iterations the spans and counts
    cover; ``eval_spans`` come from the (untimed) ``evaluate`` call.
    """
    per = 1.0 / max(commands, 1)
    by_name = _group(spans)
    eval_by_name = _group(eval_spans)

    def dur(name, source=by_name):
        return [s.end - s.start for s in source.get(name, [])]

    def field(name, key):
        return sum((s.fields or {}).get(key, 0) for s in by_name.get(name, []))

    out: dict[str, tuple[float, str]] = {}

    roots = [s for s in spans if s.parent is None]
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    command_s = sum(r.end - r.start for r in roots)
    self_s = sum(
        (r.end - r.start) - _union_length(children.get(r.id, []), r.start, r.end) for r in roots
    )
    out["cli.command_s"] = (command_s * per, "s")
    out["cli.self_s"] = (self_s * per, "s")

    out["conllu.parse_s"] = (sum(dur("conllu.parse_conllu")) * per, "s")
    out["conllu.sentences"] = (field("conllu.parse_conllu", "sentences") * per, "count")
    out["conllu.diagnostics"] = (field("conllu.parse_conllu", "diagnostics") * per, "count")

    out["morphmap.convert_calls"] = (len(dur("morphmap.convert")) * per, "count")
    out["morphmap.convert_s"] = (sum(dur("morphmap.convert")) * per, "s")

    predict = dur("reinflect.predict")
    decode_steps = counts.get("reinflect.decode_step", 0)
    out["reinflect.load_s"] = (sum(dur("reinflect.load_model")) * per, "s")
    out["reinflect.predict_calls"] = (len(predict) * per, "count")
    out["reinflect.predict_s"] = (sum(predict) * per, "s")
    out["reinflect.predict_p50_ms"] = (median(predict) * 1e3 if predict else 0.0, "ms")
    out["reinflect.predict_p99_ms"] = (_quantile(predict, 0.99) * 1e3, "ms")
    out["reinflect.decode_steps"] = (decode_steps * per, "count")
    out["reinflect.decode_steps_per_token"] = (decode_steps / len(predict) if predict else 0.0, "count")
    train_s = sum(dur("reinflect.train"))
    epochs = field("reinflect.train", "epochs")
    out["reinflect.train_s"] = (train_s * per, "s")
    out["reinflect.epoch_s"] = (train_s / epochs if epochs else 0.0, "s")
    out["reinflect.save_s"] = (sum(dur("reinflect.save_model")) * per, "s")

    ops = sum(counts.get(f"autodiff.{op}", 0) for op in AUTODIFF_OPS)
    predict_ops = sum(counts.get(f"autodiff.{op}@predict", 0) for op in AUTODIFF_OPS)
    train_ops = sum(counts.get(f"autodiff.{op}@train", 0) for op in AUTODIFF_OPS)
    backward = dur("autodiff.backward")
    out["autodiff.ops"] = (ops * per, "count")
    out["autodiff.ops_per_token"] = (predict_ops / len(predict) if predict else 0.0, "count")
    out["autodiff.backward_calls"] = (len(backward) * per, "count")
    out["autodiff.backward_s"] = (sum(backward) * per, "s")
    out["autodiff.ops_per_batch"] = (train_ops / len(backward) if backward else 0.0, "count")

    logprob_calls = counts.get("lm.logprob", 0)
    scored = field("lm.score", "full_possible")
    out["lm.parse_arpa_s"] = (sum(dur("lm.parse_arpa")) * per, "s")
    out["lm.ngrams"] = (field("lm.parse_arpa", "ngrams") * per, "count")
    out["lm.logprob_calls"] = (logprob_calls * per, "count")
    out["lm.score_calls"] = (len(dur("lm.score")) * per, "count")
    out["lm.backoff_share"] = (field("lm.score", "backed_off") / scored if scored else 0.0, "ratio")
    out["lm.oov_tokens"] = (field("lm.score", "oov") * per, "count")
    out["lm.train_lm_s"] = (sum(dur("lm.train_lm")) * per, "s")
    out["lm.emit_arpa_s"] = (sum(dur("lm.emit_arpa")) * per, "s")

    candidates = 0
    for method in ("exhaustive", "method1", "method2"):
        times = dur(f"order.{method}")
        cands = field(f"order.{method}", "candidates")
        candidates += cands
        out[f"order.{method}.calls"] = (len(times) * per, "count")
        out[f"order.{method}.s"] = (sum(times) * per, "s")
        out[f"order.{method}.p50_ms"] = (median(times) * 1e3 if times else 0.0, "ms")
        out[f"order.{method}.max_ms"] = (max(times) * 1e3 if times else 0.0, "ms")
        out[f"order.{method}.candidates"] = (cands * per, "count")
    out["order.method1.seed_candidates"] = (field("order.method1", "seed_candidates") * per, "count")
    out["order.method2.schemes_skipped"] = (field("order.method2", "schemes_skipped") * per, "count")
    out["order.candidates"] = (candidates * per, "count")
    out["order.logprob_per_candidate"] = (logprob_calls / candidates if candidates else 0.0, "ratio")

    out["metrics.evaluate_s"] = (sum(dur("metrics.evaluate_pairs", eval_by_name)), "s")
    out["metrics.bleu_s"] = (sum(dur("metrics.bleu", eval_by_name)), "s")
    out["metrics.nist_s"] = (sum(dur("metrics.nist", eval_by_name)), "s")
    out["metrics.dist_s"] = (sum(dur("metrics.dist", eval_by_name)), "s")
    return out


def _group(spans) -> dict[str, list[Span]]:
    grouped: dict[str, list[Span]] = {}
    for s in spans:
        grouped.setdefault(s.name, []).append(s)
    return grouped


# Which traced targets each per-layer metric is computed from; a metric
# whose target is absent is reported as absent (value 0) with the reason.
METRIC_SOURCES = {
    "conllu.": ["conllu.parse_conllu"],
    "morphmap.": ["morphmap.convert"],
    "reinflect.load_s": ["reinflect.load_model"],
    "reinflect.predict": ["reinflect.predict"],
    "reinflect.decode_steps": ["reinflect.decode_step", "reinflect.predict"],
    "reinflect.train_s": ["reinflect.train"],
    "reinflect.epoch_s": ["reinflect.train"],
    "reinflect.save_s": ["reinflect.save_model"],
    "autodiff.ops": [f"autodiff.{op}" for op in AUTODIFF_OPS],
    "autodiff.backward": ["autodiff.backward"],
    "lm.parse_arpa_s": ["lm.parse_arpa"],
    "lm.ngrams": ["lm.parse_arpa"],
    "lm.logprob_calls": ["lm.logprob"],
    "lm.score_calls": ["lm.score"],
    "lm.backoff_share": ["lm.score"],
    "lm.oov_tokens": ["lm.score"],
    "lm.train_lm_s": ["lm.train_lm"],
    "lm.emit_arpa_s": ["lm.emit_arpa"],
    "order.exhaustive": ["order.exhaustive"],
    "order.method1": ["order.method1"],
    "order.method2": ["order.method2"],
    "order.candidates": ["order.exhaustive", "order.method1", "order.method2"],
    "order.logprob_per_candidate": ["lm.logprob", "order.method1", "order.method2"],
    "metrics.evaluate_s": ["metrics.evaluate_pairs"],
    "metrics.bleu_s": ["metrics.bleu"],
    "metrics.nist_s": ["metrics.nist"],
    "metrics.dist_s": ["metrics.dist"],
}


def absences(metric_names, absent: dict[str, str]) -> dict[str, str]:
    """Map each per-layer metric to the reason it could not be measured."""
    out = {}
    for metric in metric_names:
        for prefix, targets in METRIC_SOURCES.items():
            if metric.startswith(prefix):
                reasons = dict.fromkeys(f"{t}: {absent[t]}" for t in targets if t in absent)
                if reasons:
                    out[metric] = "; ".join(reasons)
    return out
