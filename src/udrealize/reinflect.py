"""Character-level encoder-decoder that inflects lemmas into surface forms.

A bidirectional LSTM reads the lemma's character embeddings; its final
states summarize the word.  The decoder LSTM consumes, per step, the
embedding of the lemma character aligned with that step (padding index 0
past the lemma's end), the encoder summary, and the binary morphological
feature vector, then a softmax layer predicts the output character.

Everything is float64 numpy; no ML framework is involved.  One LSTM
step, ``_lstm_cell``, serves training and inference.  Training runs
``_forward``, the teacher-forced loss: it knows every step's input up
front, projects all of them with one product per LSTM and keeps states
and gates on a tape.  ``_backward``, the LSTM's closed-form gradient
(Graves 2012, ch. 4), steps back through the recurrence only; each
weight block's gradient is then one product over all steps, so
checkpoints are reproducible from run to run.  ``predict_many`` keeps
no tape: it decodes each distinct (lemma, tag) pair once, many pairs at
a time, and ``predict`` is its one-pair case.  There the encoder and the
decoder hold the states of the rows still live only; every product pads
its rows to a multiple of 8 (``_by_rows``), so a pair's form does not
depend on the pairs decoded with it.
"""

from __future__ import annotations

import json
import math
import os
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .morphmap import MorphTag, build_inventory, feature_vector

EMB_DIM = 64
PAD, BOS, EOS, UNK = 0, 1, 2, 3
RESERVED_CHARS = ("<pad>", "<bos>", "<eos>", "<unk>")

_CHECKPOINT_MAGIC = b"udrealize-reinflector-v1\n"

# Distinct (lemma, tag) pairs that predict_many decodes together; bounds
# the memory of one batch of rows.
PREDICT_CHUNK = 256

# Largest global L2 norm of a training step's gradients; larger ones are scaled down to it.
_CLIP_NORM = 5.0


class GradientError(RuntimeError):
    """A parameter block produced a non-finite gradient."""


@dataclass(frozen=True)
class CharVocab:
    """Dense character index with reserved slots (PAD is always index 0)."""

    chars: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        if self.chars[: len(RESERVED_CHARS)] != RESERVED_CHARS:
            raise ValueError("reserved characters must occupy the first indices")
        index = {ch: i for i, ch in enumerate(self.chars)}
        for i, ch in enumerate(self.chars[len(RESERVED_CHARS) :], len(RESERVED_CHARS)):
            if len(ch) != 1:
                raise ValueError(f"vocabulary entry {ch!r} is not one character")
            if index[ch] != i:  # the index keeps a repeated character's last position
                raise ValueError(f"vocabulary character {ch!r} occurs more than once")
        object.__setattr__(self, "_index", index)

    @classmethod
    def build(cls, texts) -> "CharVocab":
        seen = sorted({ch for text in texts for ch in text})
        return cls(RESERVED_CHARS + tuple(seen))

    def __len__(self) -> int:
        return len(self.chars)

    def encode(self, text: str, diagnostics: list[str] | None = None) -> list[int]:
        out = []
        for ch in text:
            ix = self._index.get(ch, UNK)
            if ix == UNK and diagnostics is not None:
                diagnostics.append(f"character {ch!r} not in vocabulary, mapped to UNK")
            out.append(ix)
        return out


@dataclass(frozen=True)
class TrainExample:
    lemma: str
    tag: MorphTag
    target: str


class Seq2SeqModel:
    """All parameters of the character encoder-decoder.

    Parameter blocks: character embedding (|vocab| x 64), forward and
    backward encoder LSTMs, decoder LSTM over 64 + 2H + F inputs, and the
    output projection onto the character vocabulary.
    """

    PARAM_NAMES = (
        "emb",
        "enc_f.wx", "enc_f.wh", "enc_f.b",
        "enc_b.wx", "enc_b.wh", "enc_b.b",
        "dec.wx", "dec.wh", "dec.b",
        "out.w", "out.b",
    )

    def __init__(
        self,
        vocab: CharVocab,
        inventory: tuple[str, ...],
        hidden_size: int,
        max_len: int,
        params: dict[str, np.ndarray],
    ):
        self.vocab = vocab
        self.inventory = tuple(inventory)
        self.hidden_size = hidden_size
        self.max_len = max_len
        self.params = params

    @staticmethod
    def shapes(vocab_size: int, feature_size: int, hidden_size: int) -> dict[str, tuple[int, ...]]:
        """The shape of every parameter block, in ``PARAM_NAMES`` order."""
        h, v = hidden_size, vocab_size
        dec_in = EMB_DIM + 2 * h + feature_size
        return {
            "emb": (v, EMB_DIM),
            "enc_f.wx": (EMB_DIM, 4 * h), "enc_f.wh": (h, 4 * h), "enc_f.b": (4 * h,),
            "enc_b.wx": (EMB_DIM, 4 * h), "enc_b.wh": (h, 4 * h), "enc_b.b": (4 * h,),
            "dec.wx": (dec_in, 4 * h), "dec.wh": (h, 4 * h), "dec.b": (4 * h,),
            "out.w": (h, v), "out.b": (v,),
        }

    @property
    def feature_size(self) -> int:
        return len(self.inventory)

    def check_finite(self) -> None:
        for name, p in self.params.items():
            if not np.all(np.isfinite(p)):
                raise GradientError(f"non-finite values in parameter block {name!r}")


def logistic(x: np.ndarray) -> np.ndarray:
    """Plain elementwise 1 / (1 + exp(-x)), split by sign so exp never overflows.

    ``exp(-|x|)`` is exp(-x) where x >= 0 and exp(x) elsewhere, and
    ``exp(min(x, 0))`` is 1 where x >= 0 and exp(x) elsewhere, so this is
    1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) for x < 0,
    without a branch on the sign.
    """
    d = np.exp(-np.abs(x))
    d += 1.0
    e = np.exp(np.minimum(x, 0.0))
    e /= d
    return e


def _by_rows(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``a @ w`` on ``a`` padded to a multiple of 8 rows with copies of its last row and ``w`` to a multiple
    of 8 columns with zeros.  BLAS sums a row in an order set by the shape (one row; OpenBLAS's AVX2 kernels at
    odd row counts; its AVX-512 small-product path at some column counts), and at multiples of 8 in one order."""
    (n, _), v = a.shape, w.shape[1]
    a = a[np.minimum(np.arange(n + -n % 8), n - 1)] if n % 8 else a  # a gather keeps C order, even for one row
    w = np.hstack([w, np.zeros((len(w), -v % 8))]) if v % 8 else w
    return (a @ w)[:n, :v]


def _lstm_cell(model: Seq2SeqModel, prefix: str, zx: np.ndarray, h: np.ndarray, c: np.ndarray):
    """One LSTM step of B rows from ``zx = x @ wx`` (overwritten): new (h, c) and gates (i, f, g, o, tanh c)."""
    params = model.params
    hid = h.shape[1]
    z = zx  # in place: the caller's zx would otherwise stay alive beside z
    z += _by_rows(h, params[f"{prefix}.wh"])
    z += params[f"{prefix}.b"]
    i_f = logistic(z[:, 0 : 2 * hid])  # one call over both gates: elementwise, so the bits of two
    i, f = i_f[:, :hid], i_f[:, hid:]
    g = np.tanh(z[:, 2 * hid : 3 * hid])
    o = logistic(z[:, 3 * hid : 4 * hid])
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    return o * tanh_c, c_new, (i, f, g, o, tanh_c)


_Run = namedtuple("_Run", "prefix idx x hs cs gates live")


def _run_taped(model: Seq2SeqModel, prefix: str, idx, x, live) -> _Run:
    """Step one LSTM over the (T, B, width) inputs ``x``, projecting all of them with one product.

    Returns the run for ``_backward``: step t reads state t of the T + 1
    in ``hs`` and ``cs`` and writes state t + 1, a copy of state t where
    ``live[t]`` is False; ``idx`` indexes the embeddings in ``x``.
    """
    steps, b, width = x.shape
    hid = model.hidden_size
    zx = _by_rows(x.reshape(steps * b, width), model.params[f"{prefix}.wx"]).reshape(steps, b, 4 * hid)
    hs, cs = np.zeros((2, steps + 1, b, hid))
    gates = []
    for t in range(steps):
        h, c, step_gates = _lstm_cell(model, prefix, zx[t], hs[t], cs[t])
        hs[t + 1], cs[t + 1] = np.where(live[t], h, hs[t]), np.where(live[t], c, cs[t])
        gates.append(step_gates)
    return _Run(prefix, idx, x, hs, cs, gates, live)


def _encode_rows(model: Seq2SeqModel, idx: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The (B, 2H) encoder summary of padded index rows, without a tape.

    The rows step longest first, so at step t the rows whose input
    reaches t are the first k, and each step steps only those, from their
    rows of one projection of every character.  By the row rule of
    ``_by_rows`` a row's summary does not depend on the rows batched with
    it and is the taped one of ``_forward`` bit for bit.
    """
    if not np.all(lengths > 0):
        raise ValueError("empty input")
    order = np.argsort(-lengths, kind="stable")
    idx, reach = idx[order], np.count_nonzero(lengths[:, None] > np.arange(idx.shape[1]), axis=0)
    emb = model.params["emb"]
    finals = []
    for prefix, steps in (("enc_f", range(len(reach))), ("enc_b", range(len(reach) - 1, -1, -1))):
        table = _by_rows(emb, model.params[f"{prefix}.wx"])  # each step gathers a copy of its rows' x @ wx
        h, c = np.zeros((2, len(idx), model.hidden_size))
        for t in steps:
            k = reach[t]
            h[:k], c[:k] = _lstm_cell(model, prefix, table[idx[:k, t]], h[:k], c[:k])[:2]
        finals.append(h)
    return np.concatenate(finals, axis=1)[np.argsort(order)]  # back to input order


def decode_step(model: Seq2SeqModel, x: np.ndarray, h: np.ndarray, c: np.ndarray):
    """One decoder step of every row from its input ``x``: the rows' logits over the vocabulary, new h and new c.

    Each row of ``x`` is the embedding of the lemma character aligned with this step, the 2H
    encoder summary and the F-dim morphological feature vector.  No input is written.
    """
    # the gates are dropped at once: held through the next step they raise peak memory
    h, c = _lstm_cell(model, "dec", _by_rows(x, model.params["dec.wx"]), h, c)[:2]
    return _by_rows(h, model.params["out.w"]) + model.params["out.b"], h, c


def _index_rows(rows, width: int) -> np.ndarray:
    """Lists of indices as the rows of a (len(rows), width) matrix, padded with PAD."""
    idx = np.full((len(rows), width), PAD, dtype=np.intp)
    for r, row in enumerate(rows):
        idx[r, : len(row)] = row
    return idx


def _make_batch(model: Seq2SeqModel, examples):
    """Pad a list of examples into index matrices for the batched loss.

    One index row per example serves both stages, as in ``_decode_chunk``.
    """
    lemmas, golds, morph = [], [], np.zeros((len(examples), model.feature_size))
    for r, ex in enumerate(examples):
        lemmas.append(model.vocab.encode(ex.lemma))
        golds.append(model.vocab.encode(ex.target) + [EOS])
        morph[r] = feature_vector(ex.tag, model.inventory)
    enc_len, dec_len = np.asarray([len(row) for row in lemmas]), np.asarray([len(row) for row in golds])
    max_enc, max_dec = int(enc_len.max()), int(dec_len.max())
    idx = _index_rows(lemmas, max(max_enc, max_dec))
    mask = (np.arange(max_dec) < dec_len[:, None]).astype(np.float64)
    return idx[:, :max_enc], enc_len, idx[:, :max_dec], _index_rows(golds, max_dec), mask, morph


def _forward(model: Seq2SeqModel, examples):
    """Teacher-forced batch loss and the tape that ``_backward`` reads.

    The loss is the mean over examples of each example's mean
    cross-entropy over its target characters and EOS.  The tape holds
    the runs of both encoder directions and the decoder, and the
    (T, B, V) gradient of the loss with respect to the logits.
    """
    enc_idx, enc_len, dec_idx, targets, mask, morph = _make_batch(model, examples)
    b, max_dec = targets.shape
    params = model.params
    hid = model.hidden_size
    # every encoder step steps every row; the backward direction runs over the time-reversed views
    x, live = params["emb"][enc_idx.T], (np.arange(enc_idx.shape[1])[:, None] < enc_len)[:, :, None]
    runs = [_run_taped(model, p, enc_idx.T[::d], x[::d], live[::d]) for p, d in (("enc_f", 1), ("enc_b", -1))]
    summary = np.concatenate([runs[0].hs[-1], runs[1].hs[-1]], axis=1)
    # teacher forcing knows every decoder input before the first step; a row
    # past its EOS keeps its state, as its steps there weigh nothing in the loss
    x = np.empty((max_dec, b, EMB_DIM + 2 * hid + model.feature_size))
    x[:, :, :EMB_DIM] = params["emb"][dec_idx.T]
    x[:, :, EMB_DIM : EMB_DIM + 2 * hid] = summary
    x[:, :, EMB_DIM + 2 * hid :] = morph
    runs.append(_run_taped(model, "dec", dec_idx.T, x, mask.T[:, :, None] > 0))
    logits = (runs[-1].hs[1:].reshape(max_dec * b, hid) @ params["out.w"] + params["out.b"]).reshape(max_dec, b, -1)
    shifted = logits - logits.max(axis=2, keepdims=True)
    exp = np.exp(shifted)
    z = exp.sum(axis=2, keepdims=True)
    steps, rows, targets = np.arange(max_dec)[:, None], np.arange(b), targets.T
    ce = -(shifted[steps, rows, targets] - np.log(z[:, :, 0])) * mask.T
    inv_len = 1.0 / mask.sum(axis=1)
    d_ce = np.full(b, 1.0 / b) * inv_len  # d loss / d cross-entropy of each row
    d_logits = np.divide(exp, z, out=exp)  # softmax cross-entropy
    d_logits[steps, rows, targets] -= 1.0
    d_logits *= (d_ce * mask.T)[:, :, None]
    return float((ce.sum(axis=0) * inv_len).sum() * (1.0 / b)), (runs, d_logits)


def _run_backward(model: Seq2SeqModel, run: _Run, grads: dict, d_out) -> np.ndarray:
    """Backward pass of one ``_run_taped`` run, given ``d_out[t]``, the gradient of step t's h.

    The step loop runs only the recurrence; one product over all steps
    then sets each of the run's blocks in ``grads``.  Returns the
    (T * B, width) gradient of the run's inputs.
    """
    prefix, _, x, hs, cs, gates, live = run
    steps, b, width = x.shape
    hid = model.hidden_size
    wh = model.params[f"{prefix}.wh"]
    dz = np.empty((steps, b, 4 * hid))
    dh = dc = 0.0
    for t in reversed(range(steps)):
        dh = d_out[t] + dh  # a row past its end carried its state through this step unchanged
        dh, keep_h = np.where(live[t], dh, 0.0), np.where(live[t], 0.0, dh)
        dc, keep_c = np.where(live[t], dc, 0.0), np.where(live[t], 0.0, dc)
        i, f, g, o, tanh_c = gates[t]
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        dz[t, :, 0:hid] = dc * g * i * (1.0 - i)  # input gate
        dz[t, :, hid : 2 * hid] = dc * cs[t] * f * (1.0 - f)  # forget gate
        dz[t, :, 2 * hid : 3 * hid] = dc * i * (1.0 - g * g)  # cell candidate
        dz[t, :, 3 * hid :] = dh * tanh_c * o * (1.0 - o)  # output gate
        dh, dc = dz[t] @ wh.T + keep_h, dc * f + keep_c
    dz = dz.reshape(steps * b, 4 * hid)
    grads[f"{prefix}.wx"] = x.reshape(steps * b, width).T @ dz
    grads[f"{prefix}.wh"] = hs[:-1].reshape(steps * b, hid).T @ dz
    grads[f"{prefix}.b"] = dz.sum(axis=0)
    return dz @ model.params[f"{prefix}.wx"].T


def _row_sums(idx: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """The (n, width) sums of ``rows`` by their index in ``idx``, in one ``np.bincount``.

    Each entry is summed from 0.0 in row order, as ``np.add.at`` into
    zeros sums it, so the bits are the same.
    """
    width = rows.shape[1]
    bins = (idx[:, None] * width + np.arange(width)).ravel()
    return np.bincount(bins, rows.ravel(), minlength=n * width).reshape(n, width)


def _backward(model: Seq2SeqModel, tape) -> dict[str, np.ndarray]:
    """Gradients of the ``_forward`` loss for every parameter block.

    Each block is one product or sum over all steps of the batch, and
    ``emb`` one scatter-add over the steps of all three runs
    (``_row_sums``).  Sums run in an order set by the batch alone, so
    checkpoints are reproducible from run to run.
    """
    (enc_f, enc_b, dec), d_logits = tape
    steps, b, v = d_logits.shape
    hid = model.hidden_size
    d = d_logits.reshape(steps * b, v)
    grads = {"out.w": dec.hs[1:].reshape(steps * b, hid).T @ d, "out.b": d.sum(axis=0)}
    d_x = [_run_backward(model, dec, grads, (d @ model.params["out.w"].T).reshape(steps, b, hid))]
    d_summary = d_x[0][:, EMB_DIM : EMB_DIM + 2 * hid].reshape(steps, b, 2 * hid).sum(axis=0)
    d_enc = np.zeros((2, len(enc_f.gates), b, hid))  # each encoder direction's last state is half the summary
    d_enc[:, -1] = d_summary.reshape(b, 2, hid).swapaxes(0, 1)
    d_x += [_run_backward(model, run, grads, d_out) for run, d_out in zip((enc_f, enc_b), d_enc)]
    idx = np.concatenate([run.idx.ravel() for run in (dec, enc_f, enc_b)])
    grads["emb"] = _row_sums(idx, np.concatenate([dx[:, :EMB_DIM] for dx in d_x]), len(model.params["emb"]))
    return {name: grads[name] for name in model.PARAM_NAMES}


def grad(model: Seq2SeqModel, batch) -> dict[str, np.ndarray]:
    """Gradient of the batch loss for every parameter block."""
    if not batch:
        raise ValueError("empty batch")
    grads = _backward(model, _forward(model, list(batch))[1])
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise GradientError(f"non-finite gradient in parameter block {name!r}")
    return grads


def _clip_gradients(grads: dict[str, np.ndarray], max_norm: float) -> None:
    norm = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if norm > max_norm:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor


def train(
    model: Seq2SeqModel,
    data,
    epochs: int = 20,
    lr: float = 1e-3,
    seed: int = 0,
    batch_size: int = 32,
    log=None,
) -> tuple[Seq2SeqModel, list[float]]:
    """Adam training loop; deterministic for a fixed seed.

    Shuffles each epoch with the seeded RNG and records the mean batch
    loss per epoch.  If the loss goes non-finite the parameters roll back
    to the end of the last finished epoch and training stops.
    """
    data = list(data)
    if not data:
        raise ValueError("no training data")
    rng = np.random.default_rng(seed)
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    params = model.params
    m_state = {n: np.zeros_like(p) for n, p in params.items()}
    v_state = {n: np.zeros_like(p) for n, p in params.items()}
    step = 0
    trace: list[float] = []
    snapshot = {n: p.copy() for n, p in params.items()}  # refreshed in place: a new copy would sit beside it
    for epoch in range(epochs):
        order = rng.permutation(len(data))
        epoch_losses: list[float] = []
        diverged = False
        for start in range(0, len(data), batch_size):
            batch = [data[i] for i in order[start : start + batch_size]]
            batch_loss, tape = _forward(model, batch)
            if not np.isfinite(batch_loss):
                diverged = True
                break
            grads = _backward(model, tape)
            del tape  # the next batch's forward pass would otherwise run beside this tape
            _clip_gradients(grads, _CLIP_NORM)
            step += 1
            bias1 = 1.0 - beta1**step
            bias2 = 1.0 - beta2**step
            for name, p in params.items():
                # in place, in the order of m = beta1 * m + (1 - beta1) * g, v = beta2 * v
                # + (1 - beta2) * g * g and p -= lr * (m / bias1) / (sqrt(v / bias2) + eps)
                g, m, v = grads[name], m_state[name], v_state[name]
                m *= beta1
                m += (1.0 - beta1) * g
                v *= beta2
                v += (1.0 - beta2) * g * g
                update = np.divide(m, bias1)
                update *= lr
                np.sqrt(np.divide(v, bias2, out=g), out=g)
                g += eps
                update /= g
                p -= update
            epoch_losses.append(batch_loss)
        if diverged:
            params.update(snapshot)
            if log is not None:
                log(f"epoch {epoch + 1}: loss diverged, rolled back to last checkpoint")
            break
        mean_loss = float(np.mean(epoch_losses))
        trace.append(mean_loss)
        for name, p in params.items():
            np.copyto(snapshot[name], p)
        if log is not None:
            log(f"epoch {epoch + 1}/{epochs}: loss {mean_loss:.6f}")
    model.check_finite()
    return model, trace


def _decode_chunk(model: Seq2SeqModel, pairs) -> list[str]:
    """Greedy decodes of a list of (lemma, tag) pairs, all rows at once."""
    rows = [model.vocab.encode(lemma) for lemma, _ in pairs]
    lengths = np.asarray([len(r) for r in rows])
    # one index row per pair serves both stages: the encoder reads its
    # first len(lemma) entries, the decoder reads entry t at step t, and
    # entry ``longest``, PAD in every row, at every later step
    longest = int(lengths.max())
    idx = _index_rows(rows, longest + 1)
    summary = _encode_rows(model, idx[:, :longest], lengths)
    morph = np.stack([feature_vector(tag, model.inventory) for _, tag in pairs])
    emb = model.params["emb"]

    out: list[list[str]] = [[] for _ in pairs]
    live = np.arange(len(pairs))  # rows that have not emitted EOS yet
    h, c = np.zeros((2, len(pairs), model.hidden_size))  # the states of rows ``live``
    for t in range(model.max_len):
        x = np.concatenate([emb[idx[live, min(t, longest)]], summary[live], morph[live]], axis=1)
        logits, h, c = decode_step(model, x, h, c)
        logits[:, [PAD, BOS, UNK]] = -np.inf  # reserved characters are never emitted
        best = np.argmax(logits, axis=1)
        going = best != EOS
        live, best, h, c = live[going], best[going], h[going], c[going]
        for r, ix in zip(live.tolist(), best.tolist()):
            out[r].append(model.vocab.chars[ix])
        if not live.size:
            break
    return ["".join(chars) for chars in out]


def predict_many(model: Seq2SeqModel, items) -> list[str]:
    """Greedy decodes of (lemma, tag) pairs, each stopping at EOS or max_len.

    Each distinct pair is decoded once; the distinct pairs, in first-seen
    order, go through the model PREDICT_CHUNK at a time.  Returns one form
    per item, in item order.  Raises ValueError for an empty lemma.
    """
    items = list(items)
    distinct = list(dict.fromkeys(items))
    forms: dict = {}
    for start in range(0, len(distinct), PREDICT_CHUNK):
        chunk = distinct[start : start + PREDICT_CHUNK]
        forms.update(zip(chunk, _decode_chunk(model, chunk)))
    return [forms[item] for item in items]


def predict(model: Seq2SeqModel, lemma: str, tag: MorphTag) -> str:
    """Greedily decode the inflected form; stops at EOS or max_len."""
    return predict_many(model, [(lemma, tag)])[0]


def load_training_file(text: str) -> tuple[list[TrainExample], list[str]]:
    """Parse 'lemma<TAB>tag<TAB>target' lines; bad lines are skipped with a warning."""
    examples: list[TrainExample] = []
    warnings: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) != 3:
            warnings.append(f"line {lineno}: expected 3 tab-separated fields, skipped")
            continue
        lemma, tag_text, target = cols
        if not lemma or not target:
            warnings.append(f"line {lineno}: empty lemma or target, skipped")
            continue
        try:
            tag = MorphTag.parse(tag_text)
        except ValueError:
            warnings.append(f"line {lineno}: unparseable tag {tag_text!r}, skipped")
            continue
        examples.append(TrainExample(lemma=lemma, tag=tag, target=target))
    return examples, warnings


def build_model(
    examples,
    hidden_size: int = 128,
    max_len: int = 40,
    seed: int = 0,
) -> Seq2SeqModel:
    """Construct a fresh model whose vocab and tag inventory cover the training data."""
    examples = list(examples)
    vocab = CharVocab.build([ex.lemma for ex in examples] + [ex.target for ex in examples])
    inventory = build_inventory([ex.tag for ex in examples])
    shapes = Seq2SeqModel.shapes(len(vocab), len(inventory), hidden_size)
    rng = np.random.default_rng(seed)
    k = 1.0 / np.sqrt(hidden_size)
    params = {name: rng.uniform(-k, k, size=shapes[name]) for name in Seq2SeqModel.PARAM_NAMES}
    return Seq2SeqModel(vocab, inventory, hidden_size, max_len, params)


def save_model(model: Seq2SeqModel, path) -> None:
    """Write a bit-reproducible checkpoint (JSON header + raw float64 blocks)."""
    header = {
        "chars": list(model.vocab.chars),
        "inventory": list(model.inventory),
        "hidden_size": model.hidden_size,
        "max_len": model.max_len,
        "emb_dim": EMB_DIM,
        "params": [[name, list(model.params[name].shape)] for name in model.PARAM_NAMES],
    }
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for name in model.PARAM_NAMES:
            fh.write(np.ascontiguousarray(model.params[name], dtype="<f8").tobytes())


def _is_str_list(value) -> bool:
    return type(value) is list and all(type(item) is str for item in value)


# What save_model writes in the checkpoint header, field by field.
_HEADER_FIELDS = {
    "chars": ("a list of strings", _is_str_list),
    "inventory": ("a list of strings", _is_str_list),
    "hidden_size": ("a positive integer", lambda v: type(v) is int and v > 0),
    "max_len": ("a positive integer", lambda v: type(v) is int and v > 0),
    "emb_dim": ("an integer", lambda v: type(v) is int),
    "params": (
        "a list of [name, shape] pairs",
        lambda v: type(v) is list
        and all(type(e) is list and len(e) == 2 and type(e[0]) is str and type(e[1]) is list for e in v),
    ),
}


def _check_header(path, header) -> None:
    if type(header) is not dict:
        raise ValueError(f"{path}: checkpoint header is not a JSON object")
    unknown = sorted(header.keys() - _HEADER_FIELDS.keys())
    if unknown:
        raise ValueError(f"{path}: unknown checkpoint header field {unknown[0]!r}")
    for key, (kind, fits) in _HEADER_FIELDS.items():
        if key not in header:
            raise ValueError(f"{path}: checkpoint header has no field {key!r}")
        if not fits(header[key]):
            raise ValueError(f"{path}: checkpoint header field {key!r} is not {kind}")


def load_model(path) -> Seq2SeqModel:
    """Read a checkpoint written by ``save_model``.

    Raises ValueError when the header does not have exactly the fields
    and types that ``save_model`` writes, repeats a character or an
    inventory tag, or the file does not hold exactly the blocks, in the
    shapes, that its header's vocabulary, inventory and hidden size imply.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_CHECKPOINT_MAGIC))
        if magic != _CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a reinflector checkpoint")
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except (ValueError, RecursionError):  # also a header that is not UTF-8, or nested too deep to parse
            raise ValueError(f"{path}: checkpoint header is not JSON") from None
        _check_header(path, header)
        if header["emb_dim"] != EMB_DIM:
            raise ValueError(f"{path}: embedding width {header['emb_dim']} differs from {EMB_DIM}")
        try:
            vocab = CharVocab(tuple(header["chars"]))
        except ValueError as err:
            raise ValueError(f"{path}: {err}") from None
        inventory = header["inventory"]
        if len(set(inventory)) < len(inventory):  # feature_vector would see only a repeated tag's last position
            tag = next(t for i, t in enumerate(inventory) if t in inventory[:i])
            raise ValueError(f"{path}: inventory tag {tag!r} occurs more than once")
        shapes = Seq2SeqModel.shapes(len(vocab), len(inventory), header["hidden_size"])
        names = [name for name, _ in header["params"]]
        if names != list(Seq2SeqModel.PARAM_NAMES):
            raise ValueError(f"{path}: parameter blocks {names} are not {list(Seq2SeqModel.PARAM_NAMES)}")
        left = os.fstat(fh.fileno()).st_size - fh.tell()  # bytes the blocks may take
        params = {}
        for name, shape in header["params"]:
            expected = shapes[name]
            if tuple(shape) != expected:
                raise ValueError(f"{path}: parameter block {name!r} has shape {tuple(shape)}, expected {expected}")
            size = 8 * math.prod(expected)  # an exact int: np.prod could overflow int64
            if size > left:  # checked before reading, so a huge declared shape allocates nothing
                raise ValueError(f"{path}: truncated parameter block {name!r}")
            left -= size
            params[name] = np.frombuffer(fh.read(size), dtype="<f8").reshape(expected).copy()
        if left:
            raise ValueError(f"{path}: unexpected bytes after the last parameter block")
    return Seq2SeqModel(vocab, inventory, header["hidden_size"], header["max_len"], params)
