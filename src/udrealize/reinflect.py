"""Character-level encoder-decoder that inflects lemmas into surface forms.

A bidirectional LSTM reads the lemma's character embeddings; its final
states summarize the word.  The decoder LSTM consumes, per step, the
embedding of the lemma character aligned with that step (padding index 0
past the lemma's end), the encoder summary, and the binary morphological
feature vector, then a softmax layer predicts the output character.

Everything is float64 numpy; no ML framework is involved.  One LSTM
step, ``_lstm_cell``, serves training and inference.  Training runs
``_forward`` (the teacher-forced loss, keeping each step's inputs and
gates on a tape) and ``_backward``, the LSTM's closed-form gradient
(Graves 2012, ch. 4) summed in a fixed order, so gradient checks stay
exact and checkpoints bit-reproducible.  ``predict_many`` keeps no tape:
it decodes each distinct (lemma, tag) pair once, many pairs at a time,
and ``predict`` is its one-pair case.
"""

from __future__ import annotations

import json
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
        object.__setattr__(self, "_index", {ch: i for i, ch in enumerate(self.chars)})

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

    ``e = exp(-|x|)`` is exp(-x) where x >= 0 and exp(x) elsewhere, so
    this is 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) for
    x < 0.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _lstm_cell(model: Seq2SeqModel, prefix: str, x: np.ndarray, h: np.ndarray, c: np.ndarray):
    """One LSTM step of B rows: the new (h, c) and the gates (i, f, g, o, tanh(c))."""
    params = model.params
    hid = h.shape[1]
    z = x @ params[f"{prefix}.wx"] + h @ params[f"{prefix}.wh"] + params[f"{prefix}.b"]
    i = logistic(z[:, 0:hid])
    f = logistic(z[:, hid : 2 * hid])
    g = np.tanh(z[:, 2 * hid : 3 * hid])
    o = logistic(z[:, 3 * hid : 4 * hid])
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    return o * tanh_c, c_new, (i, f, g, o, tanh_c)


def _encode_rows(
    model: Seq2SeqModel, idx: np.ndarray, lengths: np.ndarray, tape: list | None = None
) -> np.ndarray:
    """The (B, 2H) encoder summary of padded index rows.

    With a ``tape``, each step appends what ``_backward`` reads:
    (prefix, index column, x, h, c, gates, mask).
    """
    if not np.all(lengths > 0):
        raise ValueError("empty input")
    b, max_t = idx.shape
    emb = model.params["emb"]
    zero = np.zeros((b, model.hidden_size))
    finals = []
    for prefix, steps in (("enc_f", range(max_t)), ("enc_b", range(max_t - 1, -1, -1))):
        h, c = zero, zero
        for t in steps:
            x = emb[idx[:, t]]
            hn, cn, gates = _lstm_cell(model, prefix, x, h, c)
            m = (t < lengths)[:, None]  # rows past their end keep the old state
            if tape is not None:
                tape.append((prefix, idx[:, t], x, h, c, gates, m))
            del x, gates  # without a tape, held through the next step they raise peak memory
            h, c = np.where(m, hn, h), np.where(m, cn, c)
        finals.append(h)
    return np.concatenate(finals, axis=1)


def encode(model: Seq2SeqModel, lemma_indices) -> np.ndarray:
    """Encode one index sequence into the (2H,) encoder summary."""
    indices = list(lemma_indices)
    return _encode_rows(model, np.asarray([indices], dtype=np.intp), np.asarray([len(indices)]))[0]


def decode_step(model: Seq2SeqModel, char_vec, summary, morph_vec, state=None):
    """One decoder LSTM step plus output projection, for one row or a batch of rows.

    ``char_vec`` is a 64-dim character embedding (conventionally the lemma
    character aligned with this step), ``summary`` the 2H encoder summary,
    ``morph_vec`` the F-dim morphological feature vector.  Each is either
    one vector or a (B, width) array of B rows.  Returns (logits over the
    vocabulary, new (h, c) state), one row or B rows like the input.
    """
    char_vec = np.asarray(char_vec, dtype=np.float64)
    summary = np.asarray(summary, dtype=np.float64)
    morph_vec = np.asarray(morph_vec, dtype=np.float64)
    h = model.hidden_size
    if char_vec.shape[-1:] != (EMB_DIM,):
        raise ValueError(f"character embedding must have width {EMB_DIM}, got {char_vec.shape}")
    if summary.shape[-1:] != (2 * h,):
        raise ValueError(f"encoder summary must have width {2 * h}, got {summary.shape}")
    if morph_vec.shape[-1:] != (model.feature_size,):
        raise ValueError(
            f"morph vector must have width {model.feature_size}, got {morph_vec.shape}"
        )
    single = char_vec.ndim == 1
    x = np.concatenate([np.atleast_2d(char_vec), np.atleast_2d(summary), np.atleast_2d(morph_vec)], axis=1)
    if state is None:
        state = (np.zeros((x.shape[0], h)), np.zeros((x.shape[0], h)))
    h_t, c_t = _lstm_cell(model, "dec", x, np.atleast_2d(state[0]), np.atleast_2d(state[1]))[:2]
    logits = h_t @ model.params["out.w"] + model.params["out.b"]
    if single:
        return logits[0], (h_t[0], c_t[0])
    return logits, (h_t, c_t)


def _make_batch(model: Seq2SeqModel, examples, diagnostics: list[str] | None = None):
    """Pad a list of examples into index matrices for the batched loss."""
    b = len(examples)
    enc_len = np.asarray([len(ex.lemma) for ex in examples])
    dec_len = np.asarray([len(ex.target) + 1 for ex in examples])  # +1 for EOS
    max_enc = int(enc_len.max())
    max_dec = int(dec_len.max())

    enc_idx = np.zeros((b, max_enc), dtype=np.intp)
    dec_idx = np.zeros((b, max_dec), dtype=np.intp)
    targets = np.zeros((b, max_dec), dtype=np.intp)
    mask = np.zeros((b, max_dec))
    morph = np.zeros((b, model.feature_size))
    for r, ex in enumerate(examples):
        lemma_ix = model.vocab.encode(ex.lemma, diagnostics)
        target_ix = model.vocab.encode(ex.target, diagnostics) + [EOS]
        enc_idx[r, : len(lemma_ix)] = lemma_ix
        # decoder input stream: lemma character at step t, PAD afterwards
        take = min(len(lemma_ix), max_dec)
        dec_idx[r, :take] = lemma_ix[:take]
        targets[r, : len(target_ix)] = target_ix
        mask[r, : len(target_ix)] = 1.0
        morph[r] = feature_vector(ex.tag, model.inventory, diagnostics)
    return enc_idx, enc_len, dec_idx, targets, mask, morph


def _forward(model: Seq2SeqModel, examples, diagnostics: list[str] | None = None):
    """Teacher-forced batch loss and the tape that ``_backward`` reads.

    The loss is the mean over examples of each example's mean
    cross-entropy over its target characters and EOS.
    """
    enc_idx, enc_len, dec_idx, targets, mask, morph = _make_batch(model, examples, diagnostics)
    b, max_dec = targets.shape
    params = model.params
    enc_tape: list = []
    summary = _encode_rows(model, enc_idx, enc_len, enc_tape)
    inv_len = 1.0 / mask.sum(axis=1)
    d_ce = np.full(b, 1.0 / b) * inv_len  # d loss / d cross-entropy of each row
    rows = np.arange(b)
    h = c = np.zeros((b, model.hidden_size))
    dec_tape = []
    for t in range(max_dec):
        x = np.concatenate([params["emb"][dec_idx[:, t]], summary, morph], axis=1)
        h_new, c_new, gates = _lstm_cell(model, "dec", x, h, c)
        logits = h_new @ params["out.w"] + params["out.b"]
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        z = exp.sum(axis=1, keepdims=True)
        step = -(shifted[rows, targets[:, t]] - np.log(z[:, 0])) * mask[:, t]
        per_example = step if t == 0 else per_example + step
        dec_tape.append((dec_idx[:, t], x, h, c, gates, h_new, exp / z, targets[:, t], d_ce * mask[:, t]))
        h, c = h_new, c_new
    return float((per_example * inv_len).sum() * (1.0 / b)), (enc_tape, dec_tape)


def _cell_backward(model: Seq2SeqModel, prefix: str, grads: dict, x, h, c, gates, dh, dc):
    """Backward pass of one ``_lstm_cell`` call, given the gradients of its new (h, c).

    Adds the call's terms to the ``prefix`` blocks of ``grads`` and
    returns the gradients of x, h and c.
    """
    i, f, g, o, tanh_c = gates
    dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
    dz = np.concatenate(
        [
            dc * g * i * (1.0 - i),  # input gate
            dc * c * f * (1.0 - f),  # forget gate
            dc * i * (1.0 - g * g),  # cell candidate
            dh * tanh_c * o * (1.0 - o),  # output gate
        ],
        axis=1,
    )
    grads[f"{prefix}.wx"] += x.T @ dz
    grads[f"{prefix}.wh"] += h.T @ dz
    grads[f"{prefix}.b"] += dz.sum(axis=0)
    return dz @ model.params[f"{prefix}.wx"].T, dz @ model.params[f"{prefix}.wh"].T, dc * f


def _backward(model: Seq2SeqModel, tape) -> dict[str, np.ndarray]:
    """Gradients of the ``_forward`` loss for every parameter block.

    Each block adds its per-step terms in one fixed order, since another
    order changes the last bits of trained checkpoints: ``out.*`` in time
    order; the LSTM blocks and the encoder summary last step first;
    ``emb`` the decoder's steps last to first, then the forward
    encoder's, then the backward encoder's, each in reverse of the order
    it ran them.
    """
    enc_tape, dec_tape = tape
    params = model.params
    grads = {name: np.zeros_like(params[name]) for name in model.PARAM_NAMES}
    hid = model.hidden_size

    def scatter(idx, d_x):
        full = np.zeros_like(params["emb"])
        np.add.at(full, idx, d_x)  # repeated characters of a step add up in row order
        grads["emb"] += full

    d_logits = []
    for *_, h, probs, target, d_ce in dec_tape:
        d = probs.copy()  # softmax cross-entropy
        d[np.arange(len(target)), target] -= 1.0
        d = d * d_ce[:, None]
        grads["out.w"] += h.T @ d
        grads["out.b"] += d.sum(axis=0)
        d_logits.append(d)

    dh = dc = np.zeros((len(d_logits[0]), hid))
    d_summary = 0.0
    for (idx, x, h, c, gates, *_), d in zip(reversed(dec_tape), reversed(d_logits)):
        dx, dh, dc = _cell_backward(model, "dec", grads, x, h, c, gates, d @ params["out.w"].T + dh, dc)
        scatter(idx, dx[:, :EMB_DIM])
        d_summary = d_summary + dx[:, EMB_DIM : EMB_DIM + 2 * hid]

    for prefix, dh in (("enc_f", d_summary[:, :hid]), ("enc_b", d_summary[:, hid:])):
        dc = np.zeros_like(dh)
        for _, idx, x, h, c, gates, m in reversed([s for s in enc_tape if s[0] == prefix]):
            # a row past its end carried its state through this step unchanged
            dx, dh_prev, dc_prev = _cell_backward(
                model, prefix, grads, x, h, c, gates, np.where(m, dh, 0.0), np.where(m, dc, 0.0)
            )
            dh, dc = dh_prev + np.where(m, 0.0, dh), dc_prev + np.where(m, 0.0, dc)
            scatter(idx, dx)
    return grads


def loss(model: Seq2SeqModel, example: TrainExample, diagnostics: list[str] | None = None) -> float:
    """Mean per-position cross-entropy of the gold target (with EOS) for one example."""
    if not example.lemma:
        raise ValueError("empty input")
    return _forward(model, [example], diagnostics)[0]


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
    clip_norm: float = 5.0,
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
    snapshot = {n: p.copy() for n, p in params.items()}
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
            _clip_gradients(grads, clip_norm)
            step += 1
            bias1 = 1.0 - beta1**step
            bias2 = 1.0 - beta2**step
            for name, p in params.items():
                g = grads[name]
                m_state[name] = beta1 * m_state[name] + (1.0 - beta1) * g
                v_state[name] = beta2 * v_state[name] + (1.0 - beta2) * g * g
                p -= lr * (m_state[name] / bias1) / (np.sqrt(v_state[name] / bias2) + eps)
            epoch_losses.append(batch_loss)
        if diverged:
            params.update(snapshot)
            if log is not None:
                log(f"epoch {epoch + 1}: loss diverged, rolled back to last checkpoint")
            break
        mean_loss = float(np.mean(epoch_losses))
        trace.append(mean_loss)
        snapshot = {n: p.copy() for n, p in params.items()}
        if log is not None:
            log(f"epoch {epoch + 1}/{epochs}: loss {mean_loss:.6f}")
    model.check_finite()
    return model, trace


def _decode_chunk(model: Seq2SeqModel, pairs) -> list[str]:
    """Greedy decodes of a list of (lemma, tag) pairs, all rows at once."""
    rows = [model.vocab.encode(lemma) for lemma, _ in pairs]
    lengths = np.asarray([len(r) for r in rows])
    # one index row per pair serves both stages: the encoder reads its
    # first len(lemma) entries, the decoder reads entry t at step t (PAD
    # past the lemma's end)
    longest = int(lengths.max())
    idx = np.full((len(rows), max(longest, model.max_len)), PAD, dtype=np.intp)
    for r, row in enumerate(rows):
        idx[r, : len(row)] = row
    summary = _encode_rows(model, idx[:, :longest], lengths)
    morph = np.stack([feature_vector(tag, model.inventory) for _, tag in pairs])
    emb = model.params["emb"]

    out: list[list[str]] = [[] for _ in pairs]
    live = np.arange(len(pairs))  # rows that have not emitted EOS yet
    state = None
    for t in range(model.max_len):
        logits, state = decode_step(model, emb[idx[live, t]], summary[live], morph[live], state)
        logits[:, [PAD, BOS, UNK]] = -np.inf  # reserved characters are never emitted
        best = np.argmax(logits, axis=1)
        going = best != EOS
        live, best = live[going], best[going]
        for r, ix in zip(live.tolist(), best.tolist()):
            out[r].append(model.vocab.chars[ix])
        if not live.size:
            break
        state = (state[0][going], state[1][going])
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
    and types that ``save_model`` writes, or the file does not hold
    exactly the blocks, in the shapes, that its header's vocabulary,
    inventory and hidden size imply.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_CHECKPOINT_MAGIC))
        if magic != _CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a reinflector checkpoint")
        header = json.loads(fh.readline().decode("utf-8"))
        _check_header(path, header)
        if header["emb_dim"] != EMB_DIM:
            raise ValueError(f"{path}: embedding width {header['emb_dim']} differs from {EMB_DIM}")
        vocab = CharVocab(tuple(header["chars"]))
        shapes = Seq2SeqModel.shapes(len(vocab), len(header["inventory"]), header["hidden_size"])
        names = [name for name, _ in header["params"]]
        if names != list(Seq2SeqModel.PARAM_NAMES):
            raise ValueError(f"{path}: parameter blocks {names} are not {list(Seq2SeqModel.PARAM_NAMES)}")
        params = {}
        for name, shape in header["params"]:
            expected = shapes[name]
            if tuple(shape) != expected:
                raise ValueError(f"{path}: parameter block {name!r} has shape {tuple(shape)}, expected {expected}")
            count = int(np.prod(shape))
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise ValueError(f"{path}: truncated parameter block {name!r}")
            params[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise ValueError(f"{path}: unexpected bytes after the last parameter block")
    return Seq2SeqModel(vocab, header["inventory"], header["hidden_size"], header["max_len"], params)
