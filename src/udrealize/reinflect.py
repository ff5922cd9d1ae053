"""Character-level encoder-decoder that inflects lemmas into surface forms.

A bidirectional LSTM reads the lemma's character embeddings; its final
states summarize the word.  The decoder LSTM consumes, per step, the
embedding of the lemma character aligned with that step (padding index 0
past the lemma's end), the encoder summary, and the binary morphological
feature vector, then a softmax layer predicts the output character.

Training runs on the package's own float64 autodiff kernel; no external
ML framework is involved, which keeps gradient checks exact and
checkpoints bit-reproducible.  Inference builds no graph: ``predict_many``
runs the same LSTM formula on plain numpy arrays, decoding each distinct
(lemma, tag) pair once, many pairs at a time, and ``predict`` is its
one-pair case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
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
        hidden_size: int = 128,
        max_len: int = 40,
        seed: int = 0,
    ):
        self.vocab = vocab
        self.inventory = tuple(inventory)
        self.hidden_size = hidden_size
        self.max_len = max_len
        h = hidden_size
        v = len(vocab)
        f = len(self.inventory)
        dec_in = EMB_DIM + 2 * h + f
        rng = np.random.default_rng(seed)
        k = 1.0 / np.sqrt(h)
        shapes = {
            "emb": (v, EMB_DIM),
            "enc_f.wx": (EMB_DIM, 4 * h), "enc_f.wh": (h, 4 * h), "enc_f.b": (4 * h,),
            "enc_b.wx": (EMB_DIM, 4 * h), "enc_b.wh": (h, 4 * h), "enc_b.b": (4 * h,),
            "dec.wx": (dec_in, 4 * h), "dec.wh": (h, 4 * h), "dec.b": (4 * h,),
            "out.w": (h, v), "out.b": (v,),
        }
        self.params: dict[str, Tensor] = {
            name: ad.parameter(shapes[name], rng=rng, scale=k) for name in self.PARAM_NAMES
        }

    @property
    def feature_size(self) -> int:
        return len(self.inventory)

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def check_finite(self) -> None:
        for name, p in self.params.items():
            if not np.all(np.isfinite(p.data)):
                raise GradientError(f"non-finite values in parameter block {name!r}")


def _lstm_step(prefix: str, params: dict[str, Tensor], x: Tensor, h: Tensor, c: Tensor):
    hid = params[f"{prefix}.wh"].data.shape[0]
    z = ad.add(ad.add(ad.matmul(x, params[f"{prefix}.wx"]), ad.matmul(h, params[f"{prefix}.wh"])), params[f"{prefix}.b"])
    i = ad.sigmoid(ad.cols(z, 0, hid))
    f = ad.sigmoid(ad.cols(z, hid, 2 * hid))
    g = ad.tanh(ad.cols(z, 2 * hid, 3 * hid))
    o = ad.sigmoid(ad.cols(z, 3 * hid, 4 * hid))
    c_new = ad.add(ad.mul(f, c), ad.mul(i, g))
    h_new = ad.mul(o, ad.tanh(c_new))
    return h_new, c_new


def _masked(new: Tensor, old: Tensor, mask: np.ndarray) -> Tensor:
    # mask is (B, 1) of 0/1: rows past their sequence end keep the old state
    return ad.add(ad.mul(new, mask), ad.mul(old, 1.0 - mask))


def _encode_batch(model: Seq2SeqModel, idx: np.ndarray, lengths: np.ndarray) -> Tensor:
    """Run both encoder directions over padded index rows; returns the (B, 2H) summary."""
    b, max_t = idx.shape
    h = model.hidden_size
    params = model.params
    zero = Tensor(np.zeros((b, h)))

    hf, cf = zero, zero
    for t in range(max_t):
        x = ad.rows(params["emb"], idx[:, t])
        hn, cn = _lstm_step("enc_f", params, x, hf, cf)
        m = (t < lengths).astype(np.float64)[:, None]
        hf, cf = _masked(hn, hf, m), _masked(cn, cf, m)

    hb, cb = zero, zero
    for t in range(max_t - 1, -1, -1):
        x = ad.rows(params["emb"], idx[:, t])
        hn, cn = _lstm_step("enc_b", params, x, hb, cb)
        m = (t < lengths).astype(np.float64)[:, None]
        hb, cb = _masked(hn, hb, m), _masked(cn, cb, m)

    return ad.concat([hf, hb], axis=1)


def _lstm_cell(model: Seq2SeqModel, prefix: str, x: np.ndarray, h: np.ndarray, c: np.ndarray):
    """``_lstm_step`` on plain arrays: the same formula, evaluated in the same order."""
    params = model.params
    hid = h.shape[1]
    z = x @ params[f"{prefix}.wx"].data + h @ params[f"{prefix}.wh"].data + params[f"{prefix}.b"].data
    i = ad.logistic(z[:, 0:hid])
    f = ad.logistic(z[:, hid : 2 * hid])
    g = np.tanh(z[:, 2 * hid : 3 * hid])
    o = ad.logistic(z[:, 3 * hid : 4 * hid])
    c_new = f * c + i * g
    h_new = o * np.tanh(c_new)
    return h_new, c_new


def _encode_rows(model: Seq2SeqModel, idx: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Graph-free ``_encode_batch``: the (B, 2H) summary of padded index rows."""
    if not np.all(lengths > 0):
        raise ValueError("empty input")
    b, max_t = idx.shape
    emb = model.params["emb"].data
    zero = np.zeros((b, model.hidden_size))

    hf, cf = zero, zero
    for t in range(max_t):
        hn, cn = _lstm_cell(model, "enc_f", emb[idx[:, t]], hf, cf)
        m = (t < lengths)[:, None]  # rows past their end keep the old state
        hf, cf = np.where(m, hn, hf), np.where(m, cn, cf)

    hb, cb = zero, zero
    for t in range(max_t - 1, -1, -1):
        hn, cn = _lstm_cell(model, "enc_b", emb[idx[:, t]], hb, cb)
        m = (t < lengths)[:, None]
        hb, cb = np.where(m, hn, hb), np.where(m, cn, cb)

    return np.concatenate([hf, hb], axis=1)


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
    h_t, c_t = _lstm_cell(model, "dec", x, np.atleast_2d(state[0]), np.atleast_2d(state[1]))
    logits = h_t @ model.params["out.w"].data + model.params["out.b"].data
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


def _batch_loss(model: Seq2SeqModel, examples, diagnostics: list[str] | None = None) -> Tensor:
    """Mean over examples of the per-example mean cross-entropy (teacher forced)."""
    enc_idx, enc_len, dec_idx, targets, mask, morph = _make_batch(model, examples, diagnostics)
    b, max_dec = targets.shape
    params = model.params
    summary = _encode_batch(model, enc_idx, enc_len)
    morph_t = Tensor(morph)

    h = Tensor(np.zeros((b, model.hidden_size)))
    c = Tensor(np.zeros((b, model.hidden_size)))
    per_example = None
    for t in range(max_dec):
        x_char = ad.rows(params["emb"], dec_idx[:, t])
        x = ad.concat([x_char, summary, morph_t], axis=1)
        h, c = _lstm_step("dec", params, x, h, c)
        logits = ad.add(ad.matmul(h, params["out.w"]), params["out.b"])
        ce = ad.softmax_cross_entropy(logits, targets[:, t])
        step = ad.mul(ce, mask[:, t])
        per_example = step if per_example is None else ad.add(per_example, step)
    per_example = ad.mul(per_example, 1.0 / mask.sum(axis=1))
    return ad.scale(ad.sum_all(per_example), 1.0 / b)


def loss(model: Seq2SeqModel, example: TrainExample, diagnostics: list[str] | None = None) -> float:
    """Mean per-position cross-entropy of the gold target (with EOS) for one example."""
    if not example.lemma:
        raise ValueError("empty input")
    return float(_batch_loss(model, [example], diagnostics).data)


def grad(model: Seq2SeqModel, batch) -> dict[str, np.ndarray]:
    """Gradient of the batch loss for every parameter block."""
    if not batch:
        raise ValueError("empty batch")
    model.zero_grads()
    out = _batch_loss(model, list(batch))
    ad.backward(out)
    grads: dict[str, np.ndarray] = {}
    for name, p in model.params.items():
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise GradientError(f"non-finite gradient in parameter block {name!r}")
        grads[name] = g.copy()
    return grads


def _clip_gradients(model: Seq2SeqModel, max_norm: float) -> None:
    total = 0.0
    for p in model.params.values():
        if p.grad is not None:
            total += float((p.grad * p.grad).sum())
    norm = np.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        for p in model.params.values():
            if p.grad is not None:
                p.grad *= factor


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
    m_state = {n: np.zeros_like(p.data) for n, p in model.params.items()}
    v_state = {n: np.zeros_like(p.data) for n, p in model.params.items()}
    step = 0
    trace: list[float] = []
    snapshot = {n: p.data.copy() for n, p in model.params.items()}
    for epoch in range(epochs):
        order = rng.permutation(len(data))
        epoch_losses: list[float] = []
        diverged = False
        for start in range(0, len(data), batch_size):
            batch = [data[i] for i in order[start : start + batch_size]]
            model.zero_grads()
            out = _batch_loss(model, batch)
            batch_loss = float(out.data)
            if not np.isfinite(batch_loss):
                diverged = True
                break
            ad.backward(out)
            _clip_gradients(model, clip_norm)
            step += 1
            bias1 = 1.0 - beta1**step
            bias2 = 1.0 - beta2**step
            for name, p in model.params.items():
                g = p.grad if p.grad is not None else np.zeros_like(p.data)
                m_state[name] = beta1 * m_state[name] + (1.0 - beta1) * g
                v_state[name] = beta2 * v_state[name] + (1.0 - beta2) * g * g
                p.data -= lr * (m_state[name] / bias1) / (np.sqrt(v_state[name] / bias2) + eps)
            epoch_losses.append(batch_loss)
        if diverged:
            for name, p in model.params.items():
                p.data = snapshot[name].copy()
            if log is not None:
                log(f"epoch {epoch + 1}: loss diverged, rolled back to last checkpoint")
            break
        mean_loss = float(np.mean(epoch_losses))
        trace.append(mean_loss)
        snapshot = {n: p.data.copy() for n, p in model.params.items()}
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
    emb = model.params["emb"].data

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
    return Seq2SeqModel(vocab, inventory, hidden_size=hidden_size, max_len=max_len, seed=seed)


def save_model(model: Seq2SeqModel, path) -> None:
    """Write a bit-reproducible checkpoint (JSON header + raw float64 blocks)."""
    header = {
        "chars": list(model.vocab.chars),
        "inventory": list(model.inventory),
        "hidden_size": model.hidden_size,
        "max_len": model.max_len,
        "emb_dim": EMB_DIM,
        "params": [[name, list(model.params[name].data.shape)] for name in model.PARAM_NAMES],
    }
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        for name in model.PARAM_NAMES:
            fh.write(np.ascontiguousarray(model.params[name].data, dtype="<f8").tobytes())


def load_model(path) -> Seq2SeqModel:
    """Read a checkpoint written by ``save_model``.

    Raises ValueError when the file does not hold exactly the blocks, in
    the shapes, that its header's vocabulary, inventory and hidden size
    imply.
    """
    with open(path, "rb") as fh:
        magic = fh.read(len(_CHECKPOINT_MAGIC))
        if magic != _CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a reinflector checkpoint")
        header = json.loads(fh.readline().decode("utf-8"))
        if header["emb_dim"] != EMB_DIM:
            raise ValueError(f"{path}: embedding width {header['emb_dim']} differs from {EMB_DIM}")
        model = Seq2SeqModel(
            CharVocab(tuple(header["chars"])),
            tuple(header["inventory"]),
            hidden_size=header["hidden_size"],
            max_len=header["max_len"],
        )
        names = [name for name, _ in header["params"]]
        if names != list(model.PARAM_NAMES):
            raise ValueError(f"{path}: parameter blocks {names} are not {list(model.PARAM_NAMES)}")
        for name, shape in header["params"]:
            expected = model.params[name].data.shape
            if tuple(shape) != expected:
                raise ValueError(f"{path}: parameter block {name!r} has shape {tuple(shape)}, expected {expected}")
            count = int(np.prod(shape))
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise ValueError(f"{path}: truncated parameter block {name!r}")
            model.params[name].data = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
        if fh.read(1):
            raise ValueError(f"{path}: unexpected bytes after the last parameter block")
    return model
