import json

import numpy as np
import pytest

from udrealize import reinflect as rf
from udrealize.morphmap import MorphTag, feature_vector
from udrealize.reinflect import (
    BOS,
    EMB_DIM,
    EOS,
    PAD,
    UNK,
    CharVocab,
    GradientError,
    TrainExample,
    build_model,
    grad,
    load_model,
    load_training_file,
    predict,
    predict_many,
    save_model,
    train,
)

N_TAG = MorphTag(("N",))
PL_TAG = MorphTag(("N", "PL"))


def _lstm(p, prefix, x, state):
    """One LSTM step on 1-D vectors, written independently of ``rf._lstm_cell``."""
    hp, cp = state
    h = hp.shape[0]
    z = x @ p[f"{prefix}.wx"] + hp @ p[f"{prefix}.wh"] + p[f"{prefix}.b"]
    i = 1 / (1 + np.exp(-z[0:h]))
    f = 1 / (1 + np.exp(-z[h : 2 * h]))
    g = np.tanh(z[2 * h : 3 * h])
    o = 1 / (1 + np.exp(-z[3 * h : 4 * h]))
    c = f * cp + i * g
    return o * np.tanh(c), c


def _oracle_summary(p, lemma_ix):
    """Both encoder directions over one lemma with ``_lstm``: the (2H,) summary."""
    zero = np.zeros(p["enc_f.wh"].shape[0])
    hf = cf = hb = cb = zero
    for ix in lemma_ix:
        hf, cf = _lstm(p, "enc_f", p["emb"][ix], (hf, cf))
    for ix in reversed(lemma_ix):
        hb, cb = _lstm(p, "enc_b", p["emb"][ix], (hb, cb))
    return np.concatenate([hf, hb])


def tiny_model(hidden=3, seed=0, examples=None):
    examples = examples or [
        TrainExample("ab", PL_TAG, "abs"),
        TrainExample("cde", N_TAG, "cde"),
    ]
    return build_model(examples, hidden_size=hidden, max_len=12, seed=seed), examples


# -------------------------------------------------------------------- vocab

def test_char_vocab_reserved_layout():
    vocab = CharVocab.build(["ba"])
    assert vocab.chars[:4] == ("<pad>", "<bos>", "<eos>", "<unk>")
    assert (PAD, BOS, EOS, UNK) == (0, 1, 2, 3)
    assert vocab.encode("a?") == [4, UNK]


def test_char_vocab_encode_counts_unknown():
    vocab = CharVocab.build(["ab"])
    diags = []
    assert vocab.encode("axb", diags) == [4, UNK, 5]
    assert len(diags) == 1


# --------------------------------------------------------------------- cell

def test_logistic_matches_split_formula_bitwise():
    # reference: exp of -x on the non-negative part, of x on the rest
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.standard_normal(500) * s for s in (0.1, 1.0, 10.0, 800.0)])
    x = np.concatenate([x, [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324]])
    expected = np.empty_like(x)
    pos = x >= 0
    expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    expected[~pos] = ex / (1.0 + ex)
    got = rf.logistic(x)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    # a column slice of a 2-D block, as _lstm_cell passes its gate pre-activations
    z = rng.standard_normal((217, 4 * 128)) * 8.0
    gate = z[:, 128:256]
    got = rf.logistic(gate)
    expected = np.where(gate >= 0, 1.0 / (1.0 + np.exp(-np.abs(gate))), 0.0)
    neg = gate < 0
    expected[neg] = np.exp(gate[neg]) / (1.0 + np.exp(gate[neg]))
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


# ------------------------------------------------------------------- encode

def _encode(model, indices):
    """The (2H,) encoder summary of one index sequence."""
    return rf._encode_rows(model, np.asarray([indices], dtype=np.intp), np.asarray([len(indices)]))[0]


def test_encode_shapes():
    model, _ = tiny_model()
    assert _encode(model, model.vocab.encode("a")).shape == (2 * model.hidden_size,)
    assert _encode(model, model.vocab.encode("abcde")).shape == (2 * model.hidden_size,)


def test_encode_empty_errors():
    model, _ = tiny_model()
    with pytest.raises(ValueError, match="empty input"):
        _encode(model, [])


def _index_matrix(model, words):
    rows = [model.vocab.encode(w) for w in words]
    lengths = np.array([len(row) for row in rows])
    return rf._index_rows(rows, lengths.max()), lengths


def test_untaped_encoder_summary_equals_the_taped_one():
    # without a tape each step steps only the rows whose input reaches it;
    # the summary must be the all-rows one that _forward builds, bit for bit
    model, _ = tiny_model(hidden=16, seed=7)
    idx, lengths = _index_matrix(model, ["a", "abcde", "cd", "ebadcbae", "b", "dcd", "bcdeab"])
    untaped = rf._encode_rows(model, idx, lengths)
    x, live = model.params["emb"][idx.T], (np.arange(idx.shape[1])[:, None] < lengths)[:, :, None]
    runs = [rf._run_taped(model, p, idx.T[::d], x[::d], live[::d]) for p, d in (("enc_f", 1), ("enc_b", -1))]
    taped = np.concatenate([runs[0].hs[-1], runs[1].hs[-1]], axis=1)
    assert np.array_equal(untaped.view(np.int64), taped.view(np.int64))


@pytest.mark.parametrize(
    "words",
    [
        ["a", "cd", "dcd", "abcde", "bcdeab", "ebadcbae"],  # shortest first
        ["ebadcbae", "b", "dcd", "abcde", "a", "cd", "bcdeab"],
        ["abc", "cde", "bad", "dab", "eca", "ace", "bee", "cab", "dcb"],  # every row of one length
        ["ab", "ebadcbae", "cd", "ba", "abcde", "dc", "ebadcbae", "b", "bcdeab", "ed"],  # equal lengths among others
    ],
)
def test_encoder_gives_every_row_its_bits_alone_in_any_order(words):
    # the encoder steps its rows longest first and puts the summary back in input order
    model, _ = tiny_model(hidden=16, seed=7)
    idx, lengths = _index_matrix(model, words)
    summary = rf._encode_rows(model, idx, lengths)
    for word, row in zip(words, summary):
        assert np.array_equal(row.view(np.int64), _encode(model, model.vocab.encode(word)).view(np.int64))


def test_encode_mirrored_weights_reverse_input():
    # swapping the direction parameters and reversing the input must give the
    # channel-swapped summary
    model, examples = tiny_model(seed=5)
    mirrored, _ = tiny_model(seed=5, examples=examples)
    for a, b in (("enc_f", "enc_b"), ("enc_b", "enc_f")):
        for part in ("wx", "wh", "b"):
            mirrored.params[f"{a}.{part}"] = model.params[f"{b}.{part}"].copy()

    seq = model.vocab.encode("abcde")
    summary = _encode(model, seq)
    rev_summary = _encode(mirrored, seq[::-1])
    h = model.hidden_size
    assert np.allclose(rev_summary, np.concatenate([summary[h:], summary[:h]]), atol=1e-12)


def test_decoder_input_width_invariant():
    model, _ = tiny_model(hidden=4)
    assert model.params["dec.wx"].shape[0] == 64 + 2 * 4 + model.feature_size


# ---------------------------------------------------------- greedy decoding

def _zero_model():
    model, _ = tiny_model()
    for p in model.params.values():
        p[:] = 0.0
    return model


_ZERO_MODEL_PAIRS = [("ab", PL_TAG), ("cde", N_TAG), ("a", N_TAG), ("q!", PL_TAG)]


def test_predict_many_zero_model_decodes_empty():
    # every logit ties and PAD and BOS are masked, so EOS is the first
    # character that may be emitted, in a batch and alone
    model = _zero_model()
    assert predict_many(model, _ZERO_MODEL_PAIRS) == [""] * len(_ZERO_MODEL_PAIRS)
    assert predict(model, "ab", PL_TAG) == ""


def test_decoder_index_does_not_grow_with_max_len():
    # the decoder's index is one PAD column wider than the longest lemma,
    # whatever max_len says: one max_len wide would need 8 PB here
    model = _zero_model()
    model.max_len = 10**15
    assert predict_many(model, _ZERO_MODEL_PAIRS) == [""] * len(_ZERO_MODEL_PAIRS)


def test_predict_many_output_bias_fills_max_len():
    model = _zero_model()
    model.params["out.b"][4] = 10.0
    form = model.vocab.chars[4] * model.max_len
    assert predict_many(model, _ZERO_MODEL_PAIRS) == [form] * len(_ZERO_MODEL_PAIRS)
    assert predict(model, "ab", PL_TAG) == form


# --------------------------------------------------------------------- loss

def _loss(model, example):
    """The teacher-forced loss of one example."""
    return rf._forward(model, [example])[0]


def test_loss_uniform_model_is_log_vocab():
    model, examples = tiny_model()
    for p in model.params.values():
        p[:] = 0.0
    assert _loss(model, examples[0]) == pytest.approx(np.log(len(model.vocab)), abs=1e-12)


def test_loss_zero_for_certain_decoder():
    # hand-built model that assigns probability one to each gold character of
    # lemma "a" -> target "a": the decoder sees emb("a") then emb(PAD), and a
    # huge output projection picks "a" then EOS accordingly
    example = TrainExample("a", N_TAG, "a")
    model = build_model([example], hidden_size=1, max_len=8, seed=0)
    for p in model.params.values():
        p[:] = 0.0
    [a_ix] = model.vocab.encode("a")
    model.params["emb"][a_ix, 0] = 1.0
    model.params["emb"][PAD, 0] = -1.0
    # decoder gates driven hard by input channel 0: i, f, g saturate with x0
    model.params["dec.wx"][0, 0] = 50.0  # input gate
    model.params["dec.wx"][0, 1] = 50.0  # forget gate
    model.params["dec.wx"][0, 2] = 50.0  # cell candidate
    big = 20000.0
    model.params["out.w"][0, a_ix] = big
    model.params["out.w"][0, EOS] = -big
    model.params["out.b"][a_ix] = -0.19 * big
    model.params["out.b"][EOS] = 0.19 * big
    assert _loss(model, example) == 0.0
    assert predict(model, "a", N_TAG) == "a"


def test_loss_matches_independent_forward_oracle():
    # straight-line numpy forward pass, written independently of reinflect
    model, examples = tiny_model(hidden=2, seed=4)
    example = examples[0]
    p = model.params
    h = model.hidden_size
    lemma_ix = model.vocab.encode(example.lemma)
    summary = _oracle_summary(p, lemma_ix)
    morph = feature_vector(example.tag, model.inventory)
    target_ix = model.vocab.encode(example.target) + [EOS]
    hd = cd = np.zeros(h)
    total = 0.0
    for t, gold in enumerate(target_ix):
        char = p["emb"][lemma_ix[t]] if t < len(lemma_ix) else p["emb"][PAD]
        x = np.concatenate([char, summary, morph])
        hd, cd = _lstm(p, "dec", x, (hd, cd))
        logits = hd @ p["out.w"] + p["out.b"]
        shifted = logits - logits.max()
        total += -(shifted[gold] - np.log(np.exp(shifted).sum()))
    expected = total / len(target_ix)
    assert _loss(model, example) == pytest.approx(expected, abs=1e-12)


def test_loss_maps_oov_chars_to_unk():
    model, _ = tiny_model()
    example = TrainExample("aZb", N_TAG, "ab")
    assert np.isfinite(_loss(model, example))
    a, b = model.vocab.encode("ab")
    assert rf._make_batch(model, [example])[0].tolist() == [[a, UNK, b]]  # the lemma row


# --------------------------------------------------------------------- grad

def test_grad_unused_embedding_rows_are_zero():
    model, _ = tiny_model()
    batch = [TrainExample("ab", PL_TAG, "ab")]
    g = grad(model, batch)
    used = set(model.vocab.encode("ab")) | {PAD, EOS}
    for ix in range(len(model.vocab)):
        row = g["emb"][ix]
        if ix in used:
            continue
        assert np.allclose(row, 0.0), f"row {ix} should be untouched"


def relative_grad_error(model, examples, analytic, name, index, eps=1e-5):
    """Central-difference check of one scalar parameter.

    The 1e-6 denominator floor keeps finite-difference roundoff (about
    1e-11 in the loss at this epsilon) from dominating entries whose true
    gradient is itself tiny.
    """
    flat = model.params[name].reshape(-1)
    old = flat[index]
    flat[index] = old + eps
    up = rf._forward(model, examples)[0]
    flat[index] = old - eps
    down = rf._forward(model, examples)[0]
    flat[index] = old
    fd = (up - down) / (2 * eps)
    an = analytic[name].reshape(-1)[index]
    return abs(fd - an) / max(abs(fd), abs(an), 1e-6)


FD_BATCHES = [
    [TrainExample("ab", PL_TAG, "abs"), TrainExample("ba", N_TAG, "ba")],
    # lemma and target lengths both differ: the encoder carries the short
    # row's state through masked steps, and the decoder mask drops its
    # steps past EOS
    [TrainExample("abc", PL_TAG, "abcs"), TrainExample("b", N_TAG, "b")],
]


@pytest.mark.parametrize("examples", FD_BATCHES, ids=["equal-lengths", "masked-lengths"])
def test_grad_finite_difference_all_parameters(examples):
    # small-model exhaustive check: every scalar parameter against central
    # differences
    model = build_model(examples, hidden_size=2, max_len=8, seed=3)
    analytic = grad(model, examples)
    worst = 0.0
    for name, block in model.params.items():
        for i in range(block.size):
            worst = max(worst, relative_grad_error(model, examples, analytic, name, i))
    assert worst < 1e-4, f"worst relative error {worst}"


def _oracle_backward(model, tape):
    """The gradient of ``rf._forward``'s loss, step by step, from its tape.

    Each step's terms are added to every block one step at a time:
    ``out.*`` in time order, then the decoder and both encoder directions
    last step first, each step's embedding gradient scattered on its own.
    """
    runs, d_logits = tape
    p = model.params
    hid = model.hidden_size
    grads = {name: np.zeros_like(p[name]) for name in model.PARAM_NAMES}

    def cell_backward(prefix, x, h, c, gates, dh, dc):
        i, f, g, o, tanh_c = gates
        dc = dc + dh * o * (1.0 - tanh_c * tanh_c)
        dz = np.concatenate(
            [dc * g * i * (1.0 - i), dc * c * f * (1.0 - f), dc * i * (1.0 - g * g), dh * tanh_c * o * (1.0 - o)],
            axis=1,
        )
        grads[f"{prefix}.wx"] += x.T @ dz
        grads[f"{prefix}.wh"] += h.T @ dz
        grads[f"{prefix}.b"] += dz.sum(axis=0)
        return dz @ p[f"{prefix}.wx"].T, dz @ p[f"{prefix}.wh"].T, dc * f

    def scatter(idx, d_x):
        full = np.zeros_like(p["emb"])
        np.add.at(full, idx, d_x)
        grads["emb"] += full

    encoder, (_, dec_idx, dec_x, dec_hs, dec_cs, dec_gates, _) = runs[:2], runs[2]
    steps, b, _ = d_logits.shape
    for t in range(steps):
        grads["out.w"] += dec_hs[t + 1].T @ d_logits[t]
        grads["out.b"] += d_logits[t].sum(axis=0)
    dh = dc = np.zeros((b, hid))
    d_summary = 0.0
    for t in reversed(range(steps)):
        dx, dh, dc = cell_backward(
            "dec", dec_x[t], dec_hs[t], dec_cs[t], dec_gates[t], d_logits[t] @ p["out.w"].T + dh, dc
        )
        scatter(dec_idx[t], dx[:, :EMB_DIM])
        d_summary = d_summary + dx[:, EMB_DIM : EMB_DIM + 2 * hid]
    for (prefix, idx, x, hs, cs, gates, live), dh in zip(encoder, (d_summary[:, :hid], d_summary[:, hid:])):
        dc = np.zeros_like(dh)
        for t in reversed(range(len(gates))):
            m = live[t]  # a row past its end carried its state through this step unchanged
            dx, dh_prev, dc_prev = cell_backward(
                prefix, x[t], hs[t], cs[t], gates[t], np.where(m, dh, 0.0), np.where(m, dc, 0.0)
            )
            dh, dc = dh_prev + np.where(m, 0.0, dh), dc_prev + np.where(m, 0.0, dc)
            scatter(idx[t], dx)
    return grads


def _synth_batch():
    from _synth import make_dataset

    train_set, _ = make_dataset(seed=8, per_class=20)
    return build_model(train_set, hidden_size=16, max_len=12, seed=8), train_set[:32]


@pytest.mark.parametrize(
    "case",
    [
        lambda: (build_model(FD_BATCHES[0], hidden_size=2, max_len=8, seed=3), FD_BATCHES[0]),
        lambda: (build_model(FD_BATCHES[1], hidden_size=2, max_len=8, seed=3), FD_BATCHES[1]),
        _synth_batch,
    ],
    ids=["equal-lengths", "masked-lengths", "synth-32"],
)
def test_stacked_gradient_matches_per_step_oracle(case):
    # the two differ only in the order of their float sums; an entry that
    # cancels to near zero is held to 1e-12 of its block's largest entry
    model, examples = case()
    tape = rf._forward(model, examples)[1]
    stacked, oracle = rf._backward(model, tape), _oracle_backward(model, tape)
    assert list(stacked) == list(model.PARAM_NAMES)
    for name in model.PARAM_NAMES:
        scale = np.abs(oracle[name]).max()
        np.testing.assert_allclose(stacked[name], oracle[name], rtol=1e-12, atol=1e-12 * scale, err_msg=name)


def test_training_on_the_per_step_oracle_stays_with_the_stacked_run(monkeypatch):
    from _synth import make_dataset

    train_set, _ = make_dataset(seed=9, per_class=30)
    stacked = build_model(train_set, hidden_size=16, max_len=12, seed=9)
    stacked, stacked_trace = train(stacked, train_set, epochs=2, lr=5e-3, seed=9, batch_size=32)
    monkeypatch.setattr(rf, "_backward", _oracle_backward)
    per_step = build_model(train_set, hidden_size=16, max_len=12, seed=9)
    per_step, per_step_trace = train(per_step, train_set, epochs=2, lr=5e-3, seed=9, batch_size=32)
    assert np.allclose(stacked_trace, per_step_trace, rtol=0, atol=1e-10)
    for name in stacked.PARAM_NAMES:
        assert np.abs(stacked.params[name] - per_step.params[name]).max() < 1e-10, name


def test_grad_duplicated_batch_equals_single():
    model, examples = tiny_model(seed=6)
    single = grad(model, [examples[0]])
    doubled = grad(model, [examples[0], examples[0]])
    for name in single:
        assert np.allclose(single[name], doubled[name], rtol=1e-12, atol=1e-14)


def test_grad_empty_batch_errors():
    model, _ = tiny_model()
    with pytest.raises(ValueError):
        grad(model, [])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grad_error_names_broken_block():
    model, examples = tiny_model()
    model.params["out.w"][0, 0] = np.inf
    with pytest.raises(GradientError, match="block"):
        grad(model, examples)


# -------------------------------------------------------------------- train

def test_train_overfits_single_example():
    example = TrainExample("walk", MorphTag(("V", "PST")), "walked")
    model = build_model([example], hidden_size=16, max_len=10, seed=0)
    model, trace = train(model, [example], epochs=200, lr=1e-2, seed=0, batch_size=1)
    assert trace[-1] < 0.01
    assert predict(model, "walk", MorphTag(("V", "PST"))) == "walked"


def test_train_copy_task_generalizes():
    from _synth import identity_words

    words = identity_words(seed=21, count=200)
    data = [TrainExample(w, N_TAG, w) for w in words]
    train_set, held = data[:170], data[170:]
    model = build_model(data, hidden_size=32, max_len=16, seed=3)
    model, trace = train(model, train_set, epochs=30, lr=5e-3, seed=3, batch_size=16)
    accuracy = sum(predict(model, ex.lemma, ex.tag) == ex.target for ex in held) / len(held)
    assert accuracy == 1.0


def test_train_is_seed_deterministic():
    _, examples = tiny_model()
    m1 = build_model(examples, hidden_size=8, max_len=8, seed=7)
    m2 = build_model(examples, hidden_size=8, max_len=8, seed=7)
    _, trace1 = train(m1, examples, epochs=3, lr=1e-3, seed=1, batch_size=2)
    _, trace2 = train(m2, examples, epochs=3, lr=1e-3, seed=1, batch_size=2)
    assert trace1 == trace2
    for name in m1.params:
        assert np.array_equal(m1.params[name], m2.params[name])


def test_train_loss_decreases_over_first_epochs():
    rng = np.random.default_rng(13)
    chars = "abcdef"
    data = [
        TrainExample(w, N_TAG, w + "s")
        for w in {"".join(rng.choice(list(chars), size=4)) for _ in range(30)}
    ]
    model = build_model(data, hidden_size=16, max_len=10, seed=2)
    _, trace = train(model, data, epochs=5, lr=1e-3, seed=2, batch_size=8)
    assert all(b < a for a, b in zip(trace, trace[1:])), trace


def test_train_requires_data():
    model, _ = tiny_model()
    with pytest.raises(ValueError):
        train(model, [])


def test_train_rolls_back_on_divergence(monkeypatch):
    examples = [
        TrainExample("ab", PL_TAG, "abs"),
        TrainExample("ba", N_TAG, "ba"),
        TrainExample("aa", N_TAG, "aa"),
        TrainExample("bb", PL_TAG, "bbs"),
    ]
    # clean single-epoch run: the state divergence must roll back to
    clean = build_model(examples, hidden_size=4, max_len=8, seed=0)
    clean, _ = train(clean, examples, epochs=1, lr=1e-3, seed=5, batch_size=2)

    model = build_model(examples, hidden_size=4, max_len=8, seed=0)
    real_forward = rf._forward
    calls = {"n": 0}

    def poisoned(model_, batch):
        calls["n"] += 1
        if calls["n"] > 2:  # two batches per epoch: blow up in epoch 2
            return float("nan"), None
        return real_forward(model_, batch)

    monkeypatch.setattr(rf, "_forward", poisoned)
    model, trace = train(model, examples, epochs=3, lr=1e-3, seed=5, batch_size=2)
    monkeypatch.undo()

    assert len(trace) == 1  # only the finished epoch is recorded
    for name in clean.params:
        assert np.array_equal(model.params[name], clean.params[name])


# ------------------------------------------------------------------ predict

def test_predict_respects_max_len_and_reserved_chars():
    model, _ = tiny_model(seed=15)
    # unmasked, PAD, BOS and UNK would win every step
    model.params["out.b"][[PAD, BOS, UNK]] += 50.0
    items = [("abcab", PL_TAG), ("cde", N_TAG), ("a", N_TAG)]
    outs = predict_many(model, items)
    assert outs == [_predict_oracle(model, *item) for item in items]
    for out in outs:
        assert len(out) <= model.max_len
        assert not any(name in out for name in ("<pad>", "<bos>", "<eos>", "<unk>"))


def test_predict_empty_lemma_errors():
    model, _ = tiny_model()
    with pytest.raises(ValueError, match="empty input"):
        predict(model, "", N_TAG)
    with pytest.raises(ValueError, match="empty input"):
        predict_many(model, [("ab", N_TAG), ("", N_TAG)])


def _predict_oracle(model, lemma, tag):
    """Greedy decoding of one pair, one character at a time, with ``_lstm`` on 1-D vectors."""
    p = model.params
    lemma_ix = model.vocab.encode(lemma)
    summary = _oracle_summary(p, lemma_ix)
    morph = feature_vector(tag, model.inventory)
    state = (np.zeros(model.hidden_size), np.zeros(model.hidden_size))
    out = []
    for t in range(model.max_len):
        char_ix = lemma_ix[t] if t < len(lemma_ix) else PAD
        state = _lstm(p, "dec", np.concatenate([p["emb"][char_ix], summary, morph]), state)
        logits = state[0] @ p["out.w"] + p["out.b"]
        logits[[PAD, BOS, UNK]] = -np.inf
        best = int(np.argmax(logits))
        if best == EOS:
            break
        out.append(model.vocab.chars[best])
    return "".join(out)


@pytest.fixture(scope="module")
def oracle_case():
    """A briefly trained model and more than one chunk of (lemma, tag) pairs."""
    from _synth import make_dataset

    train_set, held = make_dataset(seed=4, per_class=60)
    model = build_model(train_set + held, hidden_size=16, max_len=10, seed=4)
    model, _ = train(model, train_set, epochs=3, lr=5e-3, seed=4, batch_size=32)
    pairs = [(ex.lemma, ex.tag) for ex in train_set + held]  # each lemma under 3 tags
    stems = sorted({ex.lemma for ex in train_set + held})
    pairs += [(stem, N_TAG) for stem in stems]
    pairs += [(stem * 3, PL_TAG) for stem in stems[:20]]  # longer than max_len
    pairs += [("q!", N_TAG), ("é", PL_TAG), ("a", N_TAG), ("zz\tz", MorphTag(("V", "FUT")))]
    items = pairs + pairs[::3] + pairs[:5]  # repeats, the last ones in another chunk
    return model, items


def test_predict_many_matches_oracle(oracle_case):
    model, items = oracle_case
    assert len(set(items)) > rf.PREDICT_CHUNK
    expected = {item: _predict_oracle(model, *item) for item in set(items)}
    assert predict_many(model, items) == [expected[item] for item in items]
    # the cases the batch must handle all occur
    assert len({len(lemma) for lemma, _ in items}) >= 5
    assert any(ch not in model.vocab.chars for lemma, _ in items for ch in lemma)
    assert any(len(form) == model.max_len for form in expected.values())
    assert any(len(form) < model.max_len for form in expected.values())
    assert predict(model, *items[0]) == expected[items[0]]


def _decode_trace(model, pairs, monkeypatch):
    """Per pair of one ``_decode_chunk`` call: its encoder summary and its
    logits at each decoder step, found by its (summary, tag) input row."""
    summaries, steps = [], []
    encode_rows, step = rf._encode_rows, rf.decode_step

    def encode_spy(*args):
        summaries.append(encode_rows(*args))
        return summaries[-1]

    def step_spy(model, x, h, c):
        logits, h, c = step(model, x, h, c)
        steps.append((x[:, EMB_DIM:], logits.copy()))
        return logits, h, c

    with monkeypatch.context() as patch:
        patch.setattr(rf, "_encode_rows", encode_spy)
        patch.setattr(rf, "decode_step", step_spy)
        rf._decode_chunk(model, pairs)
    (summary,) = summaries
    morph = np.stack([feature_vector(tag, model.inventory) for _, tag in pairs])
    trace = []
    for row, key in zip(summary, np.concatenate([summary, morph], axis=1)):
        found = [(inputs == key).all(axis=1) for inputs, _ in steps]
        trace.append((row, [logits[np.flatnonzero(at)[0]] for at, (_, logits) in zip(found, steps) if at.any()]))
    return trace


def test_a_pair_decodes_bit_identically_alone_and_in_any_chunk(oracle_case, monkeypatch):
    # BLAS adds a row's terms in an order set by the row count, so a pair
    # decoded alone, beside one other pair, or in a full chunk, must still
    # get the same bits at every encoder and decoder step
    model, items = oracle_case
    chunk = list(dict.fromkeys(items))[: rf.PREDICT_CHUNK]
    full = _decode_trace(model, chunk, monkeypatch)
    size = [(len(logits), len(lemma)) for (_, logits), (lemma, _) in zip(full, chunk)]
    checked = 0
    for p in sorted(range(len(chunk)), key=lambda p: size[p], reverse=True):
        # a partner with a shorter lemma that stops decoding first leaves p alone in both stages
        q = next((q for q in range(len(chunk)) if size[q][0] < size[p][0] and size[q][1] < size[p][1]), None)
        if q is None:
            continue
        alone = _decode_trace(model, [chunk[p]], monkeypatch)[0]
        beside = _decode_trace(model, [chunk[q], chunk[p]], monkeypatch)[1]
        for summary, logits in (alone, beside):
            assert np.array_equal(summary.view(np.int64), full[p][0].view(np.int64))
            assert len(logits) == len(full[p][1])
            for got, expected in zip(logits, full[p][1]):
                assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        checked += 1
        if checked == 12:
            break
    assert checked == 12


def test_decode_step_gives_any_live_subset_the_bits_of_the_full_step():
    # at the real hidden size and a full chunk.  BLAS sums a row in an order set
    # by the product's shape: numpy sends one row to the matrix-vector routine,
    # OpenBLAS's AVX2 kernels sum odd row counts, 10, 14 and more apart, and its
    # AVX-512 kernels sum 33 to 36 output columns apart in products of under
    # about 10**6 multiply-adds (at 36 characters, a full chunk's logits are over)
    chars = "abcdefghijklmnopqrstuvwxyzäöüßéè"
    model = build_model([TrainExample(chars, N_TAG, chars[::-1])], hidden_size=128, max_len=10, seed=4)
    assert len(model.vocab) == 36
    rng = np.random.default_rng(22)
    b, hid = rf.PREDICT_CHUNK, model.hidden_size
    x = rng.standard_normal((b, model.params["dec.wx"].shape[0]))
    h0, c0 = rng.standard_normal((2, b, hid))
    inputs = x.copy(), h0.copy(), c0.copy()
    full, h_full, c_full = rf.decode_step(model, x, h0, c0)
    assert all(np.array_equal(now, kept) for now, kept in zip((x, h0, c0), inputs))  # decode_step writes no input
    for size in range(1, 18):
        for _ in range(3):
            live = rng.permutation(b)[:size]
            logits, h, c = rf.decode_step(model, x[live], h0[live], c0[live])
            assert logits.shape == (size, len(model.vocab))
            for got, expected in ((h, h_full[live]), (c, c_full[live]), (logits, full[live])):
                assert np.array_equal(got.view(np.int64), expected.view(np.int64)), size


# ------------------------------------------------------------ serialization

def test_checkpoint_round_trip(tmp_path):
    model, examples = tiny_model(seed=19)
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.vocab == model.vocab
    assert loaded.inventory == model.inventory
    for lemma, tag in [("ab", PL_TAG), ("cde", N_TAG), ("aa", N_TAG)]:
        assert predict(loaded, lemma, tag) == predict(model, lemma, tag)


def test_checkpoint_bytes_are_reproducible(tmp_path):
    model, _ = tiny_model(seed=19)
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_model(model, p1)
    save_model(load_model(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_loads_without_a_random_initialisation(tmp_path, monkeypatch):
    model, _ = tiny_model(seed=19)
    path = tmp_path / "model.bin"
    save_model(model, path)

    def no_generator(*args, **kwargs):
        raise AssertionError("load_model drew a random initialisation")

    monkeypatch.setattr(rf.np.random, "default_rng", no_generator)
    loaded = load_model(path)
    assert (loaded.hidden_size, loaded.max_len) == (model.hidden_size, model.max_len)
    for name in model.PARAM_NAMES:
        assert np.array_equal(loaded.params[name], model.params[name])


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(ValueError):
        load_model(path)


def _corrupt_checkpoint(path, edit_header=None, trailer=b""):
    """Rewrite a saved checkpoint with an edited JSON header and/or extra bytes.

    ``edit_header`` takes the parsed header and returns the one to write.
    """
    magic, header, blocks = path.read_bytes().split(b"\n", 2)
    header = json.loads(header)
    if edit_header is not None:
        header = edit_header(header)
    path.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + blocks + trailer)


def _set_emb_dim(header):
    return {**header, "emb_dim": 32}


def _rename_first_block(header):
    header["params"][0][0] = "embedding"
    return header


def _add_vocab_char(header):
    # one more character means emb and out blocks one row/column short
    return {**header, "chars": header["chars"] + ["~"]}


def _drop_emb_dim(header):
    return {k: v for k, v in header.items() if k != "emb_dim"}


def _header_as_array(header):
    return list(header.items())


def _hidden_size_as_string(header):
    return {**header, "hidden_size": str(header["hidden_size"])}


def _set_vocab_char(ch):
    # "b", the vocabulary's second letter after "a", becomes ch; the
    # vocabulary keeps its size, so every block keeps its shape
    def edit(header):
        assert header["chars"][4:6] == ["a", "b"]
        header["chars"][5] = ch
        return header

    return edit


@pytest.mark.parametrize(
    "edit_header, trailer, message",
    [
        (_set_emb_dim, b"", "embedding width"),
        (_rename_first_block, b"", "parameter blocks"),
        (_add_vocab_char, b"", "has shape"),
        (None, b"\0" * 8, "unexpected bytes"),
        (_drop_emb_dim, b"", "no field 'emb_dim'"),
        (_header_as_array, b"", "not a JSON object"),
        (_hidden_size_as_string, b"", "field 'hidden_size' is not a positive integer"),
        (_set_vocab_char("a"), b"", "character 'a' occurs more than once"),
        (_set_vocab_char("bc"), b"", "entry 'bc' is not one character"),
        (_set_vocab_char(""), b"", "entry '' is not one character"),
    ],
    ids=[
        "emb-dim", "unknown-block", "shape", "trailing-bytes", "missing-key", "array-header", "string-hidden-size",
        "duplicate-char", "multi-char-entry", "empty-entry",
    ],
)
def test_checkpoint_rejects_inconsistent_file(tmp_path, edit_header, trailer, message):
    model, _ = tiny_model(seed=19)
    path = tmp_path / "model.bin"
    save_model(model, path)
    _corrupt_checkpoint(path, edit_header, trailer)
    with pytest.raises(ValueError, match=message) as err:
        load_model(path)
    assert str(err.value).startswith(f"{path}: ")


# ------------------------------------------------------------- data loading

def test_load_training_file():
    text = (
        "walk\tV;PST\twalked\n"
        "bad line without tabs\n"
        "\tN\tmissing\n"
        "dog\tN;PL\tdogs\n"
    )
    examples, warnings = load_training_file(text)
    assert [ex.lemma for ex in examples] == ["walk", "dog"]
    assert examples[0].tag == MorphTag(("V", "PST"))
    assert len(warnings) == 2
