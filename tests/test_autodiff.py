"""Finite differences are the oracle for every backward rule."""

import numpy as np

from udrealize import autodiff as ad


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def numeric_grad(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar fn w.r.t. array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        up = fn()
        flat[i] = old - eps
        down = fn()
        flat[i] = old
        gf[i] = (up - down) / (2 * eps)
    return g


def check_op(build, *shapes, seed=0):
    """Compare analytic grads of sum(build(*tensors)) with numeric grads."""
    rng = np.random.default_rng(seed)
    tensors = [ad.Tensor(rng.standard_normal(s), requires_grad=True) for s in shapes]
    out = ad.sum_all(build(*tensors))
    ad.backward(out)
    for t in tensors:
        expected = numeric_grad(lambda: float(ad.sum_all(build(*tensors)).data), t.data)
        assert np.allclose(t.grad, expected, rtol=1e-6, atol=1e-8), build.__name__


def test_add_grad():
    check_op(lambda a, b: ad.add(a, b), (3, 4), (3, 4))


def test_add_broadcast_bias_grad():
    check_op(lambda a, b: ad.add(a, b), (3, 4), (4,))


def test_mul_grad():
    check_op(lambda a, b: ad.mul(a, b), (3, 4), (3, 4))


def test_mul_broadcast_grad():
    check_op(lambda a, b: ad.mul(a, b), (3, 4), (3, 1))


def test_matmul_grad():
    check_op(lambda a, b: ad.matmul(a, b), (3, 5), (5, 2))


def test_sigmoid_tanh_grad():
    check_op(lambda a: ad.sigmoid(a), (4, 3))
    check_op(lambda a: ad.tanh(a), (4, 3))


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
    got = ad.logistic(x)
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert np.array_equal(ad.sigmoid(ad.Tensor(x)).data.view(np.int64), expected.view(np.int64))


def test_scale_and_cols_grad():
    check_op(lambda a: ad.scale(a, -2.5), (3, 3))
    check_op(lambda a: ad.cols(a, 1, 3), (3, 5))


def test_concat_grad():
    check_op(lambda a, b: ad.concat([a, b], axis=1), (3, 2), (3, 4))


def test_rows_grad_with_duplicate_indices():
    idx = np.array([0, 2, 2, 1])
    check_op(lambda a: ad.rows(a, idx), (4, 3))


def test_softmax_cross_entropy_matches_manual():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((5, 7))
    targets = rng.integers(0, 7, size=5)
    out = ad.softmax_cross_entropy(ad.Tensor(logits), targets)
    probs = softmax(logits)
    manual = -np.log(probs[np.arange(5), targets])
    assert np.allclose(out.data, manual, atol=1e-12)


def test_softmax_cross_entropy_grad():
    targets = np.array([0, 3, 1])
    check_op(lambda a: ad.softmax_cross_entropy(a, targets), (3, 4))


def test_gradients_accumulate_across_uses():
    a = ad.Tensor(np.array([2.0, 3.0]), requires_grad=True)
    out = ad.sum_all(ad.add(ad.mul(a, a), a))  # d/da (a^2 + a) = 2a + 1
    ad.backward(out)
    assert np.allclose(a.grad, 2 * a.data + 1)


def test_constants_collect_no_grad():
    a = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    c = ad.Tensor(np.ones((2, 2)))
    out = ad.sum_all(ad.mul(a, c))
    ad.backward(out)
    assert c.grad is None
    assert a.grad is not None


def test_chained_lstm_like_graph_grad():
    rng = np.random.default_rng(2)
    wx = ad.Tensor(rng.standard_normal((3, 8)), requires_grad=True)
    wh = ad.Tensor(rng.standard_normal((2, 8)), requires_grad=True)
    x = np.asarray(rng.standard_normal((4, 3)))

    def run():
        h = ad.Tensor(np.zeros((4, 2)))
        c = ad.Tensor(np.zeros((4, 2)))
        for _ in range(3):
            z = ad.add(ad.matmul(ad.Tensor(x), wx), ad.matmul(h, wh))
            i = ad.sigmoid(ad.cols(z, 0, 2))
            f = ad.sigmoid(ad.cols(z, 2, 4))
            g = ad.tanh(ad.cols(z, 4, 6))
            o = ad.sigmoid(ad.cols(z, 6, 8))
            c = ad.add(ad.mul(f, c), ad.mul(i, g))
            h = ad.mul(o, ad.tanh(c))
        return ad.sum_all(h)

    out = run()
    ad.backward(out)
    for t in (wx, wh):
        expected = numeric_grad(lambda: float(run().data), t.data)
        assert np.allclose(t.grad, expected, rtol=1e-5, atol=1e-8)


def test_parameter_initializer_is_seeded():
    rng1 = np.random.default_rng(9)
    rng2 = np.random.default_rng(9)
    p1 = ad.parameter((3, 3), rng=rng1, scale=0.5)
    p2 = ad.parameter((3, 3), rng=rng2, scale=0.5)
    assert np.array_equal(p1.data, p2.data)
    assert np.abs(p1.data).max() <= 0.5
    assert p1.requires_grad
