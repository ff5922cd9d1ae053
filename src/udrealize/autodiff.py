"""Tiny reverse-mode autodiff over float64 numpy arrays.

Implements exactly the operations the character encoder-decoder needs.
Everything is float64 so central finite differences remain a meaningful
oracle for the backward pass.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """A node in the computation graph: value, accumulated gradient, backward rule."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad = None

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def parameter(data, rng: np.random.Generator | None = None, scale: float | None = None) -> Tensor:
    """Wrap an array (or draw uniform(-scale, scale) of the given shape) as a trainable leaf."""
    if rng is not None:
        data = rng.uniform(-scale, scale, size=data)
    return Tensor(data, requires_grad=True)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


def _node(data, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._parents = parents
        out._backward = backward
    return out


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data + b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data * b.data

    def backward(g):
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _node(data, (a, b), backward)


def scale(a, s: float) -> Tensor:
    a = _wrap(a)

    def backward(g):
        _accumulate(a, g * s)

    return _node(a.data * s, (a,), backward)


def matmul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    data = a.data @ b.data

    def backward(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)

    return _node(data, (a, b), backward)


def logistic(x: np.ndarray) -> np.ndarray:
    """Plain elementwise 1 / (1 + exp(-x)), split by sign so exp never overflows.

    ``e = exp(-|x|)`` is exp(-x) where x >= 0 and exp(x) elsewhere, so
    this is 1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) for
    x < 0.  The value of ``sigmoid``; graph-free inference calls it
    directly, so the two agree to the last bit.
    """
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    out_data = logistic(a.data)

    def backward(g):
        _accumulate(a, g * out_data * (1.0 - out_data))

    return _node(out_data, (a,), backward)


def tanh(a) -> Tensor:
    a = _wrap(a)
    out_data = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - out_data * out_data))

    return _node(out_data, (a,), backward)


def concat(parts: list[Tensor], axis: int = 1) -> Tensor:
    parts = [_wrap(p) for p in parts]
    data = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.data.shape[axis] for p in parts]

    def backward(g):
        offset = 0
        for p, size in zip(parts, sizes):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + size)
            _accumulate(p, g[tuple(index)])
            offset += size

    return _node(data, tuple(parts), backward)


def cols(a: Tensor, start: int, stop: int) -> Tensor:
    """Column slice a[:, start:stop]."""
    a = _wrap(a)

    def backward(g):
        full = np.zeros_like(a.data)
        full[:, start:stop] = g
        _accumulate(a, full)

    return _node(a.data[:, start:stop], (a,), backward)


def rows(a: Tensor, indices: np.ndarray) -> Tensor:
    """Row gather a[indices] (embedding lookup); duplicate indices accumulate."""
    a = _wrap(a)
    indices = np.asarray(indices, dtype=np.intp)

    def backward(g):
        full = np.zeros_like(a.data)
        np.add.at(full, indices, g)
        _accumulate(a, full)

    return _node(a.data[indices], (a,), backward)


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Per-row -log softmax(logits)[target]; returns a vector of length B."""
    logits = _wrap(logits)
    targets = np.asarray(targets, dtype=np.intp)
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    z = exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(z)
    rows_ix = np.arange(logits.data.shape[0])
    losses = -log_probs[rows_ix, targets]
    softmax = exp / z

    def backward(g):
        grad = softmax.copy()
        grad[rows_ix, targets] -= 1.0
        _accumulate(logits, grad * g[:, None])

    return _node(losses, (logits,), backward)


def sum_all(a: Tensor) -> Tensor:
    a = _wrap(a)

    def backward(g):
        _accumulate(a, np.full_like(a.data, float(g)))

    return _node(a.data.sum(), (a,), backward)


def backward(root: Tensor) -> None:
    """Accumulate gradients of every trainable leaf reachable from ``root``."""
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(topo):
        if node._backward is not None:
            node._backward(node.grad)
