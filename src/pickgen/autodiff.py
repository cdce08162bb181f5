"""Minimal reverse-mode automatic differentiation over numpy float64.

A Tensor records its parents and a backward closure; backward() on a
scalar walks the graph in reverse topological order and computes exact
gradients from scratch (every grad in the graph is reset to None first), so
training steps never need an explicit zero-grad call. Gradients are lazy: a
node's first contribution is stored as is and later ones are added out of
place, since closures hand one array to several parents; constants get none.
RMS normalization, the attention core and cross-entropy are each one node
with a hand-written backward, because at toy sizes each node costs more than
its arithmetic.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np

_GRAD_ENABLED = [True]


@contextmanager
def no_grad():
    """Disable graph recording (decoding and evaluation paths)."""
    _GRAD_ENABLED.append(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.pop()


def _recording() -> bool:
    return _GRAD_ENABLED[-1]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(
        i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Node in the computation graph; data is always a float64 ndarray."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    @staticmethod
    def _make(data, parents, backward_fn) -> "Tensor":
        out = Tensor(data)
        if _recording() and any(p.requires_grad or p._parents for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward_fn = backward_fn
        return out

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Tensor":
        return value if isinstance(value, Tensor) else Tensor(np.asarray(value))

    def __add__(self, other):
        other = Tensor._coerce(other)
        data = self.data + other.data

        def backward_fn(g):
            return (_unbroadcast(g, self.shape), _unbroadcast(g, other.shape))

        return Tensor._make(data, (self, other), backward_fn)

    __radd__ = __add__

    def __neg__(self):
        return Tensor._make(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        return self + (-Tensor._coerce(other))

    def __rsub__(self, other):
        return Tensor._coerce(other) + (-self)

    def __mul__(self, other):
        other = Tensor._coerce(other)
        data = self.data * other.data

        def backward_fn(g):
            return (
                _unbroadcast(g * other.data, self.shape),
                _unbroadcast(g * self.data, other.shape),
            )

        return Tensor._make(data, (self, other), backward_fn)

    __rmul__ = __mul__

    def matmul(self, other: "Tensor") -> "Tensor":
        """(..., d_in) @ (d_in, d_out), a projection: one GEMM over every
        row, both ways."""
        if other.data.ndim != 2:
            raise ValueError("matmul takes a 2-D right operand")
        rows = self.data.reshape(-1, other.shape[0])
        data = (rows @ other.data).reshape(*self.shape[:-1], other.shape[1])

        def backward_fn(g):
            # other.data is read here, not captured above: the optimizer
            # rebinds it, and the old graph would keep the old weights alive
            w = other.data
            g = g.reshape(-1, w.shape[1])
            rows = self.data.reshape(-1, w.shape[0])
            return (g @ w.T).reshape(self.shape), rows.T @ g

        return Tensor._make(data, (self, other), backward_fn)

    __matmul__ = matmul

    # -- shape --------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        return Tensor._make(
            self.data.reshape(shape), (self,), lambda g: (g.reshape(original),)
        )

    def permute(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = tuple(int(i) for i in np.argsort(axes))
        return Tensor._make(
            self.data.transpose(axes), (self,), lambda g: (g.transpose(inverse),)
        )

    # -- reductions ---------------------------------------------------------

    def sum(self) -> "Tensor":
        shape = self.shape
        return Tensor._make(self.data.sum(), (self,),
                            lambda g: (np.broadcast_to(g, shape).copy(),))

    # -- nonlinearities -----------------------------------------------------

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)
        return Tensor._make(data, (self,), lambda g: (g * (self.data > 0.0),))

    def softplus(self) -> "Tensor":
        """log(1 + exp(x)), finite at any x; its derivative is sigmoid(x)."""
        x = self.data
        e = np.exp(-np.abs(x))
        data = np.maximum(x, 0.0) + np.log1p(e)
        sig = np.where(x >= 0.0, 1.0, e) / (1.0 + e)
        return Tensor._make(data, (self,), lambda g: (g * sig,))

    def rmsnorm(self, scale: "Tensor", eps: float) -> "Tensor":
        """x / sqrt(mean(x**2 over the last axis) + eps) * scale."""
        x = self.data
        inv = ((x * x).sum(axis=-1, keepdims=True) * (1.0 / x.shape[-1]) + eps) ** -0.5
        normed = x * inv

        def backward_fn(g):
            gn = g * scale.data
            inner = (gn * normed).sum(axis=-1, keepdims=True) * (1.0 / x.shape[-1])
            return (inv * (gn - normed * inner), _unbroadcast(g * normed, scale.shape))

        return Tensor._make(normed * scale.data, (self, scale), backward_fn)

    def cross_entropy(self, targets: np.ndarray, weights: np.ndarray) -> "Tensor":
        """sum(weights * -log softmax(self)[targets]) over every position;
        targets and weights have shape self.shape[:-1]."""
        idx = np.asarray(targets, dtype=np.int64)[..., None]
        logp = log_softmax(self.data)
        data = (-np.take_along_axis(logp, idx, axis=-1)[..., 0] * weights).sum()

        def backward_fn(g):
            coef = (weights * g)[..., None]
            grad = np.exp(logp) * coef
            picked = np.take_along_axis(grad, idx, axis=-1)
            np.put_along_axis(grad, idx, picked - coef, axis=-1)
            return (grad,)

        return Tensor._make(data, (self,), backward_fn)

    # -- indexing -----------------------------------------------------------

    def lookup(self, ids: np.ndarray) -> "Tensor":
        """Row lookup (embedding, gather): result shape ids.shape +
        self.shape[1:]."""
        ids = np.asarray(ids, dtype=np.int64)
        data = self.data[ids]
        shape = self.shape

        def backward_fn(g):
            grad = np.zeros(shape)
            np.add.at(grad, ids.reshape(-1), g.reshape(-1, *shape[1:]))
            return (grad,)

        return Tensor._make(data, (self,), backward_fn)

    # -- backward -----------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(node) into .grad across the recorded graph."""
        if self.data.size != 1:
            raise ValueError("backward requires a scalar tensor")
        if self._backward_fn is None and not self._parents:
            raise ValueError("backward requires a recorded forward pass")
        order = _toposort(self)
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward_fn is None:
                continue
            grads = node._backward_fn(node.grad)
            for parent, grad in zip(node._parents, grads):
                if parent.grad is not None:
                    parent.grad = parent.grad + grad
                elif parent.requires_grad or parent._parents:
                    parent.grad = grad


def log_softmax(x: np.ndarray) -> np.ndarray:
    """log(softmax(x)) over the last axis by max-shift, finite however far
    a value lies below the maximum."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def attention(q: Tensor, k: Tensor, v: Tensor, bias: Tensor | None = None,
              mask: np.ndarray | None = None) -> Tensor:
    """softmax(q @ kᵀ / sqrt(head_dim) + bias + mask) @ v over (..., L,
    head_dim) operands of equal leading shape. bias broadcasts onto the
    logits and gets a gradient; mask is a constant additive array."""
    scale = 1.0 / math.sqrt(q.shape[-1])
    logits = (q.data @ np.swapaxes(k.data, -1, -2)) * scale
    if bias is not None:
        logits = logits + bias.data
    if mask is not None:
        logits = logits + mask
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        gp = g @ np.swapaxes(v.data, -1, -2)
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
        grads = ((gs @ k.data) * scale, (np.swapaxes(gs, -1, -2) @ q.data) * scale,
                 np.swapaxes(p, -1, -2) @ g)
        return grads if bias is None else (*grads, _unbroadcast(gs, bias.shape))

    parents = (q, k, v) if bias is None else (q, k, v, bias)
    return Tensor._make(p @ v.data, parents, backward_fn)


def _toposort(root: Tensor) -> list[Tensor]:
    """Parents-before-children ordering, iterative to spare the stack."""
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def parameter(data: np.ndarray) -> Tensor:
    return Tensor(data, requires_grad=True)


def constant(data) -> Tensor:
    return Tensor(np.asarray(data, dtype=np.float64))
