"""Minimal reverse-mode automatic differentiation over numpy float64.

A Tensor records its parents and a backward closure; backward() on a
scalar walks the graph in reverse topological order and accumulates exact
gradients. Each backward pass recomputes gradients of that scalar from
scratch (grads of every node in its graph are reset first), so training
steps never need an explicit zero-grad call.
"""

from __future__ import annotations

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
        data = self.data @ other.data

        def backward_fn(g):
            ga = g @ np.swapaxes(other.data, -1, -2)
            gb = np.swapaxes(self.data, -1, -2) @ g
            return (_unbroadcast(ga, self.shape), _unbroadcast(gb, other.shape))

        return Tensor._make(data, (self, other), backward_fn)

    __matmul__ = matmul

    def pow_const(self, exponent: float) -> "Tensor":
        data = self.data ** exponent

        def backward_fn(g):
            return (g * exponent * self.data ** (exponent - 1.0),)

        return Tensor._make(data, (self,), backward_fn)

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

    def swap_last(self) -> "Tensor":
        axes = tuple(range(self.data.ndim - 2)) + (self.data.ndim - 1, self.data.ndim - 2)
        return self.permute(axes)

    # -- reductions ---------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def backward_fn(g):
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            if not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor._make(data, (self,), backward_fn)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- nonlinearities -----------------------------------------------------

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)
        return Tensor._make(data, (self,), lambda g: (g * (self.data > 0.0),))

    def log(self) -> "Tensor":
        return Tensor._make(
            np.log(self.data), (self,), lambda g: (g / self.data,)
        )

    def sigmoid(self) -> "Tensor":
        x = self.data
        data = np.where(x >= 0.0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                        np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        return Tensor._make(data, (self,), lambda g: (g * data * (1.0 - data),))

    def softmax(self, axis: int = -1) -> "Tensor":
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        data = e / e.sum(axis=axis, keepdims=True)

        def backward_fn(g):
            inner = (g * data).sum(axis=axis, keepdims=True)
            return (data * (g - inner),)

        return Tensor._make(data, (self,), backward_fn)

    def clip(self, lo: float, hi: float) -> "Tensor":
        data = np.clip(self.data, lo, hi)
        mask = (self.data >= lo) & (self.data <= hi)
        return Tensor._make(data, (self,), lambda g: (g * mask,))

    # -- indexing -----------------------------------------------------------

    def lookup(self, ids: np.ndarray) -> "Tensor":
        """Row lookup (embedding): result shape ids.shape + (row_dim,)."""
        ids = np.asarray(ids, dtype=np.int64)
        data = self.data[ids]
        shape = self.shape

        def backward_fn(g):
            grad = np.zeros(shape)
            np.add.at(grad, ids.reshape(-1), g.reshape(-1, shape[-1]))
            return (grad,)

        return Tensor._make(data, (self,), backward_fn)

    def gather_index(self, idx: np.ndarray) -> "Tensor":
        """Pick one entry along the last axis per position; idx shape must
        equal self.shape[:-1]."""
        idx = np.asarray(idx, dtype=np.int64)
        data = np.take_along_axis(self.data, idx[..., None], axis=-1)[..., 0]
        shape = self.shape

        def backward_fn(g):
            grad = np.zeros(shape)
            np.put_along_axis(grad, idx[..., None], g[..., None], axis=-1)
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
            node.grad = np.zeros_like(node.data)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward_fn is None:
                continue
            grads = node._backward_fn(node.grad)
            for parent, grad in zip(node._parents, grads):
                parent.grad += grad


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
