"""Minimal reverse-mode automatic differentiation over numpy float64.

A Tensor records its parents and a backward closure; backward() on a
scalar walks the graph in reverse topological order and computes exact
gradients from scratch (every grad in the graph is reset to None first), so
training steps never need an explicit zero-grad call. Gradients are lazy: a
node's first contribution is stored as is and later ones are added out of
place, since closures hand one array to several parents; constants get none.
backward() uses the graph up as it walks it: once an interior node has passed
its gradient on, it drops that gradient, its parent links and its closure
(with the arrays the closure captured), so only leaf gradients and node data
outlive the walk, and differentiating a used-up node again raises ValueError.
A training step's graph and gradients are freed when that step ends.
The elementwise algebra is Tensor + Tensor and Tensor * (number or array).
RMS normalization, multi-head attention (head split and merge included),
cross-entropy, binary cross-entropy with logits, dropout, a residual
branch's projection under dropout (residual) and a projection's relu
(relu_matmul) are each one node with a hand-written backward, because at
toy sizes each node costs more than its arithmetic. Each node holds only
the arrays its own backward reads: dropout and residual keep their masks as
bools, relu_matmul its output alone, and rmsnorm recomputes its normalized
input, so a training graph holds little beyond node data.
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
        if _recording() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward_fn = backward_fn
        return out

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Tensor") -> "Tensor":
        def backward_fn(g):
            return (_unbroadcast(g, self.shape), _unbroadcast(g, other.shape))

        return Tensor._make(self.data + other.data, (self, other), backward_fn)

    def __mul__(self, other):
        """self * other for a number or array other, such as a loss weight;
        other is no graph node."""
        return Tensor._make(self.data * other, (self,),
                            lambda g: (_unbroadcast(g * other, self.shape),))

    def matmul(self, other: "Tensor") -> "Tensor":
        """(..., d_in) @ (d_in, d_out), a projection: one GEMM over every
        row, both ways."""
        return Tensor._make(_project(self, other), (self, other),
                            lambda g: _project_grads(g, self, other))

    __matmul__ = matmul

    # -- shape --------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.shape
        return Tensor._make(
            self.data.reshape(shape), (self,), lambda g: (g.reshape(original),)
        )

    # -- nonlinearities -----------------------------------------------------

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)
        return Tensor._make(data, (self,), lambda g: (g * (self.data > 0.0),))

    def rmsnorm(self, scale: "Tensor", eps: float) -> "Tensor":
        """x / sqrt(mean(x**2 over the last axis) + eps) * scale."""
        x = self.data
        inv = ((x * x).sum(axis=-1, keepdims=True) * (1.0 / x.shape[-1]) + eps) ** -0.5

        def backward_fn(g):  # recomputes x * inv rather than holding it
            normed = x * inv
            gn = g * scale.data
            inner = (gn * normed).sum(axis=-1, keepdims=True) * (1.0 / x.shape[-1])
            return (inv * (gn - normed * inner), _unbroadcast(g * normed, scale.shape))

        return Tensor._make(x * inv * scale.data, (self, scale), backward_fn)

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

    def bce_with_logits(self, targets: np.ndarray, weights: np.ndarray) -> "Tensor":
        """sum(weights * (softplus(self) - targets * self)): binary
        cross-entropy with logits against targets in [0, 1]; targets and
        weights have self's shape. softplus(x) = log(1 + exp(x)) is finite at
        any x; its derivative sigmoid(x) is recomputed from exp(-|x|) in the
        backward."""
        x = self.data
        e = np.exp(-np.abs(x))
        data = (weights * ((np.maximum(x, 0.0) + np.log1p(e)) - targets * x)).sum()

        def backward_fn(g):
            gw = np.broadcast_to(g, x.shape) * weights
            return (gw * (np.where(x >= 0.0, 1.0, e) / (1.0 + e)) - gw * targets,)

        return Tensor._make(data, (self,), backward_fn)

    # -- indexing -----------------------------------------------------------

    def lookup(self, ids: np.ndarray) -> "Tensor":
        """Row lookup (embedding, gather): result shape ids.shape +
        self.shape[1:]."""
        ids = np.asarray(ids, dtype=np.int64)
        data = self.data[ids]
        shape = self.shape

        def backward_fn(g):
            # one bin per (row, element): bincount adds in index order, as
            # np.add.at would, so repeated ids sum to the same bits
            width = math.prod(shape[1:])
            bins = (ids.reshape(-1, 1) * width + np.arange(width)).reshape(-1)
            return (np.bincount(bins, g.reshape(-1), shape[0] * width).reshape(shape),)

        return Tensor._make(data, (self,), backward_fn)

    # -- backward -----------------------------------------------------------

    def backward(self) -> None:
        """Accumulate d(self)/d(node) into .grad of every leaf of the
        recorded graph, using the graph up: once a node has passed its
        gradient on, its grad, parent links and closure (with the arrays it
        captured) are dropped, so only leaf grads and node data remain. A
        second backward through a used-up node raises ValueError."""
        if self.data.size != 1:
            raise ValueError("backward requires a scalar tensor")
        if self._backward_fn is None and not self._parents:
            raise ValueError("backward requires a recorded forward pass")
        order = _toposort(self)
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward_fn is None:
                continue
            grads = node._backward_fn(node.grad)
            for parent, grad in zip(node._parents, grads):
                if parent.grad is not None:
                    parent.grad = parent.grad + grad
                elif parent.requires_grad:
                    parent.grad = grad
            node.grad, node._parents, node._backward_fn = None, (), _differentiated


def _differentiated(g):
    raise ValueError("this graph was already differentiated; run the forward again")


def log_softmax(x: np.ndarray) -> np.ndarray:
    """log(softmax(x)) over the last axis by max-shift, finite however far
    a value lies below the maximum."""
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _project(a: Tensor, w: Tensor) -> np.ndarray:
    """a @ w for a (..., d_in) operand and a (d_in, d_out) weight, as one GEMM
    over the rows of every leading axis."""
    if w.data.ndim != 2:
        raise ValueError("matmul takes a 2-D right operand")
    rows = a.data.reshape(-1, w.shape[0])
    return (rows @ w.data).reshape(*a.shape[:-1], w.shape[1])


def _project_grads(g: np.ndarray, a: Tensor, w: Tensor) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of a and w from the gradient g of a @ w."""
    # the optimizer updates w.data in place, so a graph can only be
    # differentiated before the step that follows it
    g = g.reshape(-1, w.shape[1])
    rows = a.data.reshape(-1, w.shape[0])
    return (g @ w.data.T).reshape(a.shape), rows.T @ g


def dropout(x: Tensor, keep: np.ndarray, rate: float) -> Tensor:
    """x * (keep / (1 - rate)), inverted dropout with the bool mask keep, as
    one node that holds keep itself and recomputes the float factor in its
    backward."""
    return Tensor._make(x.data * (keep / (1.0 - rate)), (x,),
                        lambda g: (g * (keep / (1.0 - rate)),))


def residual(x: Tensor, a: Tensor, w: Tensor, keep: np.ndarray | None,
             rate: float) -> Tensor:
    """x + (a @ w) * (keep / (1 - rate)): a residual branch's projection
    under inverted dropout, as one node; a @ w has x's shape. keep is a bool
    mask of that shape, or None for no dropout (x + a @ w). The node holds
    keep itself; its backward recomputes the float factor from it."""
    proj = _project(a, w)
    if keep is not None:
        proj = proj * (keep / (1.0 - rate))

    def backward_fn(g):
        branch = g if keep is None else g * (keep / (1.0 - rate))
        return (g, *_project_grads(branch, a, w))

    return Tensor._make(x.data + proj, (x, a, w), backward_fn)


def relu_matmul(h: Tensor, w: Tensor) -> Tensor:
    """max(h @ w, 0) as one node that holds only its output: out > 0 exactly
    where h @ w > 0, NaN included."""
    data = np.maximum(_project(h, w), 0.0)
    return Tensor._make(data, (h, w), lambda g: _project_grads(g * (data > 0.0), h, w))


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              bias: Tensor | None = None, mask: np.ndarray | None = None) -> Tensor:
    """Multi-head attention over (..., L, d) projections of equal leading
    shape: the last axis holds `heads` heads of d / heads features each. Per
    head h, softmax(q_h @ k_hᵀ / sqrt(d / heads) + bias[:, :, h] + mask) @ v_h,
    the heads merged back into (..., Lq, dv). bias, (Lq, Lk, heads), gets a
    gradient; mask is a constant additive array broadcasting onto (...,
    heads, Lq, Lk). Heads are split and merged as numpy views."""

    def split(x: np.ndarray) -> np.ndarray:  # (..., L, H*e) -> (..., H, L, e)
        return np.swapaxes(x.reshape(*x.shape[:-1], heads, -1), -2, -3)

    def merge(x: np.ndarray) -> np.ndarray:  # (..., H, L, e) -> (..., L, H*e)
        x = np.swapaxes(x, -2, -3)
        return x.reshape(*x.shape[:-2], -1)

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    scale = 1.0 / math.sqrt(qh.shape[-1])
    logits = (qh @ np.swapaxes(kh, -1, -2)) * scale
    if bias is not None:
        per_head = bias.data.transpose(2, 0, 1)  # (H, Lq, Lk)
        logits = logits + per_head
    if mask is not None:
        logits = logits + mask
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)

    def backward_fn(g):
        g = split(g)
        gp = g @ np.swapaxes(vh, -1, -2)
        gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True))
        grads = (merge((gs @ kh) * scale), merge((np.swapaxes(gs, -1, -2) @ qh) * scale),
                 merge(np.swapaxes(p, -1, -2) @ g))
        if bias is None:
            return grads
        return (*grads, _unbroadcast(gs, per_head.shape).transpose(1, 2, 0))

    parents = (q, k, v) if bias is None else (q, k, v, bias)
    return Tensor._make(merge(p @ vh), parents, backward_fn)


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

