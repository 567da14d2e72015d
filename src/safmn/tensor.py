"""Dense rank-4 tensors with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a NumPy array (activations use the (batch, channel,
height, width) layout) and records enough of the computation graph to run a
backward pass from a scalar output.  Two precision modes exist:

* ``"test"``: float64, fixed accumulation order, bit-reproducible;
* ``"fast"``: float32, used for throughput-sensitive training runs.

Gradients are accumulated in deterministic graph order, so repeated runs with
identical inputs produce bit-identical results on a given machine.
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DimensionError

_MODE_DTYPES = {"test": np.float64, "fast": np.float32}
_mode = "test"
_grad_enabled = True


def set_mode(name: str) -> None:
    """Select the global precision mode ("test" or "fast")."""
    if name not in _MODE_DTYPES:
        raise ValueError(f"unknown mode {name!r}; expected 'test' or 'fast'")
    global _mode
    _mode = name


def get_mode() -> str:
    return _mode


def default_dtype() -> np.dtype:
    return np.dtype(_MODE_DTYPES[_mode])


@contextmanager
def no_grad() -> Iterator[None]:
    """Disable graph recording inside the block (inference, evaluation)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


# Backward functions receive the output gradient and return one gradient
# array (or None) per parent, in the order the parents were recorded.
BackwardFn = Callable[[np.ndarray], Sequence[np.ndarray | None]]


class Tensor:
    """NumPy-backed tensor with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(default_dtype())
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward: BackwardFn | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    def backward(self) -> None:
        """Backpropagate from this scalar through the recorded graph.

        Graph edges are released as they are consumed so activation memory
        is freed as soon as the pass is done.
        """
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar tensor")
        order = _topological_order(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            fn = node._backward
            if fn is None:
                continue
            grads = fn(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None or not parent.requires_grad:
                    continue
                if parent.grad is None:
                    # Copy: backward closures may hand out views of shared buffers.
                    parent.grad = np.array(g, dtype=parent.data.dtype, copy=True)
                else:
                    parent.grad += g
            node._backward = None
            node._parents = ()
            if node is not self:
                node.grad = None


def _topological_order(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
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


def records(parents: Sequence[Tensor]) -> bool:
    """Whether a result computed from ``parents`` will be recorded in the graph.

    True when gradients are enabled and some parent requires one.  A kernel
    asks this before it builds state that only its backward pass reads, and
    :func:`make_result` records the result's edges on the same answer.
    """
    return _grad_enabled and any(p.requires_grad for p in parents)


def make_result(data: np.ndarray, parents: Sequence[Tensor], backward: BackwardFn) -> Tensor:
    """Wrap a kernel result, recording graph edges when :func:`records` holds."""
    needs = records(parents)
    out = Tensor(data, requires_grad=needs)
    if needs:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add: shape mismatch {a.data.shape} vs {b.data.shape}")

    def backward(g):
        return g, g

    return make_result(a.data + b.data, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product; ``b`` may broadcast to ``a``'s shape, as a (n, c, 1, 1) gate does."""
    a_data, b_data = a.data, b.data
    try:
        shape = np.broadcast_shapes(a_data.shape, b_data.shape)
    except ValueError:
        shape = None
    if shape != a_data.shape:
        raise DimensionError(f"mul: shape {b_data.shape} does not broadcast to {a_data.shape}")
    # b's gradient sums over the axes that b was broadcast along.
    padded = (1,) * (a_data.ndim - b_data.ndim) + b_data.shape
    axes = tuple(i for i, (n, m) in enumerate(zip(a_data.shape, padded)) if n != m)

    def backward(g):
        db = g * a_data
        if axes:
            db = db.sum(axis=axes, keepdims=True).reshape(b_data.shape)
        return g * b_data, db

    return make_result(a_data * b_data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    """Multiply every element by the scalar ``s``."""
    s = float(s)

    def backward(g):
        return (g * s,)

    return make_result(a.data * s, (a,), backward)
