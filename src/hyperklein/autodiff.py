"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and records the operation that produced it;
`backward` replays the tape in reverse topological order.  The op set is
exactly what the hyperbolic layers need: arithmetic with broadcasting,
matmul, reductions, the hyperbolic/inverse-hyperbolic family, and a few
structural ops (where, concatenation, column slicing, row picking).

Every op checks its output for non-finite values and raises NumericalError
naming the offending op, so overflow surfaces at the source.
"""

from __future__ import annotations

import numpy as np

from .manifolds import ATANH_MAX


class NumericalError(RuntimeError):
    """A tape operation produced a non-finite value."""


def _checked(name: str, data: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(data)):
        raise NumericalError(f"numerical overflow in {name}")
    return data


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad over the axes that broadcasting expanded."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "_parents", "_bk")

    def __init__(self, data, parents=(), bk=None, name="input"):
        self.data = _checked(name, np.asarray(data, dtype=np.float64))
        self.grad = None
        self._parents = parents
        self._bk = bk

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, grad):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += _unbroadcast(np.asarray(grad), self.data.shape)

    def backward(self):
        order, seen = [], set()

        def visit(node):
            if id(node) in seen:
                return
            seen.add(id(node))
            for parent in node._parents:
                visit(parent)
            order.append(node)

        visit(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._bk is not None:
                node._bk(node.grad)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data + other.data, (self, other), name="add")
        out._bk = lambda g: (self._accumulate(g), other._accumulate(g))
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, (self,), name="neg")
        out._bk = lambda g: self._accumulate(-g)
        return out

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data * other.data, (self, other), name="mul")
        out._bk = lambda g: (
            self._accumulate(g * other.data),
            other._accumulate(g * self.data),
        )
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data / other.data, (self, other), name="div")
        out._bk = lambda g: (
            self._accumulate(g / other.data),
            other._accumulate(-g * self.data / other.data**2),
        )
        return out

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __matmul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data @ other.data, (self, other), name="matmul")
        out._bk = lambda g: (
            self._accumulate(g @ other.data.T),
            other._accumulate(self.data.T @ g),
        )
        return out

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,), name="sum")

        def bk(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape))

        out._bk = bk
        return out


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _unary(name, fn, dfn):
    def op(t: Tensor) -> Tensor:
        out_data = _checked(name, fn(t.data))
        out = Tensor(out_data, (t,), name=name)
        out._bk = lambda g: t._accumulate(g * dfn(t.data, out_data))
        return out

    op.__name__ = name
    return op


tanh = _unary("tanh", np.tanh, lambda x, y: 1.0 - y * y)
sinh = _unary("sinh", np.sinh, lambda x, y: np.cosh(x))
cosh = _unary("cosh", np.cosh, lambda x, y: np.sinh(x))
exp = _unary("exp", np.exp, lambda x, y: y)
log = _unary("log", np.log, lambda x, y: 1.0 / x)
sqrt = _unary("sqrt", np.sqrt, lambda x, y: 0.5 / y)
asinh = _unary("asinh", np.arcsinh, lambda x, y: 1.0 / np.sqrt(1.0 + x * x))
relu = _unary("relu", lambda x: np.maximum(x, 0.0), lambda x, y: (x > 0.0).astype(np.float64))
atanh = _unary(
    "atanh",
    lambda x: np.arctanh(np.clip(x, -ATANH_MAX, ATANH_MAX)),
    lambda x, y: 1.0 / (1.0 - np.clip(x, -ATANH_MAX, ATANH_MAX) ** 2),
)


def where(cond: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select on a constant boolean mask; grads flow branchwise."""
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(np.where(cond, a.data, b.data), (a, b), name="where")
    out._bk = lambda g: (
        a._accumulate(np.where(cond, g, 0.0)),
        b._accumulate(np.where(cond, 0.0, g)),
    )
    return out


def concat_cols(parts: list) -> Tensor:
    """Concatenate 2-d tensors along axis 1."""
    parts = [as_tensor(p) for p in parts]
    out = Tensor(np.concatenate([p.data for p in parts], axis=1), tuple(parts), name="concat")

    def bk(g):
        start = 0
        for p in parts:
            width = p.data.shape[1]
            p._accumulate(g[:, start : start + width])
            start += width

    out._bk = bk
    return out


def cols(t: Tensor, start: int, stop) -> Tensor:
    """Column slice t[:, start:stop]."""
    out = Tensor(t.data[:, start:stop], (t,), name="cols")

    def bk(g):
        full = np.zeros_like(t.data)
        full[:, start:stop] = g
        t._accumulate(full)

    out._bk = bk
    return out


def pick(t: Tensor, indices: np.ndarray) -> Tensor:
    """Row-wise gather t[i, indices[i]] of a 2-d tensor."""
    rows = np.arange(t.data.shape[0])
    out = Tensor(t.data[rows, indices], (t,), name="pick")

    def bk(g):
        full = np.zeros_like(t.data)
        np.add.at(full, (rows, indices), g)
        t._accumulate(full)

    out._bk = bk
    return out


# -- smooth ratio helpers (removable singularities at zero) -----------------

_SERIES_SWITCH = 1e-6


def _safe_ratio(t: Tensor, exact_fn, series_fn) -> Tensor:
    small = t.data < _SERIES_SWITCH
    t_safe = where(small, Tensor(np.ones_like(t.data)), t)
    return where(small, series_fn(t), exact_fn(t_safe))


def tanhc(t: Tensor) -> Tensor:
    """tanh(t)/t, smooth at zero; t must be nonnegative."""
    return _safe_ratio(t, lambda s: tanh(s) / s, lambda s: 1.0 - s * s / 3.0)


def atanhc(t: Tensor) -> Tensor:
    """atanh(t)/t, smooth at zero; t must be nonnegative."""
    return _safe_ratio(t, lambda s: atanh(s) / s, lambda s: 1.0 + s * s / 3.0)


def sinhc(t: Tensor) -> Tensor:
    """sinh(t)/t, smooth at zero; t must be nonnegative."""
    return _safe_ratio(t, lambda s: sinh(s) / s, lambda s: 1.0 + s * s / 6.0)


def asinhc(t: Tensor) -> Tensor:
    """asinh(t)/t, smooth at zero; t must be nonnegative."""
    return _safe_ratio(t, lambda s: asinh(s) / s, lambda s: 1.0 - s * s / 6.0)


def row_norm(t: Tensor) -> Tensor:
    """Euclidean norm of each row, shape (N, 1); smooth floor at zero."""
    sumsq = (t * t).sum(axis=1, keepdims=True)
    return sqrt(sumsq + 1e-32)
