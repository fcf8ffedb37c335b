"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and records the operation that produced it;
`backward` replays the tape in reverse topological order.  The op set is
exactly what the hyperbolic layers need: arithmetic with broadcasting,
matmul, reductions, a few elementwise functions, the smooth ratios
tanh(t)/t, atanh(t)/t, sinh(t)/t, asinh(t)/t and the row norm as single
nodes, and a few structural ops (concatenation, column slicing, row picking).

By default every op checks its output for non-finite values and raises
NumericalError naming the op and the first row that holds one, so overflow
surfaces at the source.  `guarded` runs a whole pass with the per-op checks
off and checks once, on the arrays the pass returns; only if one of them is
non-finite does it replay the pass checked, to raise the per-op error.
"""

from __future__ import annotations

from contextvars import ContextVar

import numpy as np

from .manifolds import ATANH_MAX


class NumericalError(RuntimeError):
    """A tape operation produced a non-finite value."""


# per-op checking; `guarded` turns it off for the length of one pass
_checking = ContextVar("autodiff_checking", default=True)


def _check(name: str, data: np.ndarray) -> None:
    bad = ~np.isfinite(data)
    if bad.any():
        row = f" at row {int(np.argmax(bad.reshape(len(bad), -1).any(axis=1)))}" if bad.ndim else ""
        raise NumericalError(f"numerical overflow in {name}{row}")


def guarded(tape_pass):
    """Run `tape_pass()` unchecked, then check the arrays it returns.

    If any returned array holds a non-finite value, the pass is replayed with
    per-op checks, which raises the NumericalError of the first op that
    overflowed.  Both runs ignore numpy's floating-point warnings, so a
    saturating pass reports only through NumericalError.
    """
    with np.errstate(all="ignore"):
        token = _checking.set(False)
        try:
            result = tape_pass()
        finally:
            _checking.reset(token)
        if all(np.isfinite(a).all() for a in result):
            return result
        tape_pass()
    # every tape node passed its check, so the overflow is in the gradients
    raise NumericalError("numerical overflow in backward")


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
        self.data = np.asarray(data, dtype=np.float64)
        if _checking.get():
            _check(name, self.data)
        self.grad = None
        self._parents = parents
        self._bk = bk

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, grad):
        # the first gradient is kept by reference and later ones are added out
        # of place, so no array that another node holds is written to
        if grad.shape != self.data.shape:
            grad = _unbroadcast(grad, self.data.shape)
        self.grad = grad if self.grad is None else self.grad + grad

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

    # an operand that is not a Tensor is a constant: it gets no node and no
    # gradient, and the op has this tensor as its only parent

    def __add__(self, other):
        if not isinstance(other, Tensor):
            out = Tensor(self.data + other, (self,), name="add")
            out._bk = self._accumulate
            return out
        out = Tensor(self.data + other.data, (self, other), name="add")
        out._bk = lambda g: (self._accumulate(g), other._accumulate(g))
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, (self,), name="neg")
        out._bk = lambda g: self._accumulate(-g)
        return out

    def __sub__(self, other):
        if not isinstance(other, Tensor):
            out = Tensor(self.data - other, (self,), name="sub")
            out._bk = self._accumulate
            return out
        return self + (-other)

    def __rsub__(self, other):
        out = Tensor(other - self.data, (self,), name="sub")
        out._bk = lambda g: self._accumulate(-g)
        return out

    def __mul__(self, other):
        if not isinstance(other, Tensor):
            out = Tensor(self.data * other, (self,), name="mul")
            out._bk = lambda g: self._accumulate(g * other)
            return out
        out = Tensor(self.data * other.data, (self, other), name="mul")
        out._bk = lambda g: (
            self._accumulate(g * other.data),
            other._accumulate(g * self.data),
        )
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Tensor):
            out = Tensor(self.data / other, (self,), name="div")
            out._bk = lambda g: self._accumulate(g / other)
            return out
        out = Tensor(self.data / other.data, (self, other), name="div")
        out._bk = lambda g: (
            self._accumulate(g / other.data),
            other._accumulate(-g * self.data / other.data**2),
        )
        return out

    def __rtruediv__(self, other):
        out = Tensor(other / self.data, (self,), name="div")
        out._bk = lambda g: self._accumulate(-g * other / self.data**2)
        return out

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
        # a checked op reports overflow through NumericalError, not a warning
        with np.errstate(all="ignore"):
            out_data = fn(t.data)
        out = Tensor(out_data, (t,), name=name)
        out._bk = lambda g: t._accumulate(g * dfn(t.data, out_data))
        return out

    op.__name__ = name
    return op


cosh = _unary("cosh", np.cosh, lambda x, y: np.sinh(x))
exp = _unary("exp", np.exp, lambda x, y: y)
log = _unary("log", np.log, lambda x, y: 1.0 / x)
sqrt = _unary("sqrt", np.sqrt, lambda x, y: 0.5 / y)
relu = _unary("relu", lambda x: np.maximum(x, 0.0), lambda x, y: (x > 0.0).astype(np.float64))


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


def _smooth_ratio(name: str, t: Tensor, f, df, d: float) -> Tensor:
    """f(t)/t as one node; below _SERIES_SWITCH the series 1 + t^2/d.

    `df(s, f(s))` is f'(s).  The ratio's derivative is (f'(t) - f(t)/t)/t
    above the switch and 2t/d below it.
    """
    x = t.data
    small = x < _SERIES_SWITCH
    s = np.where(small, 1.0, x)
    with np.errstate(all="ignore"):  # as in `_unary`
        fs = f(s)
    y = np.where(small, 1.0 + x * x / d, fs / s)
    out = Tensor(y, (t,), name=name)
    out._bk = lambda g: t._accumulate(g * np.where(small, 2.0 * x / d, (df(s, fs) - y) / s))
    return out


def tanhc(t: Tensor) -> Tensor:
    """tanh(t)/t, smooth at zero; t must be nonnegative."""
    return _smooth_ratio("tanhc", t, np.tanh, lambda s, f: 1.0 - f * f, -3.0)


def atanhc(t: Tensor) -> Tensor:
    """atanh(t)/t, smooth at zero; t must be nonnegative and is clipped at ATANH_MAX."""
    return _smooth_ratio(
        "atanhc",
        t,
        lambda s: np.arctanh(np.minimum(s, ATANH_MAX)),
        lambda s, f: 1.0 / (1.0 - np.minimum(s, ATANH_MAX) ** 2),
        3.0,
    )


def sinhc(t: Tensor) -> Tensor:
    """sinh(t)/t, smooth at zero; t must be nonnegative."""
    return _smooth_ratio("sinhc", t, np.sinh, lambda s, f: np.cosh(s), 6.0)


def asinhc(t: Tensor) -> Tensor:
    """asinh(t)/t, smooth at zero; t must be nonnegative."""
    return _smooth_ratio("asinhc", t, np.arcsinh, lambda s, f: 1.0 / np.sqrt(1.0 + s * s), -6.0)


def row_norm(t: Tensor) -> Tensor:
    """Euclidean norm of each row, shape (N, 1); smooth floor at zero."""
    x = t.data
    n = np.sqrt((x * x).sum(axis=1, keepdims=True) + 1e-32)
    out = Tensor(n, (t,), name="row_norm")
    out._bk = lambda g: t._accumulate(g * x / n)
    return out
