"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and records the operation that produced it;
`backward` replays the tape in reverse topological order.  The generic op set
is small: arithmetic with broadcasting, matmul, sums, relu and the row norm.
The network's heavy stages are single nodes that `nn` builds with a
closed-form backward; `smooth_ratio` gives them the value and slope of
tanh(t)/t, atanh(t)/t, sinh(t)/t and asinh(t)/t, which are smooth through
t = 0.

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


def relu(t: Tensor) -> Tensor:
    """max(t, 0) elementwise; the slope at zero is zero."""
    out = Tensor(np.maximum(t.data, 0.0), (t,), name="relu")
    out._bk = lambda g: t._accumulate(g * (t.data > 0.0))
    return out


def row_norm(t: Tensor) -> Tensor:
    """Euclidean norm of each row, shape (N, 1); smooth floor at zero."""
    x = t.data
    n = np.sqrt((x * x).sum(axis=1, keepdims=True) + 1e-32)
    out = Tensor(n, (t,), name="row_norm")
    out._bk = lambda g: t._accumulate(g * x / n)
    return out


# -- smooth ratios f(t)/t (removable singularities at zero) -------------------

# Below the switch f(t)/t is its series 1 + c2 t^2 + c4 t^4, which is exact to
# float64 there.  Above it the slope (f'(t) - f(t)/t)/t subtracts two values
# near 1; at t >= 1e-3 that leaves at least nine correct digits.
_SERIES_SWITCH = 1e-3

# f, f' (given t and f(t)), c2, c4
_RATIOS = {
    "tanhc": (np.tanh, lambda t, f: 1.0 - f * f, -1.0 / 3.0, 2.0 / 15.0),
    # atanh is evaluated at most at ATANH_MAX, and so is its slope
    "atanhc": (
        lambda t: np.arctanh(np.minimum(t, ATANH_MAX)),
        lambda t, f: 1.0 / (1.0 - np.minimum(t, ATANH_MAX) ** 2),
        1.0 / 3.0,
        1.0 / 5.0,
    ),
    "sinhc": (np.sinh, lambda t, f: np.cosh(t), 1.0 / 6.0, 1.0 / 120.0),
    "asinhc": (np.arcsinh, lambda t, f: 1.0 / np.sqrt(1.0 + t * t), -1.0 / 6.0, 3.0 / 40.0),
}


def smooth_ratio(name: str, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and slope of f(t)/t, named tanhc, atanhc, sinhc or asinhc; t >= 0.

    These are plain arrays, for the tape nodes whose closed-form backward
    chains through the ratio.  Overflow gives inf or nan; the nodes call
    this under np.errstate and report it through their check.
    """
    fn, dfn, c2, c4 = _RATIOS[name]
    small = t < _SERIES_SWITCH
    s = np.where(small, 1.0, t)
    f = fn(s)
    y = f / s
    dy = (dfn(s, f) - y) / s
    t2 = t * t
    value = np.where(small, 1.0 + t2 * (c2 + t2 * c4), y)
    slope = np.where(small, t * (2.0 * c2 + 4.0 * c4 * t2), dy)
    return value, slope
