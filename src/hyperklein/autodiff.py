"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray and records the node that produced it;
`backward` replays the tape in reverse topological order.  The only generic
op is relu: the network's stages are single nodes that `nn` builds as
`Tensor(data, parents)` with a closed-form backward.

By default every op checks its output for non-finite values and raises
NumericalError naming the op and the first row that holds one, so overflow
surfaces at the source.  `guarded` runs a whole pass with the per-op checks
off and checks once, on the arrays the pass returns; only if one of them is
non-finite does it replay the pass checked, to raise the per-op error.
"""

from __future__ import annotations

from contextvars import ContextVar

import numpy as np


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


def relu(t: Tensor) -> Tensor:
    """max(t, 0) elementwise; the slope at zero is zero."""
    out = Tensor(np.maximum(t.data, 0.0), (t,), name="relu")
    out._bk = lambda g: t._accumulate(g * (t.data > 0.0))
    return out
