"""Minimal reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps a float64 ndarray, records the node that produced it and
keeps the name of its stage; `backward` runs the backward closures in reverse
topological order.  The only generic op is relu: the network's stages are
single nodes that `nn` builds as `Tensor(data, parents)` with a closed-form
backward.

Building a node checks nothing.  `check` raises NumericalError naming a
node's stage and the first row that holds a non-finite value; `nn` calls it
on the stage nodes of a pass only when that pass returned a non-finite array.
"""

from __future__ import annotations

import numpy as np


class NumericalError(RuntimeError):
    """A tape operation produced a non-finite value."""


class Tensor:
    __slots__ = ("data", "grad", "name", "_parents", "_bk")

    def __init__(self, data, parents=(), bk=None, name="input"):
        self.data = np.asarray(data, dtype=np.float64)
        self.name = name
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


def check(node: Tensor) -> None:
    """Raise NumericalError if the node's output holds a non-finite value."""
    bad = ~np.isfinite(node.data)
    if bad.any():
        row = f" at row {int(np.argmax(bad.reshape(len(bad), -1).any(axis=1)))}" if bad.ndim else ""
        raise NumericalError(f"numerical overflow in {node.name}{row}")


def relu(t: Tensor) -> Tensor:
    """max(t, 0) elementwise; the slope at zero is zero."""
    out = Tensor(np.maximum(t.data, 0.0), (t,), name="relu")
    out._bk = lambda g: t._accumulate(g * (t.data > 0.0))
    return out
