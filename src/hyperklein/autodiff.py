"""The network's tape: a chain of stage records over numpy arrays.

Every pass of the network is the same fixed chain of stages, each one
(width, N) float64 array, a column per row: hidden_linear -> <flavor>_layer
-> relu -> readout, and cross_entropy, a float64 scalar, for the loss.  A
Tensor records one stage: its output `data`, the array its builder hands
it, kept unconverted; its `name`; `prev` (the stage it reads, or None for
the first) and `back`, a closed-form backward from dL/d(output) to
dL/d(prev's output) that writes the stage's own parameter gradients into
the pass's gradient dict.  `Tensor.backward` seeds ones and walks the
`prev` links, running each `back` once.  `nn` builds the stages.

Building a stage checks nothing.  `check` raises NumericalError naming a
stage and the first row (column) that holds a non-finite value; `nn` calls
it on the stages of a pass only when that pass returned a non-finite array.
"""

from __future__ import annotations

import numpy as np


class NumericalError(RuntimeError):
    """A stage of the network produced a non-finite value."""


class Tensor:
    """One stage; `data` is kept as its builder hands it: float64 arrays, a float64 scalar loss."""

    __slots__ = ("data", "name", "prev", "back")

    def __init__(self, data, prev=None, back=None, name="input"):
        self.data = data
        self.name = name
        self.prev = prev
        self.back = back

    def backward(self):
        node, grad = self, np.ones_like(self.data)
        while node is not None:
            grad = node.back(grad)
            node = node.prev


def check(node: Tensor) -> None:
    """Raise NumericalError if the node's output holds a non-finite value."""
    bad = ~np.isfinite(node.data)
    if bad.any():
        row = f" at row {int(np.argmax(bad.reshape(-1, bad.shape[-1]).any(axis=0)))}" if bad.ndim else ""
        raise NumericalError(f"numerical overflow in {node.name}{row}")
