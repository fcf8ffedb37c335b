"""Microbenchmarks of each flavor's layer node, forward and backward, on a
1,234 x 16 batch.

The tier-1 run calls each once (`--benchmark-disable` in pyproject.toml);
to time them:

    PYTHONPATH=src python -m pytest tests/test_layer_bench.py --benchmark-enable
"""

import numpy as np
import pytest

from hyperklein import nn
from hyperklein.autodiff import Tensor
from hyperklein.manifolds import Model, exp_map, origin, tangent

ROWS, WIDTH = 1234, 16


def layer_inputs(flavor):
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(ROWS, WIDTH)) * 0.5)
    o = origin(flavor, WIDTH)
    raw = rng.normal(size=o.coords.shape) * 0.3
    if flavor is Model.LORENTZ:
        raw[0] = 0.0
    return w, Tensor(exp_map(o, tangent(o, raw)).coords)


@pytest.mark.parametrize("flavor", list(Model))
def test_layer_forward(benchmark, flavor):
    w, bias = layer_inputs(flavor)
    z, hidden = benchmark(nn._LAYERS[flavor], w, bias)
    assert z.shape == (ROWS, WIDTH)
    assert np.all(np.isfinite(z.data)) and np.all(np.isfinite(hidden))


@pytest.mark.parametrize("flavor", list(Model))
def test_layer_backward(benchmark, flavor):
    w, bias = layer_inputs(flavor)
    z, _ = nn._LAYERS[flavor](w, bias)
    gz = np.random.default_rng(1).normal(size=z.shape)

    def backward():
        w.grad = bias.grad = None
        z._bk(gz)
        return w.grad, bias.grad

    gw, gb = benchmark(backward)
    assert gw.shape == w.shape and gb.shape == bias.shape
    assert np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))
