"""Microbenchmarks of each flavor's layer stage, forward and backward, on a
1,234 x 16 batch, and of the forward-only pass `nn.forward` on 2,047 x 16
rows of the tree-d10 data and on its first row.

The tier-1 run calls each once (`--benchmark-disable` in pyproject.toml);
to time them:

    PYTHONPATH=src python -m pytest tests/test_layer_bench.py --benchmark-enable
"""

import numpy as np
import pytest

from hyperklein import nn
from hyperklein.autodiff import Tensor
from hyperklein.data import gen_tree_dataset
from hyperklein.manifolds import Model, exp_map, origin, tangent

ROWS, WIDTH = 1234, 16


def layer_inputs(flavor):
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(ROWS, WIDTH)) * 0.5)
    o = origin(flavor, WIDTH)
    raw = rng.normal(size=o.coords.shape) * 0.3
    if flavor is Model.LORENTZ:
        raw[0] = 0.0
    return w, exp_map(o, tangent(o, raw)).coords


@pytest.mark.parametrize("flavor", list(Model))
def test_layer_forward(benchmark, flavor):
    w, bias = layer_inputs(flavor)
    z, hidden = benchmark(nn._LAYERS[flavor], w, bias, {})
    assert z.data.shape == (ROWS, WIDTH) and z.prev is w
    assert np.all(np.isfinite(z.data)) and np.all(np.isfinite(hidden))


@pytest.mark.parametrize("flavor", list(Model))
def test_layer_backward(benchmark, flavor):
    w, bias = layer_inputs(flavor)
    grads = {}
    z, _ = nn._LAYERS[flavor](w, bias, grads)
    gz = np.random.default_rng(1).normal(size=z.data.shape)

    def backward():
        return z.back(gz), grads["bias"]

    gw, gb = benchmark(backward)
    assert gw.shape == w.data.shape and gb.shape == bias.shape
    assert np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))


@pytest.fixture(scope="module")
def tree_features():
    return gen_tree_dataset(10, WIDTH, 0.1, seed=0).features


@pytest.mark.parametrize("rows", [2047, 1])
@pytest.mark.parametrize("flavor", list(Model))
def test_forward(benchmark, tree_features, flavor, rows):
    model = nn.init_model(flavor, WIDTH, WIDTH, 4, seed=0)
    feats = tree_features[:rows]
    logits = benchmark(nn.forward, model, feats)
    assert logits.shape == (rows, 4) and np.all(np.isfinite(logits))
