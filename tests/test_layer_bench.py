"""Microbenchmarks of each flavor's layer stage, forward and backward, on a
1,234 x 16 batch, of the forward-only pass `nn.forward` on 2,047 x 16 rows
of the tree-d10 data and on its first row, and of `nn.gradients` on 8 x 6
rows, the shape of `verify`'s gradient_check, where a pass's fixed cost
dominates.

The tier-1 run calls each once (`--benchmark-disable` in pyproject.toml);
to time them:

    PYTHONPATH=src python -m pytest tests/test_layer_bench.py --benchmark-enable
"""

from dataclasses import replace

import numpy as np
import pytest

from hyperklein import nn
from hyperklein.autodiff import Tensor
from hyperklein.data import gen_tree_dataset
from hyperklein.manifolds import Model, exp_map, origin, tangent

ROWS, WIDTH = 1234, 16


def offset_bias(flavor, width, rng):
    """A bias point off the origin, as training leaves it."""
    o = origin(flavor, width)
    raw = rng.normal(size=o.coords.shape) * 0.3
    if flavor is Model.LORENTZ:
        raw[0] = 0.0
    return exp_map(o, tangent(o, raw))


def layer_inputs(flavor):
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(ROWS, WIDTH)) * 0.5)
    return w, offset_bias(flavor, WIDTH, rng).coords


@pytest.mark.parametrize("flavor", list(Model))
def test_layer_forward(benchmark, flavor):
    w, bias = layer_inputs(flavor)
    z, hidden = benchmark(nn._LAYERS[flavor], w, bias, {})
    assert z.data.shape == (ROWS, WIDTH) and z.prev is w
    assert np.all(np.isfinite(z.data)) and np.all(np.isfinite(hidden()))


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


@pytest.mark.parametrize("flavor", list(Model))
def test_gradients_small_batch(benchmark, flavor):
    rng = np.random.default_rng(2)
    model = replace(nn.init_model(flavor, 6, 6, 3, seed=0), bias=offset_bias(flavor, 6, rng))
    feats, labels = rng.normal(size=(8, 6)), rng.integers(0, 3, size=8)
    loss, grads = benchmark(nn.gradients, model, feats, labels)
    assert np.isfinite(loss) and grads.keys() == model.parameter_arrays().keys()
    assert all(np.all(np.isfinite(g)) for g in grads.values())
