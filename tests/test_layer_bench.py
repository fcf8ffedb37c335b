"""Microbenchmarks of each flavor's layer stage, forward and backward, on a
1,234 x 16 batch, of the readout and loss stages, forward and backward, on
1,234 rows of 16 hidden units and 11 classes, of the forward-only pass `nn.forward` on 2,047 x 16 rows
of the tree-d10 data and on its first row, with the bias at the origin and,
on the first row, off it, and of `nn.gradients` on the
1,234 x 16 tree-d10 train split, on 8 x 6 rows, the shape of `verify`'s
gradient_check, where a pass's fixed cost dominates, and on one tree-d10
row per flavor, gradient_check's batch-1 case, whose layer does its
per-row scalar algebra on numpy scalars, and of the four
matvec suites (`matvec_compose`, `matvec_scale`, `matvec_orthogonal`,
`matvec_tangent`) at 2,000 samples, which draw each sample's matrices at
its own size, of `verify.sample_ball` and `verify._normal` on 2,000 rows,
the samplers every geometry suite draws from, and of `manifolds.row_dots`
on 2,000 x 16 and 1 x 16 rows, a batch and a single row, which it sums by
different paths, on the stacked (2,000, 16, 16) . (2,000, 1, 16) products
of `gyro.einstein_matvec`, whose buffer puts the summed axis outermost, and
on 2,000 x 16 rows against one broadcast 1 x 16 row, of the layer's column
dot products on (16, 2,047) and (16, 1) stage arrays, which it also sums by
different paths, of one `nn.riemannian_adam_step` per flavor, on the
gradients of a tree-d10 train split with the bias off the origin, and of
`nn.accuracy` per flavor on the 407-row tree-d10 validation split, the
pass a training epoch makes after its step, of `nn._preprocess`'s
feature cap on the first tree-d10 row and on all 2,047 rows, which it tests
by different paths, of `manifolds.smooth_ratio` and `smooth_slope` on a
numpy scalar and on a (1, 2,047) row, whose series switch they test by
different paths, of `manifolds.lorentz_tangent_rows` on one (1, 17)
hyperboloid row, the Lorentz Adam step's projection, and of the Lorentz
`transport_from_origin` and `log_map` on 2,000 rows of 17 coordinates.

A backward runs once per pass and may overwrite the gradient it is handed
and the buffers its stage holds, so each backward round times a stage and
a gradient built afresh for it.

The tier-1 run calls each once (`--benchmark-disable` in pyproject.toml);
to time them:

    PYTHONPATH=src python -m pytest tests/test_layer_bench.py --benchmark-enable
"""

from dataclasses import replace

import numpy as np
import pytest

from hyperklein import nn, verify
from hyperklein.autodiff import Tensor
from hyperklein.data import gen_tree_dataset
from hyperklein.manifolds import (
    Model,
    exp_map,
    log_map,
    lorentz_rows,
    lorentz_tangent_rows,
    origin,
    row_dots,
    smooth_ratio,
    smooth_slope,
    transport_from_origin,
)

ROWS, WIDTH, CLASSES = 1234, 16, 11


def offset_bias(flavor, width, rng):
    """A bias point off the origin, as training leaves it."""
    o = origin(flavor, width)
    raw = rng.normal(size=o.shape) * 0.3
    if flavor is Model.LORENTZ:
        raw[:, 0] = 0.0
    return exp_map(flavor, o, raw)[0]


def layer_inputs(flavor):
    """A stage input, which holds one column per row, and the bias
    coordinates with the terms a model derives from them on its first pass."""
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(WIDTH, ROWS)) * 0.5)
    bias = offset_bias(flavor, WIDTH, rng)
    return w, bias, nn._BIAS_TERMS[flavor](bias)


def time_backward(benchmark, build):
    """Time stage.back(g) for a (stage, g) pair that `build` makes anew each round."""
    return benchmark.pedantic(lambda stage, g: stage.back(g), setup=lambda: (build(), {}), rounds=100)


@pytest.mark.parametrize("flavor", list(Model))
def test_layer_forward(benchmark, flavor):
    w, _, terms = layer_inputs(flavor)
    z = benchmark(nn._LAYERS[flavor], w, terms, {})
    assert z.data.shape == (WIDTH, ROWS) and z.prev is w
    assert np.all(np.isfinite(z.data))


@pytest.mark.parametrize("flavor", list(Model))
def test_layer_backward(benchmark, flavor):
    w, bias, terms = layer_inputs(flavor)
    grads = {}
    gz = np.random.default_rng(1).normal(size=w.data.shape)
    gw = time_backward(benchmark, lambda: (nn._LAYERS[flavor](w, terms, grads), gz.copy()))
    gb = grads["bias"]
    assert gw.shape == (WIDTH, ROWS) and gb.shape == bias.shape
    assert np.all(np.isfinite(gw)) and np.all(np.isfinite(gb))


def readout_inputs():
    rng = np.random.default_rng(4)
    model = nn.init_model(Model.KLEIN, WIDTH, WIDTH, CLASSES, seed=0)
    active = Tensor(np.maximum(rng.normal(size=(WIDTH, ROWS)), 0.0))
    return active, model, rng.integers(0, CLASSES, size=ROWS)


def test_readout_forward(benchmark):
    active, model, _ = readout_inputs()
    logits = benchmark(nn._readout, active, model.readout_weight, model.readout_bias, {})
    assert logits.data.shape == (CLASSES, ROWS) and logits.prev is active


def test_readout_backward(benchmark):
    active, model, _ = readout_inputs()
    grads = {}
    g = np.random.default_rng(5).normal(size=(CLASSES, ROWS))
    ga = time_backward(
        benchmark, lambda: (nn._readout(active, model.readout_weight, model.readout_bias, grads), g.copy())
    )
    assert ga.shape == (WIDTH, ROWS)
    assert grads["readout_weight"].shape == (CLASSES, WIDTH) and grads["readout_bias"].shape == (CLASSES,)


def test_cross_entropy_forward(benchmark):
    active, model, labels = readout_inputs()
    logits = nn._readout(active, model.readout_weight, model.readout_bias, {})
    loss = benchmark(nn._mean_cross_entropy, logits, labels)
    assert loss.data.shape == () and np.isfinite(loss.data) and loss.prev is logits


def test_cross_entropy_backward(benchmark):
    active, model, labels = readout_inputs()
    logits = nn._readout(active, model.readout_weight, model.readout_bias, {})
    g = time_backward(benchmark, lambda: (nn._mean_cross_entropy(logits, labels), np.ones(())))
    assert g.shape == (CLASSES, ROWS) and np.all(np.isfinite(g))
    np.testing.assert_allclose(g.sum(axis=0), 0.0, atol=1e-15)


@pytest.fixture(scope="module")
def tree():
    return gen_tree_dataset(10, WIDTH, 0.1, seed=0)


@pytest.mark.parametrize("rows", [2047, 1])
@pytest.mark.parametrize("flavor", list(Model))
def test_forward(benchmark, tree, flavor, rows):
    model = nn.init_model(flavor, WIDTH, WIDTH, 4, seed=0)
    feats = tree.features[:rows]
    logits = benchmark(nn.forward, model, feats)
    assert logits.shape == (rows, 4) and np.all(np.isfinite(logits))


@pytest.mark.parametrize("flavor", list(Model))
def test_forward_offset_bias(benchmark, tree, flavor):
    # off the origin the bias's ratios take their closed forms, as in a trained model
    model = nn.init_model(flavor, WIDTH, WIDTH, 4, seed=0)
    model = replace(model, bias=offset_bias(flavor, WIDTH, np.random.default_rng(3)))
    logits = benchmark(nn.forward, model, tree.features[:1])
    assert logits.shape == (1, 4) and np.all(np.isfinite(logits))


@pytest.mark.parametrize("flavor", list(Model))
def test_gradients_tree_train_split(benchmark, tree, flavor):
    model = nn.init_model(flavor, WIDTH, WIDTH, tree.n_classes, seed=0)
    feats, labels = tree.features[tree.train_idx], tree.labels[tree.train_idx]
    assert feats.shape == (ROWS, WIDTH)
    loss, grads = benchmark(nn.gradients, model, feats, labels)
    assert np.isfinite(loss) and all(np.all(np.isfinite(g)) for g in grads.values())


@pytest.mark.parametrize("flavor", list(Model))
def test_gradients_one_row(benchmark, tree, flavor):
    model = nn.init_model(flavor, WIDTH, WIDTH, tree.n_classes, seed=0)
    model = replace(model, bias=offset_bias(flavor, WIDTH, np.random.default_rng(3)))
    loss, grads = benchmark(nn.gradients, model, tree.features[:1], tree.labels[:1])
    assert np.isfinite(loss) and grads.keys() == model.parameter_arrays().keys()
    assert all(np.all(np.isfinite(g)) for g in grads.values())


def small_batch(flavor):
    """A model off the origin and 8 x 6 rows with labels, gradient_check's shape."""
    rng = np.random.default_rng(2)
    model = replace(nn.init_model(flavor, 6, 6, 3, seed=0), bias=offset_bias(flavor, 6, rng))
    return model, rng.normal(size=(8, 6)), rng.integers(0, 3, size=8)


@pytest.mark.parametrize("flavor", list(Model))
def test_gradients_small_batch(benchmark, flavor):
    model, feats, labels = small_batch(flavor)
    loss, grads = benchmark(nn.gradients, model, feats, labels)
    assert np.isfinite(loss) and grads.keys() == model.parameter_arrays().keys()
    assert all(np.all(np.isfinite(g)) for g in grads.values())


@pytest.mark.parametrize("suite", ["matvec_compose", "matvec_scale", "matvec_orthogonal", "matvec_tangent"])
def test_matvec_suite(benchmark, suite):
    report = benchmark(verify.run_suite, suite, samples=2000)
    assert report.passed and report.samples == 2000


@pytest.mark.parametrize("sampler", ["sample_ball", "normal"])
def test_sampler(benchmark, sampler):
    rng = np.random.default_rng(10)
    dims = verify._dims(rng, 2000)
    if sampler == "sample_ball":
        rows = benchmark(verify.sample_ball, dims, rng)
    else:
        rows = benchmark(verify._normal, rng, dims)
    assert rows.shape == (2000, verify.WIDTH) and np.all(rows[~verify._mask(dims)] == 0.0)


@pytest.mark.parametrize(
    "a_shape,b_shape",
    [
        ((2000, WIDTH), (2000, WIDTH)),
        ((1, WIDTH), (1, WIDTH)),
        ((2000, WIDTH, WIDTH), (2000, 1, WIDTH)),
        ((2000, WIDTH), (1, WIDTH)),
    ],
    ids=["2000", "1", "stacked", "broadcast"],
)
def test_row_dots(benchmark, a_shape, b_shape):
    rng = np.random.default_rng(6)
    a, b = rng.normal(size=a_shape), rng.normal(size=b_shape)
    dots = benchmark(row_dots, a, b)
    assert dots.shape == np.broadcast_shapes(a_shape, b_shape)[:-1] + (1,) and np.all(np.isfinite(dots))


@pytest.mark.parametrize("rows", [2047, 1])
def test_column_dots(benchmark, rows):
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=(WIDTH, rows)), rng.normal(size=(WIDTH, rows))
    dots = benchmark(nn._column_dots, a, b)
    assert (type(dots) is np.float64 if rows == 1 else dots.shape == (1, rows)) and np.all(np.isfinite(dots))


@pytest.mark.parametrize("flavor", list(Model))
def test_riemannian_adam_step(benchmark, tree, flavor):
    model = nn.init_model(flavor, WIDTH, WIDTH, tree.n_classes, seed=0)
    model = replace(model, bias=offset_bias(flavor, WIDTH, np.random.default_rng(3)))
    _, grads = nn.gradients(model, tree.features[tree.train_idx], tree.labels[tree.train_idx])
    state = nn.GradState(lr=0.01)
    nn.riemannian_adam_step(state, model, grads)  # each timed step then updates the moments, as in training
    stepped = benchmark(nn.riemannian_adam_step, state, model, grads)
    assert stepped.flavor is flavor and stepped.parameter_arrays().keys() == grads.keys()
    assert all(np.all(np.isfinite(a)) for a in stepped.parameter_arrays().values())
    assert not np.array_equal(stepped.weight, model.weight)


@pytest.mark.parametrize("flavor", list(Model))
def test_accuracy(benchmark, tree, flavor):
    model = nn.init_model(flavor, WIDTH, WIDTH, tree.n_classes, seed=0)
    model = replace(model, bias=offset_bias(flavor, WIDTH, np.random.default_rng(3)))
    feats, labels = tree.features[tree.val_idx], tree.labels[tree.val_idx]
    assert feats.shape == (407, WIDTH)
    acc = benchmark(nn.accuracy, model, feats, labels)
    assert type(acc) is float and 0.0 <= acc <= 1.0


@pytest.mark.parametrize("rows", [1, 2047])
def test_preprocess(benchmark, tree, rows):
    feats = tree.features[:rows]
    capped = benchmark(nn._preprocess, feats)
    assert capped.tobytes() == feats.tobytes()  # tree rows lie under the cap


def ratio_argument(rows):
    """A lone row's numpy scalar above the series switch, or a (1, rows) row
    with every 7th entry below it."""
    t = np.random.default_rng(8).uniform(0.5, 2.0, size=(1, rows))
    t[0, 1::7] *= 1e-4
    return t[0, 0] if rows == 1 else t


@pytest.mark.parametrize("rows", [1, 2047])
def test_smooth_ratio(benchmark, rows):
    t = ratio_argument(rows)
    value = benchmark(smooth_ratio, "tanhc", t)
    assert np.shape(value) == np.shape(t) and np.all(np.isfinite(value))


@pytest.mark.parametrize("rows", [1, 2047])
def test_smooth_slope(benchmark, rows):
    t = ratio_argument(rows)
    slope = benchmark(smooth_slope, "tanhc", t, smooth_ratio("tanhc", t))
    assert np.shape(slope) == np.shape(t) and np.all(np.isfinite(slope))


def test_lorentz_tangent_rows(benchmark):
    bias = offset_bias(Model.LORENTZ, WIDTH, np.random.default_rng(3))[None]
    comp = np.random.default_rng(9).normal(size=bias.shape)
    projected = benchmark(lorentz_tangent_rows, bias, comp)
    assert projected.shape == (1, WIDTH + 1) and np.all(np.isfinite(projected))


def hyperboloid_rows(seed):
    """2,000 hyperboloid rows with spatial parts of standard normal entries."""
    return lorentz_rows(np.random.default_rng(seed).normal(size=(2000, WIDTH)))


def test_lorentz_transport_from_origin(benchmark):
    x = hyperboloid_rows(10)
    v = np.pad(np.random.default_rng(11).normal(size=(2000, WIDTH)), ((0, 0), (1, 0)))
    moved = benchmark(transport_from_origin, Model.LORENTZ, x, v)
    assert moved.shape == x.shape and np.all(np.isfinite(moved))


def test_lorentz_log_map(benchmark):
    x, y = hyperboloid_rows(12), hyperboloid_rows(13)
    v = benchmark(log_map, Model.LORENTZ, x, y)
    assert v.shape == x.shape and np.all(np.isfinite(v))
