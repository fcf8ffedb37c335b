"""Tests for the property suites themselves."""

import inspect
import json
from dataclasses import replace

import numpy as np
import pytest

from hyperklein import nn, verify
from hyperklein.autodiff import NumericalError
from hyperklein.data import gen_tree_dataset
from hyperklein.gyro import einstein_matvec, einstein_scalar
from hyperklein.manifolds import (
    KleinPoint,
    Model,
    _point_row,
    clamp_rows,
    exp_map,
    log_map,
    origin,
    tangent,
)


@pytest.mark.parametrize("seed", [1, 21, 45])
def test_gradient_check_steps_around_relu_kinks(seed):
    # a fixed 1e-5 central difference crosses a ReLU kink at seeds 1 and 45,
    # and a fixed 1e-6 one is too noisy at seed 21
    report = verify.run_suite("gradient_check", samples=20, seed=seed)
    assert report.passed, report.worst_case_input


def test_every_suite_takes_exactly_samples_and_rng():
    # a per-suite switch would need a third parameter; a test injects a defect
    # by patching the kernel the suite calls instead
    params = {name: list(inspect.signature(fn).parameters) for name, (fn, _, _) in verify._SUITES.items()}
    assert params == {name: ["samples", "rng"] for name in verify._SUITES}


def test_gradient_check_raises_on_a_non_finite_loss():
    # hidden weights x1e3 saturate the Klein layer; a nan trial loss must
    # not vanish into the running maximum of the errors
    ds = gen_tree_dataset(6, 8, 0.1, 0)
    model = nn.init_model(Model.KLEIN, ds.dim, 16, ds.n_classes, seed=0)
    model = replace(model, weight=model.weight * 1e3)
    grads = {key: np.zeros_like(a) for key, a in model.parameter_arrays().items()}
    with pytest.raises(NumericalError, match=r"overflow in klein_layer at row \d+$"):
        verify._max_rel_grad_error(model, ds.features, ds.labels, grads)


def _with(model, key, array):
    """model with the parameter key set to array; a bias array is taken as given."""
    return replace(model, **{key: _point_row(model.flavor, array[None]) if key == "bias" else array})


def test_a_non_finite_stacked_trial_raises_the_error_of_its_own_pass():
    # the stage and the batch row, not the trial's column in the stack
    ds = gen_tree_dataset(6, 8, 0.1, 0)
    for flavor, key in [(Model.KLEIN, "weight"), (Model.POINCARE, "bias"), (Model.LORENTZ, "bias")]:
        model = nn.init_model(flavor, ds.dim, 16, ds.n_classes, seed=0)
        current = model.parameter_arrays()[key]
        saturated = current * 1e3 if key == "weight" else np.full_like(current, 1e160)
        with pytest.raises(NumericalError) as own:
            nn.forward(_with(model, key, saturated), ds.features)
        losses = verify._trial_losses(model, *nn._prepare(model, ds.features, ds.labels))[key]
        with pytest.raises(NumericalError) as stacked:
            losses(np.stack([current, saturated]))
        assert str(stacked.value) == str(own.value)


def test_gradient_check_caps_a_sample_once_for_all_its_trials(monkeypatch):
    # each sample's rows are capped once by gradients and once for all of
    # its finite-difference passes, not once per pass
    calls = {"_preprocess": 0, "gradients": 0}
    for name in calls:

        def counted(*args, _name=name, _inner=getattr(nn, name)):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(nn, name, counted)
    verify.run_suite("gradient_check", samples=3)
    assert calls == {"_preprocess": 2 * 3, "gradients": 3}


def test_finite_diff_grad_shrinks_only_the_step_of_a_coordinate_next_to_a_kink():
    point = np.random.default_rng(0).normal(size=(8, 8))
    kink = point[2, 5] + 3e-6  # crossed by a step of 1e-5, not by one of 1e-6
    calls = []

    def fn(stack):
        calls.append(stack.copy())
        value = np.sin(stack.reshape(len(stack), -1)).sum(axis=1) + 4.0 * np.abs(stack[:, 2, 5] - kink)
        return value, stack[:, 2, 5] > kink

    def central(idx, h):
        step = np.zeros_like(point)
        step[idx] = h
        up, down = fn(np.stack([point + step, point - step]))[0]
        return (up - down) / (2.0 * h)

    grad = verify.finite_diff_grad(fn, point)
    # the point's piece, every coordinate at h = 1e-5, the kinked one at 1e-6
    assert len(calls) == 3
    moved = (calls[2] != point).any(axis=0)
    assert len(calls[2]) == 2 and moved[2, 5] and moved.sum() == 1
    expected = np.array([central(idx, 1e-5) for idx in np.ndindex(point.shape)]).reshape(point.shape)
    expected[2, 5] = central((2, 5), 1e-5 / 10.0)  # the second step, as the policy computes it
    np.testing.assert_array_equal(grad, expected)


def _offset_model(flavor, rng):
    """gradient_check's kind of model: in_dim 5, hidden 6, 3 classes, bias off the origin."""
    model = nn.init_model(flavor, 5, 6, 3, seed=int(rng.integers(2**31)))
    o = origin(flavor, 6)
    raw = rng.normal(size=o.coords.shape) * 0.3
    if flavor is Model.LORENTZ:
        raw[0] = 0.0
    return replace(model, bias=exp_map(o, tangent(o, raw)))


@pytest.mark.parametrize("batch", [1, 8])
@pytest.mark.parametrize("key", ["weight", "bias", "readout_weight", "readout_bias"])
@pytest.mark.parametrize("flavor", list(Model))
def test_stacked_trial_losses_equal_the_tapes(flavor, key, batch):
    rng = np.random.default_rng(3)
    model = _offset_model(flavor, rng)
    feats, labels = rng.normal(size=(batch, 5)) * 2.0, rng.integers(0, 3, size=batch)
    current = model.parameter_arrays()[key]
    trials = current + rng.normal(size=(4, *current.shape)) * 0.3
    losses, patterns = verify._trial_losses(model, *nn._prepare(model, feats, labels))[key](trials)
    trial_models = [_with(model, key, trial) for trial in trials]
    expected = [nn.gradients(trial_model, feats, labels)[0] for trial_model in trial_models]
    np.testing.assert_allclose(losses, expected, rtol=1e-13, atol=0.0)
    tangents = np.stack([nn.hidden_tangent(trial_model, feats).T for trial_model in trial_models])
    np.testing.assert_array_equal(patterns, tangents > 0.0)


def test_random_matrices_draw_only_each_samples_block():
    rng = np.random.default_rng(5)
    rows, cols = verify._dims(rng, 300), verify._dims(rng, 300)
    m = verify._random_matrices(rng, rows, cols)
    block = verify._mask(rows)[:, :, None] & verify._mask(cols)[:, None, :]
    assert np.all(m[~block] == 0.0) and np.all(m[block] != 0.0)
    # each block is normal / sqrt(cols)
    scaled = m[block] * np.repeat(np.sqrt(cols), rows * cols)
    assert abs(scaled.mean()) < 0.02 and abs(scaled.std() - 1.0) < 0.02


def test_orthogonal_suite_draws_orthogonal_blocks():
    rng = np.random.default_rng(6)
    dims = verify._dims(rng, 300)
    q = verify._random_orthogonal(rng, dims)
    block = verify._mask(dims)[:, :, None] & verify._mask(dims)[:, None, :]
    assert np.all(q[~block] == 0.0)
    # q^T q is the identity on each dims x dims block
    identity = np.eye(verify.WIDTH) * verify._mask(dims)[:, None, :]
    np.testing.assert_allclose(q.transpose(0, 2, 1) @ q, identity, rtol=0.0, atol=1e-12)


def test_matvec_error_compares_directions_only_where_a_point_is_clamped():
    rim = clamp_rows(np.array([[2.0, 0.0]]))  # on the clamp radius
    lhs = np.array([[0.5, 0.0], [0.5, 0.0], rim[0], [0.5, 0.0]])
    rhs = np.array([[0.25, 0.0], [0.25, 0.0], [0.25, 0.0], [0.0, 0.5]])
    mid = np.array([[0.1, 0.0], rim[0], [0.1, 0.0], rim[0]])
    # coordinates where nothing is clamped; directions where mid or a side
    # is, and those still differ when the sides do not share a ray
    err = verify._matvec_error(lhs, rhs, mid)
    np.testing.assert_allclose(err, [0.25, 0.0, 0.0, 1.0], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("seed,samples", [(4, None), (21, 2000), (36, 2000)])
@pytest.mark.parametrize("suite", ["matvec_compose", "matvec_scale"])
def test_matvec_identities_hold_where_a_point_is_clamped(suite, seed, samples):
    # at these seeds M2 (x) x or an output is clamped to norm 1 - EPS_BALL,
    # where only the directions of the two sides must agree
    report = verify.run_suite(suite, samples=samples, seed=seed)
    assert report.passed, report.max_abs_error


def _replay_matvec_compose(w):
    m1, m2, x = np.asarray(w["m1"]), np.asarray(w["m2"]), KleinPoint(w["x"])
    assert m1.shape == (w["out"], w["mid"]) and m2.shape == (w["mid"], x.dim)
    return einstein_matvec(m1 @ m2, x).coords - einstein_matvec(m1, einstein_matvec(m2, x)).coords


def _replay_matvec_scale(w):
    m, r, x = np.asarray(w["m"]), w["r"], KleinPoint(w["x"])
    return einstein_matvec(r * m, x).coords - einstein_scalar(r, einstein_matvec(m, x)).coords


def _replay_matvec_orthogonal(w):
    q, x = np.asarray(w["q"]), KleinPoint(w["x"])
    return einstein_matvec(q, x).coords - q @ x.coords


def _replay_matvec_tangent(w):
    m, x = np.asarray(w["m"]), KleinPoint(w["x"])
    assert m.shape == (w["out"], x.dim)
    o_in, o_out = origin(Model.KLEIN, x.dim), origin(Model.KLEIN, w["out"])
    via = exp_map(o_out, tangent(o_out, m @ log_map(o_in, x).components))
    return einstein_matvec(m, x).coords - via.coords


@pytest.mark.parametrize(
    "suite,keys,replay",
    [
        ("matvec_compose", {"x", "m1", "m2", "mid", "out"}, _replay_matvec_compose),
        ("matvec_scale", {"x", "r", "m"}, _replay_matvec_scale),
        ("matvec_orthogonal", {"x", "q"}, _replay_matvec_orthogonal),
        ("matvec_tangent", {"x", "m", "out"}, _replay_matvec_tangent),
    ],
)
def test_matvec_worst_case_can_be_replayed(suite, keys, replay):
    report = verify.run_suite(suite, samples=200, seed=0)
    worst = json.loads(report.worst_case_input)
    assert set(worst) == keys
    err = float(np.max(np.abs(replay(worst))))
    assert err == pytest.approx(report.max_abs_error, rel=1e-6)


def test_worst_reports_the_largest_error_and_its_row():
    rows = np.arange(12.0).reshape(3, 4)
    err, record = verify._worst(
        np.array([1e-3, 5e-3, 2e-3]), x=(rows, np.array([2, 3, 1])), r=np.array([0.1, 0.2, 0.3]), via="lorentz"
    )
    assert err == 5e-3
    assert json.loads(record) == {"x": [4.0, 5.0, 6.0], "r": 0.2, "via": "lorentz"}


def test_report_json_is_every_field_but_the_seconds():
    report = verify.PropertyReport("round_trip", 10, 1.5e-16, 1e-12, True, '{"x": [0.5]}', seconds=3.25)
    assert report.to_json() == (
        '{"suite": "round_trip", "samples": 10, "max_abs_error": 1.5e-16, "tolerance": 1e-12, '
        '"passed": true, "worst_case_input": "{\\"x\\": [0.5]}"}'
    )
