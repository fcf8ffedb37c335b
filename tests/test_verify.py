"""Tests for the property suites themselves."""

import inspect
import json
from dataclasses import replace

import numpy as np
import pytest

from hyperklein import gyro, manifolds, nn, verify
from hyperklein.autodiff import NumericalError
from hyperklein.data import gen_tree_dataset
from hyperklein.gyro import einstein_matvec, einstein_scalar
from hyperklein.manifolds import Model, clamp_to_ball, exp_map, log_map


@pytest.mark.parametrize("seed", [1, 21, 45])
def test_gradient_check_steps_around_relu_kinks(seed):
    # seeds where a step per coordinate crossed a ReLU kink at 1e-5 (1, 45)
    # and met rounding noise at 1e-6 (21); one direction per parameter
    # crosses no kink there, and the next test drives the step policy
    report = verify.run_suite("gradient_check", samples=20, seed=seed)
    assert report.passed, report.worst_case_input


class _Ones:
    """An rng whose normal draws are all ones."""

    @staticmethod
    def normal(size):
        return np.ones(size)


def test_gradient_check_shrinks_its_step_at_a_relu_kink():
    # hidden unit 0 is 3e-6 above its kink: a weight step of 1e-5 along the
    # all-ones direction crosses it, and one of 1e-6 does not
    model = replace(nn.init_model(Model.KLEIN, 2, 2, 2, seed=0), weight=np.eye(2))
    feats, labels = np.array([[3e-6, 2.0]]), np.array([0])
    crossed = nn.hidden_tangent(replace(model, weight=model.weight - 1e-5 * np.full((2, 2), 0.5)), feats)
    assert nn.hidden_tangent(model, feats)[0, 0] > 0.0 > crossed[0, 0]
    _, grads = nn.gradients(model, feats, labels)
    assert verify._directional_error(model, feats, labels, grads, _Ones()) < 1e-8


def test_every_suite_takes_exactly_samples_and_rng():
    # a per-suite switch would need a third parameter; a test injects a defect
    # by patching the kernel the suite calls instead
    params = {name: list(inspect.signature(fn).parameters) for name, (fn, _, _) in verify._SUITES.items()}
    assert params == {name: ["samples", "rng"] for name in verify._SUITES}


def test_gradient_check_uses_only_the_public_network():
    # a rewrite of nn's stages leaves every suite as it is: verify names no
    # private attribute of nn and imports nothing from the tape
    assert "nn._" not in inspect.getsource(verify)
    assert all(getattr(value, "__module__", None) != "hyperklein.autodiff" for value in vars(verify).values())


def test_forward_validity_fails_on_a_non_finite_layer_output(monkeypatch):
    # a NaN in column 3 of each per-row ratio is a NaN in the layer's row 3
    exact = nn.smooth_ratio

    def poisoned(name, t):
        ratio = np.array(exact(name, t))
        if ratio.ndim == 2:
            ratio[0, 3] = np.nan
        return ratio

    monkeypatch.setattr(nn, "smooth_ratio", poisoned)
    report = verify.run_suite("forward_validity", samples=200)
    assert report.max_abs_error == np.inf and not report.passed
    case = json.loads(report.worst_case_input)
    assert case["error"] == f"numerical overflow in {case['flavor']}_layer at row 3"
    assert {"in_dim", "hidden", "classes"} <= set(case)


_GRADIENT_DEFECTS = {
    "bias_scaled": ("bias", lambda g: g * 1.001),
    "weight_entry_moved": ("weight", lambda g: g + 1e-3 * np.eye(1, g.size).reshape(g.shape)),
    "readout_bias_sign_flipped": ("readout_bias", lambda g: g * np.r_[np.ones(g.size - 1), -1.0]),
    "weight_rows_rolled": ("weight", lambda g: np.roll(g, 1, axis=0)),
}


@pytest.mark.parametrize("defect", list(_GRADIENT_DEFECTS))
def test_gradient_check_fails_on_a_gradient_defect(monkeypatch, defect):
    key, corrupt = _GRADIENT_DEFECTS[defect]
    exact = nn.gradients

    def corrupted(*args):
        loss, grads = exact(*args)
        return loss, {**grads, key: corrupt(grads[key])}

    monkeypatch.setattr(nn, "gradients", corrupted)
    report = verify.run_suite("gradient_check", samples=20, seed=0)
    assert not report.passed, report.max_abs_error


def test_gradient_check_raises_on_a_non_finite_loss():
    # hidden weights x1e3 saturate the Klein layer; the check raises the
    # layer's error rather than compare a nan loss
    ds = gen_tree_dataset(6, 8, 0.1, 0)
    model = nn.init_model(Model.KLEIN, ds.dim, 16, ds.n_classes, seed=0)
    model = replace(model, weight=model.weight * 1e3)
    grads = {key: np.zeros_like(a) for key, a in model.parameter_arrays().items()}
    with pytest.raises(NumericalError, match=r"overflow in klein_layer at row \d+$"):
        verify._directional_error(model, ds.features, ds.labels, grads, np.random.default_rng(0))


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
    rim = clamp_to_ball(np.array([[2.0, 0.0]]))  # on the clamp radius
    lhs = np.array([[0.5, 0.0], [0.5, 0.0], rim[0], [0.5, 0.0]])
    rhs = np.array([[0.25, 0.0], [0.25, 0.0], [0.25, 0.0], [0.0, 0.5]])
    mid = np.array([[0.1, 0.0], rim[0], [0.1, 0.0], rim[0]])
    # coordinates where nothing is clamped; directions where mid or a side
    # is, and those still differ when the sides do not share a ray
    err = verify._matvec_error(lhs, rhs, mid)
    np.testing.assert_allclose(err, [0.25, 0.0, 0.0, 1.0], rtol=0.0, atol=1e-15)
    # a batch with no point on the clamp radius compares coordinates alone,
    # even where the two sides share a ray
    err = verify._matvec_error(lhs[[0, 0]], np.array([[0.25, 0.0], [0.5, 1e-3]]), mid[[0, 0]])
    np.testing.assert_array_equal(err, [0.25, 1e-3])


@pytest.mark.parametrize("seed,samples", [(4, None), (21, 2000), (36, 2000)])
@pytest.mark.parametrize("suite", ["matvec_compose", "matvec_scale"])
def test_matvec_identities_hold_where_a_point_is_clamped(suite, seed, samples):
    # at these seeds M2 (x) x or an output is clamped to norm 1 - EPS_BALL,
    # where only the directions of the two sides must agree
    report = verify.run_suite(suite, samples=samples, seed=seed)
    assert report.passed, report.max_abs_error


def _klein_row(coords):
    return clamp_to_ball(np.array([coords], dtype=np.float64))


def _replay_matvec_compose(w):
    m1, m2, x = np.asarray(w["m1"]), np.asarray(w["m2"]), _klein_row(w["x"])
    assert m1.shape == (w["out"], w["mid"]) and m2.shape == (w["mid"], x.shape[1])
    return einstein_matvec((m1 @ m2)[None], x) - einstein_matvec(m1[None], einstein_matvec(m2[None], x))


def _replay_matvec_scale(w):
    m, r, x = np.asarray(w["m"]), w["r"], _klein_row(w["x"])
    return einstein_matvec((r * m)[None], x) - einstein_scalar(r, einstein_matvec(m[None], x))


def _replay_matvec_orthogonal(w):
    q, x = np.asarray(w["q"]), _klein_row(w["x"])
    return einstein_matvec(q[None], x)[0] - q @ x[0]


def _replay_matvec_tangent(w):
    m, x = np.asarray(w["m"]), _klein_row(w["x"])
    assert m.shape == (w["out"], x.shape[1])
    o_in, o_out = np.zeros_like(x), np.zeros((1, w["out"]))
    via = exp_map(Model.KLEIN, o_out, (m @ log_map(Model.KLEIN, o_in, x)[0])[None])
    return einstein_matvec(m[None], x) - via


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


# the suites that draw their samples as rows; the others run the network
GEOMETRY_SUITES = [
    name
    for name in verify.suite_names()
    if name not in ("layer_commutation", "gradient_check", "forward_validity", "training_trend")
]


MATVEC_SUITES = [name for name in GEOMETRY_SUITES if name.startswith("matvec_")]


def _assert_matches_plain_left_to_right_sums(monkeypatch, left_to_right_dots, suite):
    # every dot product of a suite, stacked and 2-d, summed by a plain
    # Python loop on the same host gives the same worst error and input
    shipped = verify.run_suite(suite, samples=50, seed=0)
    for module in (manifolds, gyro, verify):
        monkeypatch.setattr(module, "row_dots", left_to_right_dots)
    plain = verify.run_suite(suite, samples=50, seed=0)
    assert (shipped.max_abs_error, shipped.worst_case_input) == (plain.max_abs_error, plain.worst_case_input)


@pytest.mark.parametrize("suite", MATVEC_SUITES)
def test_matvec_suites_match_plain_left_to_right_sums(monkeypatch, left_to_right_dots, suite):
    _assert_matches_plain_left_to_right_sums(monkeypatch, left_to_right_dots, suite)


@pytest.mark.parametrize("suite", [name for name in GEOMETRY_SUITES if name not in MATVEC_SUITES])
def test_geometry_suites_match_plain_left_to_right_sums(monkeypatch, left_to_right_dots, suite):
    _assert_matches_plain_left_to_right_sums(monkeypatch, left_to_right_dots, suite)


class _FlatRows:
    """A seeded rng whose normal draws are zero in the given rows, too short
    for `sample_ball` to take a direction from."""

    def __init__(self, seed, flat):
        self.rng, self.flat = np.random.default_rng(seed), flat

    def normal(self, size):
        rows = self.rng.normal(size=size)
        rows[self.flat] = 0.0
        return rows

    def uniform(self, low, high, size):
        return self.rng.uniform(low, high, size)


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
def test_sample_ball_draws_rows_inside_the_clamp_radius(seed):
    dims = np.tile(np.arange(1, verify.WIDTH + 1), 25)
    flat = [0, 17, 399]
    x = verify.sample_ball(dims, _FlatRows(seed, flat))
    assert x.shape == (dims.size, verify.WIDTH) and np.all(np.isfinite(x))
    assert np.all(x[~verify._mask(dims)] == 0.0)
    assert np.max(np.linalg.norm(x, axis=1)) <= 0.95 * (1.0 + 1e-12)
    # so clamp_to_ball would scale every row by exactly 1
    assert clamp_to_ball(x).tobytes() == x.tobytes()
    # a flat row lies on e_0 at its drawn radius, the same draw an unforced rng makes
    reference = np.random.default_rng(seed)
    reference.normal(size=x.shape)
    radius = reference.uniform(0.0, 0.95, size=(dims.size, 1))
    np.testing.assert_array_equal(x[flat], radius[flat] * np.eye(1, verify.WIDTH))


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
