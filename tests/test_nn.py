"""Tests for the hyperbolic layers, gradients, optimizer, and training loop."""

import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, fields, replace

import mpmath
import numpy as np
import pytest

from hyperklein import autodiff, nn, verify
from hyperklein.autodiff import NumericalError, Tensor
from hyperklein.data import Dataset, gen_tree_dataset, load_dataset
from hyperklein.gyro import einstein_add, mobius_add
from hyperklein.manifolds import (
    EPS_BALL,
    Model,
    convert_point,
    distance,
    exp_map,
    log_map,
    lorentz_rows,
    minkowski_rows,
    origin,
    transport_from_origin,
)

LN3 = 1.0986122886681098
K, P, L = Model.KLEIN, Model.POINCARE, Model.LORENTZ


def row(*coords):
    """One point as a (1, d) row."""
    return np.array([coords], dtype=np.float64)


def offset_bias_model(flavor, n, m, c, seed, scale=0.4):
    rng = np.random.default_rng(seed + 1000)
    model = nn.init_model(flavor, n, m, c, seed)
    o = origin(flavor, m)
    raw = rng.normal(size=o.shape) * scale
    if flavor is Model.LORENTZ:
        raw[:, 0] = 0.0
    return replace(model, bias=exp_map(flavor, o, raw)[0])


def layer_model(flavor, weight, bias=None):
    """A network with the given hidden layer, the bias (a 1-d row) at the
    origin unless given; the readout copies the hidden tangent's coordinates
    into the logits (padded to two classes) with a zero bias."""
    m = len(weight)
    bias = origin(flavor, m)[0] if bias is None else bias
    return nn.HnnModel(flavor, weight, bias, np.eye(max(m, 2), m), np.zeros(max(m, 2)))


def features_of(flavor, x):
    """The feature row whose input point exp_o(x) is the flavor's (1, d) row x."""
    v = log_map(flavor, origin(flavor, x.shape[1] - (flavor is Model.LORENTZ)), x)
    return v[:, 1:] if flavor is Model.LORENTZ else v


def hidden_point(model, feats):
    """The hidden layer's output points exp_o(z) of its origin tangents z,
    before the activation; on the hyperboloid z has time coordinate 0."""
    z = nn.hidden_tangent(model, feats)
    if model.flavor is Model.LORENTZ:
        z = np.pad(z, ((0, 0), (1, 0)))
    o = np.tile(origin(model.flavor, model.hidden_dim), (len(z), 1))
    return exp_map(model.flavor, o, z)


class TestKleinLinear:
    # the Klein layer is one gyro matrix action and one Einstein addition;
    # with the bias at the origin it acts on origin tangents as W itself
    def test_identity(self):
        x = np.array([[0.4, -0.1], [1.5, 2.0], [0.0, 0.0]])
        out = nn.hidden_tangent(layer_model(Model.KLEIN, np.eye(2)), x)
        np.testing.assert_allclose(out, x, rtol=1e-14, atol=1e-16)

    def test_rotation(self):
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        out = hidden_point(layer_model(Model.KLEIN, rot), features_of(K, row(0.5, 0.0)))
        np.testing.assert_allclose(out, [[0.0, 0.5]], atol=1e-14)

    def test_doubling(self):
        model = layer_model(Model.KLEIN, 2.0 * np.eye(2))
        out = hidden_point(model, features_of(K, row(0.5, 0.0)))
        np.testing.assert_allclose(out, [[0.8, 0.0]], atol=1e-14)

    def test_dim_mismatch(self):
        model = layer_model(Model.KLEIN, np.eye(3))
        with pytest.raises(ValueError, match="feature dimension 2 does not match model input 3"):
            nn.hidden_tangent(model, np.zeros((1, 2)))
        with pytest.raises(ValueError, match="feature dimension 2 does not match model input 3"):
            nn.gradients(model, np.zeros((1, 2)), np.array([0]))


class TestPoincareLinear:
    def test_identity(self):
        x = row(0.3, 0.2)
        out = hidden_point(layer_model(Model.POINCARE, np.eye(2)), features_of(P, x))
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_doubling_matches_klein(self):
        xb = row(0.2679491924311227, 0.0)
        out = hidden_point(layer_model(Model.POINCARE, 2.0 * np.eye(2)), features_of(P, xb))
        np.testing.assert_allclose(convert_point(P, K, out), [[0.8, 0.0]], atol=1e-12)

    def test_commutes_with_isometry(self):
        # Klein and Poincare layers with corresponding biases give corresponding
        # hidden points; a Poincare origin tangent is half the Klein one
        rng = np.random.default_rng(9)
        for _ in range(50):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            weight = rng.normal(size=(m, n))
            bias_k = rng.uniform(-0.4, 0.4, size=(1, m))
            feats = rng.uniform(-0.4, 0.4, size=(3, n))
            klein_out = hidden_point(layer_model(Model.KLEIN, weight, bias_k[0]), feats)
            poincare = layer_model(Model.POINCARE, weight / 2.0, convert_point(K, P, bias_k)[0])
            got = convert_point(P, K, hidden_point(poincare, feats))
            np.testing.assert_allclose(got, klein_out, atol=1e-8)


class TestLorentzLinear:
    def test_identity(self):
        x = convert_point(K, L, row(0.3, -0.2))
        out = hidden_point(layer_model(Model.LORENTZ, np.eye(2)), features_of(L, x))
        np.testing.assert_allclose(out, x, atol=1e-10)

    def test_origin_maps_to_origin(self):
        rng = np.random.default_rng(10)
        out = hidden_point(layer_model(Model.LORENTZ, rng.normal(size=(3, 2))), np.zeros((1, 2)))
        np.testing.assert_allclose(out, origin(Model.LORENTZ, 3), atol=1e-12)

    def test_doubling_matches_klein(self):
        x = convert_point(K, L, row(0.5, 0.0))
        out = hidden_point(layer_model(Model.LORENTZ, 2.0 * np.eye(2)), features_of(L, x))
        np.testing.assert_allclose(convert_point(L, K, out), [[0.8, 0.0]], atol=1e-10)

    def test_output_on_hyperboloid(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            bias = convert_point(K, L, rng.uniform(-0.3, 0.3, size=(1, 4)))[0]
            model = layer_model(Model.LORENTZ, rng.normal(size=(4, 3)), bias)
            out = hidden_point(model, rng.uniform(-0.4, 0.4, size=(3, 3)))
            assert np.all(np.abs(minkowski_rows(out, out) + 1.0) < 1e-9)


class TestActivation:
    # the hyperbolic ReLU is exp_o(relu(log_o h)), and the readout reads it
    # back through log_o, so the readout takes relu of the layer's tangent
    def test_nonnegative_region_fixed(self):
        x = np.array([[0.3, 0.4], [2.0, 0.0]])
        logits = nn.forward(layer_model(Model.KLEIN, np.eye(2)), x)
        np.testing.assert_allclose(logits, x, rtol=1e-14)

    def test_origin_fixed(self):
        for flavor in Model:
            model = layer_model(flavor, np.ones((3, 2)))
            o = origin(flavor, 3)
            np.testing.assert_allclose(hidden_point(model, np.zeros((1, 2))), o, atol=1e-15)
            np.testing.assert_array_equal(nn.forward(model, np.zeros((1, 2))), np.zeros((1, 3)))

    def test_mixed_sign_value(self):
        feats = features_of(K, row(-0.5, 0.5))
        active = nn.forward(layer_model(Model.KLEIN, np.eye(2)), feats)[0]
        out = exp_map(Model.KLEIN, np.zeros((1, 2)), active[None])
        np.testing.assert_allclose(out[0], [0.0, 0.5533696351790970], atol=1e-12)


class TestReadout:
    def test_origin_gives_bias(self):
        model = nn.init_model(Model.KLEIN, 2, 2, 3, seed=0)
        model = replace(model, readout_bias=np.array([0.5, -1.0, 2.0]))
        out = nn.forward(model, np.zeros((1, 2)))
        np.testing.assert_allclose(out, [model.readout_bias])

    def test_identity_weights(self):
        # a zero feature row reaches the hidden layer as the bias point itself
        model = layer_model(Model.KLEIN, np.eye(2), np.array([0.8, 0.0]))
        out = nn.forward(model, np.zeros((1, 2)))
        np.testing.assert_allclose(out, [[LN3, 0.0]], atol=1e-10)

    def test_weight_scaling_linearity(self):
        model = nn.init_model(Model.KLEIN, 2, 3, 4, seed=1)
        model = replace(model, readout_bias=np.linspace(-1, 1, 4))
        x = np.array([[0.2, -0.5], [1.0, 0.7]])
        base = nn.forward(model, x) - model.readout_bias
        model = replace(model, readout_weight=2.0 * model.readout_weight)
        doubled = nn.forward(model, x) - model.readout_bias
        np.testing.assert_allclose(doubled, 2.0 * base, atol=1e-12)


class TestCrossEntropy:
    # the loss stage on one row, a (classes, 1) column: -log softmax(z)[label], max-stabilized
    @staticmethod
    def loss(logits, label):
        node = nn._mean_cross_entropy(Tensor(np.array(logits, dtype=float)[:, None]), np.array([label]))
        return float(node.data)

    def test_uniform_logits(self):
        assert self.loss(np.zeros(5), 2) == pytest.approx(1.6094379124341003, abs=1e-12)

    def test_saturated_no_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert self.loss([1000.0, 0.0], 0) == pytest.approx(0.0, abs=1e-12)

    def test_two_class_value(self):
        assert self.loss([1.0, 0.0], 0) == pytest.approx(0.3132616875182228, abs=1e-12)

    def test_label_out_of_range(self):
        model = nn.init_model(Model.KLEIN, 2, 2, 3, seed=10)
        for label in (3, -1):
            with pytest.raises(ValueError, match="labels out of range"):
                nn.gradients(model, np.zeros((1, 2)), np.array([label]))

    def test_loss_and_gradient_equal_the_max_over_axis_form_bit_for_bit(self):
        # the logits hold one column per row; ties at the max, signed zeros
        # and +-300 spreads must give the bits of the max and the sum over axis 0
        rng = np.random.default_rng(23)
        by_row = rng.uniform(-300.0, 300.0, size=(40, 7))
        by_row[::4, :3] = by_row[::4].max(axis=1, keepdims=True)
        by_row[1] = 0.0
        by_row[2] = [-0.0, 0.0, -0.0, 0.0, -300.0, 300.0, 300.0]
        logits = np.ascontiguousarray(by_row.T)
        labels = rng.integers(0, 7, size=40)
        node = nn._mean_cross_entropy(Tensor(logits), labels)
        grad = node.back(np.ones_like(node.data))

        rows, scale = np.arange(40), 1.0 / 40
        shifted = logits - logits.max(axis=0, keepdims=True)
        e = np.exp(shifted)
        total = e.sum(axis=0, keepdims=True)
        want_loss = (np.log(total)[0] - shifted[labels, rows]).sum() * scale
        want_grad = e * (1.0 * scale / total)
        want_grad[labels, rows] -= scale
        assert node.data.tobytes() == want_loss.tobytes()
        assert grad.tobytes() == want_grad.tobytes()

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64])
    def test_narrow_and_unsigned_labels_give_the_int64_bits(self, dtype):
        # the loss indexes its label logits by labels * N + row, so the labels
        # it takes must not wrap or promote to float at N = 300
        model = offset_bias_model(Model.LORENTZ, 4, 3, 3, seed=8)
        feats = np.random.default_rng(9).normal(size=(300, 4))
        labels = np.arange(300) % 3
        loss, grads = nn.gradients(model, feats, labels)
        other, other_grads = nn.gradients(model, feats, labels.astype(dtype))
        assert repr(other) == repr(loss)
        assert all(other_grads[key].tobytes() == grads[key].tobytes() for key in nn._PARAMETERS)


def norm_capped(feats):
    """The feature cap as a scaling by MAX_FEATURE_NORM / max(|x|, MAX_FEATURE_NORM)."""
    norms = np.linalg.norm(feats, axis=1, keepdims=True)
    return feats * (nn.MAX_FEATURE_NORM / np.maximum(norms, nn.MAX_FEATURE_NORM))


def rows_of_norm(norm):
    rows = np.random.default_rng(24).normal(size=(50, 16))
    return rows * (norm / np.linalg.norm(rows, axis=1, keepdims=True))


def rows_rounding_over_the_cap():
    """Rows at the cap with a wide spread of entries: the row-dot and
    np.linalg.norm sum them in different orders, so some rows have a squared
    norm below 25 yet a norm that rounds above 5."""
    rng = np.random.default_rng(28)
    rows = rng.normal(size=(4000, 150)) * np.exp(2.0 * rng.normal(size=(4000, 150)))
    rows *= nn.MAX_FEATURE_NORM / np.linalg.norm(rows, axis=1, keepdims=True)
    rows = rows[np.einsum("ij,ij->i", rows, rows) < nn.MAX_FEATURE_NORM**2]
    assert np.any(np.linalg.norm(rows, axis=1) > nn.MAX_FEATURE_NORM)
    return rows


class TestPreprocess:
    @pytest.mark.parametrize(
        "feats",
        [gen_tree_dataset(6, 16, 0.1, seed=0).features, rows_of_norm(nn.MAX_FEATURE_NORM * (1 - 1e-9))],
        ids=["tree", "just_under_cap"],
    )
    def test_idle_cap_returns_the_rows_unscaled(self, feats):
        out = nn._preprocess(feats)
        assert out.tobytes() == feats.tobytes()
        assert out.tobytes() == norm_capped(feats).tobytes()

    def test_texas_shaped_rows_equal_the_norm_formulation_bit_for_bit(self, texas_file):
        feats = load_dataset(texas_file).features
        assert nn._preprocess(feats).tobytes() == norm_capped(feats).tobytes()

    def test_random_rows_x10_equal_the_norm_formulation_bit_for_bit(self):
        feats = np.random.default_rng(25).normal(size=(300, 16)) * 10.0
        assert nn._preprocess(feats).tobytes() == norm_capped(feats).tobytes()

    def test_rows_whose_norm_rounds_over_the_cap_are_scaled(self):
        rows = rows_rounding_over_the_cap()
        assert nn._preprocess(rows).tobytes() == norm_capped(rows).tobytes()

    @pytest.mark.parametrize(
        "feats",
        [
            gen_tree_dataset(6, 16, 0.1, seed=0).features,
            rows_of_norm(nn.MAX_FEATURE_NORM * (1 - 1e-9)),
            rows_rounding_over_the_cap(),
            np.zeros((3, 16)),
        ],
        ids=["tree", "just_under_cap", "rounds_over_cap", "zero_row"],
    )
    def test_a_lone_row_gets_the_bytes_of_its_batch(self, feats):
        # a lone row's cap test is a 1-d dot product, a batch's an einsum pass
        batch = nn._preprocess(feats)
        for i in range(len(feats)):
            lone = nn._preprocess(feats[i : i + 1])
            assert lone.shape == (1, feats.shape[1]) and lone.tobytes() == batch[i].tobytes(), i

    @pytest.mark.parametrize("flavor", list(Model))
    def test_a_non_finite_row_is_an_input_error(self, flavor):
        # the scaling rejects it, naming the first one, with no RuntimeWarning
        model = offset_bias_model(flavor, 4, 3, 3, seed=40)
        batch = np.random.default_rng(42).normal(size=(6, 4)) * 10.0
        batch[3, 1], batch[5, 0] = np.nan, np.inf
        cases = [(np.array([[np.inf, 0.0, 0.0, 0.0]]), 0), (np.array([[0.0, -np.inf, np.nan, 1.0]]), 0), (batch, 3)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for feats, row in cases:
                labels = np.arange(len(feats)) % 3
                calls = ((nn.forward, ()), (nn.hidden_tangent, ()), (nn.gradients, (labels,)))
                for call, args in calls:
                    with pytest.raises(ValueError, match=rf"^feature row {row} is not finite$"):
                        call(model, feats, *args)

    @pytest.mark.parametrize("flavor", list(Model))
    def test_public_entry_points_cap_what_a_pass_takes_as_given(self, flavor):
        # a pass takes prepared rows; forward, hidden_tangent and gradients
        # prepare theirs inside `_checked_pass`, so they equal a pass on the capped rows
        model = offset_bias_model(flavor, 4, 3, 3, seed=40)
        feats = np.random.default_rng(41).normal(size=(6, 4)) * 10.0
        rows, labels = nn._prepare(model, feats, np.arange(6) % 3)
        assert rows.tobytes() == norm_capped(feats).tobytes() != feats.tobytes()
        with np.errstate(all="ignore"):
            run = nn._TapeRun(model, rows, labels)
            want_loss, *want = nn._loss_and_gradients(run)
        for fn, stage in ((nn.forward, run.logits), (nn.hidden_tangent, run.tangent)):
            assert fn(model, feats).tobytes() == stage.data.T.tobytes()
        loss, grads = nn.gradients(model, feats, labels)
        assert np.float64(loss).tobytes() == want_loss.tobytes()
        assert [grads[key].tobytes() for key in nn._PARAMETERS] == [g.tobytes() for g in want]

    @pytest.mark.parametrize("flavor", list(Model))
    def test_a_row_whose_squared_norm_overflows_is_capped(self, flavor):
        # 1e200 squared overflows, but the row is finite: it is capped as
        # [5, 0, 0, 0] is, with no RuntimeWarning, alone and in a batch; so is
        # a row whose norm itself passes the float64 maximum
        model = offset_bias_model(flavor, 4, 3, 3, seed=40)
        big = np.array([[1e200, 0.0, 0.0, 0.0], [1e200, -1e200, 0.0, 0.0], [1.5e308, 1.5e308, 0.0, 0.0]])
        side = 5.0 / np.sqrt(2.0)
        capped = np.array([[5.0, 0.0, 0.0, 0.0], [side, -side, 0.0, 0.0], [side, side, 0.0, 0.0]])
        other = np.random.default_rng(44).normal(size=(3, 4))
        cases = [(big[i : i + 1], capped[i : i + 1]) for i in range(len(big))]
        cases.append((np.vstack((other, big)), np.vstack((other, capped))))

        def close(got, want):
            return np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for feats, want in cases:
                labels = np.arange(len(feats)) % 3
                assert close(nn.forward(model, feats), nn.forward(model, want))
                assert close(nn.hidden_tangent(model, feats), nn.hidden_tangent(model, want))
                loss, grads = nn.gradients(model, feats, labels)
                want_loss, want_grads = nn.gradients(model, want, labels)
                assert close(loss, want_loss)
                assert all(close(grads[key], want_grads[key]) for key in nn._PARAMETERS)


class TestErrorState:
    # `_checked_pass` ignores floating-point errors under np.errstate as a
    # decorator; the caller's error state is back after every return and raise
    @pytest.mark.parametrize("flavor", list(Model))
    @pytest.mark.parametrize("state", [{}, {"all": "raise"}, {"over": "ignore", "invalid": "warn", "divide": "raise"}])
    def test_the_callers_error_state_is_restored(self, flavor, state):
        model = offset_bias_model(flavor, 4, 3, 3, seed=40)
        feats = np.random.default_rng(45).normal(size=(5, 4)) * 3.0
        labels = np.arange(5) % 3
        inf_row = feats.copy()
        inf_row[2, 1] = np.inf
        saturating, ds = saturating_model(Model.KLEIN)
        cases = [
            (model, feats, labels, None),
            (model, inf_row, labels, ValueError),
            (saturating, ds.features, ds.labels, NumericalError),
        ]
        with np.errstate(**state):
            before = np.geterr()
            for m, x, y, error in cases:
                for call, args in ((nn.forward, ()), (nn.hidden_tangent, ()), (nn.gradients, (y,))):
                    if error is None:
                        call(m, x, *args)
                    else:
                        with pytest.raises(error):
                            call(m, x, *args)
                    assert np.geterr() == before, (call.__name__, error)


def kernel_reference(model, feats):
    """The network's tangent and logits composed from the `manifolds` and
    `gyro` operations: exp_o of w = x W^T, the bias step, log_o, ReLU and
    the readout."""
    flavor, bias = model.flavor, model.bias
    w = nn._preprocess(feats) @ model.weight.T
    o = np.tile(origin(flavor, model.hidden_dim), (len(w), 1))
    b = np.tile(bias, (len(w), 1))
    if flavor is Model.LORENTZ:
        p = exp_map(flavor, o, np.concatenate((np.zeros((len(w), 1)), w), axis=1))
        h = exp_map(flavor, p, transport_from_origin(flavor, p, log_map(flavor, o, b)))
        z = log_map(flavor, o, h)[:, 1:]
    else:
        add = einstein_add if flavor is Model.KLEIN else mobius_add
        z = log_map(flavor, o, add(exp_map(flavor, o, w), b))
    return z, np.maximum(z, 0.0) @ model.readout_weight.T + model.readout_bias


def assert_rows_close(got, want, rtol):
    err = np.linalg.norm(got - want, axis=1)
    assert np.all(err <= rtol * np.linalg.norm(want, axis=1)), err.max()


class TestForward:
    def test_zero_row_reduces_to_bias_path(self):
        model = offset_bias_model(Model.KLEIN, 3, 4, 3, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # capping a zero-norm row must not warn
            logits = nn.forward(model, np.zeros((1, 3)))
        active = np.maximum(log_map(Model.KLEIN, np.zeros((1, 4)), model.bias[None])[0], 0.0)
        want = model.readout_weight @ active + model.readout_bias
        np.testing.assert_allclose(logits[0], want, atol=1e-12)

    @pytest.mark.parametrize(
        "dims, seeds, scale, spread",
        [
            pytest.param((16, 16), (2, 3), 0.0, 1.0, id="0.0"),
            pytest.param((16, 16), (2, 3), 0.4, 1.0, id="0.4"),
            # rows of normals x8, nearly all at the feature cap: tangents up to ~4.4 long
            pytest.param((5, 6), (19, 18), 0.4, 8.0, id="far"),
        ],
    )
    @pytest.mark.parametrize("flavor", list(Model))
    def test_rows_match_row_kernels(self, flavor, dims, seeds, scale, spread):
        # the row kernels, composed step by step, are the reference for the
        # tape's closed-form layer; bias at the origin and off it
        model = offset_bias_model(flavor, *dims, 3, seed=seeds[0], scale=scale)
        feats = np.random.default_rng(seeds[1]).normal(size=(512, dims[0])) * spread
        z, logits = kernel_reference(model, feats)
        assert_rows_close(nn.hidden_tangent(model, feats), z, 1e-11)
        assert_rows_close(nn.forward(model, feats), logits, 1e-11)

    def test_rows_independent(self):
        model = offset_bias_model(Model.POINCARE, 3, 4, 3, seed=3)
        rng = np.random.default_rng(4)
        batch = rng.normal(size=(5, 3))
        full = nn.forward(model, batch)
        for i in range(5):
            np.testing.assert_allclose(nn.forward(model, batch[i : i + 1])[0], full[i], atol=1e-12)

    def test_identical_rows_identical_logits(self):
        model = offset_bias_model(Model.LORENTZ, 3, 4, 3, seed=5)
        row = np.array([0.3, -1.0, 0.7])
        logits = nn.forward(model, np.stack([row, row]))
        np.testing.assert_array_equal(logits[0], logits[1])

    @pytest.mark.parametrize("flavor", list(Model))
    def test_forward_only_passes_compute_no_slopes(self, flavor, monkeypatch):
        # the smooth ratios' slopes are read only by the backward, and the
        # patch precedes the model's first pass, which derives its bias terms
        model = offset_bias_model(flavor, 4, 3, 3, seed=26)
        feats = np.random.default_rng(27).normal(size=(6, 4))
        labels = np.array([0, 1, 2, 0, 1, 2])

        def no_slope(name, t, ratio):
            raise AssertionError(f"{name} slope computed")

        assert "bias_terms" not in vars(model)
        monkeypatch.setattr(nn, "smooth_slope", no_slope)
        assert np.all(np.isfinite(nn.forward(model, feats)))
        assert np.all(np.isfinite(nn.hidden_tangent(model, feats)))
        assert 0.0 <= nn.accuracy(model, feats, labels) <= 1.0
        with pytest.raises(AssertionError, match="slope computed"):
            nn.gradients(model, feats, labels)

    @pytest.mark.parametrize("flavor", list(Model))
    def test_outputs_are_fresh_arrays(self, flavor):
        # the stage arrays are returned uncopied: a pass's tape is garbage
        # once the call returns, so nothing else holds them
        model = offset_bias_model(flavor, 4, 3, 3, seed=28)
        feats = np.random.default_rng(29).normal(size=(6, 4))
        held = [*model.parameter_arrays().values(), feats]
        for fn in (nn.forward, nn.hidden_tangent):
            first, second = fn(model, feats), fn(model, feats)
            assert not any(np.shares_memory(out, other) for out in (first, second) for other in held)
            assert first is not second and not np.shares_memory(first, second)
            np.testing.assert_array_equal(first, second)

    def test_feature_dim_mismatch(self):
        model = nn.init_model(Model.KLEIN, 3, 4, 3, seed=6)
        with pytest.raises(ValueError):
            nn.forward(model, np.zeros((2, 5)))


def assert_gradients_match_finite_differences(model, feats, labels, h=1e-5, tol=1e-6):
    """Every coordinate of every parameter against central differences."""
    _, grads = nn.gradients(model, feats, labels)

    def loss_with(key, arr):
        if key == "bias" and model.flavor is Model.LORENTZ:
            arr = lorentz_rows(arr[None, 1:])[0]  # back onto the hyperboloid
        return nn.gradients(replace(model, **{key: arr}), feats, labels)[0]

    for key, base in model.parameter_arrays().items():
        assert grads[key].shape == base.shape
        for i in np.ndindex(base.shape):
            p, m = base.copy(), base.copy()
            p[i] += h
            m[i] -= h
            numeric = (loss_with(key, p) - loss_with(key, m)) / (2 * h)
            assert grads[key][i] == pytest.approx(numeric, abs=tol), (key, i)
    if model.flavor is Model.LORENTZ:
        # the loss reads the bias through its spatial part only
        assert grads["bias"][0] == 0.0


def mp_lorentz_layer(w, bias):
    """log_o(exp_h(PT_{o->h} log_o(b))), h = exp_o(w), in 50-digit arithmetic."""
    with mpmath.workdps(50):
        w = mpmath.matrix([mpmath.mpf(float(a)) for a in w])
        b_s = mpmath.matrix([mpmath.mpf(float(a)) for a in bias[1:]])
        n, bn = mpmath.norm(w), mpmath.norm(b_s)
        h_t, h_s = mpmath.cosh(n), mpmath.sinh(n) / n * w
        v = mpmath.asinh(bn) / bn * b_s
        coef = (h_s.T * v)[0] / (1 + h_t)
        u_t, u_s = coef * (1 + h_t), v + coef * h_s
        un = mpmath.sqrt((u_s.T * u_s)[0] - u_t**2)
        y_s = mpmath.cosh(un) * h_s + mpmath.sinh(un) / un * u_s
        yn = mpmath.norm(y_s)
        return np.array([float(a) for a in mpmath.asinh(yn) / yn * y_s])


class TestLorentzLayerExact:
    @pytest.mark.parametrize("w_norm", [1.0, 5.0, 10.0, 15.0, 20.0])
    def test_rows_match_high_precision(self, w_norm):
        # the transported bias keeps its norm, so no coordinate of size
        # cosh|w| enters the layer's scalars
        rng = np.random.default_rng(31)
        model = offset_bias_model(Model.LORENTZ, 3, 3, 2, seed=30, scale=0.8)
        model = replace(model, weight=w_norm * np.eye(3))
        feats = rng.normal(size=(8, 3))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        got = nn.hidden_tangent(model, feats)
        for row, x in zip(got, feats):
            want = mp_lorentz_layer(w_norm * x, model.bias)
            assert np.linalg.norm(row - want) <= 1e-14 * np.linalg.norm(want)


def mp_poincare_layer(w, bias):
    """log_o(exp_o(w) (+)_M b), the Mobius closed form, in 60-digit arithmetic."""
    with mpmath.workdps(60):
        w = mpmath.matrix([mpmath.mpf(float(a)) for a in w])
        b = mpmath.matrix([mpmath.mpf(float(a)) for a in bias])
        n = mpmath.norm(w)
        x = mpmath.tanh(n) / n * w
        xy, xx, yy = (x.T * b)[0], (x.T * x)[0], (b.T * b)[0]
        h = ((1 + 2 * xy + yy) * x + (1 - xx) * b) / (1 + 2 * xy + xx * yy)
        hn = mpmath.norm(h)
        return np.array([float(a) for a in mpmath.atanh(hn) / hn * h])


# Klein is left out on purpose: its layer is still the Einstein closed form,
# which saturates in float64 past |w| ~ 10, and it moves to the hyperboloid
# stage only with the benchmark revision of ROADMAP item 1
EXACT_FLAVORS = {Model.POINCARE: mp_poincare_layer, Model.LORENTZ: mp_lorentz_layer}


class TestHyperboloidStageExact:
    @pytest.mark.parametrize("w_norm", [1.0, 5.0, 10.0, 15.0, 19.0, 25.0, 30.0])
    @pytest.mark.parametrize("flavor", list(EXACT_FLAVORS))
    def test_origin_bias_layer_is_the_identity(self, flavor, w_norm):
        # with the bias at the origin the layer is log_o(exp_o(w)) = w
        rng = np.random.default_rng(35)
        feats = rng.normal(size=(64, 4))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        z = nn.hidden_tangent(layer_model(flavor, w_norm * np.eye(4)), feats)
        assert_rows_close(z, w_norm * feats, 1e-12)

    @pytest.mark.parametrize("w_norm", [1.0, 10.0, 19.0, 30.0])
    @pytest.mark.parametrize("flavor", list(EXACT_FLAVORS))
    def test_offset_bias_layer_matches_high_precision(self, flavor, w_norm):
        model = offset_bias_model(flavor, 3, 3, 2, seed=36, scale=0.8)
        model = replace(model, weight=w_norm * np.eye(3))
        feats = np.random.default_rng(37).normal(size=(8, 3))
        feats /= np.linalg.norm(feats, axis=1, keepdims=True)
        want = np.array([EXACT_FLAVORS[flavor](w_norm * x, model.bias) for x in feats])
        assert_rows_close(nn.hidden_tangent(model, feats), want, 1e-12)


def lorentz_counterpart(model):
    """The Lorentz model computing a Poincare model's logits: a Poincare origin
    tangent is half the hyperboloid's, so the hidden weight doubles and the
    readout weight halves."""
    return replace(
        model,
        flavor=Model.LORENTZ,
        weight=2.0 * model.weight,
        bias=convert_point(P, L, model.bias[None])[0],
        readout_weight=model.readout_weight / 2.0,
    )


class TestPoincareIsTheLorentzStage:
    @pytest.fixture(scope="class")
    def tree(self):
        return gen_tree_dataset(10, 16, 0.1, seed=0)

    @pytest.mark.parametrize("mult", [1.0, 3.0, 6.0])
    def test_logits_equal_the_lorentz_counterparts(self, tree, mult):
        # the Poincare model runs the layer stage at scale 2, its counterpart
        # at scale 1; the scalings by powers of two are exact, so they agree
        # byte for byte
        model = nn.init_model(Model.POINCARE, 16, 16, tree.n_classes, seed=0)
        model = replace(model, weight=mult * model.weight)
        counterpart = lorentz_counterpart(model)
        got, want = nn.forward(model, tree.features), nn.forward(counterpart, tree.features)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        got, want = 2.0 * nn.hidden_tangent(model, tree.features), nn.hidden_tangent(counterpart, tree.features)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_batch_1_logits_equal_the_full_batch(self, tree):
        # every flavor, with the bias at the origin and off it; Klein's
        # Einstein closed form saturates at weights x6, so it runs at x1 only
        cases = [(flavor, mult) for flavor in Model for mult in ((1.0,) if flavor is Model.KLEIN else (1.0, 6.0))]
        for flavor, mult in cases:
            for build in (nn.init_model, offset_bias_model):
                model = build(flavor, 16, 16, tree.n_classes, seed=0)
                model = replace(model, weight=mult * model.weight)
                full = nn.forward(model, tree.features)
                rows = range(0, len(full), 5)
                single = np.array([nn.forward(model, tree.features[i : i + 1])[0] for i in rows])
                assert_rows_close(single, full[::5], 1e-12)

    @pytest.mark.parametrize("mult", [1.0, 4.0])
    def test_gradients_follow_the_correspondence(self, mult):
        model = offset_bias_model(Model.POINCARE, 4, 3, 3, seed=38)
        model = replace(model, weight=mult * model.weight)
        feats = np.random.default_rng(39).normal(size=(12, 4))
        labels = np.arange(12) % 3
        loss, grads = nn.gradients(model, feats, labels)
        want_loss, want = nn.gradients(lorentz_counterpart(model), feats, labels)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        scales = {"weight": 2.0, "readout_weight": 0.5, "readout_bias": 1.0}
        for key, scale in scales.items():
            np.testing.assert_allclose(grads[key], scale * want[key], rtol=1e-12, atol=1e-15)


class TestGradients:
    @pytest.mark.parametrize("flavor", list(Model))
    def test_matches_finite_differences(self, flavor):
        rng = np.random.default_rng(12)
        model = offset_bias_model(flavor, 4, 3, 3, seed=7)
        feats = rng.normal(size=(6, 4))
        labels = rng.integers(0, 3, size=6)
        assert_gradients_match_finite_differences(model, feats, labels)

    @pytest.mark.parametrize("flavor", list(Model))
    def test_matches_finite_differences_large_weights(self, flavor):
        # hidden rows w = x W^T of norm about 3, where the layer's scalars
        # (1/gamma, the transported bias) are far from their values at 0
        rng = np.random.default_rng(20)
        model = offset_bias_model(flavor, 4, 3, 3, seed=21)
        feats = rng.normal(size=(6, 4))
        labels = rng.integers(0, 3, size=6)
        norms = np.linalg.norm(nn._preprocess(feats) @ model.weight.T, axis=1)
        model = replace(model, weight=model.weight * (3.0 / np.median(norms)))
        assert_gradients_match_finite_differences(model, feats, labels)

    @pytest.mark.parametrize("flavor", list(Model))
    def test_zero_rows_give_finite_gradients(self, flavor):
        # |w| = 0 sits on the series branch of every smooth ratio
        model = offset_bias_model(flavor, 3, 4, 3, seed=22)
        feats = np.zeros((3, 3))
        feats[1] = [0.5, -1.0, 2.0]
        _, grads = nn.gradients(model, feats, np.array([0, 1, 2]))
        assert all(np.all(np.isfinite(g)) for g in grads.values())
        assert_gradients_match_finite_differences(model, feats, np.array([0, 1, 2]))

    def test_saturated_correct_logits_give_tiny_gradients(self):
        model = nn.init_model(Model.KLEIN, 2, 2, 2, seed=8)
        model = replace(model, readout_bias=np.array([50.0, -50.0]))
        feats = np.random.default_rng(9).normal(size=(4, 2))
        labels = np.zeros(4, dtype=np.int64)
        _, grads = nn.gradients(model, feats, labels)
        total = sum(float(np.linalg.norm(g)) for g in grads.values())
        assert total < 1e-6

    def test_inactive_relu_blocks_gradient(self):
        # the single hidden coordinate is negative, so the activation zeroes it
        # and neither the weight nor the bias can receive any signal
        model = nn.HnnModel(Model.KLEIN, np.array([[-1.0]]), np.zeros(1), np.array([[1.0], [0.5]]), np.zeros(2))
        _, grads = nn.gradients(model, np.array([[1.0]]), np.array([0]))
        assert np.all(grads["weight"] == 0.0)
        assert np.all(grads["bias"] == 0.0)
        assert np.any(grads["readout_bias"] != 0.0)

    def test_labels_out_of_range(self):
        model = nn.init_model(Model.KLEIN, 2, 2, 2, seed=10)
        with pytest.raises(ValueError):
            nn.gradients(model, np.zeros((1, 2)), np.array([2]))

    @pytest.mark.parametrize("flavor", list(Model))
    def test_arrays_share_no_memory(self, flavor):
        # the tape hands gradients on by reference, so a returned array must
        # not alias another gradient, a parameter or a later call's result
        model = offset_bias_model(flavor, 4, 3, 3, seed=13)
        feats = np.random.default_rng(14).normal(size=(5, 4))
        labels = np.array([0, 1, 2, 1, 0])
        first = list(nn.gradients(model, feats, labels)[1].values())
        second = list(nn.gradients(model, feats, labels)[1].values())
        params = list(model.parameter_arrays().values())
        for i, g in enumerate(first):
            others = first[i + 1 :] + params + second
            assert not any(np.shares_memory(g, other) for other in others)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


# features of the wrong rank reached `features.shape[1]` and raised IndexError
@pytest.mark.parametrize(
    "features", [np.zeros(2), np.float64(0.0), np.zeros((1, 1, 2))], ids=["1d", "0d", "3d"]
)
@pytest.mark.parametrize(
    "call",
    [nn.forward, nn.hidden_tangent, lambda model, features: nn.gradients(model, features, [0])],
    ids=["forward", "hidden_tangent", "gradients"],
)
def test_features_of_another_rank_rejected(call, features):
    model = nn.init_model(Model.KLEIN, 2, 3, 2, seed=0)
    with pytest.raises(ValueError, match="^features must be a 2-d matrix$"):
        call(model, features)


# each of these was read against the 5 feature rows by broadcasting or truncation
MISMATCHED_LABELS = {
    "one_label": ([0], "int64 \\(1,\\)"),
    "column": (np.zeros((5, 1), dtype=np.int64), "int64 \\(5, 1\\)"),
    "fractional": ([1.7, 0, 0, 0, 0], "float64 \\(5,\\)"),
    "two_labels": ([0, 1], "int64 \\(2,\\)"),
}


@pytest.mark.parametrize("case", sorted(MISMATCHED_LABELS))
def test_gradients_reject_labels_that_do_not_match_the_rows(case):
    labels, message = MISMATCHED_LABELS[case]
    model = offset_bias_model(Model.KLEIN, 4, 3, 3, seed=7)
    feats = np.random.default_rng(12).normal(size=(5, 4))
    with pytest.raises(ValueError, match=f"^need one integer label per row \\(5\\), got {message}$"):
        nn.gradients(model, feats, labels)


def test_accuracy_rejects_one_label_for_many_rows():
    model = offset_bias_model(Model.KLEIN, 4, 3, 3, seed=7)
    feats = np.random.default_rng(12).normal(size=(5, 4))
    with pytest.raises(ValueError, match="^need one integer label per row \\(5\\), got int64 \\(1,\\)$"):
        nn.accuracy(model, feats, [0])
    assert nn.accuracy(model, feats[:0], np.zeros(0, dtype=np.int64)) == 0.0


def test_accuracy_rejects_labels_out_of_range():
    # a label the model cannot predict used to count as a wrong prediction
    model = offset_bias_model(Model.KLEIN, 4, 3, 3, seed=7)
    feats = np.random.default_rng(12).normal(size=(2, 4))
    for label in (3, -1):
        with pytest.raises(ValueError, match="^labels out of range$"):
            nn.accuracy(model, feats, np.array([0, label]))


def test_gradients_reject_an_empty_batch():
    # the mean loss over no rows divided by zero; training on an empty train
    # split failed the same way
    model = nn.init_model(Model.KLEIN, 3, 4, 3, seed=0)
    empty, no_labels = np.zeros((0, 3)), np.zeros(0, dtype=np.int64)
    with pytest.raises(ValueError, match="^need at least one row to take a mean loss over$"):
        nn.gradients(model, empty, no_labels)
    ds = gen_tree_dataset(3, 3, 0.1, seed=0)
    ds.splits["train"] = no_labels
    with pytest.raises(ValueError, match="^need at least one row to take a mean loss over$"):
        nn.train(model, ds, nn.TrainConfig(epochs=1))
    # a pass that takes no mean still returns an empty result
    assert nn.forward(model, empty).shape == (0, 3)
    assert nn.hidden_tangent(model, empty).shape == (0, 4)
    score = nn.accuracy(model, empty, no_labels)
    assert type(score) is float and score == 0.0


def saturating_model(flavor):
    """Hidden weights x1e3 push the hidden layer past float64 saturation."""
    ds = gen_tree_dataset(6, 8, 0.1, 0)
    model = nn.init_model(flavor, ds.dim, 16, ds.n_classes, seed=0)
    return replace(model, weight=model.weight * 1e3), ds


def count_nodes(monkeypatch):
    counter = [0]
    init = autodiff.Tensor.__init__

    def counted(obj, *args, **kwargs):
        counter[0] += 1
        init(obj, *args, **kwargs)

    monkeypatch.setattr(autodiff.Tensor, "__init__", counted)
    return counter


class TestNumericalGuard:
    @pytest.mark.parametrize(
        "flavor,op",
        [(Model.KLEIN, "klein_layer"), (Model.POINCARE, "poincare_layer"), (Model.LORENTZ, "lorentz_layer")],
    )
    def test_saturating_pass_names_the_op_and_row(self, flavor, op):
        model, ds = saturating_model(flavor)
        with pytest.raises(NumericalError, match=rf"overflow in {op} at row \d+$"):
            nn.forward(model, ds.features)
        with pytest.raises(NumericalError, match=rf"overflow in {op} at row \d+$"):
            nn.gradients(model, ds.features, ds.labels)

    def test_train_names_op_row_flavor_and_epoch(self):
        model, ds = saturating_model(Model.KLEIN)
        with pytest.raises(NumericalError, match=r"overflow in klein_layer at row \d+ \(klein, epoch 0\)"):
            nn.train(model, ds, nn.TrainConfig(epochs=3))

    @pytest.mark.parametrize("flavor", list(Model))
    def test_finite_pass_builds_its_tape_once(self, flavor, monkeypatch):
        # one node per stage: hidden_linear, <flavor>_layer, relu, readout
        # and, for the loss, cross_entropy
        model = offset_bias_model(flavor, 4, 3, 3, seed=15)
        feats = np.random.default_rng(16).normal(size=(5, 4))
        labels = np.array([0, 1, 2, 1, 0])
        run = nn._TapeRun(model, *nn._prepare(model, feats, labels))
        assert [node.name for node in run.stages] == [
            "hidden_linear", f"{flavor.value}_layer", "relu", "readout", "cross_entropy"
        ]
        nodes = count_nodes(monkeypatch)
        nn.gradients(model, feats, labels)
        assert nodes[0] == 5
        nodes[0] = 0
        nn.forward(model, feats)
        assert nodes[0] == 4
        nodes[0] = 0
        nn.hidden_tangent(model, feats)
        assert nodes[0] == 4

    @pytest.mark.parametrize("flavor", list(Model))
    def test_stages_hold_one_column_per_row(self, flavor):
        # 6 rows of 4 features, 3 hidden units, 5 classes
        model = offset_bias_model(flavor, 4, 3, 5, seed=15)
        feats = np.random.default_rng(16).normal(size=(6, 4))
        run = nn._TapeRun(model, *nn._prepare(model, feats, np.arange(6) % 5))
        assert [node.data.shape for node in run.stages] == [(3, 6), (3, 6), (3, 6), (5, 6), ()]
        run.loss.backward()
        assert {key: g.shape for key, g in run.grads.items()} == {
            key: a.shape for key, a in model.parameter_arrays().items()
        }

    def test_saturating_pass_builds_its_tape_once(self, monkeypatch):
        # the failing stage is found among the nodes the pass already holds
        model, ds = saturating_model(Model.KLEIN)
        nodes = count_nodes(monkeypatch)
        with pytest.raises(NumericalError, match=r"overflow in klein_layer at row \d+$"):
            nn.forward(model, ds.features)
        assert nodes[0] == 4
        nodes[0] = 0
        with pytest.raises(NumericalError, match=r"overflow in klein_layer at row \d+$"):
            nn.gradients(model, ds.features, ds.labels)
        assert nodes[0] == 5


    def test_an_overflowing_lorentz_bias_fails_in_its_layer_on_every_pass(self):
        # the bias's terms overflow on the model's first pass, inside its
        # np.errstate, and not when the model is built
        feats = np.random.default_rng(45).normal(size=(5, 3))
        labels = np.array([0, 1, 2, 0, 1])
        message = r"^numerical overflow in lorentz_layer at row 0$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bias = np.array([1e200, 1e200, 0.0, 0.0, 0.0])
            model = replace(nn.init_model(Model.LORENTZ, 3, 4, 3, seed=0), bias=bias)
            for _ in range(2):
                with pytest.raises(NumericalError, match=message):
                    nn.forward(model, feats)
                with pytest.raises(NumericalError, match=message):
                    nn.gradients(model, feats, labels)


class TestBiasTerms:
    # a model derives its layer's bias-only terms on its first pass and keeps them
    @pytest.mark.parametrize("flavor", list(Model))
    def test_a_later_pass_computes_only_the_per_row_ratios(self, flavor, monkeypatch):
        model = offset_bias_model(flavor, 4, 3, 3, seed=40)
        feats = np.random.default_rng(41).normal(size=(6, 4))
        first = nn.forward(model, feats)
        exact, calls = nn.smooth_ratio, []

        def counted(name, t):
            calls.append(name)
            return exact(name, t)

        monkeypatch.setattr(nn, "smooth_ratio", counted)
        assert nn.forward(model, feats).tobytes() == first.tobytes()
        # exp_o's ratio of |w| and log_o's of |h|
        assert calls == (["tanhc", "atanhc"] if flavor is Model.KLEIN else ["sinhc", "asinhc"])

    @pytest.mark.parametrize("flavor", list(Model))
    def test_two_gradient_passes_agree_byte_for_byte(self, flavor):
        model = offset_bias_model(flavor, 4, 3, 3, seed=42)
        feats = np.random.default_rng(43).normal(size=(6, 4))
        labels = np.array([0, 1, 2, 0, 1, 2])
        (loss, grads), (again, regrads) = (nn.gradients(model, feats, labels) for _ in range(2))
        assert repr(loss) == repr(again)
        assert all(grads[key].tobytes() == regrads[key].tobytes() for key in nn._PARAMETERS)

    @pytest.mark.parametrize("offset", [False, True], ids=["origin", "offset"])
    @pytest.mark.parametrize("flavor", list(Model))
    def test_terms_are_read_only_and_not_a_field(self, flavor, offset):
        # at the origin sinhc t takes its series, which returns a 0-d array;
        # the terms keep sinhc t as a float
        build = offset_bias_model if offset else nn.init_model
        model = build(flavor, 4, 3, 3, seed=44)
        assert "bias_terms" not in vars(model)
        nn.forward(model, np.ones((2, 4)))
        b, s, transported, summand, _ = terms = model.bias_terms
        assert model.bias_terms is terms and "bias_terms" not in vars(replace(model))
        assert [f.name for f in fields(nn.HnnModel)] == ["flavor", *nn._PARAMETERS]
        assert nn._PARAMETERS == ("weight", "bias", "readout_weight", "readout_bias")
        if flavor is not Model.KLEIN:
            # the hyperboloid stage's constant summand beta v, beta = sinhc t
            assert type(transported[1]) is float
            assert summand.shape == (3, 1) and summand.tobytes() == (transported[1] * b[:, None]).tobytes()
        arrays = [term for term in (b, s, *(transported or ()), summand) if isinstance(term, np.ndarray)]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0


class TestTapeBuffers:
    # a backward may overwrite the gradient it is handed and the buffers its
    # own closure holds, never a stage's data: callers read the tangent and
    # the logits after the backward has run
    @pytest.mark.parametrize("flavor", list(Model))
    def test_backward_leaves_the_forward_intact(self, flavor):
        model = offset_bias_model(flavor, 5, 6, 4, seed=33)
        feats = np.random.default_rng(34).normal(size=(40, 5)) * 2.0
        run = nn._TapeRun(model, *nn._prepare(model, feats, np.arange(40) % 4))
        before = [node.data.copy() for node in run.stages]  # the tangent and the logits among them
        run.loss.backward()
        for old, node in zip(before, run.stages):
            assert old.shape == node.data.shape and old.tobytes() == node.data.tobytes()

    @pytest.mark.parametrize("flavor", list(Model))
    def test_forward_peak_memory(self, flavor):
        # the pass keeps its four stage arrays and the layer's (1, N) scalars,
        # and builds no (16, N) array that it throws away at once
        ds = gen_tree_dataset(10, 16, 0.1, seed=0)
        model = nn.init_model(flavor, 16, 16, ds.n_classes, seed=0)
        nn.forward(model, ds.features)
        tracemalloc.start()
        try:
            nn.forward(model, ds.features)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.features.shape == (2047, 16)
        assert peak <= 5 * 16 * 2047 * 8

    @pytest.mark.parametrize("flavor", list(Model))
    def test_backward_peak_memory(self, flavor):
        # the backward builds its gw summands in gz's buffer: beyond the gw it
        # returns it holds (1, N) per-row scalars, about 14 rows' worth, and no
        # (16, N) array
        model = offset_bias_model(flavor, 16, 16, 11, seed=0)
        w = Tensor(np.random.default_rng(35).normal(size=(16, 2047)))
        stage = nn._LAYERS[flavor](w, model.bias_terms, {})
        gz = np.random.default_rng(36).normal(size=(16, 2047))
        tracemalloc.start()
        try:
            gw = stage.back(gz)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gw.shape == (16, 2047)
        assert peak < 2 * gw.nbytes


class TestColumnDots:
    # for N >= 2 einsum sums each column over the width in the product sum's
    # order; a lone column keeps the product and reduce, as einsum regroups
    # its terms, and returns its sum as a numpy scalar.  A numpy whose einsum
    # fuses multiply-add fails here.
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 407, 2047])
    @pytest.mark.parametrize("width", [2, 8, 16, 64])
    def test_bits_equal_the_product_sum(self, width, n):
        rng = np.random.default_rng(1000 * width + n)
        a = rng.normal(size=(width, n)) * 10.0 ** rng.integers(-8, 9, size=(width, n))
        b = rng.normal(size=(width, n))
        signed_zeros = np.where(rng.random((width, n)) < 0.5, -0.0, 0.0)
        # terms that cancel only in the summation order of the product sum
        spread = np.where(rng.random((width, n)) < 0.5, rng.choice([-1e300, 1e300], size=(width, n)), a)
        pairs = [
            (a, b),
            (a, a),
            (b, b),
            (signed_zeros, b),
            (signed_zeros, signed_zeros),
            (np.full_like(b, -0.0), np.abs(b)),
            (spread, b),
            (spread, np.abs(b)),
        ]
        for x, y in pairs:
            want = (x * y).sum(axis=0, keepdims=True)
            got = nn._column_dots(x, y)
            if n == 1:
                want = want[0, 0]
                assert type(got) is np.float64
            else:
                assert got.shape == want.shape == (1, n) and got.dtype == np.float64
            assert got.tobytes() == want.tobytes()


def broadcast_outer(col, row, out=None):
    """The broadcasting product that `nn._outer` stands for."""
    return np.multiply(col[:, None], row, out=out)


class TestOuter:
    # einsum adds each product into a zeroed output: every nonzero product,
    # inf and nan among them, keeps its bits, and a zero is +0.0
    @pytest.mark.parametrize("n", [0, 2, 3, 17, 407, 2047])
    @pytest.mark.parametrize("width", [2, 16, 64])
    def test_bits_equal_the_broadcasting_product(self, width, n):
        rng = np.random.default_rng(1000 * width + n)
        col = rng.normal(size=width) * 10.0 ** rng.integers(-200, 200, size=width)
        row = rng.normal(size=n) * 10.0 ** rng.integers(-200, 200, size=n)
        # signed zeros, infs, nans and subnormals; the exponents above overflow
        # and underflow some products
        col[::5], col[1::7], col[2::6] = -0.0, np.inf, 5e-324
        row[::4], row[1::6], row[2::9], row[3::5] = 0.0, -np.inf, np.nan, -1e-310
        with np.errstate(all="ignore"):
            want = broadcast_outer(col, row)
            got = nn._outer(col, row)
        assert got.shape == want.shape == (width, n) and got.dtype == np.float64
        zero = want == 0.0
        assert got[~zero].tobytes() == want[~zero].tobytes()
        assert np.count_nonzero(got[zero]) == 0 and not np.signbit(got[zero]).any()

    def test_out_is_filled_and_returned(self):
        rng = np.random.default_rng(3)
        col, row = rng.normal(size=16), rng.normal(size=407)
        out = np.full((16, 407), np.nan)
        assert nn._outer(col, row, out=out) is out
        assert out.tobytes() == broadcast_outer(col, row).tobytes()


def pass_outputs(model, feats, labels):
    loss, grads = nn.gradients(model, feats, labels)
    outputs = [nn.forward(model, feats), nn.hidden_tangent(model, feats), np.float64(loss)]
    return [a.tobytes() for a in outputs + [grads[key] for key in sorted(grads)]]


class TestBiasOuterProducts:
    # the layer's einsum outer products write +0.0 where the broadcasting
    # product writes -0.0; such a zero meets a nonzero term or BLAS's sums,
    # so every output keeps its bytes
    @pytest.fixture(scope="class")
    def tree(self):
        return gen_tree_dataset(10, 16, 0.1, seed=0)

    def model(self, tree, flavor, bias):
        if bias == "offset":
            return offset_bias_model(flavor, 16, 16, tree.n_classes, seed=0)
        model = nn.init_model(flavor, 16, 16, tree.n_classes, seed=0)
        if bias == "trained":
            state = nn.GradState(lr=0.05)
            feats, labels = tree.features[tree.train_idx], tree.labels[tree.train_idx]
            for _ in range(20):
                model = nn.riemannian_adam_step(state, model, nn.gradients(model, feats, labels)[1])
        return model

    @pytest.mark.parametrize("bias", ["origin", "offset", "trained"])
    @pytest.mark.parametrize("n", [2, 8, 1234])
    @pytest.mark.parametrize("flavor", list(Model))
    def test_outputs_equal_the_broadcasting_products(self, tree, flavor, n, bias, monkeypatch):
        model = self.model(tree, flavor, bias)
        feats, labels = tree.features[:n].copy(), tree.labels[:n]
        feats[n // 2] = 0.0
        want = pass_outputs(model, feats, labels)
        einsum, flipped = nn._outer, []

        def recorded(col, row, out=None):
            product = broadcast_outer(col, row, out)
            flipped.append(np.signbit(product).tobytes() != np.signbit(einsum(col, row)).tobytes())
            return product

        monkeypatch.setattr(nn, "_outer", recorded)
        assert pass_outputs(model, feats, labels) == want
        # at the origin the bias's zero coordinates make signed zero products
        assert flipped and (bias != "origin" or any(flipped))


class TestLoneRow:
    # a lone row's per-row scalars are numpy scalars, which must take the
    # same IEEE operations as the (1, 1) arrays they stand for
    @pytest.fixture(scope="class")
    def tree(self):
        return gen_tree_dataset(10, 16, 0.1, seed=0)

    @pytest.mark.parametrize("scale", [1.0, 6.0])
    @pytest.mark.parametrize("flavor", list(Model))
    def test_scalar_math_matches_the_array_math(self, tree, flavor, scale, monkeypatch):
        rows = range(0, len(tree.features), 10)
        klein = offset_bias_model(Model.KLEIN, 16, 16, tree.n_classes, seed=0)
        klein = replace(klein, weight=klein.weight * scale)
        # |h| = tanh|z|, and atanhc of the hidden norm nears ATANH_MAX
        h = np.tanh(np.linalg.norm(nn.hidden_tangent(klein, tree.features[rows]), axis=1))
        assert np.count_nonzero((h >= 0.95) & (h < 1.0)) >= 20
        model = offset_bias_model(flavor, 16, 16, tree.n_classes, seed=0)
        model = replace(model, weight=model.weight * scale)
        batches = [(tree.features[i : i + 1], tree.labels[i : i + 1]) for i in rows]
        scalar = [pass_outputs(model, *batch) for batch in batches]
        column_dots = nn._column_dots

        def array_dots(a, b):
            return np.add.reduce(a * b, axis=0, keepdims=True) if a.shape[1] == 1 else column_dots(a, b)

        monkeypatch.setattr(nn, "_column_dots", array_dots)
        monkeypatch.setattr(nn, "_bias_dots", lambda b, a: b @ a)
        for i, batch, want in zip(rows, batches, scalar):
            assert pass_outputs(model, *batch) == want, i

    @pytest.mark.parametrize("flavor", [Model.POINCARE, Model.LORENTZ])
    def test_saturating_lone_row_names_its_layer(self, tree, flavor):
        # scalar math, like array math, overflows silently in the pass's
        # np.errstate; Klein's closed form saturates to finite logits here
        model = nn.init_model(flavor, 16, 16, tree.n_classes, seed=0)
        model = replace(model, weight=model.weight * 1e3)
        feats, labels = tree.features[1:2], tree.labels[1:2]
        message = rf"^numerical overflow in {flavor.value}_layer at row 0$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call, args in ((nn.forward, ()), (nn.hidden_tangent, ()), (nn.gradients, (labels,))):
                with pytest.raises(NumericalError, match=message):
                    call(model, feats, *args)


class TestStageArrays:
    # a Tensor keeps the array its stage builds, unconverted, so each stage
    # must build a C-ordered float64 column per row itself
    @pytest.fixture(scope="class")
    def tree(self):
        return gen_tree_dataset(10, 16, 0.1, seed=0)

    @pytest.mark.parametrize("rows", [slice(None), slice(0, 1)], ids=["train_split", "one_row"])
    @pytest.mark.parametrize("flavor", list(Model))
    def test_every_stage_of_a_gradients_pass_is_a_float64_column_per_row(self, tree, flavor, rows, monkeypatch):
        runs = []

        class Recorded(nn._TapeRun):
            def __init__(self, *args):
                super().__init__(*args)
                runs.append(self)

        monkeypatch.setattr(nn, "_TapeRun", Recorded)
        model = offset_bias_model(flavor, 16, 16, tree.n_classes, seed=3)
        feats, labels = tree.features[tree.train_idx][rows], tree.labels[tree.train_idx][rows]
        loss, _ = nn.gradients(model, feats, labels)
        (run,) = runs
        n = len(labels)
        widths = [16, 16, 16, tree.n_classes]
        for node, width in zip(run.stages[:4], widths):
            assert type(node.data) is np.ndarray and node.data.dtype == np.float64, node.name
            assert node.data.shape == (width, n) and node.data.flags.c_contiguous, node.name
        assert type(run.loss.data) is np.float64 and repr(float(run.loss.data)) == repr(loss)


class TestAccuracy:
    @pytest.mark.parametrize("flavor", list(Model))
    def test_tied_logits_count_as_class_zero(self, flavor):
        # all-zero readout weights and bias tie every logit, and argmax takes class 0
        ds = gen_tree_dataset(6, 8, 0.1, seed=0)
        model = offset_bias_model(flavor, 8, 16, ds.n_classes, seed=5)
        zeros = np.zeros_like(model.readout_weight)
        model = replace(model, readout_weight=zeros, readout_bias=np.zeros(ds.n_classes))
        logits = nn.forward(model, ds.features)
        assert np.count_nonzero(logits) == 0
        got = nn.accuracy(model, ds.features, ds.labels)
        assert type(got) is float
        assert repr(got) == repr(float((logits.argmax(axis=1) == ds.labels).mean()))
        assert 0.0 < got < 1.0


class TestRiemannianAdam:
    def test_zero_gradients_leave_model_unchanged(self):
        model = offset_bias_model(Model.KLEIN, 3, 3, 3, seed=11)
        zero = {key: np.zeros_like(a) for key, a in model.parameter_arrays().items()}
        out = nn.riemannian_adam_step(nn.GradState(lr=0.1), model, zero)
        for key, a in model.parameter_arrays().items():
            np.testing.assert_array_equal(out.parameter_arrays()[key], a)

    def test_riemannian_gradient_at_origin_is_euclidean(self):
        g = np.array([0.1, -0.2, 0.3])
        np.testing.assert_allclose(nn._riemannian_bias_grad(Model.KLEIN, np.zeros(3), g), g, atol=1e-15)

    def test_first_step_magnitude_bounded_by_lr(self):
        model = nn.init_model(Model.KLEIN, 1, 1, 2, seed=12)
        grads = {
            "weight": np.zeros((1, 1)),
            "bias": np.array([0.7]),
            "readout_weight": np.zeros((2, 1)),
            "readout_bias": np.zeros(2),
        }
        out = nn.riemannian_adam_step(nn.GradState(lr=0.1), model, grads)
        moved = distance(Model.KLEIN, model.bias[None], out.bias[None])[0]
        assert 0.0 < moved <= 0.1 + 1e-9

    def test_lorentz_step_keeps_constraint(self):
        model = offset_bias_model(Model.LORENTZ, 2, 3, 2, seed=13)
        rng = np.random.default_rng(14)
        grads = {
            "weight": rng.normal(size=(3, 2)),
            "bias": rng.normal(size=4),
            "readout_weight": rng.normal(size=(2, 3)),
            "readout_bias": rng.normal(size=2),
        }
        state = nn.GradState(lr=0.05)
        for _ in range(5):
            model = nn.riemannian_adam_step(state, model, grads)
            c = model.bias[None]
            assert abs(minkowski_rows(c, c)[0, 0] + 1.0) < 1e-9


    def test_radius_cap_keeps_the_direction_of_a_row_whose_square_overflows(self):
        # past a spatial norm of about 1.3e154 (length 355) the norm's square
        # overflows; the cap used to warn and put such a row at the origin
        rng = np.random.default_rng(15)
        for length in np.linspace(9.0, 700.0, 40):
            direction = rng.normal(size=int(rng.integers(1, 7)))
            direction /= np.linalg.norm(direction)
            far = exp_map(L, origin(L, direction.size), length * np.concatenate(([0.0], direction))[None])
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                capped = nn._clamp_lorentz_radius(far)[0]
            assert capped[0] == pytest.approx(nn._MAX_BIAS_TIME, rel=1e-12)
            np.testing.assert_allclose(capped[1:] / np.linalg.norm(capped[1:]), direction, rtol=0.0, atol=1e-12)


class TestTrain:
    def test_zero_epochs(self):
        ds = gen_tree_dataset(3, 6, 0.0, seed=0)
        model = nn.init_model(Model.KLEIN, ds.dim, 4, ds.n_classes, seed=0)
        out, metrics = nn.train(model, ds, nn.TrainConfig(epochs=0))
        assert metrics == []
        assert out is model

    def test_deterministic_metric_stream(self):
        ds = gen_tree_dataset(4, 8, 0.1, seed=1)
        runs = []
        for _ in range(2):
            model = nn.init_model(Model.KLEIN, ds.dim, 6, ds.n_classes, seed=3)
            _, metrics = nn.train(model, ds, nn.TrainConfig(epochs=25, patience=25))
            runs.append([(m.train_loss, m.val_acc) for m in metrics])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("flavor", list(Model))
    def test_loss_decreases_over_fifty_epochs(self, flavor):
        ds = gen_tree_dataset(4, 8, 0.1, seed=2)
        model = nn.init_model(flavor, ds.dim, 8, ds.n_classes, seed=4)
        _, metrics = nn.train(model, ds, nn.TrainConfig(epochs=50, patience=50))
        assert metrics[-1].train_loss < metrics[0].train_loss

    @pytest.mark.parametrize("flavor", list(Model))
    def test_validation_split_leaves_the_train_loss_stream_unchanged(self, flavor):
        # verify's training_trend trains without its validation split, as with
        # patience >= epochs validation picks the returned model and changes no update
        ds = gen_tree_dataset(4, 8, 0.1, seed=2)
        train_only = Dataset(ds.features, ds.labels, {"train": ds.train_idx})
        streams = []
        for data in (ds, train_only):
            model = nn.init_model(flavor, ds.dim, 8, ds.n_classes, seed=4)
            _, metrics = nn.train(model, data, nn.TrainConfig(epochs=30, patience=30))
            streams.append([m.train_loss for m in metrics])
        assert ds.val_idx.size and len(streams[0]) == 30
        assert streams[0] == streams[1]

    def test_each_epoch_calls_the_module_level_step_functions(self, monkeypatch):
        # perfbench times and samples each epoch by swapping nn.gradients and
        # nn.riemannian_adam_step for wrappers, so train must call them
        # through the module, once per epoch
        calls = {"gradients": 0, "riemannian_adam_step": 0}
        for name in calls:

            def counted(*args, _name=name, _inner=getattr(nn, name)):
                calls[_name] += 1
                return _inner(*args)

            monkeypatch.setattr(nn, name, counted)
        ds = gen_tree_dataset(3, 6, 0.1, seed=0)
        model = nn.init_model(Model.KLEIN, ds.dim, 4, ds.n_classes, seed=0)
        _, metrics = nn.train(model, ds, nn.TrainConfig(epochs=7, patience=7))
        assert len(metrics) == 7
        assert calls == {"gradients": 7, "riemannian_adam_step": 7}

    def test_early_stopping_bounds_epochs(self):
        ds = gen_tree_dataset(4, 8, 0.1, seed=5)
        model = nn.init_model(Model.KLEIN, ds.dim, 4, ds.n_classes, seed=6)
        _, metrics = nn.train(model, ds, nn.TrainConfig(epochs=3000, patience=5))
        assert len(metrics) < 3000


class TestModelInvariant:
    # a pass scans no parameter for non-finite values: every model's are
    # finite because no model can be changed after its checks ran
    @pytest.mark.parametrize("name", [f.name for f in fields(nn.HnnModel)])
    def test_fields_cannot_be_assigned(self, name):
        model = nn.init_model(Model.KLEIN, 2, 3, 2, seed=0)
        with pytest.raises(FrozenInstanceError):
            setattr(model, name, getattr(model, name))

    def test_replace_rejects_non_finite_parameters(self):
        model = nn.init_model(Model.KLEIN, 2, 3, 2, seed=0)
        weight = model.weight.copy()
        weight[0, 1] = np.nan
        with pytest.raises(ValueError, match="weight must be a finite 2-d matrix"):
            replace(model, weight=weight)
        readout_bias = model.readout_bias.copy()
        readout_bias[1] = np.inf
        with pytest.raises(ValueError, match="readout bias must be a finite 1-d vector"):
            replace(model, readout_bias=readout_bias)

    @pytest.mark.parametrize("key", nn._PARAMETERS)
    @pytest.mark.parametrize("flavor", list(Model))
    def test_parameters_cannot_be_written_in_place(self, flavor, key):
        model = offset_bias_model(flavor, 2, 3, 2, seed=0)
        array = model.parameter_arrays()[key]
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = np.nan
        assert np.all(np.isfinite(nn.forward(model, np.ones((1, 2)))))

    def test_model_does_not_alias_the_arrays_it_was_built_from(self):
        model = nn.init_model(Model.KLEIN, 2, 3, 2, seed=0)
        feats = np.ones((1, 2))
        before = nn.forward(model, feats)
        weight, readout_weight, readout_bias = np.ones((3, 2)), np.ones((2, 3)), np.zeros(2)
        derived = replace(model, weight=weight)
        built = nn.HnnModel(model.flavor, weight, model.bias, readout_weight, readout_bias)
        derived_logits, built_logits = nn.forward(derived, feats), nn.forward(built, feats)
        weight[0, 0], readout_weight[0, 0], readout_bias[0] = 7.0, 7.0, 7.0
        np.testing.assert_array_equal(nn.forward(derived, feats), derived_logits)
        np.testing.assert_array_equal(nn.forward(built, feats), built_logits)
        np.testing.assert_array_equal(nn.forward(model, feats), before)


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        for flavor in Model:
            model = offset_bias_model(flavor, 3, 4, 3, seed=15)
            path = tmp_path / f"{flavor.value}.json"
            nn.save_model(model, path, extra={"seed": 1, "config": {"lr": 0.01}})
            loaded, doc = nn.load_model(path)
            assert doc["seed"] == 1
            np.testing.assert_allclose(loaded.weight, model.weight, atol=1e-15)
            np.testing.assert_allclose(loaded.bias, model.bias, atol=1e-15)
            feats = np.random.default_rng(16).normal(size=(3, 3))
            np.testing.assert_allclose(
                nn.forward(loaded, feats), nn.forward(model, feats), atol=1e-12
            )

    @pytest.mark.parametrize("flavor", list(Model))
    def test_a_bias_at_the_clamp_reloads_bit_for_bit(self, tmp_path, flavor):
        # the model checks a loaded bias and rescales nothing, so a bias that
        # the clamp left at its radius, within rounding, keeps its bits
        rng = np.random.default_rng(51)
        feats = rng.normal(size=(5, 3))
        path = tmp_path / "checkpoint.json"
        for seed in range(64):
            o = origin(flavor, 4)
            raw = rng.normal(size=o.shape) * 50.0
            if flavor is Model.LORENTZ:
                raw[:, 0] = 0.0
            # a long step from a point near the origin, in 64 directions
            base = exp_map(flavor, o, 0.01 * raw)
            bias = exp_map(flavor, base, transport_from_origin(flavor, base, raw))
            if flavor is Model.LORENTZ:
                bias = nn._clamp_lorentz_radius(bias)
                assert bias[0, 0] == pytest.approx(nn._MAX_BIAS_TIME, rel=1e-12)
            else:
                assert np.linalg.norm(bias) == pytest.approx(1.0 - EPS_BALL, rel=1e-15)
            model = replace(nn.init_model(flavor, 3, 4, 3, seed), bias=bias[0])
            nn.save_model(model, path)
            loaded, _ = nn.load_model(path)
            assert loaded.bias.tobytes() == bias.tobytes(), seed
            for key, array in model.parameter_arrays().items():
                assert loaded.parameter_arrays()[key].tobytes() == array.tobytes(), (seed, key)
            assert nn.forward(loaded, feats).tobytes() == nn.forward(model, feats).tobytes()


class TestFlavorParity:
    def test_corresponding_models_agree_on_logits(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n, m, c = int(rng.integers(2, 7)), int(rng.integers(2, 7)), int(rng.integers(2, 5))
            km = offset_bias_model(Model.KLEIN, n, m, c, seed=int(rng.integers(10000)))
            bm = replace(
                km,
                flavor=Model.POINCARE,
                weight=km.weight / 2.0,
                bias=convert_point(K, P, km.bias[None])[0],
                readout_weight=2.0 * km.readout_weight,
            )
            lm = replace(km, flavor=Model.LORENTZ, bias=convert_point(K, L, km.bias[None])[0])
            feats = rng.normal(size=(6, n)) * 2.0
            base = nn.forward(km, feats)
            np.testing.assert_allclose(nn.forward(bm, feats), base, atol=1e-6)
            np.testing.assert_allclose(nn.forward(lm, feats), base, atol=1e-6)

    def test_a_lorentz_bias_makes_a_lorentz_model(self):
        # a change of flavor names the flavor; a bias of another model is refused
        km = offset_bias_model(Model.KLEIN, 4, 5, 3, seed=21)
        bias = convert_point(K, L, km.bias[None])[0]
        with pytest.raises(ValueError, match="bias lies outside the open unit ball"):
            replace(km, bias=bias)
        lm = replace(km, flavor=Model.LORENTZ, bias=bias)
        assert lm.flavor is Model.LORENTZ
        feats = np.random.default_rng(22).normal(size=(6, 4)) * 2.0
        _, expected = verify._corresponding_models(km)
        np.testing.assert_array_equal(nn.forward(lm, feats), nn.forward(expected, feats))
