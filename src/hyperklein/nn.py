"""Hyperbolic neural networks in Klein, Poincare, and Lorentz coordinates.

The architecture is fixed at depth two: one hyperbolic linear layer, a
hyperbolic ReLU, and a Euclidean readout of class logits.  A feature row x
is read as a tangent vector at the origin o, so the input point is exp_o(x)
and the layer's tangent-space matrix action applies W to x itself.  With b
the hidden bias point, R and r the readout weight and bias:

    Klein     h = exp_o(W x) (+)_E b                  Einstein addition
    Poincare  h = exp_p(PT_{o->p} log_o b),  p = exp_o(W x), in the ball's chart
    Lorentz   h = exp_p(PT_{o->p} log_o b),  p = exp_o(W x)
    logits    = R relu(log_o h) + r

By the paper's transport theorem the tangent-space construction of the bias,
exp_p(PT_{o->p} log_o b), is the Einstein addition in Klein and the Mobius
addition in Poincare coordinates.  The Lorentz layer evaluates it exactly,
and the Poincare layer is the same stage in the ball's chart, not the Mobius
closed form, whose atanh of a ball norm saturates in float64 (Mishne et al.,
ICML 2023).  Klein keeps its Einstein closed form, overflow and all, while
perfbench's counted-failure test relies on that overflow on Texas-shaped data.
The hyperbolic ReLU exp_o(relu(log_o h)) is followed by the readout's log_o,
so the readout takes relu(log_o h).

Every one of these steps keeps a row in span(w, b), w = W x, so the whole
layer is z = log_o h = a w + c b with per-row scalars a, c of |w|^2, w.b and
|b|^2 (for the hyperboloid stage, b is the bias's origin tangent log_o b):

    Klein     exp_o(w) = tanhc|w| w, then (+)_E with 1/gamma = sqrt(1 - |exp_o(w)|^2);
              z = atanhc|h| h
    Lorentz   exp_o(w) = (cosh|w|, sinhc|w| w); transport and exp give the
              spatial part h_s = sinhc|w| (cosh t + sinhc(t) k) w + sinhc(t) b,
              k = sinhc|w| (w.b) / (1 + cosh|w|), t the transported b's norm;
              z = asinhc|h_s| h_s
    Poincare  the Lorentz stage at 2w and 2u, u = log_o b = atanhc|b| b, halved
              (a Poincare origin tangent is half the hyperboloid's)

A model, `HnnModel`, is flat and frozen: its fields are its flavor and its
four parameters W, b, R, r under the names of their gradients (`weight`,
`bias`, `readout_weight`, `readout_bias`).  The bias is a coordinate row of
the flavor's model.  The checkpoints and the gradient checks address the
parameters by those names, the optimizer by their order.  A new model, built
from its fields or derived with `dataclasses.replace`, re-runs the model's
checks, `manifolds.check_point` for the bias; a change of flavor names the
new flavor and a bias of its model.  A model checks its parameters, the
entry points their inputs.

The tape is the chain of the pass's five stages, hidden_linear ->
<flavor>_layer -> relu -> readout -> cross_entropy, each one `autodiff.Tensor`
with a closed-form backward.  A stage holds a (width, N) array, a column per
row, so the readout and the loss reduce along contiguous memory and the
layer's per-row scalars are (1, N) rows, or numpy scalars for a lone row: an
operation on a (1, 1) array costs several times one on a scalar, and the same
code does the same IEEE operations on either.  A column sum is one einsum pass
(a lone column keeps the product and reduce), and the loss picks its label
logits by flat index.  Each stage builds its output in the array it keeps: the
layer scales its hidden points h to z = log_o h in place, as nothing
downstream reads h but through log_o, and the loss's shifted logits become its
exponentials.  A backward runs once.  It may overwrite the gradient it is
handed and the buffers its own closure holds (the loss returns its
exponentials as the gradient, the relu masks in place, and the layer builds
its summands in its incoming gradient's buffer), but never a stage's `data`,
which callers read after the backward.  The stages read the model's fields
directly, but for the layer, which reads the bias through the model's
`bias_terms`: the bias-only part of its forward (for the hyperboloid stage the
origin tangent v, |v|^2, t, sinhc t and cosh t of the transported tangent's
norm, and the hidden point's bias summand beta v, beta = sinhc t; Klein's
beta is per row, so its pass forms beta b itself), derived on the model's
first pass and kept for every later one, read-only (|v|^2 and sinhc t are
floats).  The backward walks the chain from the loss to hidden_linear, and
each stage writes its own parameters' gradients into the pass's `grads`.
The slopes of the `smooth_ratio` functions, the bias terms' among them, are
computed in the backward only, so a pass that returns logits or tangents
computes none.  This is the only implementation of the network; the tests
hold it to the `manifolds` and `gyro` operations composed step by step.

Gradients are exact; the optimizer is a Riemannian Adam that retracts
manifold-valued biases with the exponential map.

`forward`, `hidden_tangent` and `gradients` check and cap their inputs
(`_prepare`; a feature row with an inf or a nan is a ValueError, an input
fault), run one tape pass on them and check only the arrays it returns: the
logits, the tangent, or the loss and the four gradients.  Only when one of
those is non-finite are the pass's stages scanned, in the order they were
built, for the first one that holds a non-finite value; its NumericalError
names the stage and the row, and `train` adds the flavor and the epoch.  The
input prep and the pass, its backward included, run inside one
np.errstate(all="ignore"), the decorator of `_checked_pass`, which numpy
resets after each call; no stage enters its own.  A model's parameters
need no scan: its checks run whenever one is built, and nothing changes a
model or its read-only arrays after that.  A bias term that overflows shows
in the layer stage, which the scan names.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from . import autodiff as ad
from .autodiff import NumericalError, Tensor
from .data import json_numbers
from .manifolds import (
    EPS_BALL,
    Model,
    _finite,
    _peak_split,
    check_point,
    exp_map,
    lorentz_rows,
    lorentz_tangent_rows,
    minkowski_rows,
    origin,
    smooth_ratio,
    smooth_slope,
)

MAX_FEATURE_NORM = 5.0
# added to a squared norm before its root: a zero row's norm, and slopes over it, stay finite
_TINY = 1e-32


@dataclass(frozen=True, eq=False)
class HnnModel:
    """Two-layer hyperbolic network: hyperbolic linear + Euclidean readout.

    The fields are the flavor, a `Model` or its name, and the parameters
    under their gradient keys; the bias is a point of the flavor's model,
    with a time coordinate first on the hyperboloid.  `dataclasses.replace`
    derives a new model and re-runs these checks, so all are finite and the
    bias passes `check_point`, which rescales nothing: a hyperboloid bias
    may lie up to `_LORENTZ_INPUT_TOL` times its time off the sheet, and
    the layer reads only its spatial part.  The arrays are read-only float64
    copies, and a bad value is a ValueError naming its field.  The public
    entry points check and cap a pass's inputs.  The cached `bias_terms` is
    not a field, and a replaced model derives its own.
    """

    flavor: Model
    weight: np.ndarray
    bias: np.ndarray
    readout_weight: np.ndarray
    readout_bias: np.ndarray

    def __post_init__(self):
        flavor = Model(self.flavor)
        bias = check_point(flavor, _float64(self.bias, _REFUSALS["bias"]), "bias")
        bias.flags.writeable = False
        weight = _parameter(self.weight, 2, _REFUSALS["weight"])
        if bias.size != weight.shape[0] + (flavor is Model.LORENTZ):
            raise ValueError("bias dimension must match the weight output dimension")
        readout_weight = _parameter(self.readout_weight, 2, _REFUSALS["readout_weight"])
        readout_bias = _parameter(self.readout_bias, 1, _REFUSALS["readout_bias"])
        if readout_weight.shape[1] != weight.shape[0]:
            raise ValueError("readout width must match the hidden width")
        if readout_weight.shape[0] != readout_bias.size:
            raise ValueError("readout bias length must match the class count")
        if readout_bias.size < 2:
            raise ValueError("need at least two classes")
        for name, value in zip(("flavor", *_PARAMETERS), (flavor, weight, bias, readout_weight, readout_bias)):
            object.__setattr__(self, name, value)

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def n_classes(self) -> int:
        return self.readout_bias.size

    @cached_property
    def bias_terms(self) -> tuple:
        """The layer stage's bias-only forward terms, `_BIAS_TERMS` of the
        bias: derived on the model's first pass, inside its np.errstate, and
        read by every later one; read-only, not a field."""
        return _BIAS_TERMS[self.flavor](self.bias)

    def parameter_arrays(self) -> dict:
        """Each parameter's array under its gradient key."""
        return {key: getattr(self, key) for key in _PARAMETERS}


# the model's fields after its flavor
_PARAMETERS = ("weight", "bias", "readout_weight", "readout_bias")
# the ValueError message for a parameter value that the model, or a checkpoint, refuses
_REFUSALS = {
    "weight": "weight must be a finite 2-d matrix",
    "bias": "bias must be a 1-d vector of numbers",
    "readout_weight": "readout weight must be a finite 2-d matrix",
    "readout_bias": "readout bias must be a finite 1-d vector",
}


def _float64(value, message: str) -> np.ndarray:
    """A new float64 array of value; one that numpy cannot read as numbers (an
    object, a string, ragged lists) is a ValueError with the message."""
    try:
        return np.array(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as err:
        raise ValueError(message) from err


def _parameter(value, ndim: int, message: str) -> np.ndarray:
    """The rule for a Euclidean parameter: a finite, read-only float64 array of ndim axes."""
    array = _float64(value, message)
    if array.ndim != ndim or np.count_nonzero(np.isfinite(array)) != array.size:
        raise ValueError(message)
    array.flags.writeable = False
    return array


def init_model(flavor: Model, in_dim: int, hidden_dim: int, n_classes: int, seed: int) -> HnnModel:
    """Uniform(+-1/sqrt(fan_in)) weights, bias at the origin, zero readout bias."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(-1.0, 1.0, size=(hidden_dim, in_dim)) / np.sqrt(in_dim)
    wr = rng.uniform(-1.0, 1.0, size=(n_classes, hidden_dim)) / np.sqrt(hidden_dim)
    return HnnModel(flavor, w, origin(flavor, hidden_dim)[0], wr, np.zeros(n_classes))


# ---------------------------------------------------------------------------
# the tape's stages; rows of points, one manifold point per row


def _hidden_linear(rows: np.ndarray, weight: np.ndarray, grads: dict) -> Tensor:
    """W rows^T, the first stage; the capped feature rows are a constant."""

    def back(g):
        grads["weight"] = g @ rows

    return Tensor(weight @ rows.T, None, back, "hidden_linear")


# Each flavor's coefficients map the row scalars p = |w|^2 and q = w.b, and
# what they read of the bias's terms (`_BIAS_TERMS`), to the point
# exp_o(w) (+) b = alpha w + beta b (its spatial part, on the hyperboloid).
# They return alpha, beta and a function taking (dL/dalpha, dL/dbeta) to
# (dL/dp, dL/dq, dL/ds), s = |b|^2.


def _klein_coefficients(p, q, _):
    """Einstein addition exp_o(w) (+)_E b, with exp_o(w) = tanhc(|w|) w."""
    n = np.sqrt(p + _TINY)
    tau = smooth_ratio("tanhc", n)
    inv_gamma = np.sqrt(1.0 - tau * tau * p)
    gamma = 1.0 / inv_gamma
    cf = gamma / (1.0 + gamma)
    dot = tau * q
    inv = 1.0 / (1.0 + dot)
    lift = 1.0 + cf * dot
    alpha = tau * lift * inv
    beta = inv_gamma * inv

    def back(g_alpha, g_beta):
        g_lift = g_alpha * tau * inv
        g_dot = g_lift * cf - (g_alpha * alpha + g_beta * beta) * inv
        # d cf / d inv_gamma = -cf^2
        g_inv_gamma = g_beta * inv - g_lift * dot * cf * cf
        g_sq = -0.5 * g_inv_gamma * gamma  # of |exp_o(w)|^2 = tau^2 p
        g_tau = g_alpha * lift * inv + 2.0 * g_sq * tau * p + g_dot * q
        return g_sq * tau * tau + g_tau * smooth_slope("tanhc", n, tau) / (2.0 * n), g_dot * tau, 0.0

    return alpha, beta, back


def _lorentz_coefficients(p, q, transported):
    """exp_h(PT_{o->h} v) for h = exp_o(w) = (cosh|w|, sinhc(|w|) w); here b
    is the bias's origin tangent v, and alpha w + beta v is the spatial part.
    Transport is an isometry, so the transported tangent's norm is t = |v|;
    t, sinhc t and cosh t come with the bias's terms."""
    t, big_s, big_c = transported
    n = np.sqrt(p + _TINY)
    sig = smooth_ratio("sinhc", n)
    inner = sig * q  # <h, (0, v)>, the time coordinate of the transported v
    inv = 1.0 / (1.0 + np.cosh(n))
    coef = inner * inv
    alpha = sig * (big_c + big_s * coef)
    beta = big_s

    def back(g_alpha, g_beta):
        dsig, dbig_s = smooth_slope("sinhc", n, sig), smooth_slope("sinhc", t, big_s)
        g_alpha_sig = g_alpha * sig
        g_t = g_alpha_sig * np.sinh(t) + (g_alpha_sig * coef + g_beta) * dbig_s
        g_coef = g_alpha_sig * big_s
        g_inner = g_coef * inv
        g_sig = g_alpha * (big_c + big_s * coef) + g_inner * q
        g_n = -g_coef * coef * inv * np.sinh(n) + g_sig * dsig
        return g_n / (2.0 * n), g_inner * sig, g_t / (2.0 * t)

    return alpha, beta, back


def _column_dots(a: np.ndarray, b: np.ndarray):
    """(a * b).sum(axis=0, keepdims=True) of (width, N) arrays, bit for bit:
    for N >= 2 one einsum pass, which sums each column in the same order with
    no product array; a lone column, whose terms einsum regroups, is a product
    and the same pairwise reduce over all axes, to a numpy scalar."""
    if a.shape[1] == 1:
        return np.add.reduce(a * b, axis=None)
    return np.einsum("ij,ij->j", a, b)[None]


def _bias_dots(b: np.ndarray, a: np.ndarray):
    """b @ a of a (width, N) array: the (N,) products, or a lone column's numpy scalar."""
    dots = b @ a
    return dots[0] if a.shape[1] == 1 else dots


def _span_layer(name, coefficients, log_ratio, scale, w: Tensor, terms: tuple, grads: dict) -> Tensor:
    """One stage for z = log_o(exp_o(w) (+) b) = k h, h = alpha w + beta b,
    run at scale w and scale b and divided by scale: the coefficients take
    the row scalars times scale^2, and k is the origin log's ratio
    `log_ratio` of scale |h|.  Only the Poincare stage scales, by 2; the
    scale-1 Klein and Lorentz stages multiply nothing by it.  `terms` are
    the model's bias terms (`_BIAS_TERMS`): b, s = |b|^2, what the
    coefficients read of the bias, the summand beta b as a (width, 1) column
    when beta is a constant of the model (None when, as in Klein, it is per
    row), and `b_back`.  The per-row scalars are (1, N) rows, or a lone
    row's numpy scalars (`_column_dots`, `_bias_dots`).
    The backward takes G1 = gz.w and G2 = gz.b per (width, N) column back
    through them to dL/dp, dL/dq and dL/ds, and then
        gw = k alpha gz + 2 dL/dp w + dL/dq b
        gb = gz (k beta)^T + w dL/dq^T + 2 sum(dL/ds) b,
    which `b_back` takes on to the bias coordinates for grads["bias"].
    Returns the stage, whose data is z.
    """
    b, s, bias_terms, summand, b_back = terms
    wd = w.data
    scaled, c2 = scale != 1.0, scale * scale
    p = _column_dots(wd, wd)
    q = _bias_dots(b, wd)
    alpha, beta, coefficients_back = coefficients(c2 * p if scaled else p, c2 * q if scaled else q, bias_terms)
    z = alpha * wd
    # the hidden points h, scaled to z in place below
    z += beta * b[:, None] if summand is None else summand
    r = np.sqrt(_column_dots(z, z) + _TINY)
    scaled_r = scale * r if scaled else r
    k = smooth_ratio(log_ratio, scaled_r)
    z *= k

    def back(gz):
        dk = smooth_slope(log_ratio, scaled_r, k)
        g1 = _column_dots(gz, wd)
        g2 = _bias_dots(b, gz)
        g_sq = (alpha * g1 + beta * g2) * (scale * dk if scaled else dk) / (2.0 * r)  # of |hidden|^2
        g_sq2 = 2.0 * g_sq
        g_alpha = k * g1 + g_sq2 * (alpha * p + beta * q)
        g_beta = k * g2 + g_sq2 * (alpha * q + beta * s)
        g_p, g_q, g_s = coefficients_back(g_alpha, g_beta)
        if scaled:
            g_p, g_q, g_s = c2 * g_p, c2 * g_q, c2 * g_s
        g_p = g_p + g_sq * alpha * alpha
        g_q = g_q + g_sq2 * alpha * beta
        g_s = np.add.reduce(g_s + g_sq * beta * beta, axis=None)
        gb = gz @ (k * beta).ravel() + wd @ g_q.ravel() + 2.0 * g_s * b
        grads["bias"] = b_back(gb)
        # gz is read; its buffer holds each further summand of gw in turn
        gw = k * alpha * gz
        gw += np.multiply(2.0 * g_p, wd, out=gz)
        gw += np.multiply(g_q, b[:, None], out=gz)
        return gw

    return Tensor(z, w, back, name)


def _klein_terms(b: np.ndarray) -> tuple:
    """The Klein layer's bias terms: b, s = |b|^2, nothing for its
    coefficients, no summand (its beta is per row), no b_back."""
    return b, float(b @ b), None, None, lambda gb: gb


def _hyperboloid_terms(ratio, scale, start, coords: np.ndarray) -> tuple:
    """The hyperboloid stage's bias terms.  The bias enters through its
    origin tangent v = rho b_s, rho = ratio(|b_s|): asinhc of a hyperboloid
    point's spatial part b_s = coords[1:] (its time coordinate's gradient
    is zero), or atanhc of a Poincare ball point b_s = coords.  Returns v,
    s = |v|^2 and sinhc t as floats, the transported tangent's norm
    t = scale |v| with sinhc t and cosh t for `_lorentz_coefficients`, the
    summand beta v = sinhc(t) v as a read-only (width, 1) column, and
    `b_back`, which takes dL/dv to the bias coordinates and computes the slope
    of rho only when called."""
    b_s = coords[start:]
    bn = np.sqrt(b_s @ b_s + _TINY)
    rho = smooth_ratio(ratio, bn)
    v = rho * b_s
    s = float(v @ v)
    t = np.sqrt(scale * scale * s + _TINY)
    big_s = float(smooth_ratio("sinhc", t))  # the series gives a 0-d array, a float is read-only
    summand = big_s * v[:, None]
    for array in (v, summand):
        array.flags.writeable = False

    def b_back(gv):
        gb = rho * gv + (gv @ b_s) * smooth_slope(ratio, bn, rho) / bn * b_s
        return np.concatenate(([0.0], gb)) if start else gb

    return v, s, (t, big_s, np.cosh(t)), summand, b_back


# a Poincare origin tangent is half the hyperboloid's, so the ball runs the
# hyperboloid stage at scale 2, its bias terms included
_BIAS_TERMS = {
    Model.KLEIN: _klein_terms,
    Model.POINCARE: partial(_hyperboloid_terms, "atanhc", 2.0, 0),
    Model.LORENTZ: partial(_hyperboloid_terms, "asinhc", 1.0, 1),
}
_LAYERS = {
    Model.KLEIN: partial(_span_layer, "klein_layer", _klein_coefficients, "atanhc", 1.0),
    Model.POINCARE: partial(_span_layer, "poincare_layer", _lorentz_coefficients, "asinhc", 2.0),
    Model.LORENTZ: partial(_span_layer, "lorentz_layer", _lorentz_coefficients, "asinhc", 1.0),
}


def _relu(t: Tensor) -> Tensor:
    """max(t, 0) elementwise; the slope at zero is zero."""
    return Tensor(np.maximum(t.data, 0.0), t, lambda g: np.multiply(g, t.data > 0.0, out=g), "relu")


def _readout(a: Tensor, weight: np.ndarray, bias: np.ndarray, grads: dict) -> Tensor:
    """R a + r as one stage, a class column per row."""

    def back(g):
        grads["readout_weight"] = g @ a.data.T
        grads["readout_bias"] = g.sum(axis=1)
        return weight.T @ g

    logits = weight @ a.data
    logits += bias[:, None]
    return Tensor(logits, a, back, "readout")


def _mean_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean of the logit columns' cross-entropies as one stage; gradient (softmax - onehot)/N."""
    # each row's label logit by its flat index in the C-ordered (classes, N) buffer
    at = labels * labels.size + np.arange(labels.size)
    shifted = logits.data - logits.data.max(axis=0)
    picked = shifted.take(at)
    e = np.exp(shifted, out=shifted)
    total = e.sum(axis=0)
    scale = 1.0 / labels.size
    per_row = np.log(total) - picked

    def back(g):
        grad = np.multiply(e, g * scale / total, out=e)
        grad.ravel()[at] -= g * scale
        return grad

    return Tensor(per_row.sum() * scale, logits, back, "cross_entropy")


def _class_labels(labels, rows: int, n_classes: int) -> np.ndarray:
    """labels as an intp array, checked to hold one class in [0, n_classes) per feature row."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu" or labels.shape != (rows,):
        raise ValueError(f"need one integer label per row ({rows}), got {labels.dtype} {labels.shape}")
    if np.count_nonzero((labels < 0) | (labels >= n_classes)):
        raise ValueError("labels out of range")
    return labels.astype(np.intp, copy=False)


def _preprocess(features) -> np.ndarray:
    """Cap feature rows at MAX_FEATURE_NORM to keep tanh saturation in check.

    The cap is idle, and the rows are returned as given, when every squared
    norm lies under the cap's square less a 1e-9 margin: a lone row's is one
    1-d dot product, a batch's one einsum pass.  The two sum in different
    orders, and so does np.linalg.norm, but the margin sends each row whose
    norm could round to the cap, and each non-finite row, to the scaling,
    which multiplies every uncapped row by exactly 1.  A row with an inf or
    a nan raises ValueError there, naming the first such row.  A finite row
    whose squared norm overflows (silently in `_checked_pass`) is capped too,
    by the scale (MAX_FEATURE_NORM / peak) / |x / peak| with peak its largest
    |x|, so neither the square nor a norm past the float64 maximum is formed.
    """
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError("features must be a 2-d matrix")
    limit = MAX_FEATURE_NORM**2 * (1.0 - 1e-9)
    if len(feats) == 1:
        row = feats[0]
        if row.dot(row) < limit:
            return feats
    elif np.count_nonzero(np.einsum("ij,ij->i", feats, feats) < limit) == len(feats):
        return feats
    norms = np.linalg.norm(feats, axis=1, keepdims=True)
    scale = MAX_FEATURE_NORM / np.maximum(norms, MAX_FEATURE_NORM)
    if np.count_nonzero(np.isfinite(norms)) != len(feats):
        # an inf or a nan makes a row's norm non-finite, and so may finite entries that overflow it
        finite = np.isfinite(feats).all(axis=1)
        if not finite.all():
            raise ValueError(f"feature row {finite.argmin()} is not finite")
        big = np.isinf(norms[:, 0])
        peak, unit = _peak_split(feats[big])
        scale[big] = MAX_FEATURE_NORM / peak / unit
    return feats * scale


def _prepare(model: HnnModel, features, labels=None):
    """The capped feature rows and checked labels (or None) a pass of model
    takes; a loss, the mean over the labelled rows, needs at least one."""
    rows = _preprocess(features)
    if rows.shape[1] != model.in_dim:
        raise ValueError(f"feature dimension {rows.shape[1]} does not match model input {model.in_dim}")
    if labels is not None:
        labels = _class_labels(labels, len(rows), model.n_classes)
        if not labels.size:
            raise ValueError("need at least one row to take a mean loss over")
    return rows, labels


class _TapeRun:
    """One differentiable forward pass over a batch of rows.

    The rows x, as `_prepare` capped them (a pass checks no input), are
    origin tangent vectors, so w = W x is the tangent-space matrix action,
    with no exp/log of x.  The bias step (exp_o, parallel transport, exp) is
    Einstein addition in closed form for Klein and the hyperboloid stage for
    Lorentz and, in the ball's chart, Poincare.  Each keeps a row in span(w, b)
    (span(w, v), v = log_o(b), on the hyperboloid), and so does the origin log:

        tangent = log_o(exp_o(w) (+) b) = a w + c b
        logits  = R relu(tangent) + r

    where a and c are per-row scalars of |w|^2, w.b and |b|^2 (see
    `_klein_coefficients`, `_lorentz_coefficients`).

    The stages are the tape of the module docstring, cross_entropy only
    when labels are given.  Holds `stages` (in the order they were built),
    `tangent` (the layer stage), `logits`, `loss` and `grads` (filled by
    `loss.backward()`, which runs once).  No stage enters np.errstate: a
    caller that builds a run itself enters it if its inputs, or the bias
    terms a model's first run derives, can saturate.
    """

    def __init__(self, model: HnnModel, rows: np.ndarray, labels=None):
        self.grads = {}
        w = _hidden_linear(rows, model.weight, self.grads)
        self.tangent = _LAYERS[model.flavor](w, model.bias_terms, self.grads)
        active = _relu(self.tangent)
        self.logits = _readout(active, model.readout_weight, model.readout_bias, self.grads)
        self.stages = [w, self.tangent, active, self.logits]
        if labels is not None:
            self.loss = _mean_cross_entropy(self.logits, labels)
            self.stages.append(self.loss)


@np.errstate(all="ignore")
def _checked_pass(model: HnnModel, features, outputs, labels=None):
    """Check and cap the inputs (`_prepare`), build one tape pass on them and
    return `outputs(run)`, checked once, all under np.errstate(all="ignore"),
    a decorator that numpy enters and resets per call.

    If an array that `outputs` returns holds a non-finite value, the first
    stage that holds one raises its NumericalError; if every stage is
    finite, the overflow was in the backward.
    """
    run = _TapeRun(model, *_prepare(model, features, labels))
    result = outputs(run)
    for a in result:
        if np.count_nonzero(np.isfinite(a)) != a.size:
            for node in run.stages:
                ad.check(node)
            raise NumericalError("numerical overflow in backward")
    return result


def forward(model: HnnModel, features) -> np.ndarray:
    """Class logits for each feature row; deterministic, rows independent."""
    return _checked_pass(model, features, lambda run: (run.logits.data,))[0].T


def hidden_tangent(model: HnnModel, features) -> np.ndarray:
    """Origin-tangent coordinates of the hyperbolic linear layer outputs."""
    return _checked_pass(model, features, lambda run: (run.tangent.data,))[0].T


def _loss_and_gradients(run: _TapeRun):
    run.loss.backward()
    return (run.loss.data, *(run.grads[key] for key in _PARAMETERS))


def gradients(model: HnnModel, features, labels):
    """Mean cross-entropy and its exact gradients for every parameter."""
    loss, *grads = _checked_pass(model, features, _loss_and_gradients, labels)
    return float(loss), dict(zip(_PARAMETERS, grads))


# ---------------------------------------------------------------------------
# Riemannian Adam


_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


@dataclass
class GradState:
    """Adam accumulators: one (m, v) pair over every parameter coordinate,
    the parameters concatenated in `_PARAMETERS` order; None before a step."""

    lr: float
    step: int = 0
    moments: tuple | None = None

    def _update(self, grad: np.ndarray) -> np.ndarray:
        m, v = self.moments if self.moments is not None else (np.zeros_like(grad),) * 2
        m = _ADAM_BETA1 * m + (1.0 - _ADAM_BETA1) * grad
        v = _ADAM_BETA2 * v + (1.0 - _ADAM_BETA2) * grad * grad
        self.moments = (m, v)
        m_hat = m / (1.0 - _ADAM_BETA1**self.step)
        v_hat = v / (1.0 - _ADAM_BETA2**self.step)
        return m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


def _riemannian_bias_grad(flavor: Model, bias: np.ndarray, grad: np.ndarray) -> np.ndarray:
    """The Riemannian gradient at the bias of the Euclidean gradient grad: the
    inverse metric (1 - |c|^2)(I - c c^T) of the Klein ball at c applied to
    it, ((1 - |x|^2) / 2)^2 times it in the Poincare ball, and on the
    hyperboloid grad with its time negated, projected onto the tangent space."""
    if flavor is Model.KLEIN:
        s = 1.0 - float(bias @ bias)
        return (s * (np.eye(bias.size) - np.outer(bias, bias))) @ grad
    if flavor is Model.POINCARE:
        scale = (1.0 - float(bias @ bias)) / 2.0
        return scale * scale * grad
    h = grad.copy()
    h[0] = -h[0]
    return lorentz_tangent_rows(bias[None], h[None])[0]


# ball-valued biases are clamped to radius 1 - EPS_BALL by construction, which
# lies atanh(1 - EPS_BALL) ~ 8.41 from the origin in the Klein ball and twice
# that, ~ 16.81, in the Poincare ball; this caps a hyperboloid bias at the
# Klein clamp's distance
_MAX_BIAS_DISTANCE = float(np.arctanh(1.0 - EPS_BALL))
_MAX_BIAS_TIME = float(np.cosh(_MAX_BIAS_DISTANCE))
_MAX_BIAS_STEP = 1.0


def _clamp_lorentz_radius(x: np.ndarray) -> np.ndarray:
    """The hyperboloid row x, or the point _MAX_BIAS_DISTANCE from the origin
    in its direction when x lies farther out."""
    if x[0, 0] <= _MAX_BIAS_TIME:
        return x
    s = x[:, 1:]
    return lorentz_rows(s * (np.sinh(_MAX_BIAS_DISTANCE) / _spatial_norm(s)))


@np.errstate(over="ignore")
def _spatial_norm(s: np.ndarray):
    """The norm of the one finite row s.  One whose square overflows is the
    product of `_peak_split`'s factors, as in `lorentz_rows`; the overflow is
    ignored by the np.errstate decorator, which numpy enters and resets per call."""
    norm = np.linalg.norm(s)
    return np.multiply(*_peak_split(s)) if np.isinf(norm) else norm


def riemannian_adam_step(state: GradState, model: HnnModel, grads: dict) -> HnnModel:
    """One optimizer step: one Adam update over all the parameters, with the
    bias's Riemannian gradient in its slot.  The Euclidean parameters add
    their part of the step; the bias retracts along its part."""
    state.step += 1
    flavor, bias, weight, readout_weight = model.flavor, model.bias, model.weight, model.readout_weight
    slots = [_riemannian_bias_grad(flavor, bias, grads[key]) if key == "bias" else grads[key] for key in _PARAMETERS]
    step = -state.lr * state._update(np.concatenate([np.ravel(slot) for slot in slots]))
    # the parameters' parts of the step, in `_PARAMETERS` order
    i = weight.size
    j = i + bias.size
    k = j + readout_weight.size
    x, v = bias[None], _finite(step[i:j][None], "components")
    if flavor is Model.LORENTZ:
        # Adam's coordinate step is not tangent: it is projected once, and the
        # projection can inflate its arclength by O(time); a unit trust region
        # keeps the retraction well-conditioned in hyperboloid coordinates, and
        # its rescaling keeps the step tangent
        v = lorentz_tangent_rows(x, v)
        length = float(np.sqrt(max(minkowski_rows(v, v)[0, 0], 0.0)))
        if length > _MAX_BIAS_STEP:
            v = v * (_MAX_BIAS_STEP / length)
    new_bias = exp_map(flavor, x, v)
    if flavor is Model.LORENTZ:
        new_bias = _clamp_lorentz_radius(new_bias)
    return HnnModel(
        flavor,
        weight + step[:i].reshape(weight.shape),
        new_bias[0],
        readout_weight + step[j:k].reshape(readout_weight.shape),
        model.readout_bias + step[k:],
    )


# ---------------------------------------------------------------------------
# training loop


@dataclass
class TrainConfig:
    lr: float = 0.01
    epochs: int = 5000
    patience: int = 100

    def __post_init__(self):
        if self.lr <= 0.0:
            raise ValueError("learning rate must be positive")
        if not np.isfinite(self.lr):
            raise ValueError("learning rate must be finite")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")


@dataclass
class EpochRecord:
    train_loss: float
    val_acc: float
    seconds: float


def accuracy(model: HnnModel, features, labels) -> float:
    predicted = forward(model, features).argmax(axis=1)
    labels = _class_labels(labels, len(predicted), model.n_classes)
    return float(np.count_nonzero(predicted == labels) / labels.size) if labels.size else 0.0


def train(model: HnnModel, dataset, config: TrainConfig):
    """Full-batch training with early stopping on validation accuracy.

    Returns the best-validation model and the per-epoch metric records.
    Epoch seconds cover the gradient and update work only.  A NumericalError
    is raised again with the flavor and the epoch in its message.
    """
    train_x = dataset.features[dataset.train_idx]
    train_y = dataset.labels[dataset.train_idx]
    val_x = dataset.features[dataset.val_idx]
    val_y = dataset.labels[dataset.val_idx]

    metrics: list[EpochRecord] = []
    state = GradState(lr=config.lr)
    best_acc = -1.0
    best_model = model
    best_epoch = -1
    # accuracy on a small validation set is quantized to 1/|val|; epochs within
    # one vote of the best are statistically tied, and the later model on such
    # a plateau has the larger margins, so ties refresh the snapshot
    slack = min(1.5 / val_y.size, 0.05) if val_y.size else 0.0

    for epoch in range(config.epochs):
        start = time.perf_counter()
        try:
            loss, grads = gradients(model, train_x, train_y)
            model = riemannian_adam_step(state, model, grads)
            seconds = time.perf_counter() - start

            val_acc = accuracy(model, val_x, val_y) if val_y.size else float("nan")
        except NumericalError as err:
            raise NumericalError(f"{err} ({model.flavor.value}, epoch {epoch})") from err
        metrics.append(EpochRecord(loss, val_acc, seconds))

        if val_y.size and val_acc >= best_acc - slack:
            best_model = model
            best_epoch = epoch
        best_acc = max(best_acc, val_acc) if val_y.size else best_acc
        if val_y.size and epoch - best_epoch >= config.patience:
            break

    return (best_model if best_epoch >= 0 else model), metrics


# ---------------------------------------------------------------------------
# checkpoints


def save_model(model: HnnModel, path, extra: dict | None = None) -> None:
    doc = {
        "flavor": model.flavor.value,
        "dims": {"in": model.in_dim, "hidden": model.hidden_dim, "classes": model.n_classes},
        **{key: a.tolist() for key, a in model.parameter_arrays().items()},
    }
    doc.update(extra or {})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path):
    """Read a checkpoint back; returns (model, full document).

    A document that is not a JSON object, or lacks a field the model needs,
    raises ValueError naming it, as does a parameter that the model's checks
    refuse, such as a ball bias on or outside the unit sphere.  A parameter
    entry must be a JSON number: numpy would read a string such as "0.5" or
    a boolean as a number, so the values are held to the dataset files' rule
    (`data.json_numbers`) first, here and not in the model, which the
    optimizer rebuilds every step.  The model rescales nothing, so the saved
    bits come back unchanged.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("checkpoint is not a JSON object")
    for key in ("flavor", *_PARAMETERS):
        if key not in doc:
            raise ValueError(f"checkpoint has no {key!r} field")
    params = {key: json_numbers(doc[key], "iuf", ValueError(_REFUSALS[key])) for key in _PARAMETERS}
    return HnnModel(doc["flavor"], **params), doc
