"""Hyperbolic neural networks in Klein, Poincare, and Lorentz coordinates.

The architecture is fixed at depth two: one hyperbolic linear layer, a
hyperbolic ReLU, and a Euclidean readout of class logits.  A feature row x
is read as a tangent vector at the origin o, so the input point is exp_o(x)
and the layer's tangent-space matrix action applies W to x itself.  With b
the hidden bias point, R and r the readout weight and bias:

    Klein     h = exp_o(W x) (+)_E b                  Einstein addition
    Poincare  h = exp_o(W x) (+)_M b                  Mobius addition
    Lorentz   h = exp_p(PT_{o->p} log_o b),  p = exp_o(W x)
    logits    = R relu(log_o h) + r

In the ball models exp_o(W x) is the gyro matrix action on exp_o(x), so
these layers are the gyrovector closed forms: one matrix action and one
gyro-addition for the bias.  That is the paper's transport theorem: the
tangent-space construction of the bias, exp_p(PT_{o->p} log_o b), is exactly
the Einstein addition in Klein coordinates and the Mobius addition in
Poincare coordinates.  The Lorentz layer transports the bias explicitly.
The hyperbolic ReLU exp_o(relu(log_o h)) is followed by the readout's log_o,
so the readout takes relu(log_o h).

Every one of these steps keeps a row in span(w, b), w = W x, so the whole
layer is z = log_o h = a w + c b with per-row scalars a, c of |w|^2, w.b and
|b|^2 (for Lorentz, b is the bias's origin tangent log_o b):

    Klein     exp_o(w) = tanhc|w| w, then (+)_E with 1/gamma = sqrt(1 - |exp_o(w)|^2);
              z = atanhc|h| h
    Poincare  exp_o(w) = tanhc|w| w, then (+)_M;  z = atanhc|h| h
    Lorentz   exp_o(w) = (cosh|w|, sinhc|w| w); transport and exp give the
              spatial part h_s = sinhc|w| (cosh t + sinhc(t) k) w + sinhc(t) b,
              k = sinhc|w| (w.b) / (1 + cosh|w|), t the transported b's norm;
              z = asinhc|h_s| h_s

The batched tape builds that layer as one node with a closed-form backward
through the (N, 1) scalars, one node per stage in all: hidden_linear,
<flavor>_layer, relu, readout, cross_entropy.

`klein_linear`, `poincare_linear`, `lorentz_linear`, `hyperbolic_activation`
and `readout_logits` compute the same network one point at a time through
`gyro` and `manifolds`; they are the reference the batched tape is tested
against.

Gradients are exact, computed by the tape in `autodiff`; the optimizer is a
Riemannian Adam that retracts manifold-valued biases with the exponential map.

`forward`, `hidden_tangent` and `gradients` run their tape pass through
`autodiff.guarded`: unchecked, with one finiteness check of the logits, the
tangent, or the loss and the four gradients.  Only when that check fails is
the pass replayed with per-op checks, to raise the NumericalError that names
the stage node and the row; `train` adds the flavor and the epoch to its
message.
"""

from __future__ import annotations

import copy
import json
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import autodiff as ad
from .autodiff import NumericalError, Tensor
from .manifolds import (
    EPS_BALL,
    KleinPoint,
    LorentzPoint,
    Model,
    PoincarePoint,
    Point,
    TangentVector,
    exp_map,
    klein_metric_inverse,
    log_map,
    make_point,
    minkowski_inner,
    origin,
    transport_from_origin,
)

MAX_FEATURE_NORM = 5.0


@dataclass
class LayerParams:
    """Weight matrix and manifold-valued bias of one hyperbolic linear layer."""

    weight: np.ndarray
    bias: Point

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        if self.weight.ndim != 2 or not np.all(np.isfinite(self.weight)):
            raise ValueError("weight must be a finite 2-d matrix")
        if self.bias.dim != self.weight.shape[0]:
            raise ValueError("bias dimension must match the weight output dimension")


@dataclass
class HnnModel:
    """Two-layer hyperbolic network: hyperbolic linear + Euclidean readout."""

    flavor: Model
    hidden: LayerParams
    readout_weight: np.ndarray
    readout_bias: np.ndarray

    def __post_init__(self):
        self.flavor = Model(self.flavor)
        if self.hidden.bias.model is not self.flavor:
            raise ValueError("bias model must match the network flavor")
        self.readout_weight = np.asarray(self.readout_weight, dtype=np.float64)
        self.readout_bias = np.asarray(self.readout_bias, dtype=np.float64)
        if self.readout_weight.shape[1] != self.hidden.weight.shape[0]:
            raise ValueError("readout width must match the hidden width")
        if self.readout_weight.shape[0] != self.readout_bias.size:
            raise ValueError("readout bias length must match the class count")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")

    @property
    def in_dim(self) -> int:
        return self.hidden.weight.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.hidden.weight.shape[0]

    @property
    def n_classes(self) -> int:
        return self.readout_bias.size


def init_model(flavor: Model, in_dim: int, hidden_dim: int, n_classes: int, seed: int) -> HnnModel:
    """Uniform(+-1/sqrt(fan_in)) weights, bias at the origin, zero readout bias."""
    rng = np.random.default_rng(seed)
    flavor = Model(flavor)
    w = rng.uniform(-1.0, 1.0, size=(hidden_dim, in_dim)) / np.sqrt(in_dim)
    wr = rng.uniform(-1.0, 1.0, size=(n_classes, hidden_dim)) / np.sqrt(hidden_dim)
    return HnnModel(
        flavor=flavor,
        hidden=LayerParams(weight=w, bias=origin(flavor, hidden_dim)),
        readout_weight=wr,
        readout_bias=np.zeros(n_classes),
    )


# ---------------------------------------------------------------------------
# tape nodes, one per stage; rows of points, one manifold point per row


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products of two (N, m) arrays, as an (N, 1) column."""
    return np.einsum("ij,ij->i", x, y)[:, None]


def _hidden_linear(rows: np.ndarray, weight: Tensor) -> Tensor:
    """rows W^T; the capped feature rows are a constant."""
    out = Tensor(rows @ weight.data.T, (weight,), name="hidden_linear")
    out._bk = lambda g: weight._accumulate(g.T @ rows)
    return out


# Each flavor's coefficients map the row scalars p = |w|^2, q = w.b and
# s = |b|^2 to the point exp_o(w) (+) b = alpha w + beta b.  They return
# alpha, beta, a function taking (dL/dalpha, dL/dbeta) to (dL/dp, dL/dq,
# dL/ds), and the point's time coordinate (None in the ball models).


def _klein_coefficients(p, q, s):
    """Einstein addition exp_o(w) (+)_E b, with exp_o(w) = tanhc(|w|) w."""
    n = np.sqrt(p + 1e-32)
    tau, dtau = ad.smooth_ratio("tanhc", n)
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
        return g_sq * tau * tau + g_tau * dtau / (2.0 * n), g_dot * tau, 0.0

    return alpha, beta, back, None


def _poincare_coefficients(p, q, s):
    """Mobius addition exp_o(w) (+)_M b, with exp_o(w) = tanhc(|w|) w."""
    n = np.sqrt(p + 1e-32)
    tau, dtau = ad.smooth_ratio("tanhc", n)
    sq = tau * tau * p
    dot = tau * q
    lift = 1.0 + 2.0 * dot + s
    inv = 1.0 / (1.0 + 2.0 * dot + sq * s)
    alpha = lift * tau * inv
    beta = (1.0 - sq) * inv

    def back(g_alpha, g_beta):
        g_den = -(g_alpha * alpha + g_beta * beta) * inv
        g_lift = g_alpha * tau * inv
        g_sq = g_den * s - g_beta * inv
        g_dot = 2.0 * (g_den + g_lift)
        g_tau = g_alpha * lift * inv + 2.0 * g_sq * tau * p + g_dot * q
        g_p = g_sq * tau * tau + g_tau * dtau / (2.0 * n)
        return g_p, g_dot * tau, g_lift + g_den * sq

    return alpha, beta, back, None


def _lorentz_coefficients(p, q, s):
    """exp_h(PT_{o->h} v) for h = exp_o(w) = (cosh|w|, sinhc(|w|) w); here b
    is the bias's origin tangent v, and alpha w + beta v is the spatial part."""
    n = np.sqrt(p + 1e-32)
    sig, dsig = ad.smooth_ratio("sinhc", n)
    h_t = np.cosh(n)
    inner = sig * q
    inv = 1.0 / (1.0 + h_t)
    coef = inner * inv
    p_t = coef * (1.0 + h_t)
    # the transported tangent p = (p_t, v + coef sinhc(|w|) w) and its
    # Minkowski square from those coordinates (|v|^2 in exact arithmetic)
    quad = s + 2.0 * coef * inner + coef * coef * sig * sig * p - p_t * p_t
    t = np.sqrt(np.maximum(quad, 0.0) + 1e-32)
    big_s, dbig_s = ad.smooth_ratio("sinhc", t)
    big_c = np.cosh(t)
    alpha = sig * (big_c + big_s * coef)
    beta = big_s

    def back(g_alpha, g_beta):
        g_t = g_alpha * sig * np.sinh(t) + (g_alpha * sig * coef + g_beta) * dbig_s
        g_quad = np.where(quad > 0.0, g_t / (2.0 * t), 0.0)
        g_p_t = -2.0 * p_t * g_quad
        g_coef = (
            g_alpha * sig * big_s
            + 2.0 * g_quad * (inner + coef * sig * sig * p)
            + g_p_t * (1.0 + h_t)
        )
        g_inner = g_coef * inv
        g_h_t = g_p_t * coef - g_coef * coef * inv
        g_sig = (
            g_alpha * (big_c + big_s * coef)
            + 2.0 * g_quad * coef * (q + coef * sig * p)
            + g_inner * q
        )
        g_n = g_h_t * np.sinh(n) + g_sig * dsig
        g_p = g_quad * coef * coef * sig * sig + g_n / (2.0 * n)
        g_q = 2.0 * g_quad * coef * sig + g_inner * sig
        return g_p, g_q, g_quad

    return alpha, beta, back, big_c * h_t + big_s * p_t


def _span_layer(name, coefficients, log_ratio, w: Tensor, bias: Tensor, b=None, b_back=None):
    """One node for z = log_o(exp_o(w) (+) b) = k h, h = alpha w + beta b.

    k is the origin log's ratio of |h|, named by `log_ratio`.  The backward
    takes G1 = gz.w and G2 = gz.b per row back through the (N, 1) scalars
    to dL/dp, dL/dq and dL/ds, and then
        gw = k alpha gz + 2 dL/dp w + dL/dq b
        gb = gz^T (k beta) + w^T dL/dq + 2 sum(dL/ds) b,
    which `b_back` takes on to the bias coordinates (b is the bias itself
    when not given).  Returns the node and the hidden points.
    """
    if b is None:
        b, b_back = bias.data, lambda g: g
    wd = w.data
    with np.errstate(all="ignore"):  # a checked node reports through NumericalError
        p = _row_dots(wd, wd)
        q = (wd @ b)[:, None]
        s = float(b @ b)
        alpha, beta, back, h_time = coefficients(p, q, s)
        hidden = alpha * wd + beta * b
        r = np.sqrt(_row_dots(hidden, hidden) + 1e-32)
        k, dk = ad.smooth_ratio(log_ratio, r)
        z = Tensor(k * hidden, (w, bias), name=name)

    def bk(gz):
        with np.errstate(all="ignore"):
            g1 = _row_dots(gz, wd)
            g2 = (gz @ b)[:, None]
            g_sq = (alpha * g1 + beta * g2) * dk / (2.0 * r)  # of |hidden|^2
            g_alpha = k * g1 + 2.0 * g_sq * (alpha * p + beta * q)
            g_beta = k * g2 + 2.0 * g_sq * (alpha * q + beta * s)
            g_p, g_q, g_s = back(g_alpha, g_beta)
            g_p = g_p + g_sq * alpha * alpha
            g_q = g_q + 2.0 * g_sq * alpha * beta
            g_s = np.sum(g_s + g_sq * beta * beta)
            w._accumulate(k * alpha * gz + 2.0 * g_p * wd + g_q * b)
            gb = (k * beta)[:, 0] @ gz + g_q[:, 0] @ wd + 2.0 * g_s * b
            bias._accumulate(b_back(gb))

    z._bk = bk
    if h_time is not None:
        hidden = np.concatenate((h_time, hidden), axis=1)
    return z, hidden


def _lorentz_layer(w: Tensor, bias: Tensor):
    """The bias enters through its origin tangent v = asinhc(|b_s|) b_s; the
    gradient of its time coordinate is zero."""
    b_s = bias.data[1:]
    bn = np.sqrt(b_s @ b_s + 1e-32)
    with np.errstate(all="ignore"):
        rho, drho = ad.smooth_ratio("asinhc", bn)
    v = rho * b_s

    def b_back(gv):
        return np.concatenate(([0.0], rho * gv + (gv @ b_s) * drho / bn * b_s))

    return _span_layer("lorentz_layer", _lorentz_coefficients, "asinhc", w, bias, v, b_back)


_LAYERS = {
    Model.KLEIN: partial(_span_layer, "klein_layer", _klein_coefficients, "atanhc"),
    Model.POINCARE: partial(_span_layer, "poincare_layer", _poincare_coefficients, "atanhc"),
    Model.LORENTZ: _lorentz_layer,
}


def _readout(a: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """a R^T + r as one node."""
    out = Tensor(a.data @ weight.data.T + bias.data, (a, weight, bias), name="readout")
    out._bk = lambda g: (
        a._accumulate(g @ weight.data),
        weight._accumulate(g.T @ a.data),
        bias._accumulate(g.sum(axis=0)),
    )
    return out


def _preprocess(features: np.ndarray) -> np.ndarray:
    """Cap feature rows at MAX_FEATURE_NORM to keep tanh saturation in check."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise ValueError("features must be a 2-d matrix")
    norms = np.linalg.norm(feats, axis=1, keepdims=True)
    return feats * (MAX_FEATURE_NORM / np.maximum(norms, MAX_FEATURE_NORM))


class _TapeRun:
    """One differentiable forward pass over a batch of rows.

    The capped feature rows x are origin tangent vectors, so w = x W^T is
    the tangent-space matrix action, with no exp/log of x.  By the paper's
    transport theorem the bias step (exp_o, parallel transport, exp) is the
    Einstein addition in Klein and the Mobius addition in Poincare
    coordinates; like the explicit Lorentz transport it keeps each row in
    span(w, b) (for Lorentz, span(w, v) with v = log_o(b)), and so does
    the origin log:

        tangent = log_o(exp_o(w) (+) b) = a w + c b
        logits  = relu(tangent) R^T + r

    where a and c are per-row scalars of |w|^2, w.b and |b|^2 (see
    `_klein_coefficients`, `_poincare_coefficients`, `_lorentz_coefficients`).

    The tape has one node per stage: hidden_linear, <flavor>_layer, relu,
    readout (and cross_entropy in `_mean_cross_entropy`).  Holds the
    parameter leaves, `tangent` (the layer node), `logits` and `hidden_out`,
    the hidden points as a plain array (with the time coordinate for
    Lorentz).
    """

    def __init__(self, model: HnnModel, features: np.ndarray):
        if features.shape[1] != model.in_dim:
            raise ValueError(
                f"feature dimension {features.shape[1]} does not match model input {model.in_dim}"
            )
        self.model = model
        self.weight = Tensor(model.hidden.weight)
        self.bias = Tensor(model.hidden.bias.coords)
        self.readout_weight = Tensor(model.readout_weight)
        self.readout_bias = Tensor(model.readout_bias)
        w = _hidden_linear(_preprocess(features), self.weight)
        self.tangent, self.hidden_out = _LAYERS[model.flavor](w, self.bias)
        self.logits = _readout(ad.relu(self.tangent), self.readout_weight, self.readout_bias)


# ---------------------------------------------------------------------------
# single-point layer operations (the batched tape computes the same values)


def klein_linear(params: LayerParams, x: KleinPoint) -> KleinPoint:
    """Klein layer: one gyro matrix action and one Einstein addition."""
    from .gyro import einstein_add, einstein_matvec

    return einstein_add(einstein_matvec(params.weight, x), params.bias)


def poincare_linear(params: LayerParams, x: PoincarePoint) -> PoincarePoint:
    """Poincare layer: Mobius matrix action plus Mobius bias addition."""
    from .gyro import mobius_add

    o_in = origin(Model.POINCARE, x.dim)
    w = params.weight @ log_map(o_in, x).components
    o_out = origin(Model.POINCARE, params.weight.shape[0])
    image = exp_map(o_out, TangentVector(Model.POINCARE, o_out, w))
    return mobius_add(image, params.bias)


def lorentz_linear(params: LayerParams, x: LorentzPoint) -> LorentzPoint:
    """Hyperboloid layer: tangent-space matrix action, then transported bias."""
    o_in = origin(Model.LORENTZ, x.dim)
    w = params.weight @ log_map(o_in, x).components[1:]
    o_out = origin(Model.LORENTZ, params.weight.shape[0])
    image = exp_map(o_out, TangentVector(Model.LORENTZ, o_out, np.concatenate(([0.0], w))))
    shift = transport_from_origin(image, log_map(o_out, params.bias))
    return exp_map(image, shift)


def hyperbolic_activation(flavor: Model, x: Point) -> Point:
    """ReLU conjugated through the tangent space at the origin."""
    flavor = Model(flavor)
    o = origin(flavor, x.dim)
    v = log_map(o, x).components
    if flavor is Model.LORENTZ:
        lifted = np.concatenate(([0.0], np.maximum(v[1:], 0.0)))
    else:
        lifted = np.maximum(v, 0.0)
    return exp_map(o, TangentVector(flavor, o, lifted))


def readout_logits(model: HnnModel, x: Point) -> np.ndarray:
    """Euclidean readout on the origin-tangent coordinates of x."""
    if x.model is not model.flavor:
        raise ValueError("point model does not match the network flavor")
    if x.dim != model.hidden_dim:
        raise ValueError("readout expects a point of the hidden width")
    v = log_map(origin(model.flavor, x.dim), x).components
    if model.flavor is Model.LORENTZ:
        v = v[1:]
    return model.readout_weight @ v + model.readout_bias


def forward(model: HnnModel, features) -> np.ndarray:
    """Class logits for each feature row; deterministic, rows independent."""
    feats = np.asarray(features, dtype=np.float64)
    (logits,) = ad.guarded(lambda: (_TapeRun(model, feats).logits.data,))
    return logits.copy()


def hidden_tangent(model: HnnModel, features) -> np.ndarray:
    """Origin-tangent coordinates of the hyperbolic linear layer outputs."""
    feats = np.asarray(features, dtype=np.float64)
    (tangent,) = ad.guarded(lambda: (_TapeRun(model, feats).tangent.data,))
    return tangent.copy()


def cross_entropy(logits, label: int) -> float:
    """Negative log softmax probability of the label, max-stabilized."""
    z = np.asarray(logits, dtype=np.float64)
    if not 0 <= int(label) < z.size:
        raise ValueError(f"label {label} out of range for {z.size} classes")
    shifted = z - z.max()
    return float(np.log(np.exp(shifted).sum()) - shifted[int(label)])


def _mean_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean of the rows' cross-entropies as one node; gradient (softmax - onehot)/N."""
    rows = np.arange(labels.size)
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    scale = 1.0 / labels.size
    per_row = np.log(total)[:, 0] - shifted[rows, labels]
    out = Tensor(per_row.sum() * scale, (logits,), name="cross_entropy")

    def bk(g):
        grad = e * (g * scale / total)
        grad[rows, labels] -= g * scale
        logits._accumulate(grad)

    out._bk = bk
    return out


def gradients(model: HnnModel, features, labels):
    """Mean cross-entropy and its exact gradients for every parameter."""
    feats = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if np.any(labels < 0) or np.any(labels >= model.n_classes):
        raise ValueError("labels out of range")

    def tape_pass():
        run = _TapeRun(model, feats)
        loss = _mean_cross_entropy(run.logits, labels)
        loss.backward()
        return (
            loss.data,
            run.weight.grad,
            run.bias.grad,
            run.readout_weight.grad,
            run.readout_bias.grad,
        )

    loss, *grads = ad.guarded(tape_pass)
    return float(loss), dict(zip(("weight", "bias", "readout_weight", "readout_bias"), grads))


# ---------------------------------------------------------------------------
# Riemannian Adam


@dataclass
class GradState:
    """Adam accumulators; moments are kept coordinate-wise per parameter."""

    lr: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    moments: dict = field(default_factory=dict)

    def _update(self, key: str, grad: np.ndarray) -> np.ndarray:
        m, v = self.moments.get(key, (np.zeros_like(grad), np.zeros_like(grad)))
        m = self.beta1 * m + (1.0 - self.beta1) * grad
        v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
        self.moments[key] = (m, v)
        m_hat = m / (1.0 - self.beta1**self.step)
        v_hat = v / (1.0 - self.beta2**self.step)
        return m_hat / (np.sqrt(v_hat) + self.eps)


def _riemannian_bias_grad(bias: Point, grad: np.ndarray) -> np.ndarray:
    if isinstance(bias, KleinPoint):
        return klein_metric_inverse(bias) @ grad
    if isinstance(bias, PoincarePoint):
        scale = (1.0 - float(bias.coords @ bias.coords)) / 2.0
        return scale * scale * grad
    h = grad.copy()
    h[0] = -h[0]
    return h + minkowski_inner(bias.coords, h) * bias.coords


# ball-valued biases are clamped to radius 1 - EPS_BALL by construction; this
# caps a hyperboloid bias at the same hyperbolic distance from the origin
_MAX_BIAS_DISTANCE = float(np.arctanh(1.0 - EPS_BALL))
_MAX_BIAS_STEP = 1.0


def _clamp_lorentz_radius(p: LorentzPoint) -> LorentzPoint:
    limit = float(np.cosh(_MAX_BIAS_DISTANCE))
    if p.time <= limit:
        return p
    spatial = p.spatial * (np.sinh(_MAX_BIAS_DISTANCE) / np.linalg.norm(p.spatial))
    return LorentzPoint(np.concatenate(([limit], spatial)))


def riemannian_adam_step(state: GradState, model: HnnModel, grads: dict) -> HnnModel:
    """One optimizer step; Euclidean params use plain Adam, the bias retracts."""
    state.step += 1
    lr = state.lr
    new_weight = model.hidden.weight - lr * state._update("weight", grads["weight"])
    new_rw = model.readout_weight - lr * state._update("readout_weight", grads["readout_weight"])
    new_rb = model.readout_bias - lr * state._update("readout_bias", grads["readout_bias"])

    bias = model.hidden.bias
    rgrad = _riemannian_bias_grad(bias, grads["bias"])
    step_vec = -lr * state._update("bias", rgrad)
    if isinstance(bias, LorentzPoint):
        step_vec = step_vec + minkowski_inner(bias.coords, step_vec) * bias.coords
        # projecting the coordinate-wise step back to the tangent space can
        # inflate its arclength by O(time); a unit trust region keeps the
        # retraction well-conditioned in hyperboloid coordinates
        length = float(np.sqrt(max(minkowski_inner(step_vec, step_vec), 0.0)))
        if length > _MAX_BIAS_STEP:
            step_vec = step_vec * (_MAX_BIAS_STEP / length)
    new_bias = exp_map(bias, TangentVector(model.flavor, bias, step_vec))
    if isinstance(new_bias, LorentzPoint):
        new_bias = _clamp_lorentz_radius(new_bias)

    return HnnModel(
        flavor=model.flavor,
        hidden=LayerParams(weight=new_weight, bias=new_bias),
        readout_weight=new_rw,
        readout_bias=new_rb,
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
        if self.epochs < 0 or self.patience < 1:
            raise ValueError("epochs must be >= 0 and patience >= 1")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_acc: float
    seconds: float


def accuracy(model: HnnModel, features, labels) -> float:
    labels = np.asarray(labels)
    if labels.size == 0:
        return 0.0
    return float((forward(model, features).argmax(axis=1) == labels).mean())


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
        metrics.append(EpochRecord(epoch, loss, val_acc, seconds))

        if val_y.size and val_acc >= best_acc - slack:
            best_model = copy.deepcopy(model)
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
        "weight": model.hidden.weight.tolist(),
        "bias": model.hidden.bias.coords.tolist(),
        "readout_weight": model.readout_weight.tolist(),
        "readout_bias": model.readout_bias.tolist(),
    }
    doc.update(extra or {})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_model(path):
    """Read a checkpoint back; returns (model, full document)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    flavor = Model(doc["flavor"])
    model = HnnModel(
        flavor=flavor,
        hidden=LayerParams(
            weight=np.asarray(doc["weight"], dtype=np.float64),
            bias=make_point(flavor, np.asarray(doc["bias"], dtype=np.float64)),
        ),
        readout_weight=np.asarray(doc["readout_weight"], dtype=np.float64),
        readout_bias=np.asarray(doc["readout_bias"], dtype=np.float64),
    )
    return model, doc
