"""Einstein gyrovector operations on the Klein ball, plus Mobius counterparts.

The Klein ball with Einstein addition and scalar multiplication forms a
gyrovector space; these operations realize hyperbolic translation and
geodesic scaling directly in Klein coordinates, without exp/log round trips.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .manifolds import ATANH_MAX, KleinPoint, PoincarePoint, lorentz_factor


def einstein_add(x: KleinPoint, y: KleinPoint) -> KleinPoint:
    """Einstein velocity addition of two ball points."""
    a, b = x.coords, y.coords
    gx = lorentz_factor(x)
    dot = float(a @ b)
    out = (a + b / gx + (gx / (1.0 + gx)) * dot * a) / (1.0 + dot)
    return KleinPoint(out)


def einstein_neg(x: KleinPoint) -> KleinPoint:
    """Gyrogroup inverse; coordinate negation."""
    return KleinPoint(-x.coords)


def einstein_scalar(r: float, x: KleinPoint) -> KleinPoint:
    """Einstein scalar multiplication r (x), with r (0) = 0."""
    norm = float(np.linalg.norm(x.coords))
    if norm == 0.0:
        return KleinPoint(np.zeros_like(x.coords))
    scale = float(np.tanh(r * np.arctanh(min(norm, ATANH_MAX))))
    return KleinPoint(scale * x.coords / norm)


def gyration(x: KleinPoint, y: KleinPoint, z: KleinPoint) -> KleinPoint:
    """Gyration gyr[x, y]z computed through the gyrogroup identity.

    gyr[x, y]z = -(x + y) + (x + (y + z)) with + the Einstein addition; the
    identity holds in any gyrogroup and avoids a separate closed form.
    """
    inner = einstein_add(x, einstein_add(y, z))
    return einstein_add(einstein_neg(einstein_add(x, y)), inner)


def mobius_add(x: PoincarePoint, y: PoincarePoint) -> PoincarePoint:
    """Mobius addition on the Poincare ball."""
    a, b = x.coords, y.coords
    dot = float(a @ b)
    na, nb = float(a @ a), float(b @ b)
    num = (1.0 + 2.0 * dot + nb) * a + (1.0 - na) * b
    return PoincarePoint(num / (1.0 + 2.0 * dot + na * nb))


def einstein_matvec(matrix: np.ndarray, x: KleinPoint) -> KleinPoint:
    """Einstein matrix-vector multiplication M (x) on the Klein ball."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != x.dim:
        raise ValueError(f"matrix shape {m.shape} does not match point dimension {x.dim}")
    mx = m @ x.coords
    nmx = float(np.linalg.norm(mx))
    nx = float(np.linalg.norm(x.coords))
    if nmx == 0.0:
        return KleinPoint(np.zeros(m.shape[0]))
    if nx < 1e-15:
        return KleinPoint(mx)
    half = float(np.arctanh(nx / (1.0 + np.sqrt(1.0 - nx * nx))))
    scale = float(np.tanh(2.0 * nmx / nx * half))
    return KleinPoint(scale * mx / nmx)


def klein_geodesic_between(x: KleinPoint, y: KleinPoint, t: float) -> KleinPoint:
    """Geodesic through x at t=0 and y at t=1, as a gyrovector expression."""
    return einstein_add(x, einstein_scalar(t, einstein_add(einstein_neg(x), y)))


def einstein_midpoint(points: Sequence[KleinPoint], weights=None) -> KleinPoint:
    """Weighted Einstein midpoint: gamma-weighted convex combination."""
    if len(points) == 0:
        raise ValueError("empty aggregation")
    if weights is None:
        weights = np.ones(len(points))
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(points),) or np.any(w < 0.0):
        raise ValueError("weights must be nonnegative, one per point")
    gammas = np.array([w_i * lorentz_factor(p) for w_i, p in zip(w, points)])
    total = float(gammas.sum())
    if total <= 0.0:
        raise ValueError("empty aggregation")
    stacked = np.stack([p.coords for p in points])
    return KleinPoint(gammas @ stacked / total)
