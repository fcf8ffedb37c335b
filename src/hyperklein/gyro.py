"""Einstein gyrovector operations on the Klein ball, plus Mobius counterparts.

The Klein ball with Einstein addition and scalar multiplication forms a
gyrovector space; these operations realize hyperbolic translation and
geodesic scaling directly in Klein coordinates, without exp/log round trips.
The Mobius addition is imported from `manifolds`, whose Poincare exp and log use it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .manifolds import (
    ATANH_MAX,
    KleinPoint,
    Model,
    PoincarePoint,
    _point_row,
    clamp_rows,
    gamma_rows,
    mobius_add_rows,
    row_dots,
)

# Each operation is a row kernel on (N, d) arrays of ball points, zero-padded
# rows allowed; its output rows are checked and clamped like the point
# classes.  The point functions call the kernels with N = 1.


def einstein_add_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Einstein velocity addition of the rows of a and b."""
    gx = gamma_rows(a)
    dot = row_dots(a, b)
    return clamp_rows((a + b / gx + (gx / (1.0 + gx)) * dot * a) / (1.0 + dot))


def einstein_add(x: KleinPoint, y: KleinPoint) -> KleinPoint:
    """Einstein velocity addition of two ball points."""
    return _point_row(Model.KLEIN, einstein_add_rows(x.coords[None], y.coords[None]))


def einstein_neg(x: KleinPoint) -> KleinPoint:
    """Gyrogroup inverse; coordinate negation."""
    return KleinPoint(-x.coords)


def einstein_scalar_rows(r, x: np.ndarray) -> np.ndarray:
    """Einstein scalar multiplication r (x) of each row, with r (0) = 0; r is
    one number or one per row."""
    norm = np.sqrt(row_dots(x, x))
    scale = np.tanh(np.reshape(r, (-1, 1)) * np.arctanh(np.minimum(norm, ATANH_MAX)))
    return clamp_rows(scale * x / np.where(norm == 0.0, 1.0, norm))


def einstein_scalar(r: float, x: KleinPoint) -> KleinPoint:
    """Einstein scalar multiplication r (x), with r (0) = 0."""
    return _point_row(Model.KLEIN, einstein_scalar_rows(r, x.coords[None]))


def gyration_rows(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Gyrations gyr[x, y]z of the rows, through the gyrogroup identity.

    gyr[x, y]z = -(x + y) + (x + (y + z)) with + the Einstein addition; the
    identity holds in any gyrogroup and avoids a separate closed form.
    """
    inner = einstein_add_rows(x, einstein_add_rows(y, z))
    return einstein_add_rows(-einstein_add_rows(x, y), inner)


def gyration(x: KleinPoint, y: KleinPoint, z: KleinPoint) -> KleinPoint:
    """Gyration gyr[x, y]z; see `gyration_rows`."""
    return _point_row(Model.KLEIN, gyration_rows(x.coords[None], y.coords[None], z.coords[None]))


def mobius_add(x: PoincarePoint, y: PoincarePoint) -> PoincarePoint:
    """Mobius addition on the Poincare ball."""
    return _point_row(Model.POINCARE, mobius_add_rows(x.coords[None], y.coords[None]))


def einstein_matvec_rows(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Einstein matrix-vector multiplication M_i (x) x_i for (N, k, d) matrices m."""
    mx = row_dots(m, x[:, None, :])[..., 0]
    nmx, nx = np.sqrt(row_dots(mx, mx)), np.sqrt(row_dots(x, x))
    tiny = nx < 1e-15
    half = np.arctanh(nx / (1.0 + np.sqrt(1.0 - nx * nx)))
    scale = np.tanh(2.0 * nmx / np.where(tiny, 1.0, nx) * half)
    return clamp_rows(np.where(tiny, mx, scale * mx / np.where(nmx == 0.0, 1.0, nmx)))


def einstein_matvec(matrix: np.ndarray, x: KleinPoint) -> KleinPoint:
    """Einstein matrix-vector multiplication M (x) on the Klein ball."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[1] != x.dim:
        raise ValueError(f"matrix shape {m.shape} does not match point dimension {x.dim}")
    return _point_row(Model.KLEIN, einstein_matvec_rows(m[None], x.coords[None]))


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
    stacked = np.stack([p.coords for p in points])
    gammas = w * gamma_rows(stacked)[:, 0]
    total = float(gammas.sum())
    if total <= 0.0:
        raise ValueError("empty aggregation")
    return KleinPoint(gammas @ stacked / total)
