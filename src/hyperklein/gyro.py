"""Einstein gyrovector operations on the Klein ball, plus Mobius counterparts.

The Klein ball with Einstein addition and scalar multiplication forms a
gyrovector space; these operations realize hyperbolic translation and
geodesic scaling directly in Klein coordinates, without exp/log round trips.
The Mobius addition is imported from `manifolds`, whose Poincare exp uses it.
A Klein geodesic is a chord, the hyperboloid's projected: from x to y, d apart, the point
at t is (a x + c y) / (a + c), a = sinh((1 - t) d) gamma_x / d, c = sinh(t d) gamma_y / d.

Each operation (`einstein_add`, `einstein_scalar`, `einstein_matvec`,
`gyration`, `mobius_add`, `klein_geodesic_between`, `einstein_midpoint`) is
one function on (N, d) arrays of ball points, zero-padded rows allowed, and a
single point is a (1, d) row; its output rows are checked and clamped
(`clamp_to_ball`).  The gyrogroup inverse of x is -x.
"""

from __future__ import annotations

import numpy as np

from .manifolds import ATANH_MAX, Model, clamp_to_ball, distance, lorentz_factor, mobius_add, row_dots, smooth_ratio


def einstein_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Einstein velocity addition of the rows of a and b."""
    gx = lorentz_factor(a)
    dot = row_dots(a, b)
    return clamp_to_ball((a + b / gx + (gx / (1.0 + gx)) * dot * a) / (1.0 + dot))


def einstein_scalar(r, x: np.ndarray) -> np.ndarray:
    """Einstein scalar multiplication r (x) of each row, with r (0) = 0; r is
    one number or one per row."""
    norm = np.sqrt(row_dots(x, x))
    scale = np.tanh(np.reshape(r, (-1, 1)) * np.arctanh(np.minimum(norm, ATANH_MAX)))
    return clamp_to_ball(scale * x / np.where(norm == 0.0, 1.0, norm))


def gyration(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Gyrations gyr[x, y]z of the rows, through the gyrogroup identity.

    gyr[x, y]z = -(x + y) + (x + (y + z)) with + the Einstein addition; the
    identity holds in any gyrogroup and avoids a separate closed form.
    """
    inner = einstein_add(x, einstein_add(y, z))
    return einstein_add(-einstein_add(x, y), inner)


def einstein_matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Einstein matrix-vector multiplication M_i (x) x_i for (N, k, d) matrices m."""
    mx = row_dots(m, x[:, None, :])[..., 0]
    nmx, nx = np.sqrt(row_dots(mx, mx)), np.sqrt(row_dots(x, x))
    tiny = nx < 1e-15
    half = np.arctanh(nx / (1.0 + np.sqrt(1.0 - nx * nx)))
    scale = np.tanh(2.0 * nmx / np.where(tiny, 1.0, nx) * half)
    return clamp_to_ball(np.where(tiny, mx, scale * mx / np.where(nmx == 0.0, 1.0, nmx)))


def klein_geodesic_between(x: np.ndarray, y: np.ndarray, t) -> np.ndarray:
    """Points at t, one number or one per row, on the geodesics from the rows x (t=0) to y (t=1)."""
    t, d = np.reshape(t, (-1, 1)), distance(Model.KLEIN, x, y)[:, None]
    a = (1.0 - t) * smooth_ratio("sinhc", np.abs(1.0 - t) * d) * lorentz_factor(x)
    c = t * smooth_ratio("sinhc", np.abs(t) * d) * lorentz_factor(y)
    return clamp_to_ball((a * x + c * y) / (a + c))


def einstein_midpoint(points: np.ndarray, weights=None) -> np.ndarray:
    """Weighted Einstein midpoint of the rows of points, a gamma-weighted
    convex combination, as a (1, d) row."""
    if len(points) == 0:
        raise ValueError("empty aggregation")
    if weights is None:
        weights = np.ones(len(points))
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (len(points),) or np.any(w < 0.0):
        raise ValueError("weights must be nonnegative, one per point")
    gammas = w * lorentz_factor(points)[:, 0]
    total = float(gammas.sum())
    if total <= 0.0:
        raise ValueError("empty aggregation")
    return clamp_to_ball((gammas @ points / total)[None])
