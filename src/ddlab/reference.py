"""Entropy-solution oracles, 1-d; ``harness.ensure_reference`` runs them on
each diagonal in 2-d.

For the quadratic flux f = u^2/2, ``lax_oleinik_reference`` is the exact
entropy solution of the piecewise-constant data, from the Lax-Oleinik
formula evaluated through a lower convex hull in linear time.  Every other
flux uses ``reference_solve``: a first-order monotone finite-volume scheme
with the Engquist-Osher flux.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import Field
from .model import FluxSpec, antiderivative

__all__ = [
    "reference_solve",
    "lax_oleinik_reference",
]

CFL = 0.4


def _eo_halves(flux: FluxSpec, lo: float, hi: float):
    """The halves of the EO flux F(a, b) = right(a) + left(b) for states in
    [lo, hi], its split integrals tabulated once by ``antiderivative``."""
    if flux.quadratic:
        return (lambda a: 0.5 * np.maximum(a, 0.0) ** 2,
                lambda b: 0.5 * np.minimum(b, 0.0) ** 2)
    f0 = float(flux.eval(0.0))
    plus = antiderivative(lambda v: np.maximum(flux.deriv(v), 0.0), lo, hi, 2048)
    minus = antiderivative(lambda v: np.minimum(flux.deriv(v), 0.0), lo, hi, 2048)
    return (lambda a: f0 + plus(a)), minus


def reference_solve(u0: Field, flux: FluxSpec, t_end: float) -> Field:
    """First-order finite-volume evolution with the EO flux, 1-d, periodic.

    Satisfies the discrete maximum principle exactly, so the output obeys
    min u0 <= u <= max u0 and contracts every L^p norm; one EO table over
    that range, and n equal steps planned from it by stable_dt's convective
    bound at ``CFL``, serve the whole run.
    """
    _check(u0, t_end)
    u, dx = u0.values, u0.grid.dx
    right, left = _eo_halves(flux, u.min(), u.max())
    speed = flux.max_speed(float(np.max(np.abs(u))))
    n = max(1, math.ceil(t_end * speed / (CFL * dx)))
    dt = t_end / n
    for _ in range(n):
        flux_right = right(u) + np.roll(left(u), -1)
        u = u - dt / dx * (flux_right - np.roll(flux_right, 1))
    return Field(u0.grid, u)


def _check(u0: Field, t_end: float):
    if u0.grid.dim != 1:
        raise ValueError("the references are 1-d")
    if not 0 < t_end < math.inf:
        raise ValueError(f"t_end must be finite and positive, got {t_end!r}")


def lax_oleinik_reference(u0: Field, t_end: float) -> Field:
    """Exact entropy solution of u_t + (u^2/2)_x = 0 in 1-d, periodic, for
    the data that is constant on each cell: the cell averages
    (V(x_{i+1/2}) - V(x_{i-1/2})) / dx of

        V(x, t) = min_y [(x - y)^2 / (2t) + U0(y)],   U0' = u0.

    U0 is the cumulative sum of the cell values at the interfaces, linear in
    between, and U0(y + L) = U0(y) + mass across the seam; the minimiser
    lies in [x - t max u0, x - t min u0].  A lower convex hull of
    (y_k, y_k^2/(2t) + U0(y_k)) over the interface nodes in that range
    gives, for each x, the node minimum; the points where consecutive hull
    vertices tie are sorted, so one search places every x.  The minimum over
    the cells beside that vertex and its two hull neighbours is then taken
    in closed form (the clipped minimiser x - t u_j of each cell), and V is
    evaluated at that minimiser, so no x^2/(2t) cancellation reaches the
    differences.
    """
    _check(u0, t_end)
    grid = u0.grid
    u, n, dx, t = u0.values, grid.n, grid.dx, float(t_end)
    k = np.arange(math.floor(-t * u.max() / dx) - 1,
                  n + math.ceil(-t * u.min() / dx) + 2)
    y = (k - 0.5) * dx
    cum = dx * np.concatenate([[0.0], np.cumsum(u)])
    big_u = (k // n) * cum[-1] + cum[k % n]
    slope = u[k[:-1] % n]   # u0 on the cell [y_j, y_{j+1}]

    # hull[i] and hull[i+1] give the same value at x = cuts[i]
    ys, us = y.tolist(), big_u.tolist()
    hull, cuts = [0], []
    for b in range(1, len(ys)):
        while True:
            a = hull[-1]
            cut = 0.5 * (ys[a] + ys[b]) + t * (us[b] - us[a]) / (ys[b] - ys[a])
            if not cuts or cut > cuts[-1]:
                break
            hull.pop()
            cuts.pop()
        hull.append(b)
        cuts.append(cut)

    hull = np.array(hull)
    x = (np.arange(n + 1) - 0.5) * dx
    vertex = np.searchsorted(cuts, x)
    v = np.full(n + 1, np.inf)
    for shift in (-1, 0, 1):
        node = hull[np.clip(vertex + shift, 0, len(hull) - 1)]
        for j in (np.maximum(node - 1, 0), np.minimum(node, len(slope) - 1)):
            ymin = np.clip(x - t * slope[j], y[j], y[j + 1])
            np.minimum(v, (x - ymin) ** 2 / (2.0 * t) + big_u[j]
                       + slope[j] * (ymin - y[j]), out=v)
    return Field(grid, np.diff(v) / dx)

