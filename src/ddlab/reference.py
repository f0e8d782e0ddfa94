"""Entropy-solution oracles.

For the quadratic flux f = u^2/2 in 1-d, ``lax_oleinik_reference`` is the
exact entropy solution of the piecewise-constant data, from the
Lax-Oleinik formula evaluated through a lower convex hull in linear time.
Every other flux, and 2-d, use ``reference_solve``: a first-order monotone
finite-volume scheme with the Engquist-Osher flux.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .grids import Field
from .model import FluxSpec, antiderivative

__all__ = [
    "reference_solve",
    "lax_oleinik_reference",
]


def _eo_halves(flux: FluxSpec, lo: float, hi: float, n: int = 2048):
    """The halves of the EO flux F(a, b) = right(a) + left(b) for states in
    [lo, hi], its split integrals tabulated once by ``antiderivative``."""
    if flux.quadratic:
        return (lambda a: 0.5 * np.maximum(a, 0.0) ** 2,
                lambda b: 0.5 * np.minimum(b, 0.0) ** 2)
    f0 = float(flux.eval(0.0))
    plus = antiderivative(lambda v: np.maximum(flux.deriv(v), 0.0), lo, hi, n)
    minus = antiderivative(lambda v: np.minimum(flux.deriv(v), 0.0), lo, hi, n)
    return (lambda a: f0 + plus(a)), minus


def reference_solve(u0: Field, flux: FluxSpec, t_end: float,
                    cfl: float = 0.4) -> Field:
    """First-order finite-volume evolution with the EO flux, periodic.

    Satisfies the discrete maximum principle exactly, so the output obeys
    min u0 <= u <= max u0 and contracts every L^p norm; one EO table over
    that range serves every step.  In 2-d the scalar flux is differenced
    along each axis within one step; each half of the EO flux is evaluated
    once per step and shifted along every axis.
    """
    u = u0.values.copy()
    right, left = _eo_halves(flux, u.min(), u.max())
    grid = u0.grid
    dx = grid.dx
    t = 0.0
    while t < t_end - 1e-14 * t_end:
        us = np.linspace(u.min(), u.max(), 65)
        fmax = float(np.max(np.abs(np.asarray(flux.deriv(us)))))
        dt = cfl * dx / max(fmax * grid.dim, 1e-12)
        dt = min(dt, t_end - t)
        upd = np.zeros(grid.shape)
        right_u, left_u = right(u), left(u)
        for ax in range(grid.dim):
            flux_right = right_u + np.roll(left_u, -1, axis=ax)
            upd -= dt / dx * (flux_right - np.roll(flux_right, 1, axis=ax))
        u = u + upd
        t += dt
    return Field(grid, u)


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
    grid = u0.grid
    if grid.dim != 1:
        raise ValueError("the Lax-Oleinik reference is 1-d")
    u, n, dx, t = u0.values, grid.n, grid.dx, float(t_end)
    k = np.arange(math.floor(-t * u.max() / dx) - 1,
                  n + math.ceil(-t * u.min() / dx) + 2)
    y = (k - 0.5) * dx
    cum = dx * np.concatenate([[0.0], np.cumsum(u)])
    big_u = (k // n) * cum[-1] + cum[k % n]
    slope = u[k[:-1] % n]   # u0 on the cell [y_j, y_{j+1}]

    # hull[i] and hull[i+1] give the same value at x = cuts[i]; typed
    # arrays keep the stack at 8 bytes an entry
    ys, us = memoryview(y), memoryview(big_u)
    hull, cuts = array("q", [0]), array("d")
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

    hull, cuts = np.frombuffer(hull, dtype=np.int64), np.frombuffer(cuts)
    v = np.full(n + 1, np.inf)
    # blocks of interfaces keep the temporaries small
    for start in range(0, n + 1, 1024):
        x = (np.arange(start, min(start + 1024, n + 1)) - 0.5) * dx
        vertex = np.searchsorted(cuts, x)
        best = v[start:start + len(x)]
        for shift in (-1, 0, 1):
            node = hull[np.clip(vertex + shift, 0, len(hull) - 1)]
            for j in (np.maximum(node - 1, 0), np.minimum(node, len(slope) - 1)):
                ymin = np.clip(x - t * slope[j], y[j], y[j + 1])
                np.minimum(best, (x - ymin) ** 2 / (2.0 * t) + big_u[j]
                           + slope[j] * (ymin - y[j]), out=best)
    return Field(grid, np.diff(v) / dx)

