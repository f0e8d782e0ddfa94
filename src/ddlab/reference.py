"""Entropy-solution oracles: a first-order monotone finite-volume scheme
with the Engquist-Osher flux, and the exact Riemann solution for the
quadratic flux.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import Field
from .model import FluxSpec, antiderivative

__all__ = [
    "SCHEME",
    "RiemannData",
    "engquist_osher_flux",
    "reference_solve",
    "burgers_riemann_exact",
]

_EO_PANELS = 2048
# names the scheme and its EO quadrature in the reference cache key
SCHEME = f"engquist-osher-fv1/simpson-hermite-{_EO_PANELS}"


@dataclass(frozen=True)
class RiemannData:
    u_left: float
    u_right: float
    flux: FluxSpec

    def __post_init__(self):
        lo = min(self.u_left, self.u_right)
        hi = max(self.u_left, self.u_right)
        if hi > lo:
            u = np.linspace(lo, hi, 65)
            fp = np.asarray(self.flux.deriv(u))
            # sampled convexity: f' nondecreasing between the two states
            if np.any(np.diff(fp) < -1e-10):
                raise ValueError("flux is not convex between the Riemann states")


def _eo_halves(flux: FluxSpec, lo: float, hi: float, n: int = _EO_PANELS):
    """The halves of the EO flux F(a, b) = right(a) + left(b) for states in
    [lo, hi], its split integrals tabulated once by ``antiderivative``."""
    if flux.quadratic:
        return (lambda a: 0.5 * np.maximum(a, 0.0) ** 2,
                lambda b: 0.5 * np.minimum(b, 0.0) ** 2)
    f0 = float(flux.eval(0.0))
    plus = antiderivative(lambda v: np.maximum(flux.deriv(v), 0.0), lo, hi, n)
    minus = antiderivative(lambda v: np.minimum(flux.deriv(v), 0.0), lo, hi, n)
    return (lambda a: f0 + plus(a)), minus


def engquist_osher_flux(a, b, flux: FluxSpec):
    """Monotone numerical flux
    F(a, b) = f(0) + int_0^a max(f',0) + int_0^b min(f',0)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    states = np.concatenate([a.ravel(), b.ravel()])
    right, left = _eo_halves(flux, states.min(), states.max())
    out = right(a) + left(b)
    return float(out) if np.ndim(out) == 0 else out


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


def burgers_riemann_exact(data: RiemannData, x_over_t):
    """Self-similar entropy solution of the quadratic-flux Riemann problem."""
    if not data.flux.quadratic:
        raise ValueError("exact solution implemented for the quadratic flux only")
    uL, uR = data.u_left, data.u_right
    xi = np.asarray(x_over_t, dtype=float)
    if uL == uR:
        out = np.full(xi.shape, uL)
    elif uL > uR:
        s = 0.5 * (uL + uR)
        out = np.where(xi < s, uL, uR)
    else:
        out = np.clip(xi, uL, uR)
    return float(out[()]) if out.ndim == 0 else out
