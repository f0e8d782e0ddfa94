"""Method-of-lines integration of the regularized conservation law

    u_t + div f(u) = eps * div b(grad u) + delta * sum_j d^3_{x_j} u

with centered second-order stencils in space, applied through their exact
Fourier symbols, and ETDRK4 in time (Cox & Matthews 2002; Kassam &
Trefethen 2005).  The linear part, delta times D3 plus eps times the wide
Laplacian when the diffusion is declared linear, is integrated exactly, so
dt is limited only by convection and by nonlinear diffusion.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import (
    Field,
    GridSpec,
    Trajectory,
    _grad,
    stencil_symbols,
)
from .model import DiffusionSpec, FluxSpec

__all__ = [
    "SolveParams",
    "InitialData",
    "BlowUpError",
    "rhs",
    "stable_dt",
    "step_rk4",
    "solve",
    "initial_preset",
]

# blow-up detector: |u| exceeding this multiple of the initial sup norm
BLOWUP_FACTOR = 1.0e6

# sample points for bounding max |f'| over [-u_max, u_max]
_FMAX_PROBE = np.linspace(-1.0, 1.0, 65)


class BlowUpError(RuntimeError):
    def __init__(self, t, max_value):
        super().__init__(f"solution blew up at t={t:g} (max |u| = {max_value:g})")
        self.t = t
        self.max_value = max_value


@dataclass(frozen=True)
class SolveParams:
    flux: FluxSpec
    diffusion: DiffusionSpec
    epsilon: float
    delta: float
    t_end: float
    cfl_safety: float = 0.4
    sample_count: int = 17

    def __post_init__(self):
        if not all(map(math.isfinite, (self.epsilon, self.delta, self.t_end))):
            raise ValueError("epsilon, delta and t_end must be finite")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.t_end <= 0:
            raise ValueError("t_end must be positive")
        if not 0 < self.cfl_safety <= 1:
            raise ValueError("cfl_safety must lie in (0, 1]")
        if self.sample_count < 2:
            raise ValueError("need at least 2 samples (t=0 and t=T)")


@dataclass(frozen=True)
class InitialData:
    """Grid-independent initial condition with declared norms."""

    producer: Callable  # GridSpec -> Field
    name: str = "custom"
    analytic: bool = False  # analytic test data: support check waived

    def build(self, grid: GridSpec) -> Field:
        f = self.producer(grid)
        if not self.analytic:
            _check_support(f)
        return f


def _check_support(f: Field):
    """Support must stay strictly inside the box: <= 0.8 of each axis."""
    nz = np.abs(f.values) > 1e-12 * max(f.max_abs(), 1e-300)
    for ax in range(f.grid.dim):
        other = tuple(i for i in range(f.grid.dim) if i != ax)
        line = np.any(nz, axis=other) if other else nz
        if np.mean(line) > 0.8:
            raise ValueError(
                f"initial support covers {np.mean(line):.0%} of axis {ax}; "
                "must be <= 80% of the box"
            )


def _spectrum(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """rfftn over the trailing spatial axes; a leading axis holds components."""
    return np.fft.rfftn(u, axes=tuple(range(-grid.dim, 0)))


def _values(v: np.ndarray, grid: GridSpec) -> np.ndarray:
    return np.fft.irfftn(v, s=grid.shape, axes=tuple(range(-grid.dim, 0)))


@functools.lru_cache(maxsize=1)
def _symbols(grid: GridSpec, p: SolveParams) -> tuple:
    """D1 per axis, their sum (the divergence of a flux applied along every
    axis), and L = delta sum_j D3_j plus eps times the wide Laplacian when
    the diffusion is declared linear."""
    d1, lap, d3 = stencil_symbols(grid)
    L = p.delta * np.sum(d3, axis=0)
    return d1, np.sum(d1, axis=0), L + p.epsilon * lap if p.diffusion.linear else L


def _nonlinear(v: np.ndarray, u: np.ndarray, grid: GridSpec,
               p: SolveParams) -> np.ndarray:
    """Spectrum of the explicit terms at u = irfftn(v): -div f(u), plus
    eps div b(grad u) when the diffusion is not declared linear."""
    d1, div, _ = _symbols(grid, p)
    out = -div * _spectrum(np.asarray(p.flux.eval(u)), grid)
    if p.epsilon != 0.0 and not p.diffusion.linear:
        b = np.asarray(p.diffusion.eval(_values(d1 * v, grid)))
        out += p.epsilon * np.sum(d1 * _spectrum(b, grid), axis=0)
    return out


def rhs(u: Field, p: SolveParams) -> Field:
    """Semi-discrete right-hand side: -div f(u) + eps div b(grad u)
    + delta sum_j third-derivative along axis j."""
    v = _spectrum(u.values, u.grid)
    out = _symbols(u.grid, p)[2] * v + _nonlinear(v, u.values, u.grid, p)
    return Field(u.grid, _values(out, u.grid))


def _phi_combinations(z: np.ndarray) -> np.ndarray:
    """The ETDRK4 phi-function combinations at z = hL: Q/h, f1/h, f2/h, f3/h."""
    ez, z3 = np.exp(z), z**3
    return np.stack([(np.exp(0.5 * z) - 1.0) / z,
                     (-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z3,
                     (2.0 + z + ez * (z - 2.0)) / z3,
                     (-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z3])


# the nominal h plus the latest re-planned h: a re-plan keeps the nominal one
@functools.lru_cache(maxsize=2)
def _etd_coefficients(grid: GridSpec, p: SolveParams, h: float) -> tuple:
    """exp(hL), exp(hL/2) and the ETDRK4 weights Q, f1, f2, f3: closed form
    where |hL| >= 1, and where it would cancel, the contour mean of the
    same combinations on the unit circle around h*L(k)."""
    hL = h * _symbols(grid, p)[2]
    coef = np.empty((4,) + hL.shape, dtype=complex)
    far = np.abs(hL) >= 1.0
    coef[:, far] = _phi_combinations(hL[far])
    m = 32   # points on the full unit circle: L is complex, so no half circle
    circle = np.exp(2j * np.pi * (np.arange(m) + 0.5) / m)
    coef[:, ~far] = np.mean(_phi_combinations(hL[~far] + circle[:, None]), axis=1)
    return (np.exp(hL), np.exp(0.5 * hL), *(h * coef))


def _step_arr(v: np.ndarray, u: np.ndarray, h: float, grid: GridSpec,
              p: SolveParams) -> np.ndarray:
    """One ETDRK4 step of the spectrum v of u (Kassam-Trefethen stages)."""
    E, E2, Q, f1, f2, f3 = _etd_coefficients(grid, p, h)
    Nv = _nonlinear(v, u, grid, p)
    a = E2 * v + Q * Nv
    Na = _nonlinear(a, _values(a, grid), grid, p)
    b = E2 * v + Q * Na
    Nb = _nonlinear(b, _values(b, grid), grid, p)
    c = E2 * a + Q * (2.0 * Nb - Nv)
    Nc = _nonlinear(c, _values(c, grid), grid, p)
    return E * v + f1 * Nv + 2.0 * f2 * (Na + Nb) + f3 * Nc


def step_rk4(u: Field, dt: float, p: SolveParams) -> Field:
    """One fourth-order ETDRK4 step of du/dt = rhs(u)."""
    v = _step_arr(_spectrum(u.values, u.grid), u.values, dt, u.grid, p)
    return Field(u.grid, _values(v, u.grid))


def stable_dt(p: SolveParams, grid: GridSpec, u_max: float, grad_max: float) -> float:
    """Step limit of the explicit terms: convection, and diffusion unless it
    is declared linear.  Dispersion and linear diffusion are exact.  The
    convective bound ignores dim, but 2-d stencils move diagonal data at
    dim * f', so such data runs at twice the CFL that cfl_safety names."""
    dx = grid.dx
    bounds = []
    us = u_max * _FMAX_PROBE
    fmax = float(np.max(np.abs(np.asarray(p.flux.deriv(us)))))
    if fmax > 0:
        bounds.append(dx / fmax)
    if p.epsilon > 0 and not p.diffusion.linear:
        B = p.diffusion.spectral_bound
        B = B(grad_max) if callable(B) else B
        bounds.append(dx**2 / (2.0 * grid.dim * p.epsilon * B))
    if not bounds:
        return p.cfl_safety * dx
    return p.cfl_safety * min(bounds)


def _grad_max_arr(u: np.ndarray, grid: GridSpec) -> float:
    return float(np.sqrt(np.max(np.sum(_grad(u, grid.dx) ** 2, axis=0))))


def solve(u0: InitialData, p: SolveParams, grid: GridSpec) -> Trajectory:
    """Integrate to t_end with ETDRK4, storing sample_count evenly spaced
    snapshots.

    The linear part is exact, so the step is limited only by convection and
    by a diffusion that is not declared linear.  Each sample interval is
    split into equal steps under that limit; before every step the limit is
    re-evaluated from the current solution and, if it fell below the step,
    the rest of the interval is split again.  Every sample time is hit
    exactly.  Blow-up (a non-finite value, or max |u| beyond BLOWUP_FACTOR
    times its initial value) returns a partial trajectory with the blowup
    flag set and its time in params["t_blowup"]; support reaching the
    periodic wrap sets the taint flag.
    """
    u = u0.build(grid)
    u0_sup = u.max_abs()
    sample_times = np.linspace(0.0, p.t_end, p.sample_count)
    # planning every interval from the same width keeps h, and so the
    # cached ETD coefficients, bit-identical across intervals
    width = sample_times[1]

    traj = Trajectory(grid=grid, params={
        "epsilon": p.epsilon,
        "delta": p.delta,
        "t_end": p.t_end,
        "cfl_safety": p.cfl_safety,
        "flux": p.flux.name,
        "diffusion": p.diffusion.name,
        "initial": u0.name,
    })
    traj.append(0.0, u)

    t = 0.0
    steps = 0
    dt_min = np.inf
    # data that already touches the seam (e.g. sine) is never flagged; the
    # flag marks compact support escaping through the wrap during the run
    wrap_guard = _support_touches_wrap(u)
    # only a gradient-dependent diffusion stiffness bound needs the scan
    bound = p.diffusion.spectral_bound
    needs_grad = p.epsilon != 0.0 and callable(bound)
    blowup_sup = BLOWUP_FACTOR * max(u0_sup, 1e-300)
    uv = u.values
    v = _spectrum(uv, grid)
    u_max = u0_sup
    try:
        for target in sample_times[1:]:
            left = 0   # steps left in the current plan of this interval
            while t < target:
                dt = stable_dt(p, grid, u_max,
                               _grad_max_arr(uv, grid) if needs_grad else 0.0)
                if not left:
                    left = math.ceil(width / dt)
                    h = width / left
                elif dt < h:
                    left = math.ceil((target - t) / dt)
                    h = (target - t) / left
                v = _step_arr(v, uv, h, grid, p)
                uv = _values(v, grid)
                left -= 1
                t = t + h if left else target
                steps += 1
                dt_min = min(dt_min, h)
                u_max = float(np.max(np.abs(uv)))
                if not u_max <= blowup_sup:   # also catches nan
                    raise BlowUpError(t, u_max)
            u = Field(grid, uv)
            traj.append(target, u)
            if not wrap_guard and _support_touches_wrap(u):
                traj.taint = True
                wrap_guard = True
    except BlowUpError as exc:
        traj.blowup = True
        traj.params["t_blowup"] = exc.t

    traj.params["steps"] = steps
    traj.params["dt_min"] = dt_min if np.isfinite(dt_min) else 0.0
    return traj


def _support_touches_wrap(u: Field, tol_frac: float = 1e-6) -> bool:
    """True when the solution is non-negligible at the periodic seam."""
    tol = tol_frac * max(u.max_abs(), 1e-300)
    vals = np.abs(u.values)
    for ax in range(u.grid.dim):
        edge = np.take(vals, [0, -1], axis=ax)
        if np.max(edge) > tol:
            return True
    return False


# ---------------------------------------------------------------------------
# initial-data presets


def _bump_profile(s):
    """C-infinity bump on |s| < 1, zero outside."""
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def _bump(amplitude=1.0, radius_frac=0.25) -> InitialData:
    def producer(grid: GridSpec) -> Field:
        coords = grid.meshgrid()
        c = grid.length / 2.0
        vals = np.ones(grid.shape)
        for x in coords:
            vals = vals * _bump_profile((x - c) / (radius_frac * grid.length))
        return Field(grid, amplitude * vals)

    return InitialData(producer=producer, name="bump")


def _smoothed_riemann(uL=1.0, uR=0.0, w=0.02) -> InitialData:
    # plateau at uL between 25% and 55% of the box, uR outside; the right
    # edge is the shock-forming transition, the left edge opens into a
    # rarefaction
    def producer(grid: GridSpec) -> Field:
        x, L = grid.meshgrid()[0], grid.length
        vals = uR + 0.5 * (uL - uR) * (
            np.tanh((x - 0.25 * L) / w) - np.tanh((x - 0.55 * L) / w)
        )
        return Field(grid, vals)

    # tanh tails are analytically nonzero everywhere; treat as analytic
    # for the support check, the seam values are ~exp(-L/w)
    return InitialData(producer=producer, name="smoothed_riemann", analytic=True)


def _sine(amplitude=1.0) -> InitialData:
    def producer(grid: GridSpec) -> Field:
        coords = grid.meshgrid()
        vals = amplitude * np.sin(2.0 * np.pi * coords[0] / grid.length)
        return Field(grid, vals)

    return InitialData(producer=producer, name="sine", analytic=True)


_INITIALS = {"bump": _bump, "smoothed_riemann": _smoothed_riemann,
             "sine": _sine}


def initial_preset(name: str, **kwargs) -> InitialData:
    """Named initial conditions: bump, smoothed_riemann, sine.  A keyword
    the preset does not take is a ValueError naming the ones it does."""
    if name not in _INITIALS:
        raise KeyError(f"unknown initial preset {name!r}")
    make = _INITIALS[name]
    params = inspect.signature(make).parameters
    unknown = sorted(set(kwargs) - set(params))
    if unknown:
        raise ValueError(f"initial preset {name!r} takes {', '.join(params)}, "
                         f"not {', '.join(unknown)}")
    return make(**kwargs)
