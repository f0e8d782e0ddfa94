"""Method-of-lines integration of the regularized conservation law

    u_t + div f(u) = eps * div b(grad u) + delta * sum_j d^3_{x_j} u

with classical RK4 in time and centered second-order stencils in space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grids import (
    Field,
    GridSpec,
    Trajectory,
    _diff_centered,
    divergence,
    gradient,
    third_derivative_axis,
)
from .model import DiffusionSpec, FluxSpec

__all__ = [
    "SCHEME",
    "SolveParams",
    "InitialData",
    "BlowUpError",
    "rhs",
    "stable_dt",
    "step_rk4",
    "solve",
    "initial_preset",
]

# names the integrator in trajectories and in the record cache key
SCHEME = "centered-rk4"

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


def _pad1d(u: np.ndarray) -> np.ndarray:
    n = u.shape[0]
    p = np.empty(n + 4)
    p[2:-2] = u
    p[:2] = u[-2:]
    p[-2:] = u[:2]
    return p


def _rhs_arr(u: np.ndarray, grid: GridSpec, p: SolveParams) -> np.ndarray:
    """Array-level right-hand side.  The 1-d path avoids Field wrappers and
    np.roll in the inner loop; 2-d falls back to the generic operators."""
    if grid.dim == 1:
        n = grid.n
        dx = grid.dx
        fu = np.asarray(p.flux.eval(u))[0]
        fp = _pad1d(fu)
        out = (fp[1:n + 1] - fp[3:n + 3]) / (2.0 * dx)  # -d/dx f(u)
        up = _pad1d(u)
        if p.epsilon != 0.0:
            lam = (up[3:n + 3] - up[1:n + 1]) / (2.0 * dx)
            b = np.asarray(p.diffusion.eval(lam[None]))[0]
            bp = _pad1d(b)
            out += p.epsilon * (bp[3:n + 3] - bp[1:n + 1]) / (2.0 * dx)
        if p.delta != 0.0:
            out += (p.delta / (2.0 * dx**3)) * (
                up[4:n + 4] - 2.0 * up[3:n + 3]
                + 2.0 * up[1:n + 1] - up[0:n]
            )
        return out

    out = np.zeros(grid.shape)
    f = Field(grid, u)
    fu = np.asarray(p.flux.eval(u))
    flux_fields = [Field(grid, fu[j]) for j in range(grid.dim)]
    out -= divergence(flux_fields).values
    if p.epsilon != 0.0:
        grads = gradient(f)
        lam = np.stack([g.values for g in grads])
        b = np.asarray(p.diffusion.eval(lam))
        b_fields = [Field(grid, b[j]) for j in range(grid.dim)]
        out += p.epsilon * divergence(b_fields).values
    if p.delta != 0.0:
        for ax in range(grid.dim):
            out += p.delta * third_derivative_axis(f, ax).values
    return out


def rhs(u: Field, p: SolveParams) -> Field:
    """Semi-discrete right-hand side: -div f(u) + eps div b(grad u)
    + delta sum_j third-derivative along axis j."""
    out = _rhs_arr(u.values, u.grid, p)
    if not np.all(np.isfinite(out)):
        raise BlowUpError(np.nan, np.inf)
    return Field(u.grid, out)


def _diffusion_spectral_bound(diff: DiffusionSpec, grad_max: float) -> float:
    """Bound on the spectral radius of Db over |lambda| <= grad_max."""
    bound = diff.spectral_bound
    if bound is not None:
        return bound(grad_max) if callable(bound) else bound
    # probe the Jacobian along a ray; isotropic b makes this exact
    mags = np.linspace(0.0, max(grad_max, 1e-12), 17)[1:]
    worst = 0.0
    for m in mags:
        J = np.atleast_2d(diff.jacobian(np.array([m])))
        worst = max(worst, float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (J + J.T))))))
    return max(worst, 1e-12)


def stable_dt(p: SolveParams, grid: GridSpec, u_max: float, grad_max: float) -> float:
    """Explicit-step limit: the stiffest of convection, diffusion, dispersion."""
    dx = grid.dx
    d = grid.dim
    bounds = []
    us = u_max * _FMAX_PROBE
    fmax = float(np.max(np.abs(np.asarray(p.flux.deriv(us)))))
    if fmax > 0:
        bounds.append(dx / fmax)
    if p.epsilon > 0:
        B = _diffusion_spectral_bound(p.diffusion, grad_max)
        bounds.append(dx**2 / (2.0 * d * p.epsilon * B))
    if p.delta != 0.0:
        bounds.append(dx**3 / (4.0 * abs(p.delta)))
    if not bounds:
        return p.cfl_safety * dx
    return p.cfl_safety * min(bounds)


def _step_arr(u: np.ndarray, dt: float, grid: GridSpec, p: SolveParams) -> np.ndarray:
    k1 = _rhs_arr(u, grid, p)
    k2 = _rhs_arr(u + 0.5 * dt * k1, grid, p)
    k3 = _rhs_arr(u + 0.5 * dt * k2, grid, p)
    k4 = _rhs_arr(u + dt * k3, grid, p)
    out = u + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise BlowUpError(np.nan, np.inf)
    return out


def step_rk4(u: Field, dt: float, p: SolveParams) -> Field:
    """One classical fourth-order explicit step of du/dt = rhs(u)."""
    return u.with_values(_step_arr(u.values, dt, u.grid, p))


def _grad_max_arr(u: np.ndarray, grid: GridSpec) -> float:
    mag2 = sum(_diff_centered(u, ax, grid.dx) ** 2 for ax in range(grid.dim))
    return float(np.sqrt(np.max(mag2)))


def solve(u0: InitialData, p: SolveParams, grid: GridSpec) -> Trajectory:
    """Integrate to t_end, storing sample_count evenly spaced snapshots.

    The step size is recomputed from the current solution every step and
    clipped so that every sample time is hit exactly.  Blow-up returns a
    partial trajectory with the blowup flag set; support reaching the
    periodic wrap sets the taint flag.
    """
    u = u0.build(grid)
    u0_sup = u.max_abs()
    sample_times = np.linspace(0.0, p.t_end, p.sample_count)

    traj = Trajectory(grid=grid, params={
        "epsilon": p.epsilon,
        "delta": p.delta,
        "t_end": p.t_end,
        "cfl_safety": p.cfl_safety,
        "flux": p.flux.name,
        "diffusion": p.diffusion.name,
        "initial": u0.name,
        "scheme": SCHEME,
    })
    traj.append(0.0, u)

    t = 0.0
    steps = 0
    dt_min = np.inf
    next_sample = 1
    # data that already touches the seam (e.g. sine) is never flagged; the
    # flag marks compact support escaping through the wrap during the run
    wrap_guard = _support_touches_wrap(u)
    # only a gradient-dependent diffusion stiffness bound needs the scan
    bound = p.diffusion.spectral_bound
    needs_grad = p.epsilon != 0.0 and (bound is None or callable(bound))
    blowup_sup = BLOWUP_FACTOR * max(u0_sup, 1e-300)
    uv = u.values
    try:
        while next_sample < len(sample_times):
            target = sample_times[next_sample]
            while t < target - 1e-14 * p.t_end:
                u_max = float(np.max(np.abs(uv)))
                if u_max > blowup_sup:
                    raise BlowUpError(t, u_max)
                gmax = _grad_max_arr(uv, grid) if needs_grad else 0.0
                dt = stable_dt(p, grid, u_max, gmax)
                dt = min(dt, target - t)
                uv = _step_arr(uv, dt, grid, p)
                t += dt
                steps += 1
                dt_min = min(dt_min, dt)
            u = Field(grid, uv)
            if u.max_abs() > blowup_sup:
                raise BlowUpError(t, u.max_abs())
            traj.append(target, u)
            if not wrap_guard and _support_touches_wrap(u):
                traj.taint = True
                wrap_guard = True
            next_sample += 1
    except BlowUpError:
        traj.blowup = True

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


def initial_preset(name: str, **kwargs) -> InitialData:
    """Named initial conditions: bump, smoothed_riemann(uL,uR,w), sine."""
    if name == "bump":
        amp = kwargs.get("amplitude", 1.0)
        radius_frac = kwargs.get("radius_frac", 0.25)

        def producer(grid: GridSpec) -> Field:
            coords = grid.meshgrid()
            c = grid.length / 2.0
            vals = np.ones(grid.shape)
            for x in coords:
                vals = vals * _bump_profile((x - c) / (radius_frac * grid.length))
            return Field(grid, amp * vals)

        return InitialData(producer=producer, name="bump")

    if name == "smoothed_riemann":
        u_left = kwargs.get("uL", 1.0)
        u_right = kwargs.get("uR", 0.0)
        w = kwargs.get("w", 0.02)
        # plateau at uL between 25% and 55% of the box, uR outside; the
        # right edge is the shock-forming transition, the left edge opens
        # into a rarefaction
        lo_frac = kwargs.get("lo_frac", 0.25)
        hi_frac = kwargs.get("hi_frac", 0.55)

        def producer(grid: GridSpec) -> Field:
            x = grid.meshgrid()[0]
            x1 = lo_frac * grid.length
            x2 = hi_frac * grid.length
            vals = u_right + 0.5 * (u_left - u_right) * (
                np.tanh((x - x1) / w) - np.tanh((x - x2) / w)
            )
            return Field(grid, vals)

        # tanh tails are analytically nonzero everywhere; treat as analytic
        # for the support check, the seam values are ~exp(-L/w)
        return InitialData(producer=producer, name="smoothed_riemann", analytic=True)

    if name == "sine":
        k = kwargs.get("k", 1)
        amp = kwargs.get("amplitude", 1.0)

        def producer(grid: GridSpec) -> Field:
            coords = grid.meshgrid()
            vals = amp * np.sin(2.0 * np.pi * k * coords[0] / grid.length)
            return Field(grid, vals)

        return InitialData(producer=producer, name="sine", analytic=True)

    raise KeyError(f"unknown initial preset {name!r}")
