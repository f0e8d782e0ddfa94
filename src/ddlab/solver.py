"""Method-of-lines integration of the regularized conservation law

    u_t + div f(u) = eps * div b(grad u) + delta * sum_j d^3_{x_j} u

with centered second-order stencils in space, applied through their exact
Fourier symbols, and ETDRK4 in time (Cox & Matthews 2002; Kassam &
Trefethen 2005).  The linear part, delta times D3 plus eps S times the wide
Laplacian, is integrated exactly, with S the diffusion's spectral bound at
max |grad u| (1 for linear diffusion); eps div (b(grad u) - S grad u) stays
explicit (stabilized ETD: Du & Zhu, BIT 45, 2005).  Where the linear part
damps the high modes (eps > 0), the steps of each sample interval are
chosen by step doubling against TOL (Hairer, Norsett & Wanner, Solving
ODEs I, II.4), and the explicit step limit only caps how fine they get;
elsewhere dt is limited by convection, re-evaluated after every step.
Both controllers step through _advance, the one place where steps are taken.
It advances every stream of steps on one grid in lock-step, as the rows of
one stacked step: the entries of solve_many, and step doubling's coarse and
fine trials, which start from the same state.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

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
    "rhs",
    "stable_dt",
    "step_rk4",
    "solve",
    "solve_many",
    "initial_preset",
]

# blow-up detector: |u| exceeding this multiple of the initial sup norm
BLOWUP_FACTOR = 1.0e6

# time-error tolerance of step doubling, relative to the initial sup norm:
# on the default ladder it moves every record by at most ~4e-7 relative
TOL = 1.0e-6


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
    """rfftn over the trailing spatial axes; leading axes hold the rows of a
    stack and the components of a gradient, each transformed as if alone.
    Over one axis rfftn is rfft, called here without the n-d wrapper."""
    if grid.dim == 1:
        return np.fft.rfft(u)
    return np.fft.rfftn(u, axes=(-2, -1))


def _values(v: np.ndarray, grid: GridSpec) -> np.ndarray:
    if grid.dim == 1:
        return np.fft.irfft(v, grid.n)
    return np.fft.irfftn(v, s=grid.shape, axes=(-2, -1))


@functools.lru_cache(maxsize=1)
def _derivatives(grid: GridSpec) -> tuple:
    """D1 per axis and minus their sum (-div, the divergence of a flux applied
    along every axis, stored negated because every stage applies -div), each
    with an axis for the rows of a stack, then the wide Laplacian and
    sum_j D3_j."""
    d1, lap, d3 = stencil_symbols(grid)
    return d1[:, None], -np.sum(d1, axis=0)[None], lap, np.sum(d3, axis=0)


def _linear_symbol(grid: GridSpec, p: SolveParams, S: float) -> np.ndarray:
    """L = delta sum_j D3_j + eps S times the wide Laplacian."""
    _, _, lap, d3 = _derivatives(grid)
    return p.delta * d3 + p.epsilon * S * lap


def _explicit_diffusion(p: SolveParams) -> bool:
    """Whether eps div (b(grad u) - S grad u) is a term: eps != 0 and the
    diffusion is not declared linear (for linear diffusion S = 1 and that
    remainder is zero)."""
    return p.epsilon != 0.0 and not p.diffusion.linear


def _nonlinear(v: np.ndarray, u: np.ndarray, grid: GridSpec, p: SolveParams,
               symbols: tuple, eps, S) -> np.ndarray:
    """Spectrum of the explicit terms at each row of the stack
    u = irfftn(v): -div f(u), plus eps div (b(grad u) - S grad u) where
    _explicit_diffusion(p).  Every row shares p's flux, diffusion and
    _explicit_diffusion; eps and S hold one value per row, as numbers or
    columns.  symbols is _derivatives(grid).  The gradient's component
    axis, which the diffusion reads, goes ahead of the rows."""
    d1, neg_div = symbols[:2]
    out = neg_div * _spectrum(np.asarray(p.flux.eval(u)), grid)
    if _explicit_diffusion(p):
        g = _values(d1 * v, grid)
        b = np.asarray(p.diffusion.eval(g)) - S * g
        out += eps * np.sum(d1 * _spectrum(b, grid), axis=0)
    return out


def rhs(u: Field, p: SolveParams) -> Field:
    """Semi-discrete right-hand side: -div f(u) + eps div b(grad u)
    + delta sum_j third-derivative along axis j."""
    S = _spectral_bound(p, _grad_max(u.values, u.grid, p))
    v = _spectrum(u.values, u.grid)
    out = _linear_symbol(u.grid, p, S) * v + _nonlinear(
        v[None], u.values[None], u.grid, p, _derivatives(u.grid), p.epsilon, S)[0]
    return Field(u.grid, _values(out, u.grid))


def _phi_combinations(z: np.ndarray) -> np.ndarray:
    """The ETDRK4 phi-function combinations at z = hL: Q/h, f1/h, f2/h, f3/h."""
    ez, z3 = np.exp(z), z**3
    return np.stack([(np.exp(0.5 * z) - 1.0) / z,
                     (-4.0 - z + ez * (4.0 - 3.0 * z + z * z)) / z3,
                     (2.0 + z + ez * (z - 2.0)) / z3,
                     (-4.0 - 3.0 * z - z * z + ez * (4.0 - z)) / z3])


def _etd_coefficient_set(grid: GridSpec, p: SolveParams, h: float,
                         S: float) -> tuple:
    """exp(hL), exp(hL/2) and the ETDRK4 weights Q, f1, f2, f3: closed form
    where |hL| >= 1, and where it would cancel, the contour mean of the
    same combinations on the unit circle around h*L(k)."""
    hL = h * _linear_symbol(grid, p, S)
    coef = np.empty((4,) + hL.shape, dtype=complex)
    far = np.abs(hL) >= 1.0
    coef[:, far] = _phi_combinations(hL[far])
    m = 32   # points on the full unit circle: L is complex, so no half circle
    circle = np.exp(2j * np.pi * (np.arange(m) + 0.5) / m)
    coef[:, ~far] = np.mean(_phi_combinations(hL[~far] + circle[:, None]), axis=1)
    return (np.exp(hL), np.exp(0.5 * hL), *(h * coef))


# the sets of single steps (step_rk4); solve_many keeps its own cache, sized
# for its entries
_etd_coefficients = functools.lru_cache(maxsize=32)(_etd_coefficient_set)


class _Stack(NamedTuple):
    """The rows of a stacked step: (p, h, S) per row, their coefficient
    sets stacked along a leading row axis, and eps and S as columns (or
    numbers, for one row)."""

    rows: tuple
    coefs: tuple
    eps: np.ndarray
    S: np.ndarray


def _stack(grid: GridSpec, coefficients: Callable, rows: tuple) -> _Stack:
    """The _Stack of rows, each row's set looked up in coefficients."""
    sets = [coefficients(grid, *row) for row in rows]
    column = (len(rows),) + (1,) * grid.dim
    return _Stack(rows, tuple(map(np.array, zip(*sets))),
                  np.reshape([p.epsilon for p, _, _ in rows], column),
                  np.reshape([S for _, _, S in rows], column))


def _step_arr(v: np.ndarray, u: np.ndarray, grid: GridSpec,
              k: _Stack) -> np.ndarray:
    """One ETDRK4 step of each row of the stack v, the spectra of the rows
    of u (Kassam-Trefethen stages), row i at its own (p, h, S) = k.rows[i],
    with eps S times the wide Laplacian in the exact linear part.  Every
    transform and product acts on each row as on that row alone."""
    E, E2, Q, f1, f2, f3 = k.coefs
    p, symbols, eps, S = k.rows[0][0], _derivatives(grid), k.eps, k.S
    Nv = _nonlinear(v, u, grid, p, symbols, eps, S)
    E2v = E2 * v
    a = E2v + Q * Nv
    Na = _nonlinear(a, _values(a, grid), grid, p, symbols, eps, S)
    b = E2v + Q * Na
    Nb = _nonlinear(b, _values(b, grid), grid, p, symbols, eps, S)
    c = E2 * a + Q * (2.0 * Nb - Nv)
    Nc = _nonlinear(c, _values(c, grid), grid, p, symbols, eps, S)
    return E * v + f1 * Nv + 2.0 * f2 * (Na + Nb) + f3 * Nc


def step_rk4(u: Field, dt: float, p: SolveParams) -> Field:
    """One fourth-order ETDRK4 step of du/dt = rhs(u), with S read from u."""
    S = _spectral_bound(p, _grad_max(u.values, u.grid, p))
    # a stack of one row: the cached set itself behind a row axis, eps and S
    # as numbers, so that no call copies the set
    k = _Stack(((p, dt, S),), tuple(c[None] for c in _etd_coefficients(
        u.grid, p, dt, S)), p.epsilon, S)
    v = _step_arr(_spectrum(u.values, u.grid)[None], u.values[None], u.grid, k)
    return Field(u.grid, _values(v[0], u.grid))


def stable_dt(p: SolveParams, grid: GridSpec, u_max: float, grad_max: float) -> float:
    """Step limit of the explicit terms: convection, and diffusion unless it
    is declared linear.  Dispersion and linear diffusion are exact.  Where
    diffusion damps the high modes (eps > 0), solve takes this limit as its
    finest step, not as its step.  Convection is bounded by
    dx / (dim max|f'|): the stencils move diagonal data at dim f'."""
    dx = grid.dx
    bounds = []
    speed = grid.dim * p.flux.max_speed(u_max)
    if speed > 0:
        bounds.append(dx / speed)
    if p.epsilon > 0 and not p.diffusion.linear:
        bounds.append(dx**2 / (2.0 * grid.dim * p.epsilon
                               * _spectral_bound(p, grad_max)))
    if not bounds:
        return p.cfl_safety * dx
    return p.cfl_safety * min(bounds)


def _spectral_bound(p: SolveParams, grad_max: float) -> float:
    """S: 1 for diffusion declared linear, else its bound at max |grad u|."""
    return 1.0 if p.diffusion.linear else p.diffusion.spectral_bound(grad_max)


def _grad_max(u: np.ndarray, grid: GridSpec, p: SolveParams) -> float:
    """max |grad u| where the diffusion declares a spectral bound, else 0."""
    if p.epsilon == 0.0 or p.diffusion.linear:
        return 0.0
    return float(np.sqrt(np.max(np.sum(_grad(u, grid.dx) ** 2, axis=0))))


@dataclass(eq=False, slots=True)
class _Stream:
    """n ETDRK4 steps of h at the stabilizer S for the params p, from the
    spectrum v of uv at time t, the last on target.  The stream ends after
    the first step whose max |u| exceeds blowup_sup or is nan.  Where
    limit(uv, u_max), evaluated after every step but the last, fell below
    h, the rest is split again into equal steps.  Once it has ended, v, uv
    and u_max are its last step's, k counts its steps, t is its time and
    h_min its smallest h."""

    v: np.ndarray
    uv: np.ndarray
    n: int
    h: float
    t: float
    target: float
    p: SolveParams
    S: float
    blowup_sup: float
    limit: Callable | None = None
    k: int = 0
    h_min: float = field(init=False)
    u_max: float = math.nan
    kernel: tuple = field(init=False)

    def __post_init__(self):
        self.h_min = self.h
        # the live streams that share this key step as rows of one stack
        self.kernel = (id(self.p.flux), id(self.p.diffusion),
                       _explicit_diffusion(self.p))


def _advance(controllers: list, grid: GridSpec, coefficients: Callable):
    """Take every step the controllers ask for, in lock-step.

    A controller is a generator.  It yields a tuple of streams, and is sent
    them back once each has ended.  Each step advances the live streams
    that share a flux, a diffusion and _explicit_diffusion as the rows of
    one stacked step, whose transforms and products act on each row as on
    that row alone, so every stream ends on the bits it would reach alone.
    A stream drops out of the stack when it ends, and a resumed
    controller's new streams join it at the next step.  coefficients gives
    a row's set from (grid, p, h, S).
    """
    live, owner = [], {}
    # a _Stack is built once per tuple of rows: restacking the sets every
    # step costs 16 us of a 160 us step on the three-entry N = 512 dispersive
    # ladder.  That ladder steps 32 distinct tuples over its solve, a damped
    # pair at N = 512 17; kept 16, neither rebuilds one (kept 8, the ladder
    # rebuilds 2).  A power entry's rows take a new S every interval
    stacks = functools.lru_cache(maxsize=16)(
        functools.partial(_stack, grid, coefficients))
    axes = tuple(range(-grid.dim, 0))

    def resume(controller, sent):
        try:
            streams = controller.send(sent)
        except StopIteration:
            return
        for s in streams:
            owner[s] = (controller, streams)
        live.extend(streams)

    for controller in controllers:
        resume(controller, None)
    while live:
        groups = {}
        for s in live:
            groups.setdefault(s.kernel, []).append(s)
        for rows in groups.values():
            k = stacks(tuple((s.p, s.h, s.S) for s in rows))
            V = _step_arr(np.array([s.v for s in rows]),
                          np.array([s.uv for s in rows]), grid, k)
            U = _values(V, grid)
            u_max = np.abs(U).max(axis=axes)
            for s, v, uv, m in zip(rows, V, U, u_max.tolist()):
                s.v, s.uv, s.u_max = v, uv, m
                s.k, s.n = s.k + 1, s.n - 1
                s.t = s.t + s.h if s.n else s.target
                if not m <= s.blowup_sup:
                    s.n = 0
                elif s.limit is not None and s.n:
                    dt = s.limit(uv, m)
                    if dt < s.h:
                        s.n = math.ceil((s.target - s.t) / dt)
                        s.h = (s.target - s.t) / s.n
                        s.h_min = min(s.h_min, s.h)
        ended = [s for s in live if not s.n]
        live = [s for s in live if s.n]
        for s in ended:
            controller, streams = owner.pop(s)
            if not any(x in owner for x in streams):
                resume(controller, streams)


def solve(u0: InitialData, p: SolveParams, grid: GridSpec) -> Trajectory:
    """Integrate to t_end with ETDRK4, storing sample_count evenly spaced
    snapshots: solve_many with one entry."""
    return solve_many(u0, [p], grid)[0]


def solve_many(u0: InitialData, params: list, grid: GridSpec) -> list:
    """solve(u0, p, grid) for each p of params, one trajectory each.  The
    entries advance together: _advance stacks their steps, and each
    trajectory is the one its entry would reach alone, bit for bit.  Every
    sample time is hit exactly.

    Each sample interval is planned as n0 = ceil(width / stable_dt) equal
    steps from its start, whose max |grad u| also sets the interval's S.
    Where the linear part damps the high modes (eps > 0) and n0 > 2, that
    plan is only the finest one: the interval is integrated from the same
    start with n and with ceil(n/2) equal steps, the two trials stacked,
    and the n-step result is accepted when their Richardson error estimate
    is under TOL times the initial sup norm, or when n has reached n0;
    otherwise n doubles, capped at n0.  The next interval starts from the
    accepted n, or from half of it when the estimate was well under TOL.
    params["steps"] counts the accepted steps, params["trial_steps"] the
    coarse and rejected ones, and params["dt_min"] is the smallest accepted
    step.

    Elsewhere the plan's steps are taken: after every step the limit is
    re-evaluated and, if it fell below the step, the rest of the interval
    is split again.

    Blow-up (a non-finite value, or max |u| beyond BLOWUP_FACTOR times its
    initial value) returns a partial trajectory with the blowup flag set
    and its time in params["t_blowup"]; support reaching the periodic wrap
    sets the taint flag.
    """
    u = u0.build(grid)
    trajs = [Trajectory(grid=grid, params={
        "epsilon": p.epsilon,
        "delta": p.delta,
        "t_end": p.t_end,
        "cfl_safety": p.cfl_safety,
        "flux": p.flux.name,
        "diffusion": p.diffusion.name,
        "initial": u0.name,
    }) for p in params]
    # the (h, S) of each entry: width / n of step doubling, and the plans and
    # re-plans of undamped intervals.  Per solve to t = 0.5: 12 distinct h on
    # the dispersive entry at N = 512, 3 on the damped N = 4096 entry; a
    # power2 entry at N = 256 takes a new S every interval, so it builds 136
    # sets over 17 distinct h.  32 sets per entry build each once
    coefficients = functools.lru_cache(maxsize=32 * len(params))(
        _etd_coefficient_set)
    _advance([_control(u, p, grid, traj) for p, traj in zip(params, trajs)],
             grid, coefficients)
    return trajs


def _control(u: Field, p: SolveParams, grid: GridSpec, traj: Trajectory):
    """The controller of one entry of solve_many: it yields the streams of
    each sample interval to _advance and fills traj from their ends."""
    u0_sup = u.max_abs()
    sample_times = np.linspace(0.0, p.t_end, p.sample_count)
    # planning every interval from the same width keeps h, and so the
    # cached ETD coefficients, bit-identical across intervals
    width = sample_times[1]
    traj.append(0.0, u)

    t = 0.0
    steps = 0
    trial_steps = 0
    dt_min = np.inf
    # data that already touches the seam (e.g. sine) is never flagged; the
    # flag marks compact support escaping through the wrap during the run
    wrap_guard = _support_touches_wrap(u)
    blowup_sup = BLOWUP_FACTOR * max(u0_sup, 1e-300)
    damped = p.epsilon > 0.0
    tol = TOL * u0_sup
    n = 2   # steps of the next damped interval's fine trial
    uv = u.values
    v = _spectrum(uv, grid)
    u_max = u0_sup

    def limit(uv, u_max):
        return stable_dt(p, grid, u_max, _grad_max(uv, grid, p))

    def stream(n, limit=None):
        return _Stream(v, uv, n, width / n, t, target, p, S, blowup_sup, limit)

    for target in sample_times[1:]:
        grad_max = _grad_max(uv, grid, p)
        S = _spectral_bound(p, grad_max)
        n0 = math.ceil(width / stable_dt(p, grid, u_max, grad_max))
        if damped and n0 > 2:   # a trial accepts two steps at the fewest
            n = min(n, n0)
            m = math.ceil(n / 2)
            coarse, fine = yield stream(m), stream(n)
            trial_steps += coarse.k
            while True:
                # Richardson: the n-step error of an order-4 scheme; a trial
                # that blew up gives nan or a huge value, which never passes
                err = np.max(np.abs(fine.uv - coarse.uv)) / ((n / m) ** 4 - 1.0)
                if err < tol or n == n0:
                    break
                trial_steps += fine.k
                coarse, m, n = fine, n, min(2 * n, n0)
                fine, = yield stream(n),
            if err < tol / 32.0:   # the estimate at n/2 would be ~16x this
                n = max(2, math.ceil(n / 2))
        else:
            fine, = yield stream(n0, limit),
        v, uv, u_max, t = fine.v, fine.uv, fine.u_max, fine.t
        steps += fine.k
        dt_min = min(dt_min, fine.h_min)
        if not u_max <= blowup_sup:   # also catches nan
            traj.blowup = True
            traj.params["t_blowup"] = t
            break
        u = Field(grid, uv)
        traj.append(target, u)
        if not wrap_guard and _support_touches_wrap(u):
            traj.taint = True
            wrap_guard = True

    traj.params["steps"] = steps
    traj.params["trial_steps"] = trial_steps
    traj.params["dt_min"] = dt_min


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
