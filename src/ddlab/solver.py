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
ODEs I, II.4), down to one step per interval; the explicit step limit
only caps how fine they get.
Elsewhere dt is limited by convection, re-evaluated after every step.
Both controllers step through _advance, the one place where steps are taken.
Each step it takes advances every live stream of steps on the grid as the
rows of one stacked step, in one fixed order: the entries of solve_many,
and step doubling's coarse and fine trials, which start from the same state.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass
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
    """Grid-independent initial condition: producer builds it on a grid."""

    producer: Callable  # GridSpec -> Field
    name: str = "custom"

    def build(self, grid: GridSpec) -> Field:
        # a division by zero, invalid value or overflow raises whatever the
        # warning filters; underflow does not (the bump's edge underflows)
        with np.errstate(divide="raise", invalid="raise", over="raise"):
            return self.producer(grid)


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
               symbols: tuple, eps, S, explicit: bool) -> np.ndarray:
    """Spectrum of the explicit terms at each row of the stack
    u = irfftn(v): -div f(u), plus eps div (b(grad u) - S grad u) where
    explicit.  Every row shares p's flux and diffusion; eps and S hold one
    value per row, as numbers or columns, and a row at eps = 0 adds
    eps times its remainder, a signed zero.  symbols is _derivatives(grid).
    The gradient's component axis, which the diffusion reads, goes ahead of
    the rows."""
    d1, neg_div = symbols[:2]
    out = neg_div * _spectrum(np.asarray(p.flux.eval(u)), grid)
    if explicit:
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
        v[None], u.values[None], u.grid, p, _derivatives(u.grid), p.epsilon, S,
        _explicit_diffusion(p))[0]
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
    """A stacked step: the p whose flux and diffusion its rows share, their
    coefficient sets stacked along a leading row axis, eps and S as columns,
    and whether any row has _explicit_diffusion."""

    p: SolveParams
    coefs: tuple
    eps: np.ndarray
    S: np.ndarray
    explicit: bool


def _stack(grid: GridSpec, coefficients: Callable, rows: tuple) -> _Stack:
    """The _Stack of rows, each row's set looked up in coefficients."""
    sets = [coefficients(grid, *row) for row in rows]
    column = (len(rows),) + (1,) * grid.dim
    return _Stack(rows[0][0], tuple(map(np.array, zip(*sets))),
                  np.reshape([p.epsilon for p, _, _ in rows], column),
                  np.reshape([S for _, _, S in rows], column),
                  any(_explicit_diffusion(p) for p, _, _ in rows))


def _step_arr(v: np.ndarray, u: np.ndarray, grid: GridSpec,
              k: _Stack) -> np.ndarray:
    """One ETDRK4 step of each row of the stack v, the spectra of the rows
    of u (Kassam-Trefethen stages), row i at the (p, h, S) of rows[i] in
    _stack, with eps S times the wide Laplacian in the exact linear part.
    Every transform and product acts on each row as on that row alone."""
    E, E2, Q, f1, f2, f3 = k.coefs
    terms = (k.p, _derivatives(grid), k.eps, k.S, k.explicit)
    Nv = _nonlinear(v, u, grid, *terms)
    E2v = E2 * v
    a = E2v + Q * Nv
    Na = _nonlinear(a, _values(a, grid), grid, *terms)
    b = E2v + Q * Na
    Nb = _nonlinear(b, _values(b, grid), grid, *terms)
    c = E2 * a + Q * (2.0 * Nb - Nv)
    Nc = _nonlinear(c, _values(c, grid), grid, *terms)
    return E * v + f1 * Nv + 2.0 * f2 * (Na + Nb) + f3 * Nc


def step_rk4(u: Field, dt: float, p: SolveParams) -> Field:
    """One fourth-order ETDRK4 step of du/dt = rhs(u), with S read from u."""
    S = _spectral_bound(p, _grad_max(u.values, u.grid, p))
    k = _stack(u.grid, _etd_coefficients, ((p, dt, S),))
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
    if _explicit_diffusion(p):
        bounds.append(dx**2 / (2.0 * grid.dim * p.epsilon
                               * _spectral_bound(p, grad_max)))
    return p.cfl_safety * min(bounds, default=dx)


def _spectral_bound(p: SolveParams, grad_max: float) -> float:
    """S: 1 for diffusion declared linear, else its bound at max |grad u|."""
    return 1.0 if p.diffusion.linear else p.diffusion.spectral_bound(grad_max)


def _grad_max(u: np.ndarray, grid: GridSpec, p: SolveParams) -> float:
    """max |grad u| where the diffusion declares a spectral bound, else 0."""
    if not _explicit_diffusion(p):
        return 0.0
    return float(np.sqrt(np.max(np.sum(_grad(u, grid) ** 2, axis=0))))


@dataclass(eq=False, slots=True)
class _Stream:
    """n ETDRK4 steps of h at the stabilizer S for the params p, from the
    spectrum v of uv at time t, the last on target: one row of each stacked
    step _advance takes while it lives.  The stream ends after the first
    step whose max |u| exceeds blowup_sup or is nan.  A stream with replan
    set re-plans after every step but the last: where stable_dt at that
    step fell below h, the rest is split again into equal steps, each at
    most that limit (to rounding) and so below the old h.  Once it has
    ended, v, uv and u_max are its last step's, k counts its steps, t is its
    time and h, its last step, is its smallest."""

    v: np.ndarray
    uv: np.ndarray
    n: int
    h: float
    t: float
    target: float
    p: SolveParams
    S: float
    blowup_sup: float
    replan: bool = False
    k: int = 0
    u_max: float = math.nan


def _advance(controllers: list, grid: GridSpec, coefficients: Callable):
    """Take every step the controllers ask for, in lock-step.

    A controller is a generator.  It yields a tuple of streams, which it
    keeps, and is resumed with next once each has ended.  Each step
    advances every live stream as a row of one stacked step, in one fixed
    order: the controllers in the order given, each one's streams in the
    order it yielded them.  The stack's transforms and products act on each
    row as on that row alone, so every stream ends on the bits it would
    reach alone.  A stream drops out of the stack when it ends, and a
    resumed controller's new streams take its place at the next step.  A
    stream with replan set is re-planned here, from stable_dt after each of
    its steps.  coefficients gives a row's set from (grid, p, h, S).
    """
    # a _Stack is built once per tuple of rows: restacking the sets every
    # step costs 16 us of a 160 us step on the three-entry N = 512 dispersive
    # ladder.  That ladder steps 16 distinct tuples over its solve, and two
    # damped entries at N = 512 step 22; kept 16 or 8, neither rebuilds one
    # (kept 4, the ladder rebuilds 1).  A power entry's rows take a new S
    # every interval
    stacks = functools.lru_cache(maxsize=16)(
        functools.partial(_stack, grid, coefficients))
    axes = tuple(range(-grid.dim, 0))
    yielded = [next(controller, ()) for controller in controllers]
    while live := [s for streams in yielded for s in streams if s.n]:
        k = stacks(tuple((s.p, s.h, s.S) for s in live))
        V = _step_arr(np.array([s.v for s in live]),
                      np.array([s.uv for s in live]), grid, k)
        U = _values(V, grid)
        u_max = np.abs(U).max(axis=axes)
        for s, v, uv, m in zip(live, V, U, u_max.tolist()):
            s.v, s.uv, s.u_max = v, uv, m
            s.k, s.n = s.k + 1, s.n - 1
            s.t = s.t + s.h if s.n else s.target
            if not m <= s.blowup_sup:
                s.n = 0
            elif s.replan and s.n:
                dt = stable_dt(s.p, grid, m, _grad_max(uv, grid, s.p))
                if dt < s.h:
                    s.n = math.ceil((s.target - s.t) / dt)
                    s.h = (s.target - s.t) / s.n
        for i, streams in enumerate(yielded):
            if streams and not any(s.n for s in streams):
                yielded[i] = next(controllers[i], ())


def solve(u0: InitialData, p: SolveParams, grid: GridSpec) -> Trajectory:
    """Integrate to t_end with ETDRK4, storing sample_count evenly spaced
    snapshots: solve_many with one entry."""
    return solve_many(u0, [p], grid)[0]


def solve_many(u0: InitialData, params: list, grid: GridSpec) -> list:
    """solve(u0, p, grid) for each p of params, one trajectory each.  The
    params share one flux and one diffusion (else ValueError), and the
    entries advance together: each step of _advance stacks the live steps
    of all of them, and each trajectory is the one its entry would reach
    alone, bit for bit.  Every sample time is hit exactly.

    Where the linear part damps the high modes (eps > 0), step doubling
    (see _control) keeps each sample interval's estimated time error under
    TOL times the initial sup norm, in steps no shorter than stable_dt at
    the interval's start.  Elsewhere, and where that limit allows the whole
    interval, dt is limited by stable_dt, re-evaluated after every step.
    params["steps"] counts the accepted steps, params["trial_steps"] the
    others, and params["dt_min"] is the smallest accepted step.

    Blow-up (a non-finite value, or max |u| beyond BLOWUP_FACTOR times its
    initial value) returns a partial trajectory with the blowup flag set
    and its time in params["t_blowup"].
    """
    if any(p.flux is not params[0].flux
           or p.diffusion is not params[0].diffusion for p in params):
        raise ValueError("the params of solve_many must share one flux and "
                         "one diffusion")
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
    # the (h, S) of each entry: span width / m and width / n of step
    # doubling, and the plans and re-plans of undamped intervals.  Per solve
    # to t = 0.5: 12 distinct h on the dispersive entry at N = 512, 6 on the
    # damped N = 512 entry, 3 on the damped N = 4096 one; a power2 entry at
    # N = 256 takes a new S every interval, so it builds 136 sets over 17
    # distinct h.  32 sets per entry build each once
    coefficients = functools.lru_cache(maxsize=32 * len(params))(
        _etd_coefficient_set)
    _advance([_control(u, p, grid, traj) for p, traj in zip(params, trajs)],
             grid, coefficients)
    return trajs


def _control(u: Field, p: SolveParams, grid: GridSpec, traj: Trajectory):
    """The controller of one entry of solve_many: it yields the streams of
    each sample interval to _advance and fills traj from their ends.

    Each interval is planned as n0 = ceil(width / stable_dt) equal steps
    from its start, whose max |grad u| also sets the interval's S.  Where
    the linear part damps the high modes (eps > 0) and n0 > 1, that plan
    is only the finest one, and step doubling picks n, the steps per
    interval.  A trial spans the next interval, or the next two when n = 1
    and both exist, at the S of its start: a fine trial of n steps of
    width / n in each interval of the span, and a coarse trial of
    m = ceil(n span / 2) steps over the span, stacked with the fine
    trial's first interval.  The fine trial is accepted when its
    Richardson estimate is under TOL times the initial sup norm, or when
    n has reached n0; otherwise its first interval is the coarse trial of
    the next, at span 1 and n doubled, capped at n0.  The next trial
    starts from the accepted n, or from half of it when the estimate was
    well under TOL.  Elsewhere the plan's steps are taken as one stream
    with replan set.
    """
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
    blowup_sup = BLOWUP_FACTOR * max(u0_sup, 1e-300)
    damped = p.epsilon > 0.0
    tol = TOL * u0_sup
    n = 2   # fine steps per interval of the next damped trial
    uv = u.values
    v = _spectrum(uv, grid)
    u_max = u0_sup

    def stream(n, replan=False):
        return _Stream(v, uv, n, width / n, t, target, p, S, blowup_sup, replan)

    i = 1   # the sample the next interval ends on
    while i < p.sample_count and not traj.blowup:
        target = sample_times[i]
        grad_max = _grad_max(uv, grid, p)
        S = _spectral_bound(p, grad_max)
        n0 = math.ceil(width / stable_dt(p, grid, u_max, grad_max))
        if damped and n0 > 1:
            if n == 1 and i + 1 < p.sample_count:
                span = 2
            else:
                span, n = 1, min(max(n, 2), n0)
            m = math.ceil(n * span / 2)
            coarse = _Stream(v, uv, m, span * width / m, t,
                             sample_times[i + span - 1], p, S, blowup_sup)
            fine = (stream(n),)
            yield coarse, *fine
            trial_steps += coarse.k
            if span == 2 and fine[0].u_max <= blowup_sup:
                fine += (_Stream(fine[0].v, fine[0].uv, n, width / n, target,
                                 sample_times[i + 1], p, S, blowup_sup),)
                yield fine[1:]
            while True:
                # Richardson: the n-step error of an order-4 scheme; a trial
                # cut short, or that blew up (nan or a huge value), never
                # passes
                err = (np.max(np.abs(fine[-1].uv - coarse.uv))
                       / ((n * span / m) ** 4 - 1.0)
                       if len(fine) == span else math.inf)
                if err < tol or n == n0:
                    break
                trial_steps += sum(s.k for s in fine)
                coarse, m, n, span = fine[0], n, min(2 * n, n0), 1
                fine = (stream(n),)
                yield fine
            # the estimate at n/2 would be ~16x this
            if err < tol / 32.0:
                n = math.ceil(n / 2)
        else:
            fine = (stream(n0, replan=True),)
            yield fine
        for s in fine:
            steps += s.k
            dt_min = min(dt_min, s.h)
            if not s.u_max <= blowup_sup:   # also catches nan
                traj.blowup = True
                traj.params["t_blowup"] = s.t
                break
            traj.append(sample_times[i], Field(grid, s.uv))
            i += 1
        v, uv, u_max, t = s.v, s.uv, s.u_max, s.t

    traj.params["steps"] = steps
    traj.params["trial_steps"] = trial_steps
    traj.params["dt_min"] = dt_min


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

    return InitialData(producer=producer, name="smoothed_riemann")


def _sine(amplitude=1.0) -> InitialData:
    def producer(grid: GridSpec) -> Field:
        coords = grid.meshgrid()
        vals = amplitude * np.sin(2.0 * np.pi * coords[0] / grid.length)
        return Field(grid, vals)

    return InitialData(producer=producer, name="sine")


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
