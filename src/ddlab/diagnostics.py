"""Quantitative checks of the regularized equation's energy identities,
a-priori norm bounds, entropy-production decomposition, and oscillation
(weak-limit) diagnostics.

All distributional pairings move derivatives onto an analytic test function;
the only discrete derivative entering a pairing is grad u itself where it
appears explicitly in the production terms.  A test function is a product
X(x) T(t) of per-axis bumps, so every pairing is separable: the space
factors are evaluated once on the grid's axes, T and its derivative become
weights of the one time quadrature (``grids.spacetime_integral``), which
hands the integrands stacks of samples, a block of cells at a time.  A
pairing with a test function reads only the box of cells where X is not
zero, plus one halo cell per side for the gradient, taken modulo n; each
sample's gradient there is taken once and contracted with the space
factors.  The full-grid identities and budgets read every cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .grids import Trajectory, _diff_centered, _grad, lp_norm, \
    spacetime_integral, spacetime_weights
from .model import DiffusionSpec, EntropyPair, FluxSpec, antiderivative, \
    kruzkov_entropy

__all__ = [
    "TestFunction",
    "EntropyProductionReport",
    "YoungHistogram",
    "Window",
    "energy_balance_residual",
    "gradient_budget",
    "power_energy_identity",
    "hn_bound",
    "h_regularity_check",
    "entropy_production",
    "loglog_fit",
    "kruzkov_residual",
    "window_samples",
    "sample_index",
    "young_histogram",
    "bootstrap_bound",
]


# ---------------------------------------------------------------------------
# analytic test functions

# (1 - s^2)^4 and its derivatives, highest-power-first coefficients
_B_POLY = np.array([1.0, 0.0, -4.0, 0.0, 6.0, 0.0, -4.0, 0.0, 1.0][::-1])
_B_DERIVS = [np.polynomial.polynomial.polyder(_B_POLY, m) for m in range(4)]


def _bump(s, order: int = 0):
    s = np.asarray(s, dtype=float)
    if order == 0:
        # direct form keeps the value exactly nonnegative at the edges
        return np.where(np.abs(s) < 1.0, (1.0 - s**2) ** 4, 0.0)
    return np.where(np.abs(s) < 1.0,
                    np.polynomial.polynomial.polyval(s, _B_DERIVS[order]), 0.0)


@dataclass(frozen=True)
class TestFunction:
    """Smooth compactly supported space-time bump X(x) T(t): a product of
    (1 - s^2)^4 factors in each scaled coordinate.  Pairings evaluate it
    through its factors, ``space`` and ``time``."""

    center: tuple        # spatial center, one entry per axis
    t_center: float
    radius: tuple        # spatial radii, one entry per axis
    t_radius: float

    def space(self, grid, axis: Optional[int] = None, order: int = 0) -> list:
        """The per-axis factors of X on ``grid.axes()``, one 1-D array per
        axis; the factor on ``axis`` is differentiated ``order`` times."""
        factors = []
        for ax, (x, c, r) in enumerate(zip(grid.axes(), self.center, self.radius)):
            m = order if ax == axis else 0
            factors.append(_bump((x - c) / r, m) / r**m)
        return factors

    def support(self, grid) -> tuple:
        """Per axis, the slice of ``grid.axes()`` where the factor is not
        zero, for every order: the cells with |x - center| < radius.  A
        bump does not wrap the seam, so each slice is one contiguous run."""
        box = []
        for x, c, r in zip(grid.axes(), self.center, self.radius):
            inside = np.flatnonzero(np.abs((x - c) / r) < 1.0)
            box.append(slice(inside[0], inside[-1] + 1) if inside.size else slice(0, 0))
        return tuple(box)

    def time(self, times, order: int = 0) -> np.ndarray:
        """T or its order-th derivative at each of ``times``."""
        s = (np.asarray(times, dtype=float) - self.t_center) / self.t_radius
        return _bump(s, order) / self.t_radius**order


def bump_over(center, t_center, radius, t_radius, dim: int = 1) -> TestFunction:
    """Convenience constructor: the scalar center and radius are repeated on
    each of the dim axes."""
    return TestFunction(center=(float(center),) * dim, t_center=float(t_center),
                        radius=(float(radius),) * dim, t_radius=float(t_radius))


# ---------------------------------------------------------------------------
# helpers


def _holds(lo: float, hi: float, s: float) -> bool:
    """Whether the sample time s lies in [lo, hi] up to its rounding: the
    slack 1e-9 max(s, 1) that every rule on sample times allows."""
    slack = 1e-9 * max(s, 1.0)
    return lo - slack <= s <= hi + slack


def sample_index(times, t: float) -> int:
    """Index of the sample time nearest t, which must hold t (``_holds``)
    and leave at least two samples from t = 0 on."""
    times = np.asarray(times, dtype=float)
    k = int(np.argmin(np.abs(times - t)))
    if not _holds(t, t, times[k]):   # also nan, inf
        raise ValueError(f"t={t} is not a stored sample time")
    if k < 1:
        raise ValueError(f"t={t} leaves fewer than two samples")
    return k


def _pair(values: np.ndarray, factors: list):
    """Cell sums of a stack of values times the product of per-axis factors."""
    for x in reversed(factors):
        values = values @ x
    return values


def _cell_sums(values: np.ndarray) -> np.ndarray:
    """Cell sums of a stack of values, one per sample."""
    return np.sum(values.reshape(len(values), -1), axis=1)


def _on(factors: list, box: tuple) -> list:
    """Per-axis factors cut to box."""
    return [x[s] for x, s in zip(factors, box)]


def _dissipation_density(grad: np.ndarray, diff: DiffusionSpec) -> np.ndarray:
    """Pointwise grad u . b(grad u)."""
    return np.sum(grad * np.asarray(diff.eval(grad)), axis=0)


def _grad_mag(grad: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(grad**2, axis=0))


# ---------------------------------------------------------------------------
# energy identities and norm budgets


def energy_balance_residual(traj: Trajectory, diff: DiffusionSpec,
                            eps: float) -> float:
    """Residual of the quadratic energy balance at the last sample time t:

        ||u(t)||_2^2 + 2 eps int_0^t int grad u . b(grad u) - ||u0||_2^2.

    Vanishes under refinement; the dispersive term integrates away on the
    periodic box.  For an earlier t, pass the trajectory cut at that sample.
    """
    grid = traj.grid
    dissipation = spacetime_integral(
        traj, lambda u: _cell_sums(_dissipation_density(_grad(u, grid), diff)))
    return (lp_norm(traj.final(), 2) ** 2
            + 2.0 * eps * dissipation
            - lp_norm(traj.fields[0], 2) ** 2)


def gradient_budget(traj: Trajectory, diff: DiffusionSpec, eps: float) -> dict:
    """Check eps int_0^t int |grad u|^(r+1) <= ||u0||_2^2 / (2 c2), t the
    last sample time (cut the trajectory there for an earlier t)."""
    grid = traj.grid
    lhs = eps * spacetime_integral(
        traj, lambda u: _cell_sums(_grad_mag(_grad(u, grid)) ** (diff.r + 1.0)))
    bound = lp_norm(traj.fields[0], 2) ** 2 / (2.0 * diff.c2)
    return {"lhs": lhs, "bound": bound, "holds": bool(lhs <= bound + 1e-2)}


def power_energy_identity(traj: Trajectory, alpha: float, diff: DiffusionSpec,
                          eps: float, delta: float) -> dict:
    """Both sides of the |u|^(alpha+1) energy identity.

    lhs = int |u(t)|^(a+1)/(a+1) + a*eps int int |u|^(a-1) grad u . b(grad u)
    rhs = int |u0|^(a+1)/(a+1) + dispersive term, where for alpha >= 2 the
    dispersive term uses the cubed-gradient form
    (a(a-1)/2) delta int int sgn(u)|u|^(a-2) sum_j (d_j u)^3.
    """
    if alpha < 1:
        raise ValueError("alpha must be >= 1")
    use_cubed = alpha >= 2

    a = float(alpha)
    u_t = traj.final()
    u_0 = traj.fields[0]
    vol_term = lambda f: np.abs(f.values) ** (a + 1.0) / (a + 1.0)
    lhs_mass = float(np.sum(vol_term(u_t))) * traj.grid.cell_volume
    rhs_mass = float(np.sum(vol_term(u_0))) * traj.grid.cell_volume
    grid = traj.grid

    def sums(u):
        grad = _grad(u, grid)
        diss = np.abs(u) ** (a - 1.0) * _dissipation_density(grad, diff)
        if use_cubed:
            disp = np.sign(u) * np.abs(u) ** (a - 2.0) * np.sum(
                grad * grad * grad, axis=0)
        else:
            disp = np.abs(u) ** (a - 1.0) * sum(
                _diff_centered(g**2, ax, grid.dx)
                for ax, g in zip(range(-grid.dim, 0), grad))
        return np.stack([_cell_sums(diss), _cell_sums(disp)], axis=1)

    diss, disp = map(float, spacetime_integral(traj, sums))
    dispersive = (0.5 * a * (a - 1.0) if use_cubed else -0.5 * a) * delta * disp
    lhs = lhs_mass + a * eps * diss
    rhs = rhs_mass + dispersive
    return {
        "lhs_terms": {"mass": lhs_mass, "dissipation": a * eps * diss},
        "dispersive_term": dispersive,
        "rhs_mass": rhs_mass,
        "imbalance": lhs - rhs,
    }


# ---------------------------------------------------------------------------
# a-priori L^p machinery


def hn_bound(r: float, n: int, u0_norms: Sequence[float], t: float,
             delta_ratio: float) -> float:
    """Recursive bound H_n on the L^(n(r-1)+2) energy of the solution.

    u0_norms[k] is the L^(k(r-1)+2) norm of the initial data, needed for
    every level up to n, and delta_ratio is the coupling
    delta * eps^(-3/(r+1)).  H_0 is the squared L^2 norm of the data; each
    level wraps the previous one with the coupling factor
    (1 + delta_ratio * max{1, [...]^((r-2)/3)}).  The generic constant of
    the estimates is taken as 1.
    """
    if r < 2:
        raise ValueError("the recursion requires r >= 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    if len(u0_norms) < n + 1:
        raise ValueError(f"need {n + 1} initial norms, got {len(u0_norms)}")
    if any(v < 0 for v in u0_norms):
        raise ValueError("norms must be nonnegative")
    dr = delta_ratio
    e3 = 3.0 / (r + 1.0)

    h_prev = u0_norms[0] ** 2
    for k in range(1, n + 1):
        pk = k * (r - 1.0) + 2.0
        pk_prev = (k - 1) * (r - 1.0) + 2.0
        combinatorial = (
            pk / pk_prev**e3
            * (pk - 1.0) / (pk_prev - 1.0) ** e3
            * k * (r - 1.0) / 2.0
        )
        ck = max(u0_norms[k] ** pk, combinatorial * h_prev ** e3)
        h_prev = ck * (1.0 + dr * max(1.0, (t * ck * (1.0 + dr)) ** ((r - 2.0) / 3.0)))
    return h_prev


def bootstrap_bound(k: float, delta_ratio: float, theta: float, r: float) -> float:
    """Closed-form consequence of X <= K (1 + Delta X^(theta/(r+1))):
    X <= max{1, [K(1+Delta)]^((r+1)/(r+1-theta))}."""
    if not 0 <= theta < r + 1:
        raise ValueError("need 0 <= theta < r+1")
    return max(1.0, (k * (1.0 + delta_ratio)) ** ((r + 1.0) / (r + 1.0 - theta)))


def h_regularity_check(traj: Trajectory, eps: float, r: float,
                       delta: float = 0.0) -> dict:
    """Weighted gradient/Hessian energies and the intermediate L^p budget.

    grad_term   = eps^((r+3)/(r+1)) * max_t int |grad u(t)|^2
    hessian_term= eps^(2(r+2)/(r+1)) * int int |D^2 u|^2
    lp_term     = max_t int |u(t)|^(2+(r-1)/r)
    mixed_term  = eps * int int |u|^((r-1)/r) |grad u|^(r+1)
    lp_factor   = 1 + delta^((r+1)/r) * eps^(-(r+3)/r)
    """
    if r < 1:
        raise ValueError("requires r >= 1")
    w_grad = eps ** ((r + 3.0) / (r + 1.0))
    w_hess = eps ** (2.0 * (r + 2.0) / (r + 1.0))
    p_mid = 2.0 + (r - 1.0) / r
    grid = traj.grid
    peaks = []     # cell sums of |grad u|^2 and |u|^p_mid, a row per sample

    def sums(u):
        grad = _grad(u, grid)
        mag = _grad_mag(grad)
        peaks.append(np.stack([_cell_sums(mag**2),
                               _cell_sums(np.abs(u) ** p_mid)], axis=1))
        # each component's Hessian row is summed with the sample axis first
        hess = sum(_cell_sums(np.swapaxes(_grad(g, grid) ** 2, 0, 1)) for g in grad)
        return np.stack([hess, _cell_sums(np.abs(u) ** ((r - 1.0) / r)
                                          * mag ** (r + 1.0))], axis=1)

    # no time factor, so every sample is read and enters peaks
    hess_int, mixed = map(float, spacetime_integral(traj, sums))
    grad_sq_max, lp_max = map(float, np.max(np.concatenate(peaks), axis=0)
                              * grid.cell_volume)
    lp_factor = 1.0 + abs(delta) ** ((r + 1.0) / r) * eps ** (-(r + 3.0) / r) \
        if eps > 0 else np.inf
    return {
        "grad_term": w_grad * grad_sq_max,
        "hessian_term": w_hess * hess_int,
        "lp_term": lp_max,
        "mixed_term": eps * mixed,
        "lp_factor": lp_factor,
    }


# ---------------------------------------------------------------------------
# entropy production


@dataclass(frozen=True)
class EntropyProductionReport:
    mu1: float
    mu2: float
    mu3: float


def entropy_production(traj: Trajectory, pair: EntropyPair, theta: TestFunction,
                       eps: float, delta: float,
                       diff: DiffusionSpec) -> EntropyProductionReport:
    """Pair the three production terms of the entropy identity with theta.

    mu1: the eps-divergence flux term, integrated by parts onto grad theta.
    mu2: -eps int int theta eta''(u) grad u . b(grad u)  (<= 0 for convex eta).
    mu3: the delta-terms with all derivatives of theta analytic.
    """
    if pair.eta_third is None:
        raise ValueError("entropy_production needs the pair's eta_third")
    grid = traj.grid
    box = theta.support(grid)
    x0 = _on(theta.space(grid), box)
    x1 = [_on(theta.space(grid, ax, 1), box) for ax in range(grid.dim)]
    x2 = [_on(theta.space(grid, ax, 2), box) for ax in range(grid.dim)]
    # the box plus one halo cell per side, modulo n, for the gradient
    halo = np.ix_(*(np.arange(s.start - 1, s.stop + 1) % grid.n for s in box))
    inner = (...,) + (slice(1, -1),) * grid.dim   # box within its halo

    def sums(block):
        grad, u = _grad(block, grid)[inner], block[inner]
        b = np.asarray(diff.eval(grad))
        etap, etapp = pair.eta_prime(u), pair.eta_second(u)
        mu1 = -sum(_pair(etap * b[ax], x1[ax]) for ax in range(grid.dim))
        mu2 = -_pair(etapp * np.sum(grad * b, axis=0), x0)
        # the cube as a product: pow takes ~70x as long on a negative base
        mu3 = _pair(pair.eta_third(u) * np.sum(grad * grad * grad, axis=0), x0) + sum(
            _pair(3.0 * etapp * du**2, x1[ax]) + _pair(2.0 * etap * du, x2[ax])
            for ax, du in enumerate(grad))
        return np.stack([eps * mu1, eps * mu2, 0.5 * delta * mu3], axis=1)

    # with no sample inside theta's time support the integral is the scalar 0
    mu1, mu2, mu3 = map(float, np.broadcast_to(spacetime_integral(
        traj, sums, theta.time(traj.times), halo), 3))
    return EntropyProductionReport(mu1=mu1, mu2=mu2, mu3=mu3)


# Student's t_0.975 for nu = 1..10; a fit through n > 12 points uses nu = 10's
_T975 = (12.7062, 4.3027, 3.1824, 2.7764, 2.5706, 2.4469, 2.3646, 2.3060,
         2.2622, 2.2281)


def loglog_fit(eps, values) -> Optional[dict]:
    """Least-squares slope of log|value| against log eps, with its 95%
    Student-t half-width from three points on; None unless the kept points
    have at least two distinct eps (no slope exists without spread in log eps).

    Values below 1e-14 in magnitude are numerically zero and excluded.
    """
    eps = np.asarray(eps, dtype=float)
    vals = np.abs(np.asarray(values, dtype=float))
    keep = np.isfinite(vals) & (vals > 1e-14) & (eps > 0)
    if np.sum(keep) < 2 or np.min(eps[keep]) == np.max(eps[keep]):
        return None
    x, y = np.log(eps[keep]), np.log(vals[keep])
    if len(x) == 2:  # an exact fit: nu = n - 2 = 0 leaves no interval
        return {"slope": float(np.polyfit(x, y, 1)[0]), "ci95": None}
    coef, cov = np.polyfit(x, y, 1, cov=True)
    return {"slope": float(coef[0]),
            "ci95": float(_T975[min(len(x) - 2, 10) - 1] * np.sqrt(cov[0, 0]))}


# ---------------------------------------------------------------------------
# Kruzkov residual and weak-limit diagnostics


def kruzkov_residual(traj: Trajectory, flux: FluxSpec, k: float, rho: float,
                     theta: TestFunction) -> float:
    """Pairing of the smoothed |u-k| entropy residual with theta, the weak
    form on [0, T], T the last sample time:

        int eta_rho(u(T)) theta(T) dx - int eta_rho(u(0)) theta(0) dx
        - int int [ eta_rho(u) dtheta/dt + q_rho(u) sum_j d_j theta ] dx dt.

    An end term is read only where theta is not zero at that end.
    Nonpositive (up to discretization and O(rho) smoothing slack) for
    entropy-dissipating solutions; persistently positive on oscillatory
    dispersive runs.
    """
    eta, eta_p, _ = kruzkov_entropy(k, rho)
    factor = -np.stack([theta.time(traj.times, 1), theta.time(traj.times)], axis=1)
    # the q table spans every cell of the samples the time quadrature reads,
    # and only them; spanning theta's support alone would move its nodes
    read = [traj.fields[i].values for i in spacetime_weights(traj.times, factor)[1]]
    q_fun = antiderivative(lambda v: eta_p(v) * np.asarray(flux.deriv(v)),
                           min((float(np.min(u)) for u in read), default=0.0),
                           max((float(np.max(u)) for u in read), default=0.0),
                           n=8192)
    grid = traj.grid
    box = theta.support(grid)
    x0 = _on(theta.space(grid), box)
    x1 = [_on(theta.space(grid, ax, 1), box) for ax in range(grid.dim)]

    def sums(u):
        q = q_fun(u)
        return np.stack([_pair(eta(u), x0), sum(_pair(q, x) for x in x1)], axis=1)

    out = float(np.sum(spacetime_integral(traj, sums, factor, box)))
    ends = theta.time([traj.times[0], traj.times[-1]]) * [-1.0, 1.0]
    for i, w in zip((0, -1), ends.tolist()):
        if w:
            u = traj.fields[i].values[box]
            out += w * float(_pair(eta(u), x0)) * grid.cell_volume
    return out


@dataclass(frozen=True)
class Window:
    """Axis-aligned space-time box for sample pooling; both ends of every
    interval are inside."""

    space: tuple   # ((lo, hi), ...) one pair per axis
    t: tuple       # (lo, hi)

    def cells(self, grid) -> np.ndarray:
        """Mask of the grid's cells whose centres lie in the window, which
        does not wrap around the periodic seam."""
        coords = grid.meshgrid()
        mask = np.ones(grid.shape, dtype=bool)
        for ax, (lo, hi) in enumerate(self.space):
            mask &= (coords[ax] >= lo) & (coords[ax] <= hi)
        return mask

    def samples(self, times) -> list:
        """Indices of the times that lie in the window, up to rounding."""
        return [i for i, t in enumerate(times) if _holds(*self.t, t)]


def window_samples(traj: Trajectory, window: Window) -> np.ndarray:
    """Every value of u in the window's cells at the window's sample times,
    time by time; empty when the window holds no cell or no sample."""
    mask = window.cells(traj.grid)
    vals = [traj.fields[i].values[mask] for i in window.samples(traj.times)]
    return np.concatenate(vals) if vals else np.empty(0)


@dataclass(frozen=True)
class YoungHistogram:
    concentration_score: float
    n_samples: int


def young_histogram(runs: Sequence[Trajectory], window: Window) -> YoungHistogram:
    """Variance of u over a window, pooled across the finest half of the
    runs by (epsilon, delta).  On a strongly converging ladder it tends to
    the limit's own variance over the window, not to zero.
    """
    if len(runs) < 3:
        raise ValueError("need at least 3 runs")
    ordered = sorted(
        runs,
        key=lambda tr: (tr.params.get("epsilon", 0.0), tr.params.get("delta", 0.0)),
        reverse=True,
    )
    pooled = []
    for tr in ordered[-math.ceil(len(ordered) / 2):]:
        vals = window_samples(tr, window)
        if not vals.size:
            raise ValueError("window contains no grid cells or no time samples")
        pooled.append(vals)
    pooled = np.concatenate(pooled)
    return YoungHistogram(concentration_score=float(np.var(pooled)),
                          n_samples=int(pooled.size))


# ---------------------------------------------------------------------------
# CSV report rows


def append_diagnostic_rows(path, rows):
    """Append (diag, name, param, value, holds) rows to a run's CSV report."""
    import os

    new = not os.path.exists(path)
    with open(path, "a", newline="") as fh:
        if new:
            fh.write("diag,name,param,value,holds\n")
        for diag, name, param, value, holds in rows:
            fh.write(f"{diag},{name},{param},{value!r},{int(bool(holds))}\n")
