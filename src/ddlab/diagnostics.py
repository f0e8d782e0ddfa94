"""Quantitative checks of the regularized equation's energy identities,
a-priori norm bounds, entropy-production decomposition, and oscillation
(weak-limit) diagnostics.

All distributional pairings move derivatives onto an analytic test function;
the only discrete derivative entering a pairing is grad u itself where it
appears explicitly in the production terms.  A test function is a product
X(x) T(t) of per-axis bumps, so every pairing is separable: the space
factors are evaluated once on the grid's axes, T and its derivative become
weights of the one time quadrature (``grids.spacetime_integral``), and each
sample is read once, its gradient taken once and contracted with the space
factors.
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
    "HnBoundParams",
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

    def time(self, times, order: int = 0) -> np.ndarray:
        """T or its order-th derivative at each of ``times``."""
        s = (np.asarray(times, dtype=float) - self.t_center) / self.t_radius
        return _bump(s, order) / self.t_radius**order


def bump_over(center, t_center, radius, t_radius, dim: int = 1) -> TestFunction:
    """Convenience constructor: a scalar center or radius is repeated on
    each of the dim axes."""
    center = tuple(np.atleast_1d(center).astype(float)) if np.ndim(center) else \
        (float(center),) * dim
    radius = tuple(np.atleast_1d(radius).astype(float))
    if len(radius) != len(center):
        radius = (radius[0],) * len(center)
    return TestFunction(center=center, t_center=float(t_center),
                        radius=radius, t_radius=float(t_radius))


# ---------------------------------------------------------------------------
# helpers


def sample_index(traj: Trajectory, t: float) -> int:
    """Index of the stored sample at time t, which must leave at least two
    samples from t = 0 on."""
    times = np.asarray(traj.times)
    idx = np.where(times <= t + 1e-12 * max(t, 1.0))[0]
    if len(idx) < 2:
        raise ValueError(f"t={t} leaves fewer than two samples")
    if abs(times[idx[-1]] - t) > 1e-9 * max(t, 1.0):
        raise ValueError(f"t={t} is not a stored sample time")
    return int(idx[-1])


def _pair(values: np.ndarray, factors: list):
    """Cell sum of values times the product of per-axis factors."""
    for x in reversed(factors):
        values = values @ x
    return values


def _dissipation_density(grad: np.ndarray, diff: DiffusionSpec) -> np.ndarray:
    """Pointwise grad u . b(grad u)."""
    return np.sum(grad * np.asarray(diff.eval(grad)), axis=0)


def _grad_mag(grad: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(grad**2, axis=0))


# ---------------------------------------------------------------------------
# energy identities and norm budgets


def energy_balance_residual(traj: Trajectory, diff: DiffusionSpec,
                            eps: float, t: float) -> float:
    """Residual of the quadratic energy balance at time t:

        ||u(t)||_2^2 + 2 eps int_0^t int grad u . b(grad u) - ||u0||_2^2.

    Vanishes under refinement; the dispersive term integrates away on the
    periodic box.
    """
    last = sample_index(traj, t)
    dx = traj.grid.dx
    dissipation = spacetime_integral(
        traj, lambda u: np.sum(_dissipation_density(_grad(u, dx), diff)),
        last=last)
    return (lp_norm(traj.fields[last], 2) ** 2
            + 2.0 * eps * dissipation
            - lp_norm(traj.fields[0], 2) ** 2)


def gradient_budget(traj: Trajectory, diff: DiffusionSpec, eps: float,
                    u0_l2: float) -> dict:
    """Check eps int int |grad u|^(r+1) <= ||u0||_2^2 / (2 c2)."""
    dx = traj.grid.dx
    lhs = eps * spacetime_integral(
        traj, lambda u: np.sum(_grad_mag(_grad(u, dx)) ** (diff.r + 1.0)))
    bound = u0_l2**2 / (2.0 * diff.c2)
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
    dx = traj.grid.dx

    def sums(u):
        grad = _grad(u, dx)
        diss = np.abs(u) ** (a - 1.0) * _dissipation_density(grad, diff)
        if use_cubed:
            disp = np.sign(u) * np.abs(u) ** (a - 2.0) * np.sum(grad**3, axis=0)
        else:
            disp = np.abs(u) ** (a - 1.0) * sum(
                _diff_centered(g**2, ax, dx) for ax, g in enumerate(grad))
        return np.array([np.sum(diss), np.sum(disp)])

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


@dataclass(frozen=True)
class HnBoundParams:
    """Inputs of the recursive a-priori L^p bound.

    u0_norms[k] is the L^(k(r-1)+2) norm of the initial data, needed for
    every level up to n.  delta_ratio is the coupling delta * eps^(-3/(r+1)).
    """

    r: float
    n: int
    u0_norms: Sequence[float]
    t: float
    delta_ratio: float

    def __post_init__(self):
        if self.r < 2:
            raise ValueError("the recursion requires r >= 2")
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if len(self.u0_norms) < self.n + 1:
            raise ValueError(f"need {self.n + 1} initial norms, "
                             f"got {len(self.u0_norms)}")
        if any(v < 0 for v in self.u0_norms):
            raise ValueError("norms must be nonnegative")


def hn_bound(p: HnBoundParams) -> float:
    """Recursive bound H_n on the L^(n(r-1)+2) energy of the solution.

    H_0 is the squared L^2 norm of the data; each level wraps the previous
    one with the coupling factor (1 + delta_ratio * max{1, [...]^((r-2)/3)}).
    The generic constant of the estimates is taken as 1.
    """
    r, dr, t = p.r, p.delta_ratio, p.t
    e3 = 3.0 / (r + 1.0)

    h_prev = p.u0_norms[0] ** 2
    if p.n == 0:
        return h_prev
    for k in range(1, p.n + 1):
        pk = k * (r - 1.0) + 2.0
        pk_prev = (k - 1) * (r - 1.0) + 2.0
        combinatorial = (
            pk / pk_prev**e3
            * (pk - 1.0) / (pk_prev - 1.0) ** e3
            * k * (r - 1.0) / 2.0
        )
        ck = max(p.u0_norms[k] ** pk, combinatorial * h_prev ** e3)
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
    dx = traj.grid.dx
    peaks = []     # cell sums of |grad u|^2 and |u|^p_mid, sample by sample

    def sums(u):
        grad = _grad(u, dx)
        mag = _grad_mag(grad)
        peaks.append((np.sum(mag**2), np.sum(np.abs(u) ** p_mid)))
        hess = sum(np.sum(_grad(g, dx) ** 2) for g in grad)
        return np.array([hess, np.sum(np.abs(u) ** ((r - 1.0) / r)
                                      * mag ** (r + 1.0))])

    # no time factor, so every sample is read and enters peaks
    hess_int, mixed = map(float, spacetime_integral(traj, sums))
    grad_sq_max, lp_max = map(float, np.max(peaks, axis=0) * traj.grid.cell_volume)
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
    x0 = theta.space(grid)
    x1 = [theta.space(grid, ax, 1) for ax in range(grid.dim)]
    x2 = [theta.space(grid, ax, 2) for ax in range(grid.dim)]

    def sums(u):
        grad = _grad(u, grid.dx)
        b = np.asarray(diff.eval(grad))
        etap, etapp = pair.eta_prime(u), pair.eta_second(u)
        mu1 = -sum(_pair(etap * b[ax], x1[ax]) for ax in range(grid.dim))
        mu2 = -_pair(etapp * np.sum(grad * b, axis=0), x0)
        mu3 = _pair(pair.eta_third(u) * np.sum(grad**3, axis=0), x0) + sum(
            _pair(3.0 * etapp * du**2, x1[ax]) + _pair(2.0 * etap * du, x2[ax])
            for ax, du in enumerate(grad))
        return np.array([eps * mu1, eps * mu2, 0.5 * delta * mu3])

    # with no sample inside theta's time support the integral is the scalar 0
    mu1, mu2, mu3 = map(float, np.broadcast_to(
        spacetime_integral(traj, sums, theta.time(traj.times)), 3))
    return EntropyProductionReport(mu1=mu1, mu2=mu2, mu3=mu3)


def loglog_fit(eps, values) -> Optional[dict]:
    """Least-squares slope of log|value| against log eps, with its 95%
    half-width from three points on; None unless the kept points have at
    least two distinct eps (no slope exists without spread in log eps).

    Values below 1e-14 in magnitude are numerically zero and excluded.
    """
    eps = np.asarray(eps, dtype=float)
    vals = np.abs(np.asarray(values, dtype=float))
    keep = np.isfinite(vals) & (vals > 1e-14) & (eps > 0)
    if np.sum(keep) < 2 or np.min(eps[keep]) == np.max(eps[keep]):
        return None
    x = np.log(eps[keep])
    y = np.log(vals[keep])
    coef, cov = np.polyfit(x, y, 1, cov=True) if np.sum(keep) > 2 else \
        (np.polyfit(x, y, 1), np.full((2, 2), np.nan))
    return {"slope": float(coef[0]),
            "ci95": float(2.0 * np.sqrt(cov[0, 0])) if np.isfinite(cov[0, 0])
            else None}


# ---------------------------------------------------------------------------
# Kruzkov residual and weak-limit diagnostics


def kruzkov_residual(traj: Trajectory, flux: FluxSpec, k: float, rho: float,
                     theta: TestFunction) -> float:
    """Pairing of the smoothed |u-k| entropy residual with theta:

        - int int [ eta_rho(u) dtheta/dt + q_rho(u) sum_j d_j theta ] dx dt.

    Nonpositive (up to discretization and O(rho) smoothing slack) for
    entropy-dissipating solutions; persistently positive on oscillatory
    dispersive runs.
    """
    eta, eta_p, _ = kruzkov_entropy(k, rho)
    factor = -np.stack([theta.time(traj.times, 1), theta.time(traj.times)], axis=1)
    # the q table spans the samples the time quadrature reads, and only them
    read = [traj.fields[i].values for i in spacetime_weights(traj.times, factor)[1]]
    q_fun = antiderivative(lambda v: eta_p(v) * np.asarray(flux.deriv(v)),
                           min((float(np.min(u)) for u in read), default=0.0),
                           max((float(np.max(u)) for u in read), default=0.0),
                           n=8192)
    grid = traj.grid
    x0 = theta.space(grid)
    x1 = [theta.space(grid, ax, 1) for ax in range(grid.dim)]

    def sums(u):
        q = q_fun(u)
        return np.array([_pair(eta(u), x0), sum(_pair(q, x) for x in x1)])

    return float(np.sum(spacetime_integral(traj, sums, factor)))


@dataclass(frozen=True)
class Window:
    """Axis-aligned space-time box for sample pooling; both ends of every
    interval are inside."""

    space: tuple   # ((lo, hi), ...) one pair per axis
    t: tuple       # (lo, hi)

    def cells(self, grid) -> np.ndarray:
        """Mask of the grid's cells whose centres lie in the window."""
        coords = grid.meshgrid()
        mask = np.ones(grid.shape, dtype=bool)
        for ax, (lo, hi) in enumerate(self.space):
            mask &= (coords[ax] >= lo) & (coords[ax] <= hi)
        return mask

    def samples(self, times) -> list:
        """Indices of the times that lie in the window."""
        return [i for i, t in enumerate(times) if self.t[0] <= t <= self.t[1]]


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
