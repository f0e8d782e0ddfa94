"""Test oracles: the centered divergence, wide Laplacian and third
derivative written as stencils, which the tests compare against the Fourier
symbols the solver applies; diagonal 2-d data, which reduces a 2-d run to a
1-d one; the exact Riemann solution of the quadratic flux; the
KdV-Burgers travelling wave, exact with eps, delta and convection on; a
literal Kassam-Trefethen ETDRK4 step, which every row of the solver's
stacked step must match bit for bit; sampling checks of the presets'
hypotheses (H1)-(H3), whose constants the caller states; the snapshot CSV
written one cell at a time, whose bytes the snapshot writer must reproduce;
and Student's t distribution function, integrated from its density, which
checks the quantiles of the slope intervals."""

import math

import numpy as np

from ddlab import solver
from ddlab.grids import Field, GridSpec, _diff_centered, gradient, \
    stencil_symbols
from ddlab.model import DiffusionSpec, FluxSpec


def divergence(components: list) -> Field:
    """Centered divergence of a vector of Fields sharing one grid."""
    grid = components[0].grid
    for c in components[1:]:
        if c.grid != grid:
            raise ValueError("divergence components must share a grid")
    if len(components) != grid.dim:
        raise ValueError(f"expected {grid.dim} components, got {len(components)}")
    out = np.zeros(grid.shape)
    for ax, c in enumerate(components):
        out += _diff_centered(c.values, ax, grid.dx)
    return Field(grid, out)


def laplacian(f: Field) -> Field:
    """divergence(gradient(u)): the wide 5-point stencil with spacing 2dx."""
    return divergence(gradient(f))


def third_derivative_axis(f: Field, axis: int = 0) -> Field:
    """Centered third derivative along one axis:
    (u_{i+2} - 2 u_{i+1} + 2 u_{i-1} - u_{i-2}) / (2 dx^3), second order."""
    u = f.values
    dx3 = f.grid.dx**3
    out = (
        np.roll(u, -2, axis=axis)
        - 2.0 * np.roll(u, -1, axis=axis)
        + 2.0 * np.roll(u, 1, axis=axis)
        - np.roll(u, 2, axis=axis)
    ) / (2.0 * dx3)
    return Field(f.grid, out)


def diagonal(w: Field) -> Field:
    """The 2-d field u_ij = w_((i+j) mod n) of 1-d data w.

    Every centred stencil along x or along y acts on it as the 1-d stencil
    along the index i + j, so the 2-d law moves it as the 1-d law does with
    twice the flux, diffusion and dispersion: the 2-d evolution to T is the
    diagonal field of the 1-d evolution of w to 2T.
    """
    n = w.grid.n
    index = np.add.outer(np.arange(n), np.arange(n)) % n
    return Field(GridSpec(n=n, length=w.grid.length, dim=2), w.values[index])


def burgers_riemann_exact(u_left: float, u_right: float, x_over_t):
    """Self-similar entropy solution of the Riemann problem for f = u^2/2."""
    xi = np.asarray(x_over_t, dtype=float)
    if u_left == u_right:
        out = np.full(xi.shape, u_left)
    elif u_left > u_right:
        s = 0.5 * (u_left + u_right)
        out = np.where(xi < s, u_left, u_right)
    else:
        out = np.clip(xi, u_left, u_right)
    return float(out[()]) if out.ndim == 0 else out


def kdv_burgers_kink(eps: float, xi):
    """The travelling wave U(x - t/2) of u_t + (u^2/2)_x = eps u_xx
    + delta u_xxx from 1 down to 0 at delta = (12/25) eps^2, the unit jump's
    dispersion (Malfliet, Am. J. Phys. 60, 1992):
    U(xi) = 1 / (1 + exp(2 k xi))^2 with k = eps / (10 delta), written
    through tanh so that no exponential overflows."""
    k = eps / (10.0 * (12.0 / 25.0) * eps**2)
    return (0.5 - 0.5 * np.tanh(k * np.asarray(xi, dtype=float))) ** 2


def _kt_spectrum(u, grid):
    return np.fft.rfftn(u, axes=tuple(range(-grid.dim, 0)))


def _kt_values(v, grid):
    return np.fft.irfftn(v, s=grid.shape, axes=tuple(range(-grid.dim, 0)))


def _kt_symbols(grid, p, S):
    """D1 per axis, their sum div, and the linear symbol
    L = delta sum_j D3_j + eps S times the wide Laplacian."""
    d1, lap, d3 = stencil_symbols(grid)
    L = p.delta * np.sum(d3, axis=0) + p.epsilon * S * lap
    return d1, np.sum(d1, axis=0), L


def _kt_nonlinear(v, u, grid, p, S):
    """-div f(u) + eps div (b(grad u) - S grad u); the diffusion remainder
    is zero, and skipped, for diffusion declared linear (S = 1)."""
    d1, div, _ = _kt_symbols(grid, p, S)
    out = -div * _kt_spectrum(np.asarray(p.flux.eval(u)), grid)
    if p.epsilon != 0.0 and not p.diffusion.linear:
        grad = _kt_values(d1 * v, grid)
        b = np.asarray(p.diffusion.eval(grad)) - S * grad
        out += p.epsilon * np.sum(d1 * _kt_spectrum(b, grid), axis=0)
    return out


def etdrk4_step(v, u, h, grid, p, S):
    """One ETDRK4 step of the spectrum v of u, with eps S times the wide
    Laplacian in the linear part and the Kassam-Trefethen stages written out
    literally: rfftn/irfftn over the spatial axes, the symbols built at
    every stage, -div applied at every stage, and the solver's coefficient
    set.  Takes one row of solver._step_arr's stack.  S = 0 is the scheme
    with nonlinear diffusion wholly explicit."""
    E, E2, Q, f1, f2, f3 = solver._etd_coefficients(grid, p, h, S)
    Nv = _kt_nonlinear(v, u, grid, p, S)
    a = E2 * v + Q * Nv
    Na = _kt_nonlinear(a, _kt_values(a, grid), grid, p, S)
    b = E2 * v + Q * Na
    Nb = _kt_nonlinear(b, _kt_values(b, grid), grid, p, S)
    c = E2 * a + Q * (2.0 * Nb - Nv)
    Nc = _kt_nonlinear(c, _kt_values(c, grid), grid, p, S)
    return E * v + f1 * Nv + 2.0 * f2 * (Na + Nb) + f3 * Nc


def etdrk4_rows(v, u, grid, k):
    """solver._step_arr with each row of the stack stepped alone by
    etdrk4_step, at its own (p, h, S) of k.rows."""
    return np.stack([etdrk4_step(v[i], u[i], h, grid, p, S)
                     for i, (p, h, S) in enumerate(k.rows)])


def etdrk4_step_values(u: Field, h: float, p, S: float) -> np.ndarray:
    """The values of u after one etdrk4_step of h at the stabilizer S."""
    g = u.grid
    return _kt_values(
        etdrk4_step(_kt_spectrum(u.values, g), u.values, h, g, p, S), g)


def check_growth_H1(flux: FluxSpec, c1: float, c1p: float,
                    u_range=(-10.0, 10.0), n_samples: int = 256) -> dict:
    """Check |f'(u)| <= c1 + c1p |u|^(m-1) on sampled u.

    Returns {holds, worst_ratio, witness}.  For m < 1 the bound blows up at
    u=0 and holds trivially there.
    """
    if n_samples < 16:
        raise ValueError("need at least 16 samples")
    u = np.linspace(u_range[0], u_range[1], n_samples)
    mag = np.abs(np.asarray(flux.deriv(u)))
    with np.errstate(divide="ignore"):
        bound = c1 + c1p * np.abs(u) ** (flux.m - 1)
    ratio = np.where(np.isinf(bound), 0.0, mag / bound)
    i = int(np.argmax(ratio))
    return {
        "holds": bool(ratio[i] <= 1.0 + 1e-12),
        "worst_ratio": float(ratio[i]),
        "witness": float(u[i]),
    }


def check_coercivity_H2(diff: DiffusionSpec, lambda_samples, c3: float) -> dict:
    """Check c2 <= l.b(l)/|l|^(r+1) <= c3 on the sampled gradient vectors,
    with the declared ``diff.c2``."""
    worst_lower = np.inf
    worst_upper = -np.inf
    holds = True
    for lam in lambda_samples:
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        mag = np.linalg.norm(lam)
        if mag == 0.0:
            continue
        dot = float(np.dot(lam, np.atleast_1d(diff.eval(lam))))
        if dot < 0:
            return {"holds": False, "worst_lower": dot, "worst_upper": dot,
                    "anti_dissipative": True}
        ratio = dot / mag ** (diff.r + 1)
        worst_lower = min(worst_lower, ratio)
        worst_upper = max(worst_upper, ratio)
        if ratio < diff.c2 - 1e-12 or ratio > c3 + 1e-12:
            holds = False
    return {"holds": holds, "worst_lower": float(worst_lower),
            "worst_upper": float(worst_upper), "anti_dissipative": False}


# central-difference step, relative to max(1, |l|), and the slack granted to
# a difference quotient of Db against the uniform constant (see check_H3)
H3_STEP = 1e-6
H3_TOL = 1e-8


def check_H3(diff: DiffusionSpec, lambda_samples, probe_vectors,
             constant: float) -> dict:
    """Probe (H3), v . Db(l) v >= constant for unit v, on the samples.

    Db is never declared: v . Db v is v dotted with the central difference
    of ``diff.eval`` along v, with step H3_STEP * max(1, |l|).  That quotient
    is exact for b linear or quadratic along the step, up to rounding of
    about 1e-16 |b| / step, so on samples with |l| of order 1 it errs by
    about 1e-10, well inside H3_TOL.  holds also needs ``claims_h3``.
    """
    min_proxy = np.inf
    for lam in lambda_samples:
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        h = H3_STEP * max(1.0, float(np.linalg.norm(lam)))
        for v in probe_vectors:
            v = np.atleast_1d(np.asarray(v, dtype=float))
            if abs(np.linalg.norm(v) - 1.0) > 1e-10:
                raise ValueError("probe vectors must be unit vectors")
            db_v = (np.asarray(diff.eval(lam + h * v))
                    - np.asarray(diff.eval(lam - h * v))) / (2.0 * h)
            min_proxy = min(min_proxy, float(v @ db_v))
    return {
        "min_eigen_proxy": float(min_proxy),
        "holds": bool(diff.claims_h3 and min_proxy >= constant - H3_TOL),
    }


def write_snapshot_csv_literal(f: Field, path):
    """The snapshot CSV, one row per cell in C order: the cell's center
    coordinates and its value, each as %r, joined by commas."""
    columns = [a.ravel().tolist() for a in (*f.grid.meshgrid(), f.values)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join("xy"[:f.grid.dim]) + ",u\n")
        for row in zip(*columns):
            fh.write(",".join("%r" % c for c in row) + "\n")


def student_t_cdf(t: float, nu: int, points: int = 200001) -> float:
    """P(T <= t) for Student's t with nu degrees of freedom, t >= 0: one
    half plus the trapezoid integral of the density over [0, t]."""
    c = math.exp(math.lgamma((nu + 1) / 2) - math.lgamma(nu / 2)) \
        / math.sqrt(nu * math.pi)
    x = np.linspace(0.0, t, points)
    f = c * (1.0 + x * x / nu) ** (-(nu + 1) / 2)
    return 0.5 + float(np.sum(f[1:] + f[:-1])) * (x[1] - x[0]) / 2.0
