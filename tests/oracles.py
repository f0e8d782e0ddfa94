"""Test oracles: the centered divergence, wide Laplacian and third
derivative written as stencils, which the tests compare against the Fourier
symbols the solver applies, and sampling checks of the presets' declared
hypotheses (H1)-(H3)."""

import numpy as np

from ddlab.grids import Field, _diff_centered, gradient
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


def check_growth_H1(flux: FluxSpec, u_range=(-10.0, 10.0), n_samples: int = 256) -> dict:
    """Check |f'(u)| <= c1 + c1p |u|^(m-1) on sampled u.

    Returns {holds, worst_ratio, witness}.  For m < 1 the bound blows up at
    u=0 and holds trivially there.
    """
    if n_samples < 16:
        raise ValueError("need at least 16 samples")
    u = np.linspace(u_range[0], u_range[1], n_samples)
    mag = np.abs(np.asarray(flux.deriv(u)))
    with np.errstate(divide="ignore"):
        bound = flux.c1 + flux.c1p * np.abs(u) ** (flux.m - 1)
    ratio = np.where(np.isinf(bound), 0.0, mag / bound)
    i = int(np.argmax(ratio))
    return {
        "holds": bool(ratio[i] <= 1.0 + 1e-12),
        "worst_ratio": float(ratio[i]),
        "witness": float(u[i]),
    }


def check_coercivity_H2(diff: DiffusionSpec, lambda_samples) -> dict:
    """Check c2 <= l.b(l)/|l|^(r+1) <= c3 on the sampled gradient vectors."""
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
        if ratio < diff.c2 - 1e-12 or ratio > diff.c3 + 1e-12:
            holds = False
    return {"holds": holds, "worst_lower": float(worst_lower),
            "worst_upper": float(worst_upper), "anti_dissipative": False}


def check_H3(diff: DiffusionSpec, lambda_samples, probe_vectors) -> dict:
    """Probe uniform positive-definiteness of sym(Db) along unit vectors."""
    min_proxy = np.inf
    for lam in lambda_samples:
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        J = np.atleast_2d(diff.jacobian(lam))
        S = 0.5 * (J + J.T)
        for v in probe_vectors:
            v = np.atleast_1d(np.asarray(v, dtype=float))
            if abs(np.linalg.norm(v) - 1.0) > 1e-10:
                raise ValueError("probe vectors must be unit vectors")
            min_proxy = min(min_proxy, float(v @ S @ v))
    return {
        "min_eigen_proxy": float(min_proxy),
        "holds": bool(diff.claims_h3 and min_proxy >= diff.h3_constant - 1e-12),
    }
