"""Continuous-problem definitions: fluxes, diffusions, entropy pairs,
and sampling-based checks of the structural hypotheses (H1)-(H3).

All callables are vectorized over numpy arrays.  A flux is one scalar
function f applied along every axis, so div f(u) = sum_j d_j f(u): its
evaluations return an array of the input's shape.  Diffusions map gradient
vectors (component axis first) to vectors of the same shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "FluxSpec",
    "DiffusionSpec",
    "EntropyPair",
    "antiderivative",
    "make_entropy_pair",
    "kruzkov_entropy",
    "check_growth_H1",
    "check_coercivity_H2",
    "check_H3",
    "burgers_flux",
    "advection_flux",
    "bounded_flux",
    "zero_flux",
    "linear_diffusion",
    "power_diffusion",
    "flux_preset",
    "diffusion_preset",
]


@dataclass(frozen=True)
class FluxSpec:
    """A scalar flux u -> f(u), applied along every axis, with its
    derivative and growth metadata.

    ``eval`` and ``deriv`` map an array of states to an array of the same
    shape.  ``m``, ``c1``, ``c1p`` declare the growth bound
    |f'(u)| <= c1 + c1p |u|^(m-1).  ``quadratic`` declares f(u) = u^2/2,
    which has closed-form oracles.
    """

    eval: Callable
    deriv: Callable
    m: float
    c1: float
    c1p: float
    name: str = "custom"
    quadratic: bool = False

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("growth exponent m must be >= 0")
        if self.c1 <= 0 or self.c1p <= 0:
            raise ValueError("growth constants must be positive")


@dataclass(frozen=True)
class DiffusionSpec:
    """A diffusion lambda -> b(lambda) with Jacobian and coercivity metadata.

    ``r``, ``c2``, ``c3`` declare the sandwich
    c2 |l|^(r+1) <= l . b(l) <= c3 |l|^(r+1); ``claims_h3`` marks uniform
    positive-definiteness of the Jacobian.  ``spectral_bound`` bounds the
    spectral radius of Db: a number when it holds for every gradient, a
    function of max |grad u| otherwise, None to probe the Jacobian.
    ``linear`` declares b(l) = l, which the solver integrates exactly.
    """

    eval: Callable
    jacobian: Callable
    r: float
    c2: float
    c3: float
    claims_h3: bool = False
    h3_constant: float = 0.0
    name: str = "custom"
    spectral_bound: float | Callable | None = None
    linear: bool = False

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("exponent r must be >= 0")
        if self.c2 <= 0 or self.c3 < self.c2:
            raise ValueError("need 0 < c2 <= c3")


@dataclass(frozen=True)
class EntropyPair:
    """Convex entropy eta with compatible flux q (q' = eta' f')."""

    eta: Callable
    eta_prime: Callable
    eta_second: Callable
    q: Callable
    eta_third: Callable | None = None


def antiderivative(g, lo: float, hi: float, n: int):
    """Q(u) = int_0^u g(v) dv as a vectorized callable, with Q(0) = 0.

    One table covers [min(lo, 0), max(hi, 0)] with n uniform panels that
    have 0 as a node: composite Simpson gives Q at the nodes, and between
    nodes Q is the cubic Hermite interpolant of Q and Q' = g.  Exact for
    quadratic g and for piecewise-linear g with kinks on nodes.  Just outside
    the range the end cubics extrapolate.
    """
    lo, hi = min(lo, 0.0), max(hi, 0.0)
    h = (hi - lo) / n or 1.0
    k_lo = math.floor(lo / h)
    nodes = h * np.arange(k_lo, max(math.ceil(hi / h), k_lo + 1) + 1)
    g_nodes = np.asarray(g(nodes), dtype=float)
    panels = h / 6.0 * (g_nodes[:-1] + 4.0 * np.asarray(g(nodes[:-1] + 0.5 * h))
                        + g_nodes[1:])
    q_nodes = np.concatenate([[0.0], np.cumsum(panels)])
    q_nodes -= q_nodes[-k_lo]

    def Q(u):
        t = np.asarray(u, dtype=float) / h - k_lo
        i = np.clip(np.floor(t).astype(int), 0, len(nodes) - 2)
        s = t - i
        return ((1.0 + 2.0 * s) * (1.0 - s) ** 2 * q_nodes[i]
                + s**2 * (3.0 - 2.0 * s) * q_nodes[i + 1]
                + h * s * (1.0 - s) * ((1.0 - s) * g_nodes[i] - s * g_nodes[i + 1]))

    return Q


def make_entropy_pair(eta, eta_prime, eta_second, flux: FluxSpec,
                      n_quad: int = 512, eta_third=None) -> EntropyPair:
    """Build an entropy pair with q(u) = int_0^u eta'(v) f'(v) dv.

    The flux q is anchored at q(0)=0 and computed by ``antiderivative`` with
    n_quad panels over the evaluated range.  Rejects eta that fails
    convexity on samples of [-2, 2].
    """
    if n_quad < 2:
        raise ValueError("n_quad must be >= 2")
    samples = np.linspace(-2.0, 2.0, 257)
    curv = np.asarray(eta_second(samples), dtype=float)
    bad = np.where(curv < -1e-12)[0]
    if bad.size:
        raise ValueError(
            f"eta is not convex on the sampled range: eta''({samples[bad[0]]:g}) "
            f"= {curv[bad[0]]:g}"
        )

    def q(u):
        u = np.asarray(u, dtype=float)
        lo, hi = float(np.min(u, initial=0.0)), float(np.max(u, initial=0.0))
        return antiderivative(lambda v: np.asarray(eta_prime(v)) *
                              np.asarray(flux.deriv(v)), lo, hi, n_quad)(u)

    return EntropyPair(eta=eta, eta_prime=eta_prime, eta_second=eta_second,
                       q=q, eta_third=eta_third)


def kruzkov_entropy(k: float, rho: float):
    """Smoothed |u - k| entropy: eta(u) = sqrt((u-k)^2 + rho^2) - rho.

    Returns (eta, eta', eta'') in closed form.  eta'' > 0 everywhere and
    eta -> |u-k| uniformly as rho -> 0.
    """
    if rho <= 0:
        raise ValueError("rho must be positive")

    def eta(u):
        return np.sqrt((np.asarray(u, dtype=float) - k) ** 2 + rho**2) - rho

    def eta_prime(u):
        w = np.asarray(u, dtype=float) - k
        return w / np.sqrt(w**2 + rho**2)

    def eta_second(u):
        w = np.asarray(u, dtype=float) - k
        return rho**2 / (w**2 + rho**2) ** 1.5

    return eta, eta_prime, eta_second


# ---------------------------------------------------------------------------
# hypothesis checks (sampling-based)


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


# ---------------------------------------------------------------------------
# built-in libraries


def burgers_flux() -> FluxSpec:
    """f(u) = u^2/2; m = 2."""
    def ev(u):
        return 0.5 * np.asarray(u, dtype=float) ** 2

    def dv(u):
        return np.asarray(u, dtype=float)

    return FluxSpec(eval=ev, deriv=dv, m=2.0, c1=1.0, c1p=1.0,
                    name="burgers", quadratic=True)


def advection_flux(a: float = 1.0) -> FluxSpec:
    """Linear advection f(u) = a u; m = 1."""
    def ev(u):
        return a * np.asarray(u, dtype=float)

    def dv(u):
        return np.full_like(np.asarray(u, dtype=float), a)

    return FluxSpec(eval=ev, deriv=dv, m=1.0, c1=abs(a) + 1e-12, c1p=abs(a) + 1e-12,
                    name="advection")


def bounded_flux() -> FluxSpec:
    """f(u) = sqrt(1+u^2) - 1: nonlinear with |f'| <= 1, so m = 1."""
    def ev(u):
        u = np.asarray(u, dtype=float)
        return np.sqrt(1.0 + u**2) - 1.0

    def dv(u):
        u = np.asarray(u, dtype=float)
        return u / np.sqrt(1.0 + u**2)

    return FluxSpec(eval=ev, deriv=dv, m=1.0, c1=1.0, c1p=1.0, name="bounded")


def zero_flux() -> FluxSpec:
    """Fluxless transport, for pure diffusion / dispersion analytic runs."""
    def ev(u):
        return np.zeros_like(np.asarray(u, dtype=float))

    return FluxSpec(eval=ev, deriv=ev, m=1.0, c1=1e-12, c1p=1e-12, name="zero")


def linear_diffusion() -> DiffusionSpec:
    """b(l) = l: r = 1, exact sandwich constants 1, uniformly elliptic."""
    def ev(lam):
        return np.asarray(lam, dtype=float)

    def jac(lam):
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        return np.eye(lam.shape[0])

    return DiffusionSpec(eval=ev, jacobian=jac, r=1.0, c2=1.0, c3=1.0,
                         claims_h3=True, h3_constant=1.0, name="linear",
                         spectral_bound=1.0, linear=True)


def power_diffusion(r: float) -> DiffusionSpec:
    """b(l) = |l|^(r-1) l: exact sandwich with c2 = c3 = 1.

    The Jacobian degenerates at l = 0 for r > 1, so no uniform ellipticity
    is claimed there.
    """
    if r < 1:
        raise ValueError("power diffusion requires r >= 1")

    def ev(lam):
        # axis 0 is the gradient's component axis
        lam = np.asarray(lam, dtype=float)
        mag = np.sqrt(np.sum(lam**2, axis=0, keepdims=True))
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(mag > 0, mag ** (r - 1), 0.0)
        return scale * lam

    def jac(lam):
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        d = lam.shape[0]
        mag = np.linalg.norm(lam)
        if mag == 0.0:
            return np.zeros((d, d))
        outer = np.outer(lam, lam)
        return mag ** (r - 1) * np.eye(d) + (r - 1) * mag ** (r - 3) * outer

    def spectral_bound(grad_max):
        # largest Jacobian eigenvalue of |l|^(r-1) l is r |l|^(r-1)
        return max(r * max(grad_max, 1e-12) ** (r - 1.0), 1e-12)

    return DiffusionSpec(eval=ev, jacobian=jac, r=float(r), c2=1.0, c3=1.0,
                         claims_h3=(r == 1), h3_constant=1.0 if r == 1 else 0.0,
                         name=f"power{r:g}",
                         spectral_bound=1.0 if r == 1 else spectral_bound,
                         linear=(r == 1))


_FLUXES = {
    "burgers": burgers_flux,
    "advection": advection_flux,
    "bounded": bounded_flux,
    "zero": zero_flux,
}


def flux_preset(name: str) -> FluxSpec:
    if name not in _FLUXES:
        raise KeyError(f"unknown flux preset {name!r}; have {sorted(_FLUXES)}")
    return _FLUXES[name]()


def diffusion_preset(name: str) -> DiffusionSpec:
    if name == "linear":
        return linear_diffusion()
    if name.startswith("power"):
        return power_diffusion(float(name[5:]))
    raise KeyError(f"unknown diffusion preset {name!r}")
