"""Continuous-problem definitions: fluxes, diffusions with their declared
structure, entropy pairs, and the presets.

All callables are vectorized over numpy arrays.  A flux is one scalar
function f applied along every axis, so div f(u) = sum_j d_j f(u): its
evaluations return an array of the input's shape.  Diffusions map gradient
vectors (component axis first) to vectors of the same shape.
"""

from __future__ import annotations

import functools
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
    "burgers_flux",
    "advection_flux",
    "bounded_flux",
    "zero_flux",
    "linear_diffusion",
    "power_diffusion",
    "flux_preset",
    "diffusion_preset",
]

# sample points of [-1, 1] at which max_speed probes f', and at which a
# declared closed form is checked against the spec's own functions
_SPEED_PROBE = np.linspace(-1.0, 1.0, 65)


@dataclass(frozen=True)
class FluxSpec:
    """A scalar flux u -> f(u), applied along every axis, with its
    derivative and growth metadata.

    ``eval`` and ``deriv`` map an array of states to an array of the same
    shape.  ``m`` declares the growth exponent of (H1),
    |f'(u)| <= c (1 + |u|^(m-1)).  ``quadratic`` declares f(u) = u^2/2,
    which has closed-form oracles.
    """

    eval: Callable
    deriv: Callable
    m: float
    name: str = "custom"
    quadratic: bool = False

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("growth exponent m must be >= 0")
        u = _SPEED_PROBE
        if self.quadratic and not (np.allclose(self.eval(u), 0.5 * u**2)
                                   and np.allclose(self.deriv(u), u)):
            raise ValueError("declared quadratic, but f is not u^2/2 or f' not u")

    def max_speed(self, u_max: float) -> float:
        """max |f'| over [-u_max, u_max], probed at 65 evenly spaced states;
        for the quadratic flux, u_max: the probe's value at its ends."""
        if self.quadratic:
            return float(u_max)
        return float(np.max(np.abs(np.asarray(self.deriv(u_max * _SPEED_PROBE)))))


@dataclass(frozen=True)
class DiffusionSpec:
    """A diffusion lambda -> b(lambda) with its declared structure.

    ``r`` and ``c2`` declare the coercivity of (H2),
    l . b(l) >= c2 |l|^(r+1); ``claims_h3`` declares (H3), uniform
    positive-definiteness of Db.  The regime classification reads only r
    and claims_h3, the gradient budget only c2.  ``linear`` declares
    b(l) = l, whose explicit remainder is zero, and so r = 1 and c2 <= 1;
    every other diffusion declares ``spectral_bound``, a function of
    max |grad u| bounding the spectral radius of Db.  The solver integrates
    eps times that bound (1 if linear) times the Laplacian exactly.
    """

    eval: Callable
    r: float
    c2: float
    spectral_bound: Callable | None = None
    claims_h3: bool = False
    name: str = "custom"
    linear: bool = False

    def __post_init__(self):
        if not 0 <= self.r < math.inf:
            raise ValueError(f"exponent r must be finite and >= 0, got {self.r}")
        if self.c2 <= 0:
            raise ValueError("need c2 > 0")
        bound = self.spectral_bound
        if not (bound is None if self.linear else callable(bound)):
            raise ValueError("declare linear or a spectral_bound function, not both")
        lam = _SPEED_PROBE[None]   # one-component gradients
        if self.linear and not np.allclose(self.eval(lam), lam):
            raise ValueError("declared linear, but b(l) is not l")
        # l . b(l) = |l|^2 is >= c2 |l|^(r+1) for every l only with r = 1
        # and c2 <= 1
        if self.linear and not (self.r == 1 and self.c2 <= 1):
            raise ValueError(f"declared linear, so r must be 1 and c2 <= 1, "
                             f"got r = {self.r}, c2 = {self.c2}")


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
                      eta_third=None) -> EntropyPair:
    """Build an entropy pair with q(u) = int_0^u eta'(v) f'(v) dv.

    The flux q is anchored at q(0)=0 and computed by ``antiderivative`` with
    512 panels over the evaluated range.  Rejects eta that fails convexity
    on samples of [-2, 2].
    """
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
                              np.asarray(flux.deriv(v)), lo, hi, 512)(u)

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
# built-in libraries


def burgers_flux() -> FluxSpec:
    """f(u) = u^2/2; m = 2."""
    def ev(u):
        return 0.5 * np.asarray(u, dtype=float) ** 2

    def dv(u):
        return np.asarray(u, dtype=float)

    return FluxSpec(eval=ev, deriv=dv, m=2.0, name="burgers", quadratic=True)


def advection_flux(a: float = 1.0) -> FluxSpec:
    """Linear advection f(u) = a u; m = 1."""
    def ev(u):
        return a * np.asarray(u, dtype=float)

    def dv(u):
        return np.full_like(np.asarray(u, dtype=float), a)

    return FluxSpec(eval=ev, deriv=dv, m=1.0, name="advection")


def bounded_flux() -> FluxSpec:
    """f(u) = sqrt(1+u^2) - 1: nonlinear with |f'| <= 1, so m = 1."""
    def ev(u):
        u = np.asarray(u, dtype=float)
        return np.sqrt(1.0 + u**2) - 1.0

    def dv(u):
        u = np.asarray(u, dtype=float)
        return u / np.sqrt(1.0 + u**2)

    return FluxSpec(eval=ev, deriv=dv, m=1.0, name="bounded")


def zero_flux() -> FluxSpec:
    """Fluxless transport, for pure diffusion / dispersion analytic runs."""
    def ev(u):
        return np.zeros_like(np.asarray(u, dtype=float))

    return FluxSpec(eval=ev, deriv=ev, m=1.0, name="zero")


def linear_diffusion() -> DiffusionSpec:
    """b(l) = l: r = 1, c2 = 1, uniformly elliptic."""
    def ev(lam):
        return np.asarray(lam, dtype=float)

    return DiffusionSpec(eval=ev, r=1.0, c2=1.0, claims_h3=True,
                         name="linear", linear=True)


def power_diffusion(r: float) -> DiffusionSpec:
    """b(l) = |l|^(r-1) l: l . b(l) = |l|^(r+1), so c2 = 1.

    r = 1 is ``linear_diffusion``.  For r > 1 the Jacobian degenerates at
    l = 0, so no uniform ellipticity is claimed.
    """
    if r < 1:
        raise ValueError("power diffusion requires r >= 1")
    if r == 1:
        return linear_diffusion()

    def ev(lam):
        # axis 0 is the gradient's component axis
        lam = np.asarray(lam, dtype=float)
        mag = np.sqrt(np.sum(lam**2, axis=0, keepdims=True))
        with np.errstate(divide="ignore", invalid="ignore"):
            scale = np.where(mag > 0, mag ** (r - 1), 0.0)
        return scale * lam

    def spectral_bound(grad_max):
        # largest Jacobian eigenvalue of |l|^(r-1) l is r |l|^(r-1)
        return max(r * max(grad_max, 1e-12) ** (r - 1.0), 1e-12)

    return DiffusionSpec(eval=ev, r=float(r), c2=1.0,
                         name=f"power{r:g}", spectral_bound=spectral_bound)


_FLUXES = {
    "burgers": burgers_flux,
    "advection": advection_flux,
    "bounded": bounded_flux,
    "zero": zero_flux,
}


# one spec per name, so the entries of a sweep share theirs
@functools.cache
def flux_preset(name: str) -> FluxSpec:
    if name not in _FLUXES:
        raise KeyError(f"unknown flux preset {name!r}; have {sorted(_FLUXES)}")
    return _FLUXES[name]()


@functools.cache
def diffusion_preset(name: str) -> DiffusionSpec:
    if name == "linear":
        return linear_diffusion()
    if name.startswith("power"):
        return power_diffusion(float(name[5:]))
    raise KeyError(f"unknown diffusion preset {name!r}")
