"""Flux/diffusion presets, entropy pairs, and hypothesis checks."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlab import model
from ddlab.model import (
    advection_flux,
    antiderivative,
    bounded_flux,
    burgers_flux,
    diffusion_preset,
    flux_preset,
    kruzkov_entropy,
    linear_diffusion,
    make_entropy_pair,
    power_diffusion,
    DiffusionSpec,
    FluxSpec,
)
from oracles import check_H3, check_coercivity_H2, check_growth_H1


def test_burgers_flux_values():
    f = burgers_flux()
    u = np.array([-2.0, 0.0, 3.0])
    assert np.allclose(f.eval(u), 0.5 * u**2)
    assert np.allclose(f.deriv(u), u)
    assert f.m == 2.0


def test_growth_check_passes_presets():
    # |u| <= 1 + |u|, |a| <= |a| + |a|, |u| / sqrt(1 + u^2) <= 1 + 1
    for flux, c1, c1p in ((burgers_flux(), 1.0, 1.0),
                          (advection_flux(a=0.5), 0.5, 0.5),
                          (bounded_flux(), 1.0, 1.0)):
        rep = check_growth_H1(flux, c1, c1p)
        assert rep["holds"], flux.name


@pytest.mark.parametrize("name", sorted(model._FLUXES))
def test_flux_preset_is_one_scalar_function(name):
    # f applies along every axis, so eval and deriv keep the input's shape
    flux = flux_preset(name)
    for u in (np.float64(0.3), np.linspace(-2, 2, 5),
              np.linspace(-2, 2, 12).reshape(3, 4)):
        assert np.shape(flux.eval(u)) == np.shape(u)
        assert np.shape(flux.deriv(u)) == np.shape(u)


def test_growth_check_catches_violation():
    # cubic flux declared with linear growth
    f = burgers_flux()
    bad = type(f)(eval=lambda u: np.asarray(u) ** 3,
                  deriv=lambda u: 3.0 * np.asarray(u) ** 2,
                  m=2.0, name="cubic")
    rep = check_growth_H1(bad, 1.0, 1.0)
    assert not rep["holds"]
    assert abs(rep["witness"]) > 1.0


def test_coercivity_linear_diffusion():
    diff = linear_diffusion()
    samples = [np.array([v]) for v in np.linspace(-3, 3, 21) if v != 0]
    rep = check_coercivity_H2(diff, samples, 1.0)
    assert rep["holds"]
    assert rep["worst_lower"] == pytest.approx(1.0)
    assert rep["worst_upper"] == pytest.approx(1.0)


def test_coercivity_power_diffusion_2d():
    diff = power_diffusion(2.0)
    rng = np.random.default_rng(3)
    samples = rng.standard_normal((40, 2))
    rep = check_coercivity_H2(diff, samples, 1.0)
    assert rep["holds"]


def test_coercivity_flags_anti_dissipative():
    diff = DiffusionSpec(
        eval=lambda lam: -np.asarray(lam, dtype=float),
        r=1.0, c2=1.0, spectral_bound=lambda grad_max: 1.0, name="backward")
    rep = check_coercivity_H2(diff, [np.array([1.0])], 1.0)
    assert not rep["holds"]
    assert rep["anti_dissipative"]


def test_h3_linear_holds_power_degenerates():
    samples = [np.array([v]) for v in (-1.0, 0.5, 2.0)]
    probes = [np.array([1.0])]
    assert check_H3(linear_diffusion(), samples, probes, 1.0)["holds"]
    degenerate = samples + [np.array([1e-8])]
    rep = check_H3(power_diffusion(2.0), degenerate, probes, 0.5)
    # Jacobian collapses near the origin: no uniform lower bound
    assert not rep["holds"]
    assert rep["min_eigen_proxy"] < 0.5
    # the check differences eval, so claiming (H3) does not make it hold
    claimed = replace(power_diffusion(2.0), claims_h3=True)
    assert not check_H3(claimed, degenerate, probes, 0.5)["holds"]


def test_h3_rejects_non_unit_probe():
    with pytest.raises(ValueError):
        check_H3(linear_diffusion(), [np.array([1.0])], [np.array([2.0])], 1.0)


def test_entropy_pair_quadrature_matches_closed_form():
    # eta = u^2, Burgers: q(u) = int_0^u 2v * v dv = 2 u^3 / 3
    pair = make_entropy_pair(
        eta=lambda u: np.asarray(u) ** 2,
        eta_prime=lambda u: 2.0 * np.asarray(u),
        eta_second=lambda u: np.full_like(np.asarray(u, dtype=float), 2.0),
        flux=burgers_flux(),
    )
    u = np.array([-1.5, -0.3, 0.0, 0.7, 2.0])
    assert np.allclose(pair.q(u), 2.0 * u**3 / 3.0, atol=1e-10)


def test_entropy_pair_rejects_nonconvex():
    with pytest.raises(ValueError, match="not convex"):
        make_entropy_pair(
            eta=lambda u: np.asarray(u) ** 3,
            eta_prime=lambda u: 3.0 * np.asarray(u) ** 2,
            eta_second=lambda u: 6.0 * np.asarray(u),
            flux=burgers_flux(),
        )


def test_kruzkov_entropy_limits():
    k = 0.4
    eta, ep, es = kruzkov_entropy(k, rho=1e-6)
    u = np.array([-1.0, 0.4, 2.0])
    assert np.allclose(eta(u), np.abs(u - k), atol=1e-5)
    assert ep(np.array([2.0])) == pytest.approx(1.0, abs=1e-6)
    assert ep(np.array([-1.0])) == pytest.approx(-1.0, abs=1e-6)
    assert np.all(es(u) >= 0.0)
    with pytest.raises(ValueError):
        kruzkov_entropy(0.0, rho=0.0)


def test_presets_lookup():
    assert flux_preset("burgers").name == "burgers"
    assert diffusion_preset("linear").r == 1.0
    assert diffusion_preset("power2").r == 2.0
    with pytest.raises(KeyError):
        flux_preset("nope")
    with pytest.raises(KeyError):
        diffusion_preset("nope")


def test_specs_reject_bad_declarations():
    f = burgers_flux()
    with pytest.raises(ValueError, match="m must be >= 0"):
        FluxSpec(eval=f.eval, deriv=f.deriv, m=-1.0)
    b = linear_diffusion()
    for c2 in (0.0, -1.0):
        with pytest.raises(ValueError, match="c2 > 0"):
            DiffusionSpec(eval=b.eval, r=1.0, c2=c2, linear=True)
    # S comes from linear, or from a function bound: exactly one of them
    p2 = power_diffusion(2.0)
    for kw in ({"linear": True, "spectral_bound": 2.0},
               {"linear": True, "spectral_bound": p2.spectral_bound},
               {"spectral_bound": 1.0}, {}):
        with pytest.raises(ValueError, match="not both"):
            DiffusionSpec(eval=b.eval, r=1.0, c2=1.0, **kw)
    # a declared closed form must be the function's own
    bounded = flux_preset("bounded")
    with pytest.raises(ValueError, match="declared quadratic"):
        FluxSpec(eval=bounded.eval, deriv=bounded.deriv, m=1, quadratic=True)
    with pytest.raises(ValueError, match="declared quadratic"):
        FluxSpec(eval=f.eval, deriv=bounded.deriv, m=2, quadratic=True)
    with pytest.raises(ValueError, match="declared linear"):
        DiffusionSpec(eval=p2.eval, r=1.0, c2=1.0, linear=True)
    with pytest.raises(ValueError, match="declared linear"):
        DiffusionSpec(eval=lambda lam: 2.0 * lam, r=1.0, c2=1.0, linear=True)
    # b(l) = l meets (H2) for every l only with r = 1 and c2 <= 1
    for r, c2 in ((2.0, 5.0), (2.0, 1.0), (0.5, 1.0), (1.0, 1.5)):
        with pytest.raises(ValueError, match="r must be 1 and c2 <= 1"):
            DiffusionSpec(eval=b.eval, r=r, c2=c2, linear=True)
    assert DiffusionSpec(eval=b.eval, r=1.0, c2=0.5, linear=True).c2 == 0.5


def test_power_diffusion_requires_r_ge_1():
    with pytest.raises(ValueError):
        power_diffusion(0.5)


def test_power_diffusion_vectorized_matches_pointwise():
    diff = power_diffusion(3.0)
    rng = np.random.default_rng(11)
    lam = rng.standard_normal((2, 5, 5))
    out = diff.eval(lam)
    for i in range(5):
        for j in range(5):
            v = lam[:, i, j]
            assert np.allclose(out[:, i, j],
                               np.linalg.norm(v) ** 2 * v)


_finite = st.floats(-3.0, 3.0, allow_subnormal=False)


@settings(max_examples=60, deadline=None)
@given(coef=st.tuples(_finite, _finite, _finite), ends=st.tuples(_finite, _finite),
       n=st.integers(1, 600), fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
def test_antiderivative_exact_for_quadratics(coef, ends, n, fracs):
    c0, c1, c2 = coef
    lo, hi = min(ends), max(ends)
    Q = antiderivative(lambda v: c0 + c1 * v + c2 * v**2, lo, hi, n)
    # probes anywhere on the table, which always reaches 0
    lo, hi = min(lo, 0.0), max(hi, 0.0)
    u = lo + (hi - lo) * np.array(fracs)
    exact = c0 * u + c1 * u**2 / 2.0 + c2 * u**3 / 3.0
    # |Q| <= sum |c_i| R (1 + R)^2 with R the table's reach
    R = max(-lo, hi)
    scale = (abs(c0) + abs(c1) + abs(c2)) * R * (1.0 + R) ** 2
    assert np.all(np.abs(Q(u) - exact) <= 1e-12 * scale)
    assert Q(0.0) == 0.0


@settings(max_examples=40, deadline=None)
@given(k=st.floats(-1.0, 1.0), steps=st.floats(4.0, 200.0),
       probes=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=8))
def test_kruzkov_entropy_flux_matches_closed_form(k, steps, probes):
    # q(u) = int_0^u v (v-k)/sqrt((v-k)^2+rho^2) dv for Burgers, with rho at
    # least 4 table steps of the 512-panel table over [min(u,0), max(u,0)]
    u = np.array(probes)
    h = (max(u.max(), 0.0) - min(u.min(), 0.0)) / 512
    rho = max(steps * h, 1e-3)
    pair = make_entropy_pair(*kruzkov_entropy(k, rho), burgers_flux())

    def F(v):
        w = v - k
        r = np.sqrt(w * w + rho * rho)
        return 0.5 * w * r - 0.5 * rho**2 * np.log(w + r) + k * r

    assert np.allclose(pair.q(u), F(u) - F(0.0), rtol=0.0, atol=1e-6)


@pytest.mark.parametrize("u_max", [0.0, 5e-324, 0.1, 1.0 / 3.0, 2.75, 1e300])
def test_quadratic_max_speed_is_the_probe_value(u_max):
    # the probe's ends are exactly -1 and 1, so its max |u_max p| is u_max
    flux = burgers_flux()
    probe = np.max(np.abs(flux.deriv(u_max * model._SPEED_PROBE)))
    assert flux.max_speed(u_max) == probe


def test_declared_structure_of_presets():
    assert burgers_flux().quadratic
    assert not any(flux_preset(name).quadratic
                   for name in ("advection", "bounded", "zero"))
    # linear diffusion takes S = 1 from its declaration, not from a bound
    assert linear_diffusion().spectral_bound is None
    assert power_diffusion(1.0).spectral_bound is None
    # b(l) = l has one definition
    assert power_diffusion(1.0).name == "linear" and power_diffusion(1.0).claims_h3
    # r |l|^(r-1): the largest Jacobian eigenvalue of |l|^(r-1) l
    assert power_diffusion(3.0).spectral_bound(2.0) == pytest.approx(12.0)
    # b(l) = l is declared linear, so the solver integrates it exactly
    assert linear_diffusion().linear and power_diffusion(1.0).linear
    assert not power_diffusion(2.0).linear
