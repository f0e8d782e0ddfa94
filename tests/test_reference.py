"""Entropy-solution oracles: EO flux, monotone scheme, exact Lax-Oleinik
reference, exact Riemann, and both references run on each diagonal in 2-d."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddlab.grids import Field, GridSpec
from ddlab.model import advection_flux, bounded_flux, burgers_flux
from ddlab.harness import _per_line
from ddlab.reference import CFL, _eo_halves, lax_oleinik_reference, \
    reference_solve
from ddlab.solver import initial_preset
from oracles import burgers_riemann_exact

# each 1-d oracle as the leading arguments of harness._per_line, before t_end
ORACLES = {"eo-burgers": (reference_solve, burgers_flux()),
           "eo-bounded": (reference_solve, bounded_flux()),
           "lax-oleinik": (lax_oleinik_reference,)}


def engquist_osher_flux(a, b, flux):
    """The EO flux F(a, b) = right(a) + left(b) that ``reference_solve``
    differences, its halves tabulated over the two states."""
    right, left = _eo_halves(flux, min(a, b), max(a, b))
    return float(right(a) + left(b))


def test_eo_flux_consistency():
    flux = burgers_flux()
    for a in (-1.5, -0.2, 0.0, 0.7, 2.0):
        assert engquist_osher_flux(a, a, flux) == pytest.approx(0.5 * a * a)


def test_eo_flux_transonic_value():
    # F(1, -1) picks up both split integrals: 1/2 + 1/2
    assert engquist_osher_flux(1.0, -1.0, burgers_flux()) == pytest.approx(1.0)


def test_eo_flux_monotone():
    flux = burgers_flux()
    rng = np.random.default_rng(5)
    pts = rng.uniform(-2, 2, size=(50, 2))
    h = 1e-4
    for a, b in pts:
        base = engquist_osher_flux(a, b, flux)
        assert engquist_osher_flux(a + h, b, flux) >= base - 1e-12
        assert engquist_osher_flux(a, b + h, flux) <= base + 1e-12


def test_eo_flux_generic_quadrature_matches_closed_form():
    # same flux function without the closed-form shortcut name
    flux = burgers_flux()
    generic = type(flux)(eval=flux.eval, deriv=flux.deriv, m=2.0,
                         name="quadratic")
    for a, b in ((1.0, -1.0), (0.3, 0.8), (-0.5, -0.1), (2.0, 0.0)):
        assert engquist_osher_flux(a, b, generic) == \
            pytest.approx(engquist_osher_flux(a, b, flux), abs=1e-10)


def test_eo_flux_nonconvex_capable_flux():
    # bounded flux has f(0)=0, f' in (-1,1): sanity of the generic path
    flux = bounded_flux()
    val = engquist_osher_flux(1.0, 1.0, flux)
    assert val == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(st.floats(-5.0, 5.0))
def test_eo_flux_consistency_bounded(a):
    # F(a, a) = f(0) + int_0^a f' = f(a) on the tabulated path
    flux = bounded_flux()
    assert engquist_osher_flux(a, a, flux) == \
        pytest.approx(float(flux.eval(a)), abs=1e-8)


def test_reference_advection_is_explicit_upwind():
    # EO with f' = a > 0 is the upwind flux a u_left
    a, t_end = 0.7, 0.3
    grid = GridSpec(n=128, length=2.0)
    rng = np.random.default_rng(3)
    u0 = rng.uniform(-1.0, 1.0, 128)
    out = reference_solve(Field(grid, u0), advection_flux(a), t_end)
    # the steps are planned once: n equal steps of t_end / n
    n = math.ceil(t_end * a / (CFL * grid.dx))
    u, dt = u0.copy(), t_end / n
    for _ in range(n):
        u = u - dt / grid.dx * (a * u - a * np.roll(u, 1))
    assert np.max(np.abs(out.values - u)) <= 1e-12


def test_reference_bounded_flux_maximum_principle_and_mass():
    grid = GridSpec(n=256, length=2.0)
    rng = np.random.default_rng(4)
    u0 = Field(grid, rng.uniform(-1.5, 2.0, 256))
    out = reference_solve(u0, bounded_flux(), 0.4)
    assert out.values.min() >= u0.values.min() - 1e-12
    assert out.values.max() <= u0.values.max() + 1e-12
    assert np.sum(out.values) == pytest.approx(np.sum(u0.values), abs=1e-10)


def test_reference_discrete_maximum_principle():
    grid = GridSpec(n=256, length=2.0)
    rng = np.random.default_rng(2)
    u0 = Field(grid, rng.uniform(-1.0, 1.0, 256))
    out = reference_solve(u0, burgers_flux(), 0.3)
    assert out.values.min() >= u0.values.min() - 1e-12
    assert out.values.max() <= u0.values.max() + 1e-12


@pytest.mark.parametrize("oracle", ORACLES.values(), ids=ORACLES)
def test_2d_reference_maximum_principle_and_mass(oracle):
    # each line keeps its own range and mass, so the field keeps u0's
    grid = GridSpec(n=64, length=2.0, dim=2)
    rng = np.random.default_rng(6)
    u0 = Field(grid, rng.uniform(-1.5, 2.0, grid.shape))
    out = _per_line(u0, *oracle, 0.3)
    assert out.values.min() >= u0.values.min() - 1e-12
    assert out.values.max() <= u0.values.max() + 1e-12
    assert np.sum(out.values) == pytest.approx(np.sum(u0.values), abs=1e-10)


@pytest.mark.parametrize("t_end", [-0.3, 0.0, math.nan, math.inf])
def test_references_reject_a_t_end_that_is_not_finite_and_positive(t_end):
    u0 = initial_preset("smoothed_riemann").build(GridSpec(n=64, length=2.0))
    with pytest.raises(ValueError, match="t_end"):
        reference_solve(u0, burgers_flux(), t_end)
    with pytest.raises(ValueError, match="t_end"):
        lax_oleinik_reference(u0, t_end)


def test_reference_conserves_mass():
    grid = GridSpec(n=128, length=2.0)
    x = grid.axes()[0]
    u0 = Field(grid, np.where((x > 0.5) & (x < 1.1), 1.0, 0.0))
    out = reference_solve(u0, burgers_flux(), 0.25)
    assert np.sum(out.values) == pytest.approx(np.sum(u0.values), abs=1e-10)


@pytest.mark.parametrize("oracle,tol", [(ORACLES["eo-burgers"], 0.0),
                                        (ORACLES["eo-bounded"], 0.0),
                                        (ORACLES["lax-oleinik"], 1e-13)],
                         ids=ORACLES)
def test_2d_reference_of_y_constant_data_matches_1d(oracle, tol):
    # each diagonal of y-constant data is the 1-d data shifted, and the
    # EO update commutes with a shift bit for bit
    n = 64
    x = GridSpec(n=n, length=2.0).axes()[0]
    u = 1.2 * np.exp(-((x - 0.8) / 0.2) ** 2) - 0.6 * np.exp(-((x - 1.4) / 0.15) ** 2)
    one = _per_line(Field(GridSpec(n=n, length=2.0), u), *oracle, 0.3).values
    grid = GridSpec(n=n, length=2.0, dim=2)
    rows = _per_line(Field(grid, np.repeat(u[:, None], n, axis=1)), *oracle, 0.3)
    cols = _per_line(Field(grid, np.repeat(u[None, :], n, axis=0)), *oracle, 0.3)
    assert np.max(np.abs(rows.values - one[:, None])) <= tol
    assert np.max(np.abs(cols.values.T - one[:, None])) <= tol


def test_riemann_exact_shock():
    # shock speed (uL+uR)/2 = 0.5
    assert burgers_riemann_exact(1.0, 0.0, 0.49) == 1.0
    assert burgers_riemann_exact(1.0, 0.0, 0.51) == 0.0


def test_riemann_exact_rarefaction():
    xi = np.array([-0.5, 0.0, 0.3, 0.9, 1.0, 2.0])
    expect = np.array([0.0, 0.0, 0.3, 0.9, 1.0, 1.0])
    assert np.allclose(burgers_riemann_exact(0.0, 1.0, xi), expect)


def test_riemann_exact_constant():
    assert burgers_riemann_exact(0.7, 0.7, -3.0) == pytest.approx(0.7)


def test_reference_shock_first_order_error():
    # single moving shock: L1 error vs exact within 5 dx |uL-uR|
    n = 2048
    grid = GridSpec(n=n, length=2.0)
    x = grid.axes()[0]
    u0 = Field(grid, np.where((x >= 0.2) & (x < 1.0), 1.0, 0.0))
    t = 0.4
    out = reference_solve(u0, burgers_flux(), t)
    # left edge rarefies from 0.2; shock from 1.0 at speed 0.5
    exact = np.where(x < 0.2, 0.0,
                     np.where(x < 0.2 + t, (x - 0.2) / t,
                              burgers_riemann_exact(1.0, 0.0, (x - 1.0) / t)))
    window = (x > 1.05) & (x < 1.35)
    err = np.sum(np.abs(out.values - exact)[window]) * grid.dx
    assert err <= 5.0 * grid.dx


# ---------------------------------------------------------------------------
# exact Lax-Oleinik reference


def _brute_force_lax_oleinik(u, dx, t):
    """Cell averages of min_y [(x-y)^2/(2t) + U0(y)], the minimum taken in
    closed form over every cell within t max|u| of the period, and more."""
    n = len(u)
    m = math.ceil(t * np.max(np.abs(u)) / (n * dx)) + 1
    y = (np.arange(-m * n, (m + 1) * n + 1) - 0.5) * dx
    slope = np.tile(u, 2 * m + 1)
    big_u = dx * (np.concatenate([[0.0], np.cumsum(slope)]) - m * np.sum(u))
    x = (np.arange(n + 1) - 0.5)[:, None] * dx
    ymin = np.clip(x - t * slope, y[:-1], y[1:])
    v = np.min((x - ymin) ** 2 / (2 * t) + big_u[:-1] + slope * (ymin - y[:-1]),
               axis=1)
    return np.diff(v) / dx


@pytest.mark.parametrize("seed", range(6))
def test_lax_oleinik_matches_the_minimum_over_every_cell(seed):
    # the hull only narrows the search: random data, with and without ties
    rng = np.random.default_rng(seed)
    n = 64
    u = rng.uniform(-1.0, 2.0, n) if seed % 2 else \
        rng.integers(-2, 3, n).astype(float)
    grid = GridSpec(n=n, length=2.0)
    for t in (0.01, 0.3, 2.0):
        out = lax_oleinik_reference(Field(grid, u), t).values
        assert np.max(np.abs(out - _brute_force_lax_oleinik(u, grid.dx, t))) \
            <= 1e-12


@pytest.mark.parametrize("u_in,u_out", [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0)])
def test_lax_oleinik_cell_averages_of_shock_and_rarefaction(u_in, u_out):
    # u_in on the cells 32..63, u_out outside: one shock and one fan,
    # t = 8.5 dx puts every wave edge on a quarter of a cell, where the
    # exact solution is linear between quarter points, so the midpoint rule
    # on quarter cells integrates it exactly
    n = 128
    grid = GridSpec(n=n, length=2.0)
    dx, t = grid.dx, 8.5 * grid.dx
    u = np.where((np.arange(n) >= 32) & (np.arange(n) < 64), u_in, u_out)
    out = lax_oleinik_reference(Field(grid, u), t).values
    a, b = 31.5 * dx, 63.5 * dx
    x = (np.arange(4 * n) + 0.5) * dx / 4 - 0.5 * dx
    exact = np.where(
        x < 0.5 * (a + b),
        burgers_riemann_exact(u_out, u_in, (x - a) / t),
        burgers_riemann_exact(u_in, u_out, (x - b) / t))
    assert np.max(np.abs(out - exact.reshape(n, 4).mean(axis=1))) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_lax_oleinik_mass_and_maximum_principle(seed):
    grid = GridSpec(n=256, length=2.0)
    u0 = Field(grid, np.random.default_rng(seed).uniform(-1.5, 2.0, 256))
    out = lax_oleinik_reference(u0, 0.4).values
    assert abs(np.sum(out) - np.sum(u0.values)) * grid.dx <= 1e-12
    assert out.min() >= u0.values.min() - 1e-12
    assert out.max() <= u0.values.max() + 1e-12


def test_lax_oleinik_commutes_with_a_shift_across_the_seam():
    grid = GridSpec(n=256, length=2.0)
    u0 = initial_preset("smoothed_riemann").build(grid)
    out = lax_oleinik_reference(u0, 0.5).values
    for k in (1, 37, 200):
        shifted = lax_oleinik_reference(Field(grid, np.roll(u0.values, k)), 0.5)
        assert np.max(np.abs(shifted.values - np.roll(out, k))) <= 1e-12


def test_lax_oleinik_oversampling_levels_agree():
    # the same piecewise-constant data on s-times finer cells, averaged back
    grid = GridSpec(n=512, length=2.0)
    u0 = initial_preset("smoothed_riemann").build(grid)
    out = lax_oleinik_reference(u0, 0.5).values
    for s in (2, 4):
        fine = Field(GridSpec(n=512 * s, length=2.0), np.repeat(u0.values, s))
        got = lax_oleinik_reference(fine, 0.5).values.reshape(512, s).mean(axis=1)
        assert np.max(np.abs(got - out)) <= 1e-12


@pytest.mark.parametrize("oracle", ORACLES.values(), ids=ORACLES)
def test_references_are_one_dimensional(oracle):
    grid = GridSpec(n=16, length=2.0, dim=2)
    fn, *args = oracle
    with pytest.raises(ValueError, match="1-d"):
        fn(Field(grid, np.zeros(grid.shape)), *args, 0.1)


def test_eo_converges_to_the_exact_reference_at_first_order():
    # the default problem: EO and the exact solution of the same gridded data
    errs = {}
    for n in (1024, 2048, 4096):
        grid = GridSpec(n=n, length=2.0)
        u0 = initial_preset("smoothed_riemann").build(grid)
        diff = reference_solve(u0, burgers_flux(), 0.5).values - \
            lax_oleinik_reference(u0, 0.5).values
        errs[n] = float(np.sum(np.abs(diff)) * grid.dx)
        assert errs[n] <= 2.0 * grid.dx
    assert 0.85 <= np.log2(errs[1024] / errs[4096]) / 2 <= 1.15
    assert np.log2(errs[2048] / errs[4096]) >= 0.9


@pytest.mark.parametrize("oracle", ORACLES.values(), ids=ORACLES)
def test_2d_reference_of_data_constant_along_each_diagonal_is_the_data(oracle):
    # w(i - j) is constant along each line x - y = const, which carries it
    # unchanged
    grid = GridSpec(n=128, length=2.0, dim=2)
    w = 0.5 + 0.5 * np.sin(2.0 * np.pi * grid.axes()[0] / grid.length)
    k = np.arange(grid.n)
    u0 = w[np.subtract.outer(k, k) % grid.n]
    out = _per_line(Field(grid, u0), *oracle, 0.3)
    assert np.max(np.abs(out.values - u0)) <= 1e-12
