"""Energy identities, a-priori bounds, entropy production, and
oscillation diagnostics."""

import numpy as np
import pytest

from ddlab.grids import Field, GridSpec, Trajectory, lp_norm
from ddlab.model import burgers_flux, diffusion_preset, linear_diffusion, \
    zero_flux
from ddlab.solver import SolveParams, initial_preset, solve
from ddlab.harness import quadratic_entropy_pair
from ddlab import diagnostics as diag


@pytest.fixture(scope="module")
def heat_run():
    g = GridSpec(n=256)
    p = SolveParams(flux=zero_flux(), diffusion=linear_diffusion(),
                    epsilon=0.05, delta=0.0, t_end=1.0, sample_count=129)
    return solve(initial_preset("sine"), p, g)


@pytest.fixture(scope="module")
def burgers_run():
    g = GridSpec(n=512, length=2.0)
    p = SolveParams(flux=burgers_flux(), diffusion=linear_diffusion(),
                    epsilon=0.05, delta=0.05**2.5, t_end=0.5,
                    sample_count=65)
    u0 = initial_preset("smoothed_riemann", uL=1.0, uR=0.0, w=0.02)
    return solve(u0, p, g)


# ---------------------------------------------------------------------------
# test functions


def test_bump_compact_support_and_positivity():
    theta = diag.bump_over(1.0, 0.5, 0.3, 0.2)
    x = np.linspace(0.0, 2.0, 101)
    inside = theta.value([x], 0.5)
    assert np.all(inside >= 0.0)
    assert np.all(inside[(x < 0.7) | (x > 1.3)] == 0.0)
    assert inside[50] > 0.0
    assert np.all(theta.value([x], 0.71) == 0.0)  # outside time support


def test_bump_over_repeats_scalars_on_every_axis():
    theta = diag.bump_over(1.0, 0.5, 0.3, 0.2, dim=2)
    assert theta.center == (1.0, 1.0) and theta.radius == (0.3, 0.3)
    theta = diag.bump_over((1.0, 0.8), 0.5, 0.3, 0.2)
    assert theta.center == (1.0, 0.8) and theta.radius == (0.3, 0.3)


def test_bump_derivatives_match_finite_differences():
    theta = diag.bump_over(1.0, 0.5, 0.3, 0.2)
    x = np.array([0.85, 0.95, 1.1])
    t = 0.45
    h = 1e-6
    dt_fd = (theta.value([x], t + h) - theta.value([x], t - h)) / (2 * h)
    assert np.allclose(theta.dt([x], t), dt_fd, atol=1e-5)
    dx_fd = (theta.value([x + h], t) - theta.value([x - h], t)) / (2 * h)
    assert np.allclose(theta.dx([x], t, 0), dx_fd, atol=1e-5)
    dxx_fd = (theta.dx([x + h], t, 0) - theta.dx([x - h], t, 0)) / (2 * h)
    assert np.allclose(theta.dxx([x], t, 0), dxx_fd, atol=1e-4)
    d3_fd = (theta.dxx([x + h], t, 0) - theta.dxx([x - h], t, 0)) / (2 * h)
    assert np.allclose(theta.dxxx_sum([x], t), d3_fd, atol=1e-3)


def test_bump_supported_inside():
    g = GridSpec(n=64, length=2.0)
    assert diag.bump_over(1.0, 0.25, 0.4, 0.2).supported_inside(g, 0.5)
    assert not diag.bump_over(1.9, 0.25, 0.4, 0.2).supported_inside(g, 0.5)
    assert not diag.bump_over(1.0, 0.45, 0.4, 0.2).supported_inside(g, 0.5)


# ---------------------------------------------------------------------------
# energy identities


def test_energy_balance_heat_run(heat_run):
    resid = diag.energy_balance_residual(
        heat_run, linear_diffusion(), 0.05, 1.0)
    u0_l2 = lp_norm(heat_run.fields[0], 2)
    assert abs(resid) <= 1e-3 * u0_l2**2


def test_energy_balance_requires_sample_time(burgers_run):
    with pytest.raises(ValueError, match="sample"):
        diag.energy_balance_residual(
            burgers_run, linear_diffusion(), 0.05, 0.123456)


def test_gradient_budget(burgers_run):
    u0_l2 = lp_norm(burgers_run.fields[0], 2)
    rep = diag.gradient_budget(burgers_run, linear_diffusion(), 0.05, u0_l2)
    assert rep["holds"]
    assert rep["lhs"] <= rep["bound"] + 1e-2
    assert rep["bound"] == pytest.approx(u0_l2**2 / 2.0)


def test_power_energy_identity_alpha1_matches_energy(heat_run):
    rep = diag.power_energy_identity(heat_run, 1.0, linear_diffusion(),
                                     0.05, 0.0)
    resid = diag.energy_balance_residual(heat_run, linear_diffusion(),
                                         0.05, 1.0)
    # alpha = 1 is the quadratic identity divided by 2
    assert rep["imbalance"] == pytest.approx(resid / 2.0, abs=1e-10)


def test_power_energy_identity_cubed_form(burgers_run):
    rep = diag.power_energy_identity(burgers_run, 2.0, linear_diffusion(),
                                     0.05, 0.05**2.5)
    scale = abs(rep["lhs_terms"]["mass"]) + abs(rep["rhs_mass"])
    assert abs(rep["imbalance"]) < 2e-2 * scale


def test_power_energy_identity_rejects_bad_alpha(burgers_run):
    with pytest.raises(ValueError):
        diag.power_energy_identity(burgers_run, 0.5, linear_diffusion(),
                                   0.05, 0.0)
    with pytest.raises(ValueError):
        diag.power_energy_identity(burgers_run, 1.5, linear_diffusion(),
                                   0.05, 0.0, form="cubed")


# ---------------------------------------------------------------------------
# a-priori bound machinery


def test_hn_bound_base_case():
    p = diag.HnBoundParams(r=2.0, n=0, u0_norms=[1.7], t=1.0, delta_ratio=0.3)
    assert diag.hn_bound(p) == pytest.approx(1.7**2, abs=1e-12)


def test_hn_bound_zero_coupling_collapse():
    norms = [1.0, 1.2, 1.5]
    p = diag.HnBoundParams(r=2.0, n=2, u0_norms=norms, t=2.0, delta_ratio=0.0)
    p_dr = diag.HnBoundParams(r=2.0, n=2, u0_norms=norms, t=2.0,
                              delta_ratio=0.5)
    assert diag.hn_bound(p) < diag.hn_bound(p_dr)


def test_hn_bound_validation():
    with pytest.raises(ValueError):
        diag.HnBoundParams(r=1.0, n=1, u0_norms=[1.0, 1.0], t=1.0,
                           delta_ratio=0.0)
    with pytest.raises(ValueError):
        diag.HnBoundParams(r=2.0, n=2, u0_norms=[1.0], t=1.0, delta_ratio=0.0)


def test_lp_bound_check():
    g = GridSpec(n=64, length=1.0)
    traj = Trajectory(grid=g)
    traj.append(0.0, Field(g, np.full(64, 0.5)))
    traj.append(1.0, Field(g, np.full(64, 0.25)))
    rep = diag.lp_bound_check(traj, r=2.0, n=1, hn=1.0)
    # max_t int |u|^3 = 0.125
    assert rep["max_norm_power"] == pytest.approx(0.125)
    assert rep["holds"]


def test_bootstrap_bound_formula():
    val = diag.bootstrap_bound(2.0, 0.5, 1.0, 2.0)
    assert val == pytest.approx(3.0 ** (3.0 / 2.0))
    assert diag.bootstrap_bound(0.1, 0.1, 0.0, 1.0) == 1.0  # max with 1
    with pytest.raises(ValueError):
        diag.bootstrap_bound(1.0, 1.0, 3.0, 1.0)


def test_h_regularity_check_keys(burgers_run):
    rep = diag.h_regularity_check(burgers_run, 0.05, 1.0, delta=0.05**2.5)
    for key in ("grad_term", "hessian_term", "lp_term", "mixed_term",
                "lp_factor"):
        assert np.isfinite(rep[key]) and rep[key] >= 0.0
    rep0 = diag.h_regularity_check(burgers_run, 0.0, 1.0)
    assert rep0["lp_factor"] == np.inf


# ---------------------------------------------------------------------------
# entropy production


def test_entropy_production_mu2_sign(burgers_run):
    theta = diag.bump_over(1.0, 0.25, 0.45, 0.2)
    pair = quadratic_entropy_pair(burgers_flux())
    rep = diag.entropy_production(burgers_run, pair, theta, 0.05, 0.05**2.5,
                                  linear_diffusion())
    assert rep.mu2 <= 1e-10
    assert rep.sign_checked
    assert rep.total == pytest.approx(rep.mu1 + rep.mu2 + rep.mu3)


def test_production_scaling_fit_exact_power_law():
    eps = np.array([0.1, 0.05, 0.02, 0.01])
    reports = [diag.EntropyProductionReport(mu1=e**0.5, mu2=-1.0, mu3=e**1.4,
                                            epsilon=e, delta=e**2.5)
               for e in eps]
    fit = diag.production_scaling_fit(reports)
    assert fit["mu1_slope"] == pytest.approx(0.5, abs=1e-6)
    assert fit["mu3_slope"] == pytest.approx(1.4, abs=1e-6)


def test_production_scaling_fit_guards():
    mk = lambda e: diag.EntropyProductionReport(mu1=e, mu2=0.0, mu3=e,
                                                epsilon=e, delta=0.0)
    with pytest.raises(ValueError, match="4 sweep points"):
        diag.production_scaling_fit([mk(0.1), mk(0.05), mk(0.01)])
    with pytest.raises(ValueError, match="decade"):
        diag.production_scaling_fit([mk(0.1), mk(0.08), mk(0.06), mk(0.04)])


def test_kruzkov_residual_nonpositive_on_diffusive_run(burgers_run):
    theta = diag.bump_over(1.0, 0.25, 0.45, 0.2)
    val = diag.kruzkov_residual(burgers_run, burgers_flux(), 0.5,
                                burgers_run.grid.dx, theta)
    assert val <= 1e-6


# ---------------------------------------------------------------------------
# oscillation diagnostics


def _synthetic_run(eps, values_fn, n=64, times=(0.0, 0.25, 0.5)):
    g = GridSpec(n=n, length=2.0)
    x = g.axes()[0]
    traj = Trajectory(grid=g, params={"epsilon": eps, "delta": eps})
    for t in times:
        traj.append(t, Field(g, values_fn(x, t)))
    return traj


def test_young_histogram_concentrated_limit():
    runs = [_synthetic_run(e, lambda x, t: np.full_like(x, 0.5))
            for e in (0.04, 0.02, 0.01, 0.005)]
    window = diag.Window(space=((0.5, 1.5),), t=(0.0, 0.5))
    hist = diag.young_histogram(runs, window)
    assert hist.concentration_score < 1e-20
    assert hist.n_samples > 0


def test_young_histogram_oscillatory_limit():
    def osc(x, t):
        return 0.5 + 0.5 * np.sign(np.sin(40 * np.pi * x))
    runs = [_synthetic_run(e, osc) for e in (0.04, 0.02, 0.01, 0.005)]
    window = diag.Window(space=((0.5, 1.5),), t=(0.0, 0.5))
    hist = diag.young_histogram(runs, window)
    assert hist.concentration_score > 0.2
    # pooled runs are the finest half of the ladder
    assert len(hist.per_run) == 2
    assert {lbl for lbl, _, _ in hist.per_run} == {(0.01, 0.01), (0.005, 0.005)}


def test_young_histogram_guards():
    runs = [_synthetic_run(0.04, lambda x, t: x)] * 2
    window = diag.Window(space=((0.5, 1.5),), t=(0.0, 0.5))
    with pytest.raises(ValueError, match="3 runs"):
        diag.young_histogram(runs, window)
    runs = [_synthetic_run(e, lambda x, t: x) for e in (0.04, 0.02, 0.01)]
    with pytest.raises(ValueError, match="window"):
        diag.young_histogram(
            runs, diag.Window(space=((3.0, 3.1),), t=(0.0, 0.5)))


def test_initial_trace_check_decreases(heat_run):
    out = diag.initial_trace_check(heat_run, heat_run.fields[0],
                                   [0.5, 0.25, 0.125])
    assert out[0] > out[1] > out[2] > 0.0


def test_append_diagnostic_rows(tmp_path):
    path = tmp_path / "diag.csv"
    diag.append_diagnostic_rows(path, [("energy", "residual", 0.05, 1e-6, True)])
    diag.append_diagnostic_rows(path, [("budget", "lhs", 0.05, 0.1, False)])
    lines = path.read_text().splitlines()
    assert lines[0] == "diag,name,param,value,holds"
    assert len(lines) == 3
    assert lines[1].endswith(",1")
    assert lines[2].endswith(",0")
