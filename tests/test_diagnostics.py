"""Energy identities, a-priori bounds, entropy production, and
oscillation diagnostics."""

import math

import numpy as np
import pytest

from ddlab.grids import Field, GridSpec, Trajectory, gradient, lp_norm
from ddlab.model import antiderivative, burgers_flux, diffusion_preset, \
    kruzkov_entropy, linear_diffusion, make_entropy_pair, zero_flux
from ddlab.solver import SolveParams, initial_preset, solve
from ddlab.harness import quadratic_entropy_pair
from ddlab import diagnostics as diag

from oracles import student_t_cdf


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
    g = GridSpec(n=100, length=2.0)
    x = g.axes()[0]
    (inside,) = theta.space(g)
    assert np.all(inside >= 0.0)
    assert np.all(inside[(x < 0.7) | (x > 1.3)] == 0.0)
    assert inside[50] > 0.0
    assert theta.time([0.5])[0] > 0.0
    assert theta.time([0.71])[0] == 0.0  # outside time support


def test_bump_over_repeats_scalars_on_every_axis():
    theta = diag.bump_over(1.0, 0.5, 0.3, 0.2, dim=2)
    assert theta.center == (1.0, 1.0) and theta.radius == (0.3, 0.3)
    theta = diag.bump_over(1.0, 0.5, 0.3, 0.2)
    assert theta.center == (1.0,) and theta.radius == (0.3,)


def test_bump_derivatives_match_finite_differences():
    theta = diag.bump_over(1.0, 0.5, 0.3, 0.2)
    g = GridSpec(n=40, length=2.0)
    at = [17, 19, 22]                # the nodes x = 0.85, 0.95, 1.1
    t = 0.45
    h = 1e-6
    dt_fd = (theta.time([t + h]) - theta.time([t - h])) / (2 * h)
    assert np.allclose(theta.time([t], 1), dt_fd, atol=1e-5)
    # X at x + h and x - h is X centered at 1 - h and 1 + h, at x
    ahead = diag.bump_over(1.0 - h, 0.5, 0.3, 0.2)
    behind = diag.bump_over(1.0 + h, 0.5, 0.3, 0.2)
    for order, atol in ((1, 1e-5), (2, 1e-4), (3, 1e-3)):
        fd = (ahead.space(g, 0, order - 1)[0]
              - behind.space(g, 0, order - 1)[0]) / (2 * h)
        assert np.allclose(theta.space(g, 0, order)[0][at], fd[at], atol=atol)


# ---------------------------------------------------------------------------
# energy identities


def test_energy_balance_heat_run(heat_run):
    resid = diag.energy_balance_residual(heat_run, linear_diffusion(), 0.05)
    u0_l2 = lp_norm(heat_run.fields[0], 2)
    assert abs(resid) <= 1e-3 * u0_l2**2


def test_energy_balance_requires_sample_time(burgers_run):
    # the energy diagnostics run through the last sample; a stored run is
    # cut at the sample that sample_index finds for the requested time
    with pytest.raises(ValueError, match="not a stored sample time"):
        diag.sample_index(burgers_run.times, 0.123456)


@pytest.mark.parametrize("t, k", [(1.0 + 1e-10, 2), (1.0 - 1e-10, 2),
                                  (0.5 + 1e-10, 1), (0.5 - 1e-10, 1)])
def test_sample_index_takes_the_nearest_sample_on_either_side(t, k):
    assert diag.sample_index([0.0, 0.5, 1.0], t) == k


@pytest.mark.parametrize("t, message", [
    (0.5 + 1e-6, "not a stored sample time"),
    (1.0 + 1e-6, "not a stored sample time"),
    (math.nan, "not a stored sample time"),
    (math.inf, "not a stored sample time"),
    (-math.inf, "not a stored sample time"),
    (1e-10, "leaves fewer than two samples"),
])
def test_sample_index_rejects(t, message):
    with pytest.raises(ValueError, match=message):
        diag.sample_index([0.0, 0.5, 1.0], t)


def test_gradient_budget(burgers_run):
    u0_l2 = lp_norm(burgers_run.fields[0], 2)
    rep = diag.gradient_budget(burgers_run, linear_diffusion(), 0.05)
    assert rep["holds"]
    assert rep["lhs"] <= rep["bound"] + 1e-2
    assert rep["bound"] == pytest.approx(u0_l2**2 / 2.0)


def test_power_energy_identity_alpha1_matches_energy(heat_run):
    rep = diag.power_energy_identity(heat_run, 1.0, linear_diffusion(),
                                     0.05, 0.0)
    resid = diag.energy_balance_residual(heat_run, linear_diffusion(), 0.05)
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


# ---------------------------------------------------------------------------
# a-priori bound machinery


def test_hn_bound_base_case():
    h = diag.hn_bound(r=2.0, n=0, u0_norms=[1.7], t=1.0, delta_ratio=0.3)
    assert h == pytest.approx(1.7**2, abs=1e-12)


def test_hn_bound_zero_coupling_collapse():
    norms = [1.0, 1.2, 1.5]
    h = diag.hn_bound(r=2.0, n=2, u0_norms=norms, t=2.0, delta_ratio=0.0)
    h_dr = diag.hn_bound(r=2.0, n=2, u0_norms=norms, t=2.0, delta_ratio=0.5)
    assert h < h_dr


def test_hn_bound_validation():
    with pytest.raises(ValueError):
        diag.hn_bound(r=1.0, n=1, u0_norms=[1.0, 1.0], t=1.0, delta_ratio=0.0)
    with pytest.raises(ValueError):
        diag.hn_bound(r=2.0, n=2, u0_norms=[1.0], t=1.0, delta_ratio=0.0)
    with pytest.raises(ValueError, match="n must be >= 0"):
        diag.hn_bound(r=2.0, n=-1, u0_norms=[1.0], t=1.0, delta_ratio=0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        diag.hn_bound(r=2.0, n=1, u0_norms=[1.0, -0.5], t=1.0,
                      delta_ratio=0.0)


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
    with pytest.raises(ValueError, match="requires r >= 1"):
        diag.h_regularity_check(burgers_run, 0.05, 0.5)


# ---------------------------------------------------------------------------
# entropy production


def test_entropy_production_mu2_sign(burgers_run):
    theta = diag.bump_over(1.0, 0.25, 0.45, 0.2)
    pair = quadratic_entropy_pair(burgers_flux())
    rep = diag.entropy_production(burgers_run, pair, theta, 0.05, 0.05**2.5,
                                  linear_diffusion())
    assert rep.mu2 <= 1e-10


def test_loglog_fit_exact_power_law():
    eps = np.array([0.1, 0.05, 0.02, 0.01])
    for power in (0.5, 1.4):
        fit = diag.loglog_fit(eps, eps**power)
        assert fit["slope"] == pytest.approx(power, abs=1e-6)
        assert fit["ci95"] == pytest.approx(0.0, abs=1e-6)


def _slope_standard_error(x, y) -> float:
    """The least-squares slope's standard error, in closed form: the
    residual variance over n - 2 degrees of freedom, divided by S_xx."""
    dx, dy = x - np.mean(x), y - np.mean(y)
    slope = (dx @ dy) / (dx @ dx)
    resid = dy - slope * dx
    return math.sqrt((resid @ resid) / (len(x) - 2) / (dx @ dx))


def _noisy_power_law(n: int):
    eps = np.geomspace(0.1, 0.001, n)
    noise = np.exp(0.2 * np.random.default_rng(n).standard_normal(n))
    return eps, eps**0.8 * noise


@pytest.mark.parametrize("n, t975", [
    (3, math.tan(0.475 * math.pi)),          # nu = 1: the Cauchy quantile
    (4, 0.95 * math.sqrt(2.0 / 0.0975)),     # nu = 2: t / sqrt(2 + t^2) = 0.95
])
def test_loglog_fit_ci95_is_the_student_t_half_width(n, t975):
    eps, values = _noisy_power_law(n)
    fit = diag.loglog_fit(eps, values)
    se = _slope_standard_error(np.log(eps), np.log(values))
    # the table holds four decimals
    assert fit["ci95"] / se == pytest.approx(t975, abs=5e-5)


@pytest.mark.parametrize("nu", range(1, 12))
def test_loglog_fit_ci95_quantile_has_probability_0975(nu):
    eps, values = _noisy_power_law(nu + 2)
    t = diag.loglog_fit(eps, values)["ci95"] / _slope_standard_error(
        np.log(eps), np.log(values))
    if nu <= 10:
        assert student_t_cdf(t, nu) == pytest.approx(0.975, abs=1e-5)
    else:  # past the table the nu = 10 quantile is used, which is wider
        assert t == pytest.approx(2.2281, abs=1e-12)
        assert 0.975 < student_t_cdf(t, nu) < 0.977


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("eps", [(0.04, 0.04), (0.04, 0.04, 0.04)])
def test_loglog_fit_needs_two_distinct_eps(eps):
    # with no spread in log eps, two points give a slope fitted to nothing
    # (and a RankWarning), three a singular covariance
    assert diag.loglog_fit(eps, [0.3, 0.2, 0.1][:len(eps)]) is None
    fit = diag.loglog_fit(eps + (0.02,), [0.3, 0.2, 0.1, 0.05][-len(eps) - 1:])
    assert fit is not None and np.isfinite(fit["slope"])


# brute-force oracle: theta's closed form on the full space-time mesh


def _closed_bump(s, order):
    """(1 - s^2)^4 and its first two derivatives, written out."""
    p = 1.0 - s**2
    val = (p**4, -8.0 * s * p**3, p**2 * (56.0 * s**2 - 8.0))[order]
    return np.where(np.abs(s) < 1.0, val, 0.0)


def _theta_on_mesh(theta, grid, t, axis=None, order=0, t_order=0):
    out = _closed_bump((t - theta.t_center) / theta.t_radius, t_order) \
        / theta.t_radius**t_order
    for ax, x in enumerate(grid.meshgrid()):
        m = order if ax == axis else 0
        out = out * _closed_bump((x - theta.center[ax]) / theta.radius[ax], m) \
            / theta.radius[ax]**m
    return out


def _oracle_pairings(traj, pair, theta, eps, delta, diff, flux, k, rho):
    """(mu1, mu2, mu3) and the Kruzkov pairing, evaluating theta and its
    derivatives on every cell at every sample."""
    grid = traj.grid
    eta, eta_p, _ = kruzkov_entropy(k, rho)
    q_fun = antiderivative(lambda v: eta_p(v) * np.asarray(flux.deriv(v)),
                           min(np.min(f.values) for f in traj.fields),
                           max(np.max(f.values) for f in traj.fields), n=8192)
    rows = []
    for t, f in zip(traj.times, traj.fields):
        u = f.values
        lam = np.stack([g.values for g in gradient(f)])
        b = np.asarray(diff.eval(lam))
        th = _theta_on_mesh(theta, grid, t)
        th_x = [_theta_on_mesh(theta, grid, t, ax, 1) for ax in range(grid.dim)]
        th_xx = [_theta_on_mesh(theta, grid, t, ax, 2) for ax in range(grid.dim)]
        mu1 = -eps * sum(pair.eta_prime(u) * b[ax] * th_x[ax]
                         for ax in range(grid.dim))
        mu2 = -eps * th * pair.eta_second(u) * np.sum(lam * b, axis=0)
        mu3 = 0.5 * delta * sum(
            pair.eta_third(u) * du**3 * th
            + 3.0 * pair.eta_second(u) * du**2 * th_x[ax]
            + 2.0 * pair.eta_prime(u) * du * th_xx[ax]
            for ax, du in enumerate(lam))
        kru = -eta(u) * _theta_on_mesh(theta, grid, t, t_order=1) \
            - q_fun(u) * sum(th_x)
        rows.append([np.sum(d) * grid.cell_volume for d in (mu1, mu2, mu3, kru)])
    return np.trapezoid(rows, traj.times, axis=0)


def _smooth_run(dim, times, n=32):
    g = GridSpec(n=n, length=2.0, dim=dim)
    mesh = g.meshgrid()
    traj = Trajectory(grid=g)
    for t in times:
        u = 0.5 + 0.4 * np.sin(np.pi * mesh[0] + t) \
            + 0.2 * np.cos(3.0 * np.pi * mesh[-1] - 2.0 * t)
        traj.append(t, Field(g, u))
    return traj


_QUARTIC = dict(eta=lambda u: u**4 / 12.0, eta_prime=lambda u: u**3 / 3.0,
                eta_second=lambda u: u**2, eta_third=lambda u: 2.0 * u)


@pytest.mark.parametrize("dim, theta, diffusion", [
    (1, diag.bump_over(1.0, 0.25, 0.45, 0.2), "linear"),
    (2, diag.TestFunction(center=(1.0, 0.9), t_center=0.25,
                          radius=(0.45, 0.6), t_radius=0.2), "power2"),
])
def test_separable_pairings_match_the_full_mesh_oracle(dim, theta, diffusion):
    traj = _smooth_run(dim, np.linspace(0.0, 0.5, 6))
    flux, diff = burgers_flux(), diffusion_preset(diffusion)
    pair = make_entropy_pair(flux=flux, **_QUARTIC)
    eps, delta, k, rho = 0.05, 0.02, 0.5, traj.grid.dx
    rep = diag.entropy_production(traj, pair, theta, eps, delta, diff)
    kru = diag.kruzkov_residual(traj, flux, k, rho, theta)
    expect = _oracle_pairings(traj, pair, theta, eps, delta, diff, flux, k, rho)
    assert np.all(np.abs(expect) > 1e-6)
    assert np.allclose([rep.mu1, rep.mu2, rep.mu3, kru], expect,
                       rtol=1e-12, atol=0.0)


def test_entropy_production_needs_eta_third():
    traj = _smooth_run(1, np.linspace(0.0, 0.5, 3))
    quartic = {k: v for k, v in _QUARTIC.items() if k != "eta_third"}
    pair = make_entropy_pair(flux=burgers_flux(), **quartic)
    with pytest.raises(ValueError, match="eta_third"):
        diag.entropy_production(traj, pair, diag.bump_over(1.0, 0.25, 0.45, 0.2),
                                0.05, 0.02, linear_diffusion())


def test_pairings_evaluate_the_bump_once_per_factor(monkeypatch):
    calls = []
    bump = diag._bump
    monkeypatch.setattr(diag, "_bump",
                        lambda *args: calls.append(args) or bump(*args))
    theta = diag.bump_over(1.0, 0.25, 0.45, 0.2)
    pair = quadratic_entropy_pair(burgers_flux())
    counts = []
    for samples in (9, 65):
        traj = _smooth_run(1, np.linspace(0.0, 0.5, samples))
        calls.clear()
        diag.entropy_production(traj, pair, theta, 0.05, 0.01,
                                linear_diffusion())
        production = len(calls)
        calls.clear()
        diag.kruzkov_residual(traj, burgers_flux(), 0.5, traj.grid.dx, theta)
        counts.append((production, len(calls)))
    assert counts[0] == counts[1]


def test_kruzkov_residual_nonpositive_on_diffusive_run(burgers_run):
    theta = diag.bump_over(1.0, 0.25, 0.45, 0.2)
    val = diag.kruzkov_residual(burgers_run, burgers_flux(), 0.5,
                                burgers_run.grid.dx, theta)
    assert val <= 1e-6


@pytest.fixture(scope="module")
def smooth_burgers_run():
    # inviscid Burgers from 0.5 sin x on [0, 2 pi): smooth until t = 2, so
    # every entropy is conserved and the exact residual is zero
    g = GridSpec(n=256)
    p = SolveParams(flux=burgers_flux(), diffusion=linear_diffusion(),
                    epsilon=0.0, delta=0.0, t_end=0.5, sample_count=65)
    return solve(initial_preset("sine", amplitude=0.5), p, g)


@pytest.mark.parametrize("theta", [
    diag.bump_over(3.0, 0.5, 1.5, 0.3),    # cut at T
    diag.bump_over(3.0, 0.0, 1.5, 0.3),    # cut at t = 0
    diag.bump_over(3.0, 0.25, 1.5, 0.4),   # cut at both ends
], ids=["cut_at_T", "cut_at_0", "cut_at_both"])
def test_kruzkov_residual_is_the_weak_form_on_0_T(smooth_burgers_run, theta):
    # without the end terms int eta(u) theta dx at t = 0 and t = T, the
    # first bump reads -0.23, the second +0.19
    val = diag.kruzkov_residual(smooth_burgers_run, burgers_flux(), 0.1,
                                smooth_burgers_run.grid.dx, theta)
    assert abs(val) <= 1e-3


def test_kruzkov_residual_reads_only_samples_inside_the_time_support(burgers_run):
    # the q table spans the samples the pairing reads: widening the range of
    # the samples outside theta's time support [0.05, 0.45] changes nothing
    theta = diag.bump_over(1.4, 0.25, 0.2, 0.2)
    args = (burgers_flux(), 0.5, burgers_run.grid.dx, theta)
    scaled = Trajectory(grid=burgers_run.grid)
    for t, f in zip(burgers_run.times, burgers_run.fields):
        scaled.append(t, f if 0.05 < t < 0.45 else Field(f.grid, 3.0 * f.values - 1.0))
    assert diag.kruzkov_residual(scaled, *args) == \
        diag.kruzkov_residual(burgers_run, *args)


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


def test_young_histogram_pools_the_finest_half():
    # one grid size per run, so the sample count names the pooled runs: of
    # five runs given out of order, the three finest are pooled
    runs = [_synthetic_run(e, lambda x, t: x, n=n)
            for e, n in ((0.01, 64), (0.04, 16), (0.0025, 256), (0.02, 32),
                         (0.005, 128))]
    window = diag.Window(space=((0.5, 1.5),), t=(0.0, 0.5))
    hist = diag.young_histogram(runs, window)
    finest = [diag.window_samples(runs[i], window) for i in (0, 2, 4)]
    assert hist.n_samples == sum(v.size for v in finest)
    assert hist.concentration_score == pytest.approx(np.var(np.concatenate(finest)),
                                                     rel=1e-12)


def test_young_histogram_guards():
    runs = [_synthetic_run(0.04, lambda x, t: x)] * 2
    window = diag.Window(space=((0.5, 1.5),), t=(0.0, 0.5))
    with pytest.raises(ValueError, match="3 runs"):
        diag.young_histogram(runs, window)
    runs = [_synthetic_run(e, lambda x, t: x) for e in (0.04, 0.02, 0.01)]
    with pytest.raises(ValueError, match="window"):
        diag.young_histogram(
            runs, diag.Window(space=((3.0, 3.1),), t=(0.0, 0.5)))


def test_append_diagnostic_rows(tmp_path):
    path = tmp_path / "diag.csv"
    diag.append_diagnostic_rows(path, [("energy", "residual", 0.05, 1e-6, True)])
    diag.append_diagnostic_rows(path, [("budget", "lhs", 0.05, 0.1, False)])
    lines = path.read_text().splitlines()
    assert lines[0] == "diag,name,param,value,holds"
    assert len(lines) == 3
    assert lines[1].endswith(",1")
    assert lines[2].endswith(",0")
