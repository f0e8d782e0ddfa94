"""End-to-end acceptance suite.

Each test pins one laboratory property: analytic-mode solver oracles,
the quadratic energy identity and gradient budget, the convergence /
non-convergence dichotomy of the diffusive-dispersive ladders, the
entropy-production signs and scaling slopes, the Kruzkov-residual
dichotomy, the reference-scheme convergence orders, the recursive
a-priori bound, the bootstrap inequality, and byte-level determinism
of sweep outputs.

The two parameter sweeps (diffusive delta = eps^2.5 ladder and the
zero-diffusion dispersive ladder) are shared across tests via
module-scoped fixtures.
"""

import time

import numpy as np
import pytest

from ddlab import diagnostics as diag
from ddlab.grids import Field, GridSpec, lp_norm, read_manifest
from ddlab.harness import SweepConfig, run_sweep
from ddlab.model import burgers_flux, linear_diffusion, zero_flux
from ddlab.reference import reference_solve
from ddlab.solver import SolveParams, initial_preset, solve
from oracles import burgers_riemann_exact


# ---------------------------------------------------------------------------
# shared sweeps


@pytest.fixture(scope="module")
def diffusive_sweep(tmp_path_factory):
    """eps in {0.04,...,0.005}, delta = eps^2.5, dx <= eps/4 ladder."""
    out = tmp_path_factory.mktemp("diffusive")
    cfg = SweepConfig(out_dir=str(out), workers=4)
    t0 = time.monotonic()
    records = run_sweep(cfg)
    return cfg, records, time.monotonic() - t0


@pytest.fixture(scope="module")
def dispersive_sweep(tmp_path_factory):
    """eps = 0, delta ladder; N = 512 resolves the oscillation wavelength
    ~ pi sqrt(2 delta) of every ladder entry."""
    out = tmp_path_factory.mktemp("dispersive")
    cfg = SweepConfig(out_dir=str(out), workers=3,
                      epsilons=(0.0, 0.0, 0.0), grid_ns=(512, 512, 512),
                      delta_ladder=(1e-3, 5e-4, 2.5e-4))
    t0 = time.monotonic()
    records = run_sweep(cfg)
    return cfg, records, time.monotonic() - t0


@pytest.fixture(scope="module")
def energy_runs():
    """Burgers with linear diffusion at N = 512 and 1024, sampled densely
    enough that the time-quadrature error of the energy integral is
    dominated by the O(dx^2) convective residual."""
    flux = burgers_flux()
    diff = linear_diffusion()
    eps = 0.05
    u0 = initial_preset("smoothed_riemann", uL=1.0, uR=0.0, w=0.02)
    out = {}
    t0 = time.monotonic()
    for n in (512, 1024):
        grid = GridSpec(n=n, length=2.0)
        params = SolveParams(flux=flux, diffusion=diff, epsilon=eps,
                             delta=eps**2.5, t_end=0.5, sample_count=4097,
                             cfl_safety=1.0)
        out[n] = solve(u0, params, grid)
    return out, eps, time.monotonic() - t0


# ---------------------------------------------------------------------------
# 1. analytic-mode solver oracles


def test_heat_mode_matches_decay_laws():
    t0 = time.monotonic()
    eps, t_end = 0.05, 1.0
    grid = GridSpec(n=256)
    x = grid.axes()[0]
    params = SolveParams(flux=zero_flux(), diffusion=linear_diffusion(),
                         epsilon=eps, delta=0.0, t_end=t_end, sample_count=3)
    traj = solve(initial_preset("sine"), params, grid)
    u = traj.final().values
    sym = np.sin(grid.dx) ** 2 / grid.dx**2   # wide-Laplacian symbol at k=1
    assert np.max(np.abs(u - np.exp(-eps * sym * t_end) * np.sin(x))) <= 1e-6
    assert np.max(np.abs(u - np.exp(-eps * t_end) * np.sin(x))) <= 2e-3
    assert time.monotonic() - t0 < 10.0


def test_airy_mode_conserves_l2():
    t0 = time.monotonic()
    grid = GridSpec(n=256)
    params = SolveParams(flux=zero_flux(), diffusion=linear_diffusion(),
                         epsilon=0.0, delta=1e-3, t_end=1.0, sample_count=3)
    traj = solve(initial_preset("sine"), params, grid)
    n0 = lp_norm(traj.fields[0], 2)
    assert abs(lp_norm(traj.final(), 2) - n0) <= 1e-6 * n0
    assert time.monotonic() - t0 < 10.0


# ---------------------------------------------------------------------------
# 2. quadratic energy identity


def test_energy_identity_residual_and_refinement(energy_runs):
    runs, eps, elapsed = energy_runs
    diff = linear_diffusion()
    resid = {}
    for n, traj in runs.items():
        assert not traj.blowup
        resid[n] = diag.energy_balance_residual(traj, diff, eps, 0.5)
        tol = 1e-3 * lp_norm(traj.fields[0], 2) ** 2
        assert abs(resid[n]) <= tol
    assert abs(resid[512]) / abs(resid[1024]) >= 3.0
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 3. gradient budget


def test_gradient_budget_on_energy_runs(energy_runs):
    runs, eps, _ = energy_runs
    diff = linear_diffusion()
    for traj in runs.values():
        u0_l2 = lp_norm(traj.fields[0], 2)
        rep = diag.gradient_budget(traj, diff, eps, u0_l2)
        assert rep["lhs"] <= rep["bound"] + 1e-2
        assert rep["holds"]


# ---------------------------------------------------------------------------
# 4. convergence regime


def test_diffusive_ladder_converges(diffusive_sweep):
    cfg, records, elapsed = diffusive_sweep
    assert [r.epsilon for r in records] == [0.04, 0.02, 0.01, 0.005]
    for r in records:
        assert not r.blowup
        assert r.dx <= r.epsilon / 4.0
    l1 = [r.L1 for r in records]
    assert all(b < a for a, b in zip(l1, l1[1:]))
    assert l1[-1] <= l1[0] / 3.0
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 5. non-convergence regime


def test_dispersive_ladder_does_not_converge(dispersive_sweep):
    cfg, records, elapsed = dispersive_sweep
    d_u = 1.0                       # |uL - uR| of the smoothed jump
    shock_width = d_u * cfg.t_end   # distance swept by the shock fan region
    for r in records:
        assert not r.blowup
        assert r.L1 >= 0.1 * d_u * shock_width
        assert r.young_var >= 0.05 * d_u**2
    assert elapsed < 600.0


# ---------------------------------------------------------------------------
# 6. entropy-production signs and scaling


def test_entropy_production_signs_and_slopes(diffusive_sweep):
    cfg, records, _ = diffusive_sweep
    for r in records:
        assert r.mu2 <= 1e-10
    eps = [r.epsilon for r in records]
    assert len(eps) >= 4
    # 0.9 decades admits the canonical 2x-halving ladder 0.04..0.005
    assert np.log10(max(eps) / min(eps)) >= 0.9 - 1e-9
    slopes = read_manifest(f"{cfg.out_dir}/summary.json")["slopes"]
    r_diff = 1.0   # linear diffusion exponent
    assert slopes["mu1"]["slope"] >= 1.0 / (r_diff + 1.0) - 0.3
    assert slopes["mu3"]["slope"] >= cfg.gamma - 3.0 / (r_diff + 1.0) - 0.3


# ---------------------------------------------------------------------------
# 7. Kruzkov residual dichotomy


def test_kruzkov_residual_dichotomy(diffusive_sweep, dispersive_sweep):
    _, diff_records, _ = diffusive_sweep
    _, disp_records, _ = dispersive_sweep
    pos = [r.kruzkov_pos for r in diff_records]
    # entropy-dissipating ladder: the positive part never grows (it is
    # identically zero here)
    assert all(b <= a + 1e-15 for a, b in zip(pos, pos[1:]))
    disp_finest = disp_records[-1].kruzkov_pos
    assert disp_finest > 0.0
    assert disp_finest >= 10.0 * diff_records[-1].kruzkov_pos


# ---------------------------------------------------------------------------
# 8. reference oracle


def test_reference_shock_and_rarefaction_orders():
    t0 = time.monotonic()
    flux = burgers_flux()

    # shock: error within 5 dx and first-order decay under refinement
    errs = {}
    for n in (2048, 4096):
        grid = GridSpec(n=n, length=2.0)
        x = grid.axes()[0]
        u0 = Field(grid, np.where((x >= 0.2) & (x < 1.0), 1.0, 0.0))
        t = 0.4
        out = reference_solve(u0, flux, t)
        exact = burgers_riemann_exact(1.0, 0.0, (x - 1.0) / t)
        window = (x > 1.05) & (x < 1.35)
        errs[n] = float(np.sum(np.abs(out.values - exact)[window]) * grid.dx)
        assert errs[n] <= 5.0 * grid.dx
    assert errs[2048] / errs[4096] >= 1.7

    # rarefaction: the fan interior converges at order >= 0.9.  The jump
    # sits away from the sonic point so the corner kinks and the seam
    # shock stay outside the measurement window.
    uL, uR, t = 0.5, 1.5, 0.4
    fan_errs = {}
    for n in (16384, 32768):
        grid = GridSpec(n=n, length=4.0)
        x = grid.axes()[0]
        u0 = Field(grid, np.where(x < 1.0, uL, uR))
        out = reference_solve(u0, flux, t)
        exact = np.clip((x - 1.0) / t, uL, uR)
        window = (x > 1.0 + uL * t + 0.06) & (x < 1.0 + uR * t - 0.06)
        fan_errs[n] = float(np.sum(np.abs(out.values - exact)[window]) * grid.dx)
    order = np.log2(fan_errs[16384] / fan_errs[32768])
    assert order >= 0.9
    assert time.monotonic() - t0 < 60.0


# ---------------------------------------------------------------------------
# 9. recursive a-priori bound


def test_hn_bound_properties():
    norms = [1.3, 1.1, 0.9, 1.2]

    # base case is the squared L2 norm of the data, exactly
    p0 = diag.HnBoundParams(r=2.0, n=0, u0_norms=norms, t=1.0, delta_ratio=0.7)
    assert abs(diag.hn_bound(p0) - 1.3**2) <= 1e-12

    # r = 2 closed form: every level multiplies C_k by exactly (1 + Delta)
    for n in (1, 2, 3):
        pd = diag.HnBoundParams(r=2.0, n=n, u0_norms=norms, t=5.0,
                                delta_ratio=0.7)
        p0d = diag.HnBoundParams(r=2.0, n=n, u0_norms=norms, t=5.0,
                                 delta_ratio=0.0)
        # reconstruct C_n from the Delta = 0 collapse of the last level
        h_prev_d = diag.hn_bound(
            diag.HnBoundParams(r=2.0, n=n - 1, u0_norms=norms, t=5.0,
                               delta_ratio=0.7))
        e3 = 1.0
        pk = n + 2.0
        comb = pk / (pk - 1.0) ** e3 * (pk - 1.0) / (pk - 2.0) ** e3 * n / 2.0
        cn = max(norms[n] ** pk, comb * h_prev_d**e3)
        assert abs(diag.hn_bound(pd) - cn * 1.7) <= 1e-12 * cn
        # Delta = 0 collapse: no coupling factor at the last level
        assert diag.hn_bound(p0d) <= diag.hn_bound(pd)

    # monotonicity in Delta, t, and the initial norms
    base = diag.HnBoundParams(r=3.0, n=2, u0_norms=norms, t=2.0,
                              delta_ratio=0.5)
    more_delta = diag.HnBoundParams(r=3.0, n=2, u0_norms=norms, t=2.0,
                                    delta_ratio=1.0)
    more_t = diag.HnBoundParams(r=3.0, n=2, u0_norms=norms, t=4.0,
                                delta_ratio=0.5)
    bigger = diag.HnBoundParams(r=3.0, n=2,
                                u0_norms=[2 * v for v in norms], t=2.0,
                                delta_ratio=0.5)
    h = diag.hn_bound(base)
    assert diag.hn_bound(more_delta) >= h - 1e-12
    assert diag.hn_bound(more_t) >= h - 1e-12
    assert diag.hn_bound(bigger) >= h - 1e-12


# ---------------------------------------------------------------------------
# 10. bootstrap inequality


def test_bootstrap_bound_dominates_fixed_point():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    for _ in range(1000):
        r = rng.uniform(1.0, 4.0)
        theta = rng.uniform(0.0, 0.95 * (r + 1.0))
        k = rng.uniform(0.1, 10.0)
        delta = rng.uniform(0.0, 5.0)
        a = theta / (r + 1.0)

        # bisection on X - K(1 + Delta X^a) = 0; a < 1 keeps it unique
        g = lambda x: k * (1.0 + delta * x**a)
        lo = k
        hi = max(2.0 * k, 2.0)
        while hi - g(hi) < 0:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid - g(mid) < 0:
                lo = mid
            else:
                hi = mid
        x_star = 0.5 * (lo + hi)
        assert x_star <= diag.bootstrap_bound(k, delta, theta, r) * (1 + 1e-9)
    assert time.monotonic() - t0 < 5.0


# ---------------------------------------------------------------------------
# 11. determinism


def test_sweep_rerun_is_bit_identical(diffusive_sweep, tmp_path_factory):
    from dataclasses import replace

    cfg, _, _ = diffusive_sweep
    with open(f"{cfg.out_dir}/records.csv", "rb") as fh:
        first = fh.read()
    out2 = tmp_path_factory.mktemp("rerun")
    run_sweep(replace(cfg, out_dir=str(out2)))
    with open(f"{out2}/records.csv", "rb") as fh:
        second = fh.read()
    assert second == first
