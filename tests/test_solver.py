"""Method-of-lines solver: rhs structure, step limits, conservation laws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ddlab import solver
from ddlab.grids import Field, GridSpec, lp_norm
from ddlab.model import DiffusionSpec, FluxSpec, advection_flux, \
    burgers_flux, diffusion_preset, flux_preset, linear_diffusion, \
    power_diffusion, zero_flux
from ddlab.solver import (
    InitialData,
    SolveParams,
    initial_preset,
    rhs,
    solve,
    stable_dt,
    step_rk4,
)
from oracles import burgers_hopf_cole, diagonal, etdrk4_step, \
    etdrk4_step_values, kdv_burgers_kink, laplacian, literal_steps


def _params(flux, diff, eps, delta, t_end=1.0, **kw):
    return SolveParams(flux=flux, diffusion=diff, epsilon=eps, delta=delta,
                       t_end=t_end, **kw)


def test_rhs_constant_field_is_zero():
    g = GridSpec(n=64)
    u = Field(g, np.full(64, 0.7))
    p = _params(burgers_flux(), linear_diffusion(), 0.1, 1e-3)
    assert np.allclose(rhs(u, p).values, 0.0, atol=1e-14)


def test_rhs_reduces_to_wide_laplacian():
    g = GridSpec(n=64)
    x = g.axes()[0]
    u = Field(g, np.sin(3 * x))
    eps = 0.07
    p = _params(zero_flux(), linear_diffusion(), eps, 0.0)
    assert np.allclose(rhs(u, p).values, eps * laplacian(u).values, atol=1e-13)


def test_rhs_advection_of_sine():
    g = GridSpec(n=256)
    x = g.axes()[0]
    u = Field(g, np.sin(x))
    p = _params(advection_flux(a=1.0), linear_diffusion(), 0.0, 0.0)
    assert np.max(np.abs(rhs(u, p).values + np.cos(x))) < 1e-3


def test_rhs_matches_hand_composed_grid_operators():
    # convection, diffusion and dispersion at once, against divergence,
    # gradient and third derivative composed by hand
    from ddlab.grids import gradient
    from oracles import divergence, third_derivative_axis
    g = GridSpec(n=128)
    x = g.axes()[0]
    u = Field(g, np.sin(2 * x) + 0.3 * np.cos(5 * x))
    flux = burgers_flux()
    diff = linear_diffusion()
    eps, delta = 0.03, 2e-4
    p = _params(flux, diff, eps, delta)
    fu = Field(g, flux.eval(u.values))
    grads = gradient(u)
    b = Field(g, diff.eval(np.stack([grads[0].values]))[0])
    expected = (-divergence([fu]).values
                + eps * divergence([b]).values
                + delta * third_derivative_axis(u).values)
    assert np.allclose(rhs(u, p).values, expected, atol=1e-12)


@st.composite
def _periodic_fields(draw):
    dim = draw(st.sampled_from((1, 2)))
    grid = GridSpec(n=draw(st.sampled_from((8, 9, 16))),
                    length=draw(st.floats(0.5, 8.0)), dim=dim)
    return Field(grid, draw(hnp.arrays(np.float64, grid.shape,
                                       elements=st.floats(-1.0, 1.0))))


@settings(max_examples=60, deadline=None)
@given(u=_periodic_fields(), flux=st.sampled_from(("burgers", "bounded")),
       diff=st.sampled_from(("linear", "power2")),
       eps=st.floats(0.0, 0.5), delta=st.floats(-1e-2, 1e-2))
def test_rhs_conserves_mass(u, flux, diff, eps, delta):
    p = _params(flux_preset(flux), diffusion_preset(diff), eps, delta)
    r = rhs(u, p).values
    assert abs(np.sum(r)) <= 1e-12 * max(np.sum(np.abs(r)), 1e-300)


def test_stable_dt_single_term_convection():
    g = GridSpec(n=200, length=2.0)  # dx = 0.01
    p = _params(burgers_flux(), linear_diffusion(), 0.0, 0.0, cfl_safety=0.5)
    assert stable_dt(p, g, u_max=1.0, grad_max=0.0) == pytest.approx(0.005)
    # 2-d stencils move diagonal data at 2 f': the bound halves exactly
    g2 = GridSpec(n=200, length=2.0, dim=2)
    assert stable_dt(p, g2, u_max=1.0, grad_max=0.0) == \
        0.5 * stable_dt(p, g, u_max=1.0, grad_max=0.0)


def test_stable_dt_ignores_exact_linear_terms():
    # dispersion and linear diffusion are integrated exactly: only the
    # convection bound is left, whatever delta and eps are
    g = GridSpec(n=128, length=2.0)
    for eps, delta in ((0.0, 0.0), (0.05, 0.0), (0.0, 1e-4), (0.05, 1e-4)):
        p = _params(burgers_flux(), linear_diffusion(), eps, delta)
        assert stable_dt(p, g, u_max=1.0, grad_max=2.0) == \
            pytest.approx(0.4 * g.dx, rel=1e-12)
    p = _params(zero_flux(), linear_diffusion(), 0.05, 1e-3)
    assert stable_dt(p, g, 1.0, 0.0) == pytest.approx(0.4 * g.dx)


def test_stable_dt_min_of_explicit_terms():
    # power2 keeps an explicit remainder: its bound dx^2 / (2 d eps B) with
    # B = 2 max|grad u| competes with convection dx / (d max|f'|); delta
    # never enters
    eps = 0.05
    for dim in (1, 2):
        g = GridSpec(n=128, length=2.0, dim=dim)
        dx = g.dx
        p = _params(burgers_flux(), power_diffusion(2.0), eps, 1e-4)
        for grad_max in (0.01, 2.0, 30.0):
            diff_bound = dx**2 / (2 * dim * eps * 2.0 * grad_max)
            assert stable_dt(p, g, 1.0, grad_max) == \
                pytest.approx(0.4 * min(dx / dim, diff_bound), rel=1e-12)
        assert stable_dt(p, g, 1.0, 30.0) < 0.4 * dx / dim   # diffusion binds
        assert stable_dt(p, g, 1.0, 0.01) == pytest.approx(0.4 * dx / dim)


def _sine_mode_step(eps, delta, old_limit):
    """One step at 100x the old explicit limit of a k=1 sine with no flux,
    against exp(h L(1)) applied to the mode."""
    g = GridSpec(n=64)
    x = g.axes()[0]
    u = Field(g, np.sin(x))
    h = 100.0 * 0.4 * old_limit(g.dx)
    out = step_rk4(u, h, _params(zero_flux(), linear_diffusion(), eps, delta))
    th = g.dx   # 2 pi k / n at k = 1 on [0, 2 pi)
    L = 1j * delta * (np.sin(2 * th) - 2 * np.sin(th)) / g.dx**3 \
        - eps * np.sin(th) ** 2 / g.dx**2
    return out.values, np.imag(np.exp(h * L) * np.exp(1j * x))


def test_etd_step_is_exact_for_airy_mode():
    got, expected = _sine_mode_step(0.0, 1e-3, lambda dx: dx**3 / (4 * 1e-3))
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_etd_step_is_exact_for_heat_mode():
    got, expected = _sine_mode_step(0.05, 0.0, lambda dx: dx**2 / (2 * 0.05))
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_stable_dt_follows_declared_structure_not_name():
    # a custom spec named "linear" with power-2 numerics steps by its
    # declared bound, not as the linear preset
    p2 = power_diffusion(2.0)
    named_linear = DiffusionSpec(eval=p2.eval, r=2.0, c2=1.0,
                                 name="linear", spectral_bound=p2.spectral_bound)
    g = GridSpec(n=128, length=2.0)
    dts = [stable_dt(_params(zero_flux(), d, 0.05, 0.0), g, 1.0, 30.0)
           for d in (named_linear, p2)]
    assert dts[0] == pytest.approx(dts[1], rel=1e-12)


def test_stable_dt_all_zero_coefficients():
    g = GridSpec(n=64, length=2.0)
    p = _params(zero_flux(), linear_diffusion(), 0.0, 0.0)
    assert stable_dt(p, g, 1.0, 0.0) == pytest.approx(0.4 * g.dx)


def test_step_rk4_constant_is_fixed_point():
    g = GridSpec(n=32)
    u = Field(g, np.full(32, -1.2))
    p = _params(burgers_flux(), linear_diffusion(), 0.1, 1e-3)
    out = step_rk4(u, 1e-3, p)
    assert np.allclose(out.values, u.values, atol=1e-14)


def test_step_rk4_heat_mode_decay():
    g = GridSpec(n=256)
    x = g.axes()[0]
    u = Field(g, np.sin(x))
    eps = 0.05
    p = _params(zero_flux(), linear_diffusion(), eps, 0.0)
    dt = stable_dt(p, g, 1.0, 1.0)
    out = step_rk4(u, dt, p)
    sym = np.sin(g.dx) ** 2 / g.dx**2  # wide-Laplacian symbol at k=1
    factor = out.values[64] / u.values[64]  # x = pi/2 sample
    assert factor == pytest.approx(np.exp(-eps * sym * dt), abs=1e-6)


def test_solve_mass_conservation():
    g = GridSpec(n=128, length=2.0)
    u0 = initial_preset("smoothed_riemann", uL=1.0, uR=0.0, w=0.05)
    p = _params(burgers_flux(), linear_diffusion(), 0.05, 1e-4, t_end=0.2,
                sample_count=5)
    traj = solve(u0, p, g)
    m0 = np.sum(traj.fields[0].values)
    for f in traj.fields[1:]:
        assert abs(np.sum(f.values) - m0) < 1e-10 * abs(m0)


def test_solve_l2_dissipation_when_no_dispersion():
    g = GridSpec(n=128)
    u0 = initial_preset("sine")
    p = _params(burgers_flux(), linear_diffusion(), 0.05, 0.0, t_end=0.5,
                sample_count=9)
    traj = solve(u0, p, g)
    norms = [lp_norm(f, 2) for f in traj.fields]
    assert all(b <= a + 1e-12 for a, b in zip(norms, norms[1:]))


def test_solve_dispersion_conserves_l2():
    g = GridSpec(n=256)
    u0 = initial_preset("sine")
    p = _params(zero_flux(), linear_diffusion(), 0.0, 1e-3, t_end=1.0,
                sample_count=5)
    traj = solve(u0, p, g)
    n0 = lp_norm(traj.fields[0], 2)
    assert abs(lp_norm(traj.final(), 2) - n0) < 1e-6 * n0


def test_solve_characteristics_oracle():
    # eps = delta = 0, smooth data, T well before gradient blow-up:
    # u(x,t) = u0(x - u t) by fixed-point iteration
    g = GridSpec(n=512)
    amp = 0.2
    u0 = initial_preset("sine", amplitude=amp)
    p = _params(burgers_flux(), linear_diffusion(), 0.0, 0.0, t_end=1.0,
                sample_count=3)
    traj = solve(u0, p, g)
    x = g.axes()[0]
    u = np.zeros_like(x)
    for _ in range(200):
        u = amp * np.sin(x - u * 1.0)
    assert np.max(np.abs(traj.final().values - u)) < 1e-2


# max error of solve against the KdV-Burgers kink, as measured when the
# test was written: eps -> (N 512, 1024, 2048)
_KINK_ERRORS = {0.04: (2.62e-4, 6.53e-5, 1.62e-5),
                0.02: (1.17e-3, 2.90e-4, 7.22e-5)}


@pytest.mark.parametrize("eps", sorted(_KINK_ERRORS))
def test_solve_matches_the_kdv_burgers_kink(eps):
    # the one exact solution with eps, delta and convection all on: the
    # kink starts at x = 2 and moves at 1/2; the left state rises at
    # x = 0.3, and its rarefaction stays left of the window at t = 0.5
    def producer(g):
        x = g.axes()[0]
        rise = 0.5 * (1.0 + np.tanh((x - 0.3) / 0.05))
        return Field(g, kdv_burgers_kink(eps, x - 2.0) * rise)

    u0 = InitialData(producer=producer, name="kink")
    p = _params(burgers_flux(), linear_diffusion(), eps, 12.0 / 25.0 * eps**2,
                t_end=0.5, sample_count=17)
    errors = []
    for n in (512, 1024, 2048):
        g = GridSpec(n=n, length=4.0)
        x = g.axes()[0]
        window = np.abs(x - 2.25) < 0.35
        u = solve(u0, p, g).final().values
        errors.append(np.max(np.abs(u - kdv_burgers_kink(eps, x - 2.25))[window]))
    assert errors == pytest.approx(_KINK_ERRORS[eps], rel=0.05)
    # second order in dx: about fourfold per halving
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.8 < coarse / fine < 4.2


# L1 distance of solve to the Hopf-Cole solution, as measured when the test
# was written: N -> distance, pinned to 1%.  The oracle is exact to 1e-15
# here, so the distance is the solver's own
_HOPF_COLE_L1 = {1024: 3.9191939781540495e-05, 2048: 9.800526550989552e-06}


def test_solve_matches_the_hopf_cole_solution():
    # viscous Burgers from the default smoothed_riemann data: a shock and a
    # viscous rarefaction corner, with delta = 0; at eps = 0.01 the
    # whole-line solution's tails at the periodic seam are far below these
    # distances (at eps = 0.04 they are not)
    p = _params(burgers_flux(), linear_diffusion(), 0.01, 0.0, t_end=0.5,
                sample_count=17)
    errors = {}
    for n in _HOPF_COLE_L1:
        g = GridSpec(n=n, length=2.0)
        u = solve(initial_preset("smoothed_riemann"), p, g).final().values
        exact = burgers_hopf_cole(0.01, 0.5, g.axes()[0])
        errors[n] = lp_norm(Field(g, u - exact), 1)
    assert errors == pytest.approx(_HOPF_COLE_L1, rel=0.01)
    # second order in dx: 4.00 when measured
    assert 3.9 < errors[1024] / errors[2048] < 4.1


def test_solve_hits_sample_times_exactly():
    g = GridSpec(n=64, length=2.0)
    u0 = initial_preset("smoothed_riemann", uL=1.0, uR=0.0, w=0.05)
    p = _params(burgers_flux(), linear_diffusion(), 0.05, 0.0, t_end=0.3,
                sample_count=7)
    traj = solve(u0, p, g)
    assert np.allclose(traj.times, np.linspace(0.0, 0.3, 7), atol=1e-13)
    assert not traj.blowup


def test_solve_blowup_flag_on_backward_diffusion():
    backward = DiffusionSpec(
        eval=lambda lam: -np.asarray(lam, dtype=float),
        r=1.0, c2=1.0, spectral_bound=lambda grad_max: 1.0, name="backward")
    g = GridSpec(n=64)
    u0 = initial_preset("sine", amplitude=1e-3)
    # growth e^(eps t) must clear the relative blow-up threshold of 1e6
    p = _params(zero_flux(), backward, 40.0, 0.0, t_end=0.5, sample_count=3)
    traj = solve(u0, p, g)
    assert traj.blowup
    assert len(traj.fields) < 3   # partial trajectory
    # the time of the failing step is kept, after the last stored sample
    assert traj.times[-1] < traj.params["t_blowup"] <= 0.5


def test_solve_blowup_flag_on_a_damped_entry():
    # a flux that understates its speed (f' declared 0) lets step doubling
    # take steps far over the convective limit: every trial blows up, and so
    # does the accepted plan at n0, inside the first sample interval
    liar = FluxSpec(eval=lambda u: 20.0 * np.asarray(u) ** 2,
                    deriv=lambda u: np.zeros_like(np.asarray(u, dtype=float)),
                    m=2.0, name="liar")
    g = GridSpec(n=128, length=2.0)
    p = _params(liar, linear_diffusion(), 1e-3, 0.0, t_end=0.5, sample_count=9)
    traj = solve(initial_preset("smoothed_riemann"), p, g)
    assert traj.blowup
    assert len(traj.fields) == 1
    assert traj.params["trial_steps"] > 0
    assert 0.0 < traj.params["t_blowup"] <= 0.5 / 8


def _solve_counting_etd_sets(p, g, u0=initial_preset("smoothed_riemann"),
                             stepped=None):
    """solve(u0, p, g), the (h, S) of each row of every step it took, and
    the (h, S) of each ETD coefficient set it built.  The h of each step's
    rows, as one tuple per step, go to stepped, if given."""
    rows, builds = [], []
    stack, step = solver._stack, solver._step_arr
    build = solver._etd_coefficient_set

    def stack_with_rows(grid, coefficients, rows):
        return rows, stack(grid, coefficients, rows)

    def counted_step(v, u, grid, k):
        rows.extend((h, S) for _, h, S in k[0])
        if stepped is not None:
            stepped.append(tuple(h for _, h, _ in k[0]))
        return step(v, u, grid, k[1])

    def counted_build(grid, p, h, S):
        builds.append((h, S))
        return build(grid, p, h, S)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(solver, "_stack", stack_with_rows)
        m.setattr(solver, "_step_arr", counted_step)
        m.setattr(solver, "_etd_coefficient_set", counted_build)
        traj = solve(u0, p, g)
    return traj, rows, builds


def test_etd_coefficients_survive_a_replan(monkeypatch):
    # on the delta = 1e-3 dispersive ladder entry the oscillating max|u|
    # re-splits sample intervals; a one-entry cache let each re-plan evict
    # the nominal h, so the next interval rebuilt it (35 builds per solve)
    g = GridSpec(n=512, length=2.0)
    p = _params(burgers_flux(), linear_diffusion(), 0.0, 1e-3, t_end=0.5,
                sample_count=65)
    traj, rows, builds = _solve_counting_etd_sets(p, g)
    assert len(rows) == traj.params["steps"]
    # the cache holds the re-planned h as well: each distinct h is built once
    assert sorted(builds) == sorted(set(rows)) and len(builds) == 12
    # an undamped entry takes the convective plan's steps, with no trials
    assert traj.params["steps"] == 409
    assert traj.params["trial_steps"] == 0
    # a re-plan inside an interval set the smallest step: it is below the
    # first interval's plan width / n0 = 0.0015625, and below every plan
    # drawn from a stored sample
    width = traj.times[1]
    n0 = [np.ceil(width / stable_dt(p, g, f.max_abs(), 0.0))
          for f in traj.fields[:-1]]
    assert traj.params["dt_min"] < width / n0[0] == 0.0015625
    assert traj.params["dt_min"] < width / max(n0)
    # a re-split only shortens the step, so the smallest step any row took
    # is the last one of some interval, which dt_min reads
    assert traj.params["dt_min"] == min(h for h, _ in rows)
    # the same plan driven by the literal Kassam-Trefethen step ends on the
    # same bits
    literal_steps(monkeypatch)
    literal = solve(initial_preset("smoothed_riemann"), p, g)
    assert literal.params["steps"] == 409
    assert literal.params["dt_min"] == traj.params["dt_min"]
    assert np.array_equal(literal.final().values, traj.final().values)


def test_a_solve_keeps_no_memo_after_it_returns():
    # a cache that outlived a solve would make a second solve of the same
    # entry cheaper than the first: both must build the same ETD sets
    g = GridSpec(n=128, length=2.0)
    p = _params(burgers_flux(), linear_diffusion(), 0.04, 1e-4, t_end=0.2,
                sample_count=5)
    first, _, first_builds = _solve_counting_etd_sets(p, g)
    again, _, again_builds = _solve_counting_etd_sets(p, g)
    assert first_builds and again_builds == first_builds
    assert np.array_equal(again.final().values, first.final().values)


@pytest.fixture(scope="module")
def damped_entry():
    """The default ladder's first entry (eps = 0.04, N = 512), solved:
    (params, grid, trajectory, (h, S) of each row of every step, (h, S) of
    each ETD set built)."""
    g = GridSpec(n=512, length=2.0)
    p = _params(burgers_flux(), linear_diffusion(), 0.04, 0.04**2.5,
                t_end=0.5, sample_count=65)
    return (p, g, *_solve_counting_etd_sets(p, g))


def test_damped_solve_matches_a_fine_fixed_step_solve(damped_entry):
    # step doubling keeps each interval's estimated error under TOL, and
    # viscous Burgers does not amplify errors in max norm.  Against ten
    # fixed steps per sample interval the largest error, 4.4e-7, is at the
    # first sample, on the steep initial data; accepting every first trial
    # (two steps) instead errs by 2.0e-5 there
    p, g, traj = damped_entry[:3]
    u = traj.fields[0]
    h = traj.times[1] / 10
    for f in traj.fields[1:]:
        for _ in range(10):
            u = step_rk4(u, h, p)
        assert np.max(np.abs(f.values - u.values)) <= \
            solver.TOL * traj.fields[0].max_abs()


def test_damped_solve_takes_no_more_steps_than_the_convective_plan(damped_entry):
    # the convective plan takes 331 steps here; step doubling accepts fewer,
    # and every step it takes, accepted or trial, looks up one ETD set
    _, _, traj, rows, _ = damped_entry
    assert traj.params["steps"] <= 331
    assert traj.params["trial_steps"] > 0
    assert len(rows) == traj.params["steps"] + traj.params["trial_steps"]


def test_damped_solve_accepts_fewer_steps_than_two_per_interval(damped_entry):
    # a trial within one sample interval accepts two steps at the fewest,
    # 128 over these 64 intervals; a pair of intervals accepts one step each,
    # against one coarse step of twice the width over both
    _, _, traj, rows, _ = damped_entry
    assert traj.params["steps"] < 128
    assert (2.0 * traj.times[1], 1.0) in rows


@pytest.mark.parametrize("thr, c, w, t_blowup, samples, steps, trials, tail", [
    # the pair at sample 9 blows up in its first step, so its second is not
    # stepped; the trial at two steps on its first interval blows up too
    (1.02, 8, 0.1, 0.0703125, 9, 18, 10, ((2, 1), (0.5,), (0.5,))),
    # the pair at samples 7-8 blows up in its second step and falls back to
    # the trial at two steps, which passes; the next pair blows up in its
    # first step
    (1.01, 4, 0.08, 0.0625, 8, 16, 11,
     ((2, 1), (1,), (0.5,), (0.5,), (2, 1), (0.5,), (0.5,))),
], ids=["first_step", "second_step"])
def test_a_pair_that_blows_up_falls_back_to_two_steps(thr, c, w, t_blowup,
                                                      samples, steps, trials,
                                                      tail):
    # Burgers below thr and nan from thr up: a step whose stages reach thr
    # blows up, and the KdV-Burgers overshoot of the smoothed Riemann data
    # crosses thr
    flux = FluxSpec(eval=lambda u: np.where(u < thr, 0.5 * u * u, np.nan),
                    deriv=lambda u: u, m=2)
    g = GridSpec(n=128, length=2.0)
    p = _params(flux, linear_diffusion(), 0.02, c * 0.02**2, t_end=0.5,
                sample_count=65)
    stepped = []
    traj, rows, _ = _solve_counting_etd_sets(
        p, g, initial_preset("smoothed_riemann", w=w), stepped)
    assert traj.blowup and traj.params["t_blowup"] == t_blowup
    assert len(traj.times) == samples
    assert (traj.params["steps"], traj.params["trial_steps"]) == (steps, trials)
    # every step a trial took is counted, the blown ones included
    assert len(rows) == steps + trials
    # no step is taken from a blown step's end
    width = traj.times[1]
    assert stepped[-len(tail):] == [tuple(k * width for k in r) for r in tail]


def test_damped_solve_builds_each_etd_level_once(damped_entry):
    # no set is evicted and rebuilt: one build per distinct h, width / n or
    # a pair's 2 width
    _, _, traj, rows, builds = damped_entry
    assert 1 < len(builds) and sorted(builds) == sorted(set(rows))
    # each interval's coarse and rejected trials step longer than its
    # accepted fine one, so the smallest step of any row is dt_min
    assert traj.params["dt_min"] == min(h for h, _ in rows)


def test_a_rejected_pair_falls_back_to_the_trial_at_two_steps():
    # a sine steepens into a shock by t = 1/pi, under-resolved at N = 64:
    # pairs of intervals pass while it is smooth, and the first one across
    # the steepening fails.  Its first interval then takes the trial at
    # n = 2, whose coarse trial is the pair's step of width to that
    # interval's end: the fine trial's two steps follow alone
    g = GridSpec(n=64, length=2.0)
    p = _params(burgers_flux(), linear_diffusion(), 0.02, 0.02**2.5,
                t_end=0.5, sample_count=33)
    stepped = []
    traj, rows, _ = _solve_counting_etd_sets(p, g, initial_preset("sine"),
                                             stepped)
    width = traj.times[1]
    pair, fine = [(2.0 * width, width), (width,)], [(width / 2.0,)] * 2
    starts = [i for i, hs in enumerate(stepped) if hs == pair[0]]
    rejected = [i for i in starts if stepped[i:i + 4] == pair + fine]
    assert len(rejected) == 1 and starts[0] < rejected[0]
    assert len(traj.times) == 33 and not traj.blowup
    # every step is counted, as accepted or as a trial
    assert len(rows) == traj.params["steps"] + traj.params["trial_steps"]


def test_stabilized_power2_solve_matches_the_explicit_bound_plan():
    # the same entry with nonlinear diffusion wholly explicit (S = 0),
    # stepped at the plan stable_dt re-evaluates after every step: it took
    # 1,256 steps against 813 accepted stabilized ones, and the two differ
    # by at most 7.0e-7 over all samples, under TOL times sup |u0|
    g = GridSpec(n=128, length=2.0)
    p = _params(burgers_flux(), power_diffusion(2.0), 0.08, 0.08**2.5,
                t_end=0.1)
    u0 = initial_preset("smoothed_riemann")
    traj = solve(u0, p, g)

    def limit(u):
        return stable_dt(p, g, np.max(np.abs(u)), solver._grad_max(u, g, p))

    u = traj.fields[0].values
    v, t, steps = np.fft.rfft(u), 0.0, 0
    width = traj.times[1]
    for target, f in zip(traj.times[1:], traj.fields[1:]):
        n = int(np.ceil(width / limit(u)))
        h = width / n
        while n:
            v = etdrk4_step(v, u, h, g, p, 0.0)
            u = np.fft.irfft(v, g.n)
            steps, n = steps + 1, n - 1
            t = t + h if n else target
            if n and limit(u) < h:
                n = int(np.ceil((target - t) / limit(u)))
                h = (target - t) / n
        assert np.max(np.abs(f.values - u)) <= \
            solver.TOL * traj.fields[0].max_abs()
    assert traj.params["steps"] < steps


def test_dense_sampled_damped_solve_takes_no_trial_steps():
    # a sample interval under the convective limit (n0 == 1) is one step,
    # as in the undamped loop: no trial could take fewer
    g = GridSpec(n=64, length=2.0)
    p = _params(burgers_flux(), linear_diffusion(), 0.05, 1e-4, t_end=0.1,
                sample_count=17)
    traj = solve(initial_preset("smoothed_riemann", w=0.05), p, g)
    assert traj.params["steps"] == 16
    assert traj.params["trial_steps"] == 0
    assert traj.params["dt_min"] == traj.times[1]


def test_etd_coefficients_closed_form_matches_the_contour_mean():
    # closed form where |hL| >= 1, contour mean below: the two agree, so
    # the contour mean over every mode reproduces the coefficients
    g = GridSpec(n=512, length=2.0)
    p = _params(burgers_flux(), linear_diffusion(), 0.005, 1e-3)
    h = 1e-3
    hL = h * solver._linear_symbol(g, p, 1.0)
    assert 0 < np.sum(np.abs(hL) >= 1.0) < hL.size
    circle = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32)
    contour = h * np.mean(solver._phi_combinations(hL + circle[:, None]), axis=1)
    solver._etd_coefficients.cache_clear()
    for got, want in zip(solver._etd_coefficients(g, p, h, 1.0)[2:], contour):
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-12


def test_etd_step_local_error_is_fifth_order():
    # flux, linear diffusion and dispersion together, with |h L| near 1:
    # the contour coefficients must give a one-step error ~ h^5, so halving
    # h cuts it ~32x (a wrong phi-coefficient leaves a low-order error)
    g = GridSpec(n=32)
    x = g.axes()[0]
    u = Field(g, 0.5 * np.sin(x) + 0.2 * np.cos(3 * x))
    p = _params(burgers_flux(), linear_diffusion(), 0.01, 0.05)

    def one_step_error(h, substeps=64):
        ref = u
        for _ in range(substeps):
            ref = step_rk4(ref, h / substeps, p)
        return np.max(np.abs(step_rk4(u, h, p).values - ref.values))

    assert one_step_error(0.1) / one_step_error(0.05) > 20.0


@pytest.mark.parametrize("n, dim", [(512, 1), (255, 1), (32, 2)])
@pytest.mark.parametrize("flux", [burgers_flux(), flux_preset("bounded")],
                         ids=["burgers", "bounded"])
@pytest.mark.parametrize("diff, eps, delta", [
    (linear_diffusion(), 0.02, 1e-4),
    (linear_diffusion(), 0.0, 1e-3),
    (power_diffusion(2.0), 0.02, 1e-4),
], ids=["linear", "dispersion", "power2"])
def test_step_rk4_is_the_literal_kassam_trefethen_step(diff, eps, delta,
                                                       flux, n, dim):
    # odd n takes numpy's odd-length rfft path; 2-d takes rfftn
    g = GridSpec(n=n, length=2.0, dim=dim)
    u = initial_preset("smoothed_riemann" if dim == 1 else "bump").build(g)
    p = _params(flux, diff, eps, delta)
    grad_max = solver._grad_max(u.values, g, p)
    h = stable_dt(p, g, u.max_abs(), grad_max)
    # step_rk4 stabilizes with the spectral bound at the step's max |grad u|
    S = 1.0 if diff.linear else diff.spectral_bound(grad_max)
    assert np.array_equal(step_rk4(u, h, p).values,
                          etdrk4_step_values(u, h, p, S))


def test_step_rk4_builds_its_stack_through_stack(monkeypatch):
    # _stack builds every stacked step, the one row of step_rk4 included
    built = []

    def counted_stack(grid, coefficients, rows):
        built.append(rows)
        return stack(grid, coefficients, rows)

    stack = solver._stack
    monkeypatch.setattr(solver, "_stack", counted_stack)
    g = GridSpec(n=64, length=2.0)
    p = _params(burgers_flux(), linear_diffusion(), 0.02, 1e-4)
    step_rk4(initial_preset("smoothed_riemann").build(g), 1e-3, p)
    assert built == [((p, 1e-3, 1.0),)]


@pytest.mark.parametrize("batch", [2, 3])
@pytest.mark.parametrize("n", [8, 255, 512, 1025, 4096])
def test_stacked_1d_transforms_equal_each_row_alone(n, batch):
    # the stacked step rests on this: numpy transforms each row of a stack
    # as it transforms that row alone, bit for bit (odd n included)
    u = np.random.default_rng([n, batch]).standard_normal((batch, n))
    v = np.fft.rfft(u)
    back = np.fft.irfft(v, n)
    for i in range(batch):
        assert np.array_equal(v[i], np.fft.rfft(u[i]))
        assert np.array_equal(back[i], np.fft.irfft(v[i], n))


@pytest.mark.parametrize("lead", [(2,), (3,), (2, 3)],
                         ids=["batch2", "batch3", "components_batch"])
@pytest.mark.parametrize("n", [8, 33, 64])
def test_stacked_2d_transforms_equal_each_row_alone(n, lead):
    # 2-d: rfftn/irfftn over the last two axes, behind a batch axis, and
    # behind a gradient's component axis and a batch axis
    u = np.random.default_rng([n, *lead]).standard_normal(lead + (n, n))
    v = np.fft.rfftn(u, axes=(-2, -1))
    back = np.fft.irfftn(v, s=(n, n), axes=(-2, -1))
    for i in np.ndindex(lead):
        assert np.array_equal(v[i], np.fft.rfftn(u[i], axes=(-2, -1)))
        assert np.array_equal(back[i],
                              np.fft.irfftn(v[i], s=(n, n), axes=(-2, -1)))


_BACKWARD = DiffusionSpec(eval=lambda lam: -np.asarray(lam, dtype=float),
                          r=1.0, c2=1.0, spectral_bound=lambda grad_max: 1.0,
                          name="backward")


def _group(flux, diff, eps, delta, n, t_end, samples, initial):
    """(initial data, grid, params) of entries sharing flux and diffusion."""
    return (initial, GridSpec(n=n, length=2.0),
            [_params(flux, diff, e, d, t_end=t_end, sample_count=samples)
             for e, d in zip(eps, delta)])


def _blowup_beside_a_kept_row():
    # growth e^(eps t) clears the blow-up threshold at eps = 40: every trial
    # of its first interval blows up, and then its plan, at step 256.  The
    # kept row (eps = 1e-3), planned at two steps an interval, takes pairs
    # of one-step intervals through all of that
    f, g = zero_flux(), GridSpec(n=64, length=2.0)
    return (initial_preset("sine", amplitude=1e-3), g, [
        _params(f, _BACKWARD, 40.0, 0.0, t_end=0.5, sample_count=3),
        _params(f, _BACKWARD, 1e-3, 0.0, t_end=0.5, sample_count=257,
                cfl_safety=0.003)])


@pytest.mark.parametrize("group, rows", [
    (_group(burgers_flux(), linear_diffusion(), (0.0,) * 3,
            (1e-3, 5e-4, 2.5e-4), 128, 0.2, 5,
            initial_preset("smoothed_riemann")), 3),
    # one damped entry: its coarse and fine trials stack
    (_group(burgers_flux(), linear_diffusion(), (0.04,), (0.04**2.5,), 128,
            0.2, 5, initial_preset("smoothed_riemann")), 2),
    (_group(burgers_flux(), power_diffusion(2.0), (0.08, 0.04),
            (0.08**2.5, 0.04**2.5), 64, 0.05, 3,
            initial_preset("smoothed_riemann", w=0.05)), 4),
    (_blowup_beside_a_kept_row(), 4),
    # two damped entries, densely sampled: their pairs of intervals stack
    (_group(burgers_flux(), linear_diffusion(), (0.08, 0.04),
            (0.08**2.5, 0.04**2.5), 128, 0.25, 33,
            initial_preset("smoothed_riemann")), 4),
    # an eps = 0 entry among damped ones: its row joins their stack, which
    # runs the explicit diffusion, and adds eps times the remainder, +-0
    (_group(burgers_flux(), power_diffusion(2.0), (0.08, 0.0, 0.04),
            (0.08**2.5, 1e-3, 0.04**2.5), 64, 0.05, 3,
            initial_preset("smoothed_riemann", w=0.05)), 5),
], ids=["undamped_ladder", "coarse_fine_pair", "power2", "blowup",
        "damped_pairs", "power2_with_eps0"])
def test_stacked_solves_equal_solo_solves_of_the_literal_step(monkeypatch,
                                                               group, rows):
    u0, g, params = group
    widths = []

    def spy(v, u, grid, k):
        widths.append(len(k.eps))
        return step(v, u, grid, k)

    step = solver._step_arr
    monkeypatch.setattr(solver, "_step_arr", spy)
    stacked = solver.solve_many(u0, params, g)
    assert max(widths) == rows
    # each entry alone, every row of every step the literal step
    literal_steps(monkeypatch)
    for p, got in zip(params, stacked):
        want = solve(u0, p, g)
        assert got.params == want.params
        assert got.blowup == want.blowup
        assert got.times == want.times
        for a, b in zip(got.fields, want.fields):
            assert np.array_equal(a.values, b.values)
    if params[0].diffusion is _BACKWARD:
        # the blown-up row stopped alone, inside its first interval
        blown, kept = stacked
        assert blown.blowup and not kept.blowup
        assert len(blown.times) == 1 and len(kept.times) == 257
        assert 0.0 < blown.params["t_blowup"] < 0.25
        # two steps in the first and the last interval, one in each other
        assert kept.params["steps"] == 258


def test_solve_many_rejects_params_of_different_specs():
    u0, g = initial_preset("smoothed_riemann"), GridSpec(n=64, length=2.0)
    p = _params(burgers_flux(), linear_diffusion(), 0.0, 1e-3, t_end=0.1)
    for other in (_params(burgers_flux(), p.diffusion, 0.0, 5e-4, t_end=0.1),
                  _params(p.flux, power_diffusion(2.0), 0.0, 5e-4, t_end=0.1)):
        with pytest.raises(ValueError, match="one flux and one diffusion"):
            solver.solve_many(u0, [p, other], g)


def test_dispersive_ladder_builds_each_stack_once(monkeypatch):
    # the rows of every step are all live streams in one fixed order, so a
    # set of rows that recurs is the same tuple and the kept stack serves it
    # (a row order that rotated as streams ended built 32 for 16 sets)
    built = []

    def counted_stack(grid, coefficients, rows):
        built.append(rows)
        return stack(grid, coefficients, rows)

    stack = solver._stack
    monkeypatch.setattr(solver, "_stack", counted_stack)
    u0, g, params = _group(burgers_flux(), linear_diffusion(), (0.0,) * 3,
                           (1e-3, 5e-4, 2.5e-4), 512, 0.5, 65,
                           initial_preset("smoothed_riemann"))
    solver.solve_many(u0, params, g)
    assert len(built) == len({frozenset(rows) for rows in built}) == 16


@pytest.mark.parametrize("eps, n", [((0.04,), 512), ((0.04, 0.02), 256)],
                         ids=["damped_entry", "two_damped_entries"])
def test_damped_solves_build_each_stack_and_etd_set_once(monkeypatch, eps, n):
    # pairs of intervals add the rows (2 width, width) and (width,) to the
    # trials' stacks, and 2 width to each entry's ETD sets: _advance's
    # stack cache and solve_many's sets keep every one for the solve
    stacks, sets = [], []
    stack, build = solver._stack, solver._etd_coefficient_set

    def counted_stack(grid, coefficients, rows):
        stacks.append(rows)
        return stack(grid, coefficients, rows)

    def counted_build(grid, p, h, S):
        sets.append((p, h, S))
        return build(grid, p, h, S)

    monkeypatch.setattr(solver, "_stack", counted_stack)
    monkeypatch.setattr(solver, "_etd_coefficient_set", counted_build)
    u0, g, params = _group(burgers_flux(), linear_diffusion(), eps,
                           [e**2.5 for e in eps], n, 0.5, 65,
                           initial_preset("smoothed_riemann"))
    width = np.linspace(0.0, 0.5, 65)[1]
    solver.solve_many(u0, params, g)
    assert len(stacks) == len(set(stacks)) and len(sets) == len(set(sets))
    assert {(p, 2.0 * width, 1.0) for p in params} <= set(sets)
    # with two entries, some steps stack both entries' pairs
    assert any(sum(h == 2.0 * width for _, h, _ in rows) == len(params)
               for rows in stacks)


@pytest.mark.parametrize("n", [512, 255])
def test_1d_transforms_are_rfftn_and_irfftn(n):
    g = GridSpec(n=n, length=2.0)
    u = np.random.default_rng(n).standard_normal((2, n))
    v = np.fft.rfftn(u, axes=(-1,))
    assert np.array_equal(solver._spectrum(u, g), v)
    assert np.array_equal(solver._spectrum(u[0], g), v[0])
    assert np.array_equal(solver._values(v, g),
                          np.fft.irfftn(v, s=(n,), axes=(-1,)))
    back = solver._values(solver._spectrum(u, g), g)
    assert np.max(np.abs(back - u)) <= 1e-15 * np.max(np.abs(u))


@pytest.mark.parametrize("eps", [0.02, 0.0])
def test_2d_solve_of_y_constant_data_matches_1d(eps):
    # y-constant data stays y-constant; the 2-d convective bound
    # dx / (2 max|f'|) at cfl 0.4 is the 1-d one at cfl 0.2, so the 2-d
    # solve must repeat the 1-d one step for step
    u0 = initial_preset("smoothed_riemann", uL=1.0, uR=0.0, w=0.05)
    trajs = [solve(u0, _params(burgers_flux(), linear_diffusion(),
                               eps, 1e-4, t_end=0.1, sample_count=3,
                               cfl_safety=cfl),
                   GridSpec(n=64, length=2.0, dim=d))
             for d, cfl in ((1, 0.2), (2, 0.4))]
    assert trajs[0].params["steps"] == trajs[1].params["steps"] > 0
    for f1, f2 in zip(trajs[0].fields, trajs[1].fields):
        assert np.max(np.abs(f2.values - f1.values[:, None])) <= 1e-13


def test_2d_power2_step_of_y_constant_data_matches_1d():
    # the 2 d factor of the power2 bound halves the 2-d finest plan, so the
    # two solves step differently; one step at an equal h is compared instead
    u0 = initial_preset("smoothed_riemann", uL=1.0, uR=0.0, w=0.05)
    outs = []
    for d in (1, 2):
        g = GridSpec(n=64, length=2.0, dim=d)
        p = _params(burgers_flux(), power_diffusion(2.0), 0.02, 1e-4)
        outs.append(step_rk4(u0.build(g), 2e-4, p).values)
    assert np.max(np.abs(outs[1] - outs[0][:, None])) <= 1e-13


@pytest.mark.parametrize("eps, delta", [(0.02, 1e-4), (0.0, 1e-3)],
                         ids=["damped", "undamped"])
def test_data_across_the_seam_solves_to_the_rolled_solve(eps, delta):
    # the box is periodic, so a solution at the seam is no error: data
    # rolled by N/2 + 37 cells, whose plateau straddles the seam from t = 0,
    # solves to the same roll of the unrolled data's solve
    g = GridSpec(n=256, length=2.0)
    shift = g.n // 2 + 37
    u0 = initial_preset("smoothed_riemann")
    rolled = InitialData(
        producer=lambda grid: Field(grid, np.roll(u0.build(grid).values, shift)))
    p = _params(burgers_flux(), linear_diffusion(), eps, delta, t_end=0.5,
                sample_count=17)
    want, got = solve(u0, p, g), solve(rolled, p, g)
    assert rolled.build(g).values[0] == pytest.approx(1.0)
    assert not got.blowup and got.times == want.times
    for key in ("steps", "trial_steps"):
        assert got.params[key] == want.params[key]
    # measured 1.6e-15 (damped) and 2.5e-15 (undamped): rounding only
    for a, b in zip(got.fields, want.fields):
        assert np.max(np.abs(a.values - np.roll(b.values, shift))) <= 1e-13


def test_initial_presets_exist():
    g = GridSpec(n=64, length=2.0)
    for name in ("bump", "smoothed_riemann", "sine"):
        f = initial_preset(name).build(g)
        assert f.grid == g
    with pytest.raises(KeyError):
        initial_preset("nope")


def test_initial_preset_rejects_a_keyword_it_does_not_take():
    with pytest.raises(ValueError,
                       match="takes amplitude, radius_frac, not uL, w"):
        initial_preset("bump", uL=5.0, w=0.3)


def test_smoothed_riemann_profile():
    g = GridSpec(n=512, length=2.0)
    f = initial_preset("smoothed_riemann", uL=1.0, uR=0.0, w=0.02).build(g)
    x = g.axes()[0]
    # plateau at uL on [0.25 L, 0.55 L], uR outside, up to tanh tails
    assert f.values[np.argmin(np.abs(x - 0.8))] == pytest.approx(1.0, abs=1e-4)
    assert f.values[np.argmin(np.abs(x - 1.5))] == pytest.approx(0.0, abs=1e-4)
    assert f.values[0] == pytest.approx(0.0, abs=1e-6)


def test_params_validation():
    with pytest.raises(ValueError):
        _params(burgers_flux(), linear_diffusion(), -0.1, 0.0)
    with pytest.raises(ValueError):
        _params(burgers_flux(), linear_diffusion(), 0.1, 0.0, t_end=0.0)
    with pytest.raises(ValueError):
        _params(burgers_flux(), linear_diffusion(), 0.1, 0.0, cfl_safety=1.5)
    with pytest.raises(ValueError):
        _params(burgers_flux(), linear_diffusion(), 0.1, 0.0, sample_count=1)


@pytest.mark.parametrize("eps", [0.01, 0.0], ids=["diffusive", "dispersive"])
def test_2d_solve_of_diagonal_data_is_the_1d_solve_to_twice_the_time(eps):
    # the y-stencils do not vanish on diagonal data, so this couples both
    # axes; the 2-d convective bound dx / (2 max|f'|) is half the 1-d one,
    # so at one cfl the 1-d solve to 2T takes the 2-d solve's steps
    g = GridSpec(n=128, length=2.0)
    w = Field(g, 0.5 + 0.5 * np.sin(2.0 * np.pi * g.axes()[0] / g.length))
    runs = []
    for data, t_end in ((w, 0.3), (diagonal(w), 0.15)):
        p = _params(burgers_flux(), linear_diffusion(), eps, 1e-4, t_end=t_end,
                    sample_count=4)
        u0 = solver.InitialData(producer=lambda grid, f=data: f)
        runs.append(solve(u0, p, data.grid))
    one, two = runs
    assert not one.blowup and not two.blowup
    assert two.params["steps"] == one.params["steps"]
    assert np.array_equal(2.0 * np.array(two.times), one.times)
    # measured 4.4e-16 (diffusive) and 5.6e-16 (dispersive): rounding only
    for f1, f2 in zip(one.fields, two.fields):
        assert np.max(np.abs(f2.values - diagonal(f1).values)) <= 1e-14
