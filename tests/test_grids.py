"""Grid, field, stencil, and snapshot round-trip tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from ddlab.grids import (
    Field,
    GridSpec,
    Trajectory,
    gradient,
    lp_norm,
    read_manifest,
    read_snapshot_binary,
    read_snapshot_csv,
    spacetime_integral,
    stencil_symbols,
    write_manifest,
    write_snapshot_binary,
    write_snapshot_csv,
)
from oracles import centered_difference, divergence, laplacian, \
    third_derivative_axis, write_snapshot_csv_literal


def test_gridspec_basic():
    g = GridSpec(n=64, length=2.0)
    assert g.dx == pytest.approx(2.0 / 64)
    assert g.shape == (64,)
    assert g.cell_volume == pytest.approx(g.dx)
    x = g.axes()[0]
    assert x[0] == 0.0
    assert x[-1] == pytest.approx(2.0 - g.dx)


def test_gridspec_2d_cell_volume():
    g = GridSpec(n=16, length=1.0, dim=2)
    assert g.shape == (16, 16)
    assert g.cell_volume == pytest.approx(g.dx**2)


@pytest.mark.parametrize("kwargs", [
    {"n": 4}, {"n": 32, "dim": 3}, {"n": 32, "length": -1.0},
])
def test_gridspec_rejects_bad_parameters(kwargs):
    with pytest.raises(ValueError):
        GridSpec(**kwargs)


def test_field_is_immutable():
    g = GridSpec(n=16)
    f = Field(g, np.zeros(16))
    with pytest.raises(ValueError):
        f.values[0] = 1.0
    with pytest.raises(AttributeError):
        f.values = np.ones(16)


def test_field_rejects_nonfinite():
    g = GridSpec(n=16)
    bad = np.zeros(16)
    bad[3] = np.nan
    with pytest.raises(FloatingPointError):
        Field(g, bad)


def test_field_rejects_shape_mismatch():
    g = GridSpec(n=16)
    with pytest.raises(ValueError):
        Field(g, np.zeros(17))


def test_gradient_of_sine_second_order():
    errs = []
    for n in (64, 128):
        g = GridSpec(n=n)
        x = g.axes()[0]
        f = Field(g, np.sin(x))
        (gx,) = gradient(f)
        errs.append(np.max(np.abs(gx.values - np.cos(x))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_divergence_matches_summed_gradient_2d():
    g = GridSpec(n=64, dim=2)
    xg, yg = g.meshgrid()
    u = Field(g, np.sin(xg) * np.cos(yg))
    v = Field(g, np.cos(xg) * np.sin(yg))
    d = divergence([u, v])
    exact = 2.0 * np.cos(xg) * np.cos(yg)
    assert np.max(np.abs(d.values - exact)) < 5e-3


def test_divergence_rejects_component_count():
    g = GridSpec(n=16, dim=2)
    f = Field(g, np.zeros((16, 16)))
    with pytest.raises(ValueError):
        divergence([f])


def test_laplacian_is_wide_stencil_composition():
    g = GridSpec(n=64)
    x = g.axes()[0]
    f = Field(g, np.sin(2 * x))
    comp = divergence(gradient(f))
    assert np.allclose(laplacian(f).values, comp.values)


def test_laplacian_symbol():
    # composed centered first derivatives: symbol -sin(k dx)^2 / dx^2
    g = GridSpec(n=64)
    x = g.axes()[0]
    k = 3.0
    f = Field(g, np.sin(k * x))
    sym = -np.sin(k * g.dx) ** 2 / g.dx**2
    assert np.max(np.abs(laplacian(f).values - sym * f.values)) < 1e-12


def test_third_derivative_skew_adjoint():
    rng = np.random.default_rng(7)
    g = GridSpec(n=128)
    u = Field(g, rng.standard_normal(128))
    d3 = third_derivative_axis(u)
    assert abs(np.sum(u.values * d3.values)) < 1e-8 * np.sum(u.values**2)


def test_third_derivative_accuracy():
    errs = []
    for n in (128, 256):
        g = GridSpec(n=n)
        x = g.axes()[0]
        f = Field(g, np.sin(x))
        d3 = third_derivative_axis(f)
        errs.append(np.max(np.abs(d3.values + np.cos(x))))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


def test_lp_norms():
    g = GridSpec(n=100, length=1.0)
    f = Field(g, np.full(100, 2.0))
    assert lp_norm(f, 1) == pytest.approx(2.0)
    assert lp_norm(f, 2) == pytest.approx(2.0)
    assert lp_norm(f, np.inf) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_trajectory_append_validation():
    g = GridSpec(n=16)
    f = Field(g, np.zeros(16))
    traj = Trajectory(grid=g)
    with pytest.raises(ValueError):
        traj.append(0.5, f)     # must start at t=0
    traj.append(0.0, f)
    traj.append(0.25, f)
    with pytest.raises(ValueError):
        traj.append(0.25, f)    # strictly increasing
    with pytest.raises(ValueError):
        traj.append(0.5, Field(GridSpec(n=32), np.zeros(32)))  # another grid
    assert traj.times[-1] == 0.25


def test_spacetime_integral_trapezoid():
    g = GridSpec(n=16, length=1.0)
    traj = Trajectory(grid=g)
    for t in np.linspace(0.0, 1.0, 9):
        traj.append(t, Field(g, np.full(16, t)))  # integrand sums to t
    assert spacetime_integral(traj, np.sum) == pytest.approx(0.5, abs=1e-12)
    # with a time factor zero at t = 0.25 and after t = 0.5, the samples
    # whose weight is zero are never read
    times = np.array(traj.times)
    read = []
    val = spacetime_integral(traj, lambda u: read.append(u[0]) or np.sum(u),
                             factor=(times != 0.25) & (times <= 0.5))
    assert val == pytest.approx(0.125 * (0.125 + 0.375 + 0.5), abs=1e-12)
    assert read == [0.0, 0.125, 0.375, 0.5]


def test_spacetime_integral_needs_two_samples():
    g = GridSpec(n=16)
    traj = Trajectory(grid=g)
    traj.append(0.0, Field(g, np.zeros(16)))
    with pytest.raises(ValueError):
        spacetime_integral(traj, np.sum)


def test_snapshot_csv_roundtrip(tmp_path):
    g = GridSpec(n=32, length=2.0)
    x = g.axes()[0]
    f = Field(g, np.sin(np.pi * x))
    path = tmp_path / "snap.csv"
    write_snapshot_csv(f, path)
    back = read_snapshot_csv(path, length=2.0)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_snapshot_csv_roundtrip_2d_infers_the_period(tmp_path):
    g = GridSpec(n=16, length=1.5, dim=2)
    f = Field(g, np.random.default_rng(0).standard_normal((16, 16)))
    path = tmp_path / "snap.csv"
    write_snapshot_csv(f, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,u" and len(lines) == 1 + 16 * 16
    assert lines[2] == f"0.0,{g.dx!r},{float(f.values[0, 1])!r}"  # x slowest
    back = read_snapshot_csv(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="not square"):
        read_snapshot_csv(path)


# signed zero, the smallest subnormal, and reprs in fixed and in exponent form
_SNAPSHOT_EXTREMES = [-0.0, 5e-324, 1e-5, 1e16, 1e300, -1e300]


def _assert_csv_matches_literal(f: Field, tmp_path):
    write_snapshot_csv(f, tmp_path / "fast.csv")
    write_snapshot_csv_literal(f, tmp_path / "literal.csv")
    assert (tmp_path / "fast.csv").read_bytes() == \
        (tmp_path / "literal.csv").read_bytes()


@pytest.mark.parametrize("n, length, dim", [
    (8, 1.0, 1), (513, 1.0, 1), (5000, 2.0 * np.pi, 1), (16, 1.5, 2)])
def test_snapshot_csv_matches_the_literal_writer(tmp_path, n, length, dim):
    g = GridSpec(n=n, length=length, dim=dim)
    values = np.random.default_rng(n).standard_normal(g.shape)
    values.flat[:len(_SNAPSHOT_EXTREMES)] = _SNAPSHOT_EXTREMES
    _assert_csv_matches_literal(Field(g, values), tmp_path)


def test_snapshot_csv_coordinates_follow_the_whole_grid(tmp_path):
    # same n, then another length, then another dim: the coordinate text
    # of each file is that of its own grid
    for g in (GridSpec(n=64), GridSpec(n=64, length=1.0),
              GridSpec(n=64, dim=2), GridSpec(n=64)):
        _assert_csv_matches_literal(Field(g, np.ones(g.shape)), tmp_path)
        assert read_snapshot_csv(tmp_path / "fast.csv").grid == g


def test_snapshot_csv_with_four_columns_is_rejected(tmp_path):
    path = tmp_path / "snap.csv"
    path.write_text("x,y,z,u\n" + "0.0,0.0,0.0,1.0\n" * 16)
    with pytest.raises(ValueError, match="with 4 columns"):
        read_snapshot_csv(path)


def test_snapshot_binary_roundtrip(tmp_path):
    g = GridSpec(n=16, length=1.5, dim=2)
    rng = np.random.default_rng(0)
    f = Field(g, rng.standard_normal((16, 16)))
    path = tmp_path / "snap.ddl"
    write_snapshot_binary(f, path)
    back = read_snapshot_binary(path)
    assert back.grid == g
    assert np.array_equal(back.values, f.values)


def test_snapshot_binary_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ddl"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError):
        read_snapshot_binary(path)


def test_snapshot_binary_never_unpickles(tmp_path):
    # references are cached in a shared out_dir: reading one must not run
    # code a pickle carries
    path = tmp_path / "pickled.ddl"
    with open(path, "wb") as fh:
        np.save(fh, np.array([{"values": 1.0}], dtype=object), allow_pickle=True)
    with pytest.raises(ValueError, match="allow_pickle"):
        read_snapshot_binary(path)


def test_manifest_roundtrip(tmp_path):
    payload = {"b": [1, 2], "a": {"x": 0.5}}
    path = tmp_path / "manifest.json"
    write_manifest(path, payload)
    assert read_manifest(path) == payload


# ---------------------------------------------------------------------------
# exact Fourier symbols of the stencils


@st.composite
def periodic_fields(draw):
    dim = draw(st.sampled_from((1, 2)))
    grid = GridSpec(n=draw(st.sampled_from((8, 9, 16, 17))),
                    length=draw(st.floats(0.5, 8.0)), dim=dim)
    return Field(grid, draw(hnp.arrays(np.float64, grid.shape,
                                       elements=st.floats(-1.0, 1.0))))


def _apply(symbol, f: Field) -> np.ndarray:
    axes = tuple(range(f.grid.dim))
    return np.fft.irfftn(symbol * np.fft.rfftn(f.values), s=f.grid.shape,
                         axes=axes)


def _close(a, b, symbol):
    # FFT roundoff grows with the point count and the largest symbol entry
    scale = max(np.max(np.abs(symbol)), 1.0)
    return np.max(np.abs(a - b)) <= 1e-14 * a.size * scale


@settings(max_examples=80, deadline=None)
@given(f=periodic_fields())
def test_symbols_apply_the_stencils(f):
    g = f.grid
    d1, lap, d3 = stencil_symbols(g)
    assert d1.shape == d3.shape == (g.dim,) + np.fft.rfftn(f.values).shape
    for ax in range(g.dim):
        # the gradient and the D1 symbol, each against the literal stencil
        du = centered_difference(f, ax).values
        assert np.array_equal(gradient(f)[ax].values, du)
        assert _close(_apply(d1[ax], f), du, d1)
        assert _close(_apply(d3[ax], f), third_derivative_axis(f, ax).values, d3)
    assert _close(_apply(lap, f), laplacian(f).values, lap)


@settings(max_examples=80, deadline=None)
@given(f=periodic_fields())
def test_d1_and_d3_are_skew(f):
    # sum u D u = 0 for a skew stencil, applied directly or through its symbol
    u = f.values
    d1, _, d3 = stencil_symbols(f.grid)
    for ax in range(f.grid.dim):
        for du in (gradient(f)[ax].values, _apply(d1[ax], f),
                   third_derivative_axis(f, ax).values, _apply(d3[ax], f)):
            scale = np.linalg.norm(u) * np.linalg.norm(du)
            assert abs(np.sum(u * du)) <= 1e-14 * u.size * scale + 1e-300
