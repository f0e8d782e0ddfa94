"""Sweep harness: regime classification, reference comparison, record
persistence, and summaries."""

import functools
import json
import os
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from ddlab import harness
from ddlab.grids import Field, GridSpec, write_snapshot_binary
from ddlab.harness import (
    RECORD_COLUMNS,
    RunRecord,
    SweepConfig,
    classify_regime,
    compare_to_reference,
    quadratic_entropy_pair,
    run_sweep,
)
from ddlab.model import burgers_flux, flux_preset, zero_flux
from oracles import diagonal


# ---------------------------------------------------------------------------
# regime classification


@pytest.mark.parametrize("r,m,gamma,h3,tag", [
    (2.0, 2.0, 1.1, True, "thm31"),     # gamma > 3/(r+1) = 1
    (2.0, 5.0, 1.1, False, "thm31"),    # no growth or H3 restriction
    (2.0, 2.0, 0.9, True, "unsupported"),
    (1.0, 1.0, 2.1, True, "thm32"),     # r = 1, m <= 1, gamma > 2
    (1.0, 1.0, 2.1, False, "unsupported"),
    (1.0, 1.5, 2.1, True, "unsupported"),  # m too large for thm32/thm33
    (1.0, 1.0, 1.9, True, "unsupported"),  # 1.9 < 2 = both thresholds
    (1.5, 1.2, 1.9, True, "thm33"),     # m <= 2r/(r+1)=1.2, gamma > 1.8
    (1.5, 1.2, 1.7, True, "unsupported"),
    (1.5, 1.2, 1.9, False, "unsupported"),
    (3.0, 9.9, 0.76, True, "thm31"),    # gamma > 3/4
])
def test_classify_regime_table(r, m, gamma, h3, tag):
    assert classify_regime(r, m, gamma, has_h3=h3) == tag


def test_classify_regime_precedence():
    # r >= 2 with large gamma satisfies several regimes; strongest wins
    assert classify_regime(2.0, 1.0, 3.0, has_h3=True) == "thm31"


def test_classify_regime_rejects_negative_r():
    with pytest.raises(ValueError):
        classify_regime(-1.0, 1.0, 2.0)


def test_scaling_law():
    cfg = SweepConfig(epsilons=(0.01, 0.0), grid_ns=(512, 512), gamma=2.5,
                      coeff=2.0, delta_ladder=(0.5, 1e-3))
    assert [harness._delta_at(cfg, i) for i in (0, 1)] == [2.0 * 0.01**2.5, 1e-3]
    # rejected even where every entry reads delta_ladder
    for law in ({"gamma": 0.0}, {"gamma": 1.0, "coeff": -1.0}):
        with pytest.raises(ValueError, match="gamma and coeff"):
            replace(cfg, epsilons=(0.0, 0.0), **law)


# ---------------------------------------------------------------------------
# helpers


def test_zero_flux_is_zero():
    u = np.linspace(-2, 2, 7)
    for f in (zero_flux(), flux_preset("zero")):
        assert np.all(f.eval(u) == 0.0)
        assert np.all(f.deriv(u) == 0.0)


def test_quadratic_entropy_pair():
    pair = quadratic_entropy_pair(burgers_flux())
    u = np.array([-1.0, 0.0, 2.0])
    assert np.allclose(pair.eta(u), [0.5, 0.0, 2.0])
    assert np.allclose(pair.eta_prime(u), u)
    assert np.allclose(pair.eta_second(u), 1.0)
    assert np.allclose(pair.eta_third(u), 0.0)
    # q' = eta' f' = u^2 for Burgers
    assert np.allclose(pair.q(u), u**3 / 3.0, atol=1e-12)


# ---------------------------------------------------------------------------
# comparison to reference


def test_compare_restricts_fine_to_coarse():
    fine = GridSpec(n=256, length=2.0)
    coarse = GridSpec(n=64, length=2.0)
    xf = fine.axes()[0]
    xc = coarse.axes()[0]
    # piecewise-constant on the coarse grid: cell averaging is exact
    vals_c = np.sin(2 * np.pi * np.floor(xc))
    a = Field(fine, np.repeat(vals_c, 4))
    b = Field(coarse, vals_c + 0.5)
    out = compare_to_reference(a, b)
    # difference is the constant -0.5
    assert out["L1"] == pytest.approx(0.5 * 2.0)
    assert out["L2"] == pytest.approx(0.5 * np.sqrt(2.0))
    assert out["Linf"] == pytest.approx(0.5)


def test_compare_of_diagonal_fields_scales_the_1d_distances():
    # each value of diagonal data fills n cells of size dx^2, so
    # sum |d|^p dx^2 is L times its 1-d sum
    g = GridSpec(n=64, length=2.0)
    rng = np.random.default_rng(5)
    a, b = (Field(g, rng.standard_normal(64)) for _ in range(2))
    one = compare_to_reference(a, b)
    two = compare_to_reference(diagonal(a), diagonal(b))
    assert two["L1"] == pytest.approx(one["L1"] * g.length, rel=1e-13)
    assert two["L2"] == pytest.approx(one["L2"] * np.sqrt(g.length), rel=1e-13)
    assert two["Linf"] == one["Linf"]


def test_compare_rejects_incommensurate():
    a = Field(GridSpec(n=96, length=2.0), np.zeros(96))
    b = Field(GridSpec(n=64, length=2.0), np.zeros(64))
    with pytest.raises(ValueError, match="incommensurate"):
        compare_to_reference(a, b)


def test_compare_rejects_mismatched_domains():
    a = Field(GridSpec(n=64, length=2.0), np.zeros(64))
    b = Field(GridSpec(n=64, length=4.0), np.zeros(64))
    with pytest.raises(ValueError, match="domain"):
        compare_to_reference(a, b)


# ---------------------------------------------------------------------------
# records


def test_run_record_csv_row_types():
    rec = RunRecord(epsilon=0.04, delta=0.04**2.5, gamma=2.5, N=512,
                    dx=2.0 / 512, dt_min=1e-4, steps=100, blowup=False,
                    L1=0.1, L2=0.2, Linf=0.3, mu1=1e-3, mu2=-1e-3, mu3=1e-4,
                    kruzkov_pos=0.0, young_var=0.01)
    row = rec.csv_row().split(",")
    assert len(row) == len(RECORD_COLUMNS)
    assert row[RECORD_COLUMNS.index("N")] == "512"
    assert row[RECORD_COLUMNS.index("blowup")] == "0"
    # float fields round-trip exactly through repr
    assert float(row[RECORD_COLUMNS.index("delta")]) == 0.04**2.5


# ---------------------------------------------------------------------------
# sweep execution


def _tiny_config(out_dir):
    return SweepConfig(
        epsilons=(0.08, 0.04), grid_ns=(64, 128), ref_n=256,
        t_end=0.2, sample_count=9, gamma=2.5,
        theta_t_center=0.1, theta_t_radius=0.08,
        kru_t_center=0.1, kru_t_radius=0.08,
        window_t=(0.1, 0.2),
        out_dir=str(out_dir),
    )


def test_run_sweep_tiny(tmp_path):
    cfg = _tiny_config(tmp_path / "sweep")
    records = run_sweep(cfg)
    assert len(records) == 2
    assert [r.epsilon for r in records] == [0.08, 0.04]
    assert [r.N for r in records] == [64, 128]
    assert all(np.isfinite(r.L1) for r in records)
    assert all(not r.blowup for r in records)

    out = tmp_path / "sweep"
    csv = (out / "records.csv").read_text().splitlines()
    assert csv[0] == ",".join(RECORD_COLUMNS)
    assert len(csv) == 3

    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    # burgers growth (m = 2) exceeds what linear diffusion covers
    assert summary["theorem_tag"] == "unsupported"
    assert summary["blowups"] == 0
    assert "L1" in summary["slopes"]


def test_run_sweep_2d_bump_with_every_diagnostic(tmp_path):
    # the scalar theta/Kruzkov centers of the config cover both axes
    cfg = SweepConfig(initial="bump", dim=2, epsilons=(0.08, 0.04),
                      grid_ns=(16, 32), ref_n=64,
                      diagnostics=("production", "kruzkov", "young"),
                      out_dir=str(tmp_path / "sweep2d"))
    records = run_sweep(cfg)
    assert [r.N for r in records] == [16, 32]
    for r in records:
        assert not r.blowup
        assert all(np.isfinite(getattr(r, col)) for col in
                   ("L1", "L2", "Linf", "mu1", "mu2", "mu3", "kruzkov_pos",
                    "young_var"))


def test_run_sweep_reuses_records(tmp_path):
    cfg = _tiny_config(tmp_path / "sweep")
    first = run_sweep(cfg)
    # corrupt records.csv, then rerun: cached per-run records are reused
    # and the csv is rewritten identically
    csv_path = tmp_path / "sweep" / "records.csv"
    original = csv_path.read_text()
    csv_path.write_text("garbage\n")
    second = run_sweep(cfg)
    assert csv_path.read_text() == original
    for a, b in zip(first, second):
        assert a == b


def test_run_sweep_rejects_mismatched_ladders(tmp_path):
    # no such config exists to be swept: building it raises, and so does
    # deriving it from a good one
    with pytest.raises(ValueError, match="ladder"):
        SweepConfig(epsilons=(0.1, 0.05), grid_ns=(64,),
                    out_dir=str(tmp_path / "bad"))
    with pytest.raises(ValueError, match="ladder"):
        replace(_tiny_config(tmp_path / "bad"), grid_ns=(64,))
    assert not (tmp_path / "bad").exists()


def test_fixed_eps_sweep_writes_null_slopes(tmp_path):
    # a grid-refinement ladder at one eps has no spread in log eps
    cfg = replace(_tiny_config(tmp_path / "fixed"), epsilons=(0.08,) * 3,
                  grid_ns=(64, 128, 256))
    run_sweep(cfg)
    with open(tmp_path / "fixed" / "summary.json") as fh:
        assert json.load(fh)["slopes"] == {"L1": None, "mu1": None, "mu3": None}


def test_run_sweep_dispersive_ladder_uses_delta_ladder(tmp_path):
    cfg = SweepConfig(
        epsilons=(0.0, 0.0), grid_ns=(64, 64), ref_n=256,
        delta_ladder=(1e-3, 5e-4), t_end=0.1, sample_count=5,
        diagnostics=(), out_dir=str(tmp_path / "disp"),
    )
    records = run_sweep(cfg)
    assert [r.delta for r in records] == [1e-3, 5e-4]
    with open(tmp_path / "disp" / "summary.json") as fh:
        assert json.load(fh)["theorem_tag"] == "dispersive"


def test_cache_paths_follow_the_code_key(tmp_path, monkeypatch):
    # a record or reference computed by other code is never served
    cfg = _tiny_config(tmp_path / "sweep")
    record, reference = harness._record_path(cfg, 0), harness._reference_path(cfg)
    monkeypatch.setattr(harness, "_code_key", lambda: "other-code")
    assert harness._record_path(cfg, 0) != record
    assert harness._reference_path(cfg) != reference


def test_code_key_covers_numpy_and_every_module(tmp_path, monkeypatch):
    key = harness._code_key()
    copy = tmp_path / "ddlab"
    copy.mkdir()
    for module in Path(harness.__file__).parent.glob("*.py"):
        (copy / module.name).write_bytes(module.read_bytes())

    def key_of(package_dir):
        harness._code_key.cache_clear()
        monkeypatch.setattr(harness, "__file__", str(package_dir / "harness.py"))
        return harness._code_key()

    try:
        assert key_of(copy) == key          # names and bytes, not the place
        with open(copy / "grids.py", "a") as fh:
            fh.write("\n")
        edited = key_of(copy)
        assert edited != key
        (copy / "extra.py").write_text("")
        assert key_of(copy) not in (key, edited)
        monkeypatch.setattr(np, "__version__", "0.0")
        assert key_of(Path(harness.__file__).parent) != key
    finally:
        monkeypatch.undo()
        harness._code_key.cache_clear()
    assert harness._code_key() == key


def test_records_cached_by_other_code_are_recomputed(tmp_path, monkeypatch):
    # records that another version of the code left in the out_dir: the
    # rerun writes the records.csv a fresh run writes
    cfg = _tiny_config(tmp_path / "sweep")
    with monkeypatch.context() as m:
        m.setattr(harness, "_code_key", lambda: "older-code")
        run_sweep(cfg)
    for path in (tmp_path / "sweep").glob("run_*.json"):
        path.write_text(json.dumps(json.loads(path.read_text()) | {"mu1": 1.0}))
    run_sweep(cfg)
    run_sweep(replace(cfg, out_dir=str(tmp_path / "fresh")))
    assert (tmp_path / "sweep" / "records.csv").read_bytes() == \
        (tmp_path / "fresh" / "records.csv").read_bytes()


def _fail_if_called(*args):
    raise AssertionError("the Engquist-Osher solve was called")


_2D = {"dim": 2, "ref_n": 32}


@pytest.mark.parametrize("change", [{}, _2D], ids=["1d", "2d"])
def test_burgers_reference_is_exact_and_never_solves(tmp_path, monkeypatch,
                                                     change):
    # in 2-d, the exact 1-d solution of each diagonal read as a line
    monkeypatch.setattr(harness, "reference_solve", _fail_if_called)
    cfg = replace(_tiny_config(tmp_path / "sweep"), **change)
    ref = harness.ensure_reference(cfg)
    u0 = cfg.initial_data().build(ref.grid)
    line = GridSpec(n=cfg.ref_n, length=cfg.length)
    k = np.arange(cfg.ref_n)   # diagonal d: the cells (k + d mod n, k)
    cells = [((k + d) % len(k), k) for d in k] if cfg.dim == 2 else [slice(None)]
    for c in cells:
        exact = harness.lax_oleinik_reference(Field(line, u0.values[c]), cfg.t_end)
        assert np.array_equal(ref.values[c], exact.values)


@pytest.mark.parametrize("change", [{}, _2D], ids=["1d", "2d"])
def test_bounded_reference_solves_engquist_osher_once_per_line(
        tmp_path, monkeypatch, change):
    built = []
    solve_eo = harness.reference_solve
    monkeypatch.setattr(harness, "reference_solve",
                        lambda *args: built.append(args) or solve_eo(*args))
    monkeypatch.setattr(harness, "lax_oleinik_reference", _fail_if_called)
    cfg = replace(_tiny_config(tmp_path / "sweep"), flux="bounded", **change)
    ref = harness.ensure_reference(cfg)
    assert ref.grid.dim == cfg.dim
    assert len(built) == (1 if cfg.dim == 1 else cfg.ref_n)
    assert all(args[0].grid.dim == 1 for args in built)


def test_reference_cached_under_another_code_key_is_not_served(tmp_path,
                                                               monkeypatch):
    # an EO reference and records cached by code older than the exact path
    cfg = _tiny_config(tmp_path / "sweep")
    monkeypatch.setattr(harness, "_code_key", lambda: "engquist-osher-era")
    old_record, old_path = harness._record_path(cfg, 0), harness._reference_path(cfg)
    monkeypatch.undo()
    assert harness._record_path(cfg, 0) != old_record
    u0 = cfg.initial_data().build(GridSpec(n=cfg.ref_n, length=cfg.length))
    stale = harness.reference_solve(u0, burgers_flux(), cfg.t_end)
    old_path.parent.mkdir(parents=True)
    write_snapshot_binary(stale, old_path)
    ref = harness.ensure_reference(cfg)
    assert np.array_equal(ref.values,
                          harness.lax_oleinik_reference(u0, cfg.t_end).values)
    assert not np.array_equal(ref.values, stale.values)


# values of the tiny config's fields whose neighbour is named, not stepped
_NEIGHBOURS = {"flux": "bounded", "diffusion": "power2", "initial": "bump",
               "initial_args": (("w", 0.1),), "delta_ladder": (1e-3,),
               "diagnostics": ("production", "kruzkov")}


def _moved(name, value):
    """A usable neighbour of the tiny config's value of field name: a tuple
    moves its last entry, an int doubles, a float grows by 5%."""
    if name in _NEIGHBOURS:
        return _NEIGHBOURS[name]
    if isinstance(value, str):
        return value + "_"
    if isinstance(value, tuple):
        return value[:-1] + (_moved(name, value[-1]),)
    return 2 * value if isinstance(value, int) else 1.05 * value


def test_every_config_field_moves_the_record_path(tmp_path):
    # a field that can change a record must change its cache path; where
    # the sweep runs and the other ladder entries must not
    cfg = _tiny_config(tmp_path / "sweep")
    record = harness._record_path(cfg, 0)
    elsewhere = ("out_dir", "workers", "epsilons", "grid_ns", "delta_ladder")
    for f in fields(SweepConfig):
        moved = replace(cfg, **{f.name: _moved(f.name, getattr(cfg, f.name))})
        same = harness._record_path(moved, 0).name == record.name
        assert same == (f.name in elsewhere), f.name


def test_record_path_ignores_other_ladder_entries(tmp_path):
    cfg = SweepConfig(epsilons=(0.0, 0.0), grid_ns=(64, 64),
                      delta_ladder=(1e-3, 5e-4), out_dir=str(tmp_path))
    paths = [harness._record_path(cfg, i) for i in (0, 1)]
    other = replace(cfg, delta_ladder=(1e-3, 2.5e-4), grid_ns=(64, 128))
    assert harness._record_path(other, 0) == paths[0]
    assert harness._record_path(other, 1) != paths[1]
    # this entry's own values do count
    assert harness._record_path(replace(cfg, delta_ladder=(2e-3, 5e-4)), 0) \
        != paths[0]


def test_sweeps_differing_only_in_diffusion_share_one_reference(tmp_path,
                                                               monkeypatch):
    # the entropy solution does not depend on the diffusion
    cfg = _tiny_config(tmp_path / "sweep")
    run_sweep(cfg)
    monkeypatch.setattr(harness, "lax_oleinik_reference", _fail_if_called)
    monkeypatch.setattr(harness, "reference_solve", _fail_if_called)
    other = replace(cfg, diffusion="power2")
    run_sweep(other)
    assert [p.name for p in (tmp_path / "sweep").glob("reference_*")] == \
        [harness._reference_path(other).name]
    summary = json.loads((tmp_path / "sweep" / "summary.json").read_text())
    assert summary["config"]["diffusion"] == "power2"


def test_reference_is_written_atomically(tmp_path):
    cfg = _tiny_config(tmp_path / "sweep")
    ref = harness.ensure_reference(cfg)
    assert sorted(p.name for p in (tmp_path / "sweep").iterdir()) == \
        [harness._reference_path(cfg).name]
    assert np.array_equal(harness.ensure_reference(cfg).values, ref.values)
    # a pooled sweep builds the records in workers and the reference in
    # this process, and leaves no temporary file behind
    pooled = replace(cfg, workers=2, out_dir=str(tmp_path / "pooled"))
    run_sweep(pooled)
    assert harness._reference_path(pooled).exists()
    assert not list((tmp_path / "pooled").glob("*.tmp"))


def test_fully_cached_sweep_never_touches_the_reference(tmp_path):
    cfg = _tiny_config(tmp_path / "sweep")
    first = run_sweep(cfg)
    harness._reference_path(cfg).unlink()
    assert run_sweep(cfg) == first
    assert not harness._reference_path(cfg).exists()


@pytest.mark.parametrize("ladder", [
    {},
    {"epsilons": (0.0, 0.0), "grid_ns": (64, 128), "delta_ladder": (1e-3, 5e-4)},
    # one grid: serially one task solves both entries together, pooled two
    {"epsilons": (0.08, 0.0), "grid_ns": (64, 64), "delta_ladder": (0.0, 1e-3)},
], ids=["tiny", "dispersive", "same_grid"])
def test_pooled_sweep_matches_serial_byte_for_byte(tmp_path, ladder):
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"workers{workers}"
        run_sweep(replace(_tiny_config(out), workers=workers, **ladder))
        outputs.append([(out / name).read_bytes()
                        for name in ("records.csv", "summary.json")])
    assert outputs[0] == outputs[1]


class _SyncPool:
    """Stands in for ProcessPoolExecutor: logs its max_workers and each map
    as (function, items), and runs the map in this process."""

    def __init__(self, log, max_workers):
        self.log = log
        log.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        items = list(items)
        self.log.append((fn, items))
        return map(fn, items)


def test_pool_maps_finest_first_while_this_process_builds_the_reference(
        tmp_path, monkeypatch):
    log, built = [], []
    monkeypatch.setattr(harness, "ProcessPoolExecutor",
                        functools.partial(_SyncPool, log))
    # a burgers 1-d reference is built by the exact Lax-Oleinik solution
    exact = harness.lax_oleinik_reference
    monkeypatch.setattr(harness, "lax_oleinik_reference",
                        lambda *args: built.append(os.getpid()) or exact(*args))
    cfg = replace(_tiny_config(tmp_path / "sweep"), workers=2,
                  epsilons=(0.08, 0.04, 0.02), grid_ns=(64, 128, 64))
    records = run_sweep(cfg)
    workers, (run, order) = log
    assert workers == 2 and run.func is harness.execute_group
    # descending N; equal N keep their ladder order, split over the workers
    assert order == [[1], [0], [2]]
    assert built == [os.getpid()]
    assert all(np.isfinite(r.L1) for r in records)
    # one entry pending and no reference on disk: a pool of one runs it
    # while this process builds the reference
    harness._record_path(cfg, 1).unlink()
    harness._reference_path(cfg).unlink()
    log.clear()
    assert run_sweep(cfg) == records
    workers, (run, order) = log
    assert workers == 1 and run.func is harness.execute_group
    assert order == [[1]]
    assert built == [os.getpid()] * 2


def test_pool_has_no_more_processes_than_pending_entries(tmp_path,
                                                         monkeypatch):
    log = []
    monkeypatch.setattr(harness, "ProcessPoolExecutor",
                        functools.partial(_SyncPool, log))
    cfg = replace(_tiny_config(tmp_path / "sweep"), workers=64)
    run_sweep(cfg)
    workers, (_, order) = log
    assert workers == 2 and order == [[1], [0]]
    # three entries on one grid and two workers: two tasks, two processes
    log.clear()
    same = replace(cfg, epsilons=(0.08, 0.04, 0.02), grid_ns=(64,) * 3,
                   workers=2, out_dir=str(tmp_path / "same"))
    run_sweep(same)
    workers, (_, order) = log
    assert workers == 2 and order == [[0, 2], [1]]
    # no pool when nothing is pending, or with one worker
    log.clear()
    run_sweep(cfg)
    run_sweep(replace(cfg, workers=1, out_dir=str(tmp_path / "serial")))
    assert log == []


_execute_run = harness.execute_run


def _coarsest_blows_up(cfg, idx):
    """execute_run, with the coarsest entry reported as a blow-up."""
    record, final = _execute_run(cfg, idx)
    if cfg.grid_ns[idx] == min(cfg.grid_ns):
        return replace(record, blowup=True), None
    return record, final


def test_pooled_blowup_keeps_nan_distances(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "execute_run", _coarsest_blows_up)
    cfg = replace(_tiny_config(tmp_path / "sweep"), workers=2)
    blown, kept = run_sweep(cfg)
    assert blown.blowup and not kept.blowup
    assert all(np.isnan(getattr(blown, col)) for col in ("L1", "L2", "Linf"))
    assert all(np.isfinite(getattr(kept, col)) for col in ("L1", "L2", "Linf"))
