"""Command-line front end: config parsing, subcommands, exit codes."""

import json
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ddlab import cli, harness
from ddlab.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    main,
    parse_config,
    sweep_config_from_sections,
)
from ddlab.model import DiffusionSpec


# ---------------------------------------------------------------------------
# config parsing


def _write(tmp_path, text):
    p = tmp_path / "cfg.ini"
    p.write_text(text)
    return p


def test_parse_config_basic(tmp_path):
    p = _write(tmp_path, """
# comment
[problem]
flux = burgers
t_end = 0.25   # trailing comment
[sweep]
epsilons = 0.04, 0.02
grids = 128,256
[output]
dir = out
""")
    sections = parse_config(p)
    assert sections["problem"]["flux"] == "burgers"
    assert sections["problem"]["t_end"] == 0.25
    assert sections["sweep"]["epsilons"] == (0.04, 0.02)
    assert sections["sweep"]["grids"] == (128, 256)
    assert sections["output"]["dir"] == "out"


def test_parse_config_unknown_section(tmp_path):
    p = _write(tmp_path, "[mystery]\nx = 1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(p)


def test_parse_config_unknown_key_lists_known(tmp_path):
    p = _write(tmp_path, "[sweep]\nepsilon = 0.1\n")
    with pytest.raises(ConfigError, match="known keys:.*epsilons"):
        parse_config(p)


def test_parse_config_rejects_seed(tmp_path):
    p = _write(tmp_path, "[sweep]\nseed = 0\n")
    with pytest.raises(ConfigError, match="unknown key 'seed'"):
        parse_config(p)


def test_every_ini_key_reaches_its_field(tmp_path):
    p = _write(tmp_path, """
[problem]
flux = bounded
diffusion = power2
initial = bump
amplitude = 0.5
length = 3.0
dim = 1
t_end = 0.3
[sweep]
epsilons = 0.1, 0.05
grids = 64, 128
gamma = 2.0
coeff = 0.5
deltas = 1e-3, 5e-4
ref_n = 512
cfl = 0.3
samples = 9
workers = 2
[diagnostics]
enabled = young, kruzkov
theta_center = 1.1
theta_t_center = 0.15
theta_radius = 0.4
theta_t_radius = 0.1
kruzkov_k = 0.25
kruzkov_center = 1.2
kruzkov_t_center = 0.16
kruzkov_radius = 0.3
kruzkov_t_radius = 0.12
window_center = 1.4
window_halfwidth = 0.05
window_t_lo = 0.2
[output]
dir = out
""")
    cfg = sweep_config_from_sections(parse_config(p))
    assert (cfg.flux, cfg.diffusion, cfg.initial) == ("bounded", "power2", "bump")
    assert cfg.initial_args == (("amplitude", 0.5),)
    assert (cfg.length, cfg.dim, cfg.t_end) == (3.0, 1, 0.3)
    assert cfg.epsilons == (0.1, 0.05) and cfg.grid_ns == (64, 128)
    assert (cfg.gamma, cfg.coeff, cfg.delta_ladder) == (2.0, 0.5, (1e-3, 5e-4))
    assert (cfg.ref_n, cfg.cfl_safety, cfg.sample_count, cfg.workers) == \
        (512, 0.3, 9, 2)
    assert cfg.diagnostics == ("young", "kruzkov")
    assert (cfg.theta_center, cfg.theta_t_center, cfg.theta_radius,
            cfg.theta_t_radius) == (1.1, 0.15, 0.4, 0.1)
    assert (cfg.kruzkov_k, cfg.kru_center, cfg.kru_t_center, cfg.kru_radius,
            cfg.kru_t_radius) == (0.25, 1.2, 0.16, 0.3, 0.12)
    assert (cfg.window_center, cfg.window_halfwidth) == (1.4, 0.05)
    assert cfg.window_t == (0.2, 0.3)   # the upper end defaults to t_end
    assert cfg.out_dir == "out"


def test_parse_config_bad_value(tmp_path):
    p = _write(tmp_path, "[sweep]\ngamma = three\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config(p)


def test_parse_config_key_outside_section(tmp_path):
    p = _write(tmp_path, "flux = burgers\n")
    with pytest.raises(ConfigError, match="outside"):
        parse_config(p)


def test_parse_config_missing_equals(tmp_path):
    p = _write(tmp_path, "[problem]\nflux burgers\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config(p)


def test_sweep_config_from_sections(tmp_path):
    p = _write(tmp_path, """
[problem]
flux = burgers
initial = smoothed_riemann
uL = 1.0
uR = 0.0
w = 0.02
t_end = 0.3
[sweep]
epsilons = 0.04, 0.02
grids = 128, 256
gamma = 2.5
[diagnostics]
enabled = production
window_t_lo = 0.2
window_t_hi = 0.3
[output]
dir = somewhere
""")
    cfg = sweep_config_from_sections(parse_config(p))
    assert cfg.epsilons == (0.04, 0.02)
    assert cfg.grid_ns == (128, 256)
    assert cfg.t_end == 0.3
    assert cfg.diagnostics == ("production",)
    assert cfg.window_t == (0.2, 0.3)
    assert dict(cfg.initial_args) == {"uL": 1.0, "uR": 0.0, "w": 0.02}
    assert cfg.out_dir == "somewhere"
    cfg2 = sweep_config_from_sections(parse_config(p), out_override="other")
    assert cfg2.out_dir == "other"


def test_readme_config_example_is_the_default_config(tmp_path):
    # the README's example is the default config but for workers = 4 and
    # the initial-data keys it spells out
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert readme.count("```ini\n") == 1
    example = readme.split("```ini\n")[1].split("```")[0]
    cfg = sweep_config_from_sections(parse_config(_write(tmp_path, example)))
    assert cfg == replace(harness.SweepConfig(), workers=4, initial_args=(
        ("uL", 1.0), ("uR", 0.0), ("w", 0.02)))


def test_sweep_config_bad_gamma_fails_at_construction():
    with pytest.raises(ValueError, match="gamma"):
        sweep_config_from_sections({"sweep": {"gamma": -1.0}})


# ---------------------------------------------------------------------------
# subcommands through main()


def test_main_solve_writes_snapshots(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["solve", "--preset", "heat", "--epsilon", "0.1",
                 "--N", "64", "--T", "0.2", "--samples", "5",
                 "--out", str(out)])
    assert code == EXIT_OK
    snaps = sorted(out.glob("snapshot_*.csv"))
    assert len(snaps) == 5
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["N"] == 64
    assert not manifest["blowup"]


@pytest.mark.parametrize("arg", [("--epsilon", "nan"), ("--delta", "inf"),
                                 ("--T", "inf")])
def test_main_solve_nonfinite_argument_is_a_config_error(tmp_path, capsys, arg):
    out = tmp_path / "run"
    assert main(["solve", "--preset", "burgers", "--epsilon", "0.05", "--N", "64",
                 "--T", "0.1", *arg, "--out", str(out)]) == EXIT_CONFIG
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["classify", "--r", "nan", "--m", "1", "--gamma", "2.5"],
    ["classify", "--r", "1", "--m", "inf", "--gamma", "2.5"],
    ["classify", "--r", "1", "--m", "1", "--gamma", "nan"],
    ["compare", "--a", "{run}", "--b", "{run}", "--p", "1,nan"],
    ["diagnose", "--run", "{run}", "--t", "nan"],
    ["solve", "--preset", "heat", "--N", "64", "--L", "nan", "--out", "{new}"],
    ["solve", "--preset", "heat", "--N", "64", "--L", "inf", "--out", "{new}"],
], ids=["classify-r", "classify-m", "classify-gamma", "compare-p",
        "diagnose-t", "solve-L-nan", "solve-L-inf"])
def test_main_nonfinite_number_is_a_config_error(tmp_path, capsys, argv):
    run, new = tmp_path / "run", tmp_path / "new"
    main(["solve", "--preset", "heat", "--epsilon", "0.1", "--N", "64",
          "--T", "0.2", "--samples", "3", "--out", str(run)])
    capsys.readouterr()
    argv = [a.format(run=run, new=new) for a in argv]
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err
    assert not new.exists()


def test_main_solve_unknown_preset(tmp_path):
    assert main(["solve", "--preset", "nope",
                 "--out", str(tmp_path)]) == EXIT_CONFIG


def test_main_diagnose_on_stored_run(tmp_path, capsys):
    out = tmp_path / "run"
    main(["solve", "--preset", "heat", "--epsilon", "0.1", "--N", "64",
          "--T", "0.2", "--samples", "5", "--out", str(out)])
    code = main(["diagnose", "--run", str(out)])
    assert code == EXIT_OK
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == "diag,name,param,value,holds"
    assert any("balance_residual" in ln for ln in lines[1:])
    assert all(np.isfinite(float(ln.split(",")[3])) for ln in lines[1:])


def test_main_compare_identical_runs(tmp_path, capsys):
    a = tmp_path / "a"
    main(["solve", "--preset", "heat", "--epsilon", "0.1", "--N", "64",
          "--T", "0.2", "--samples", "3", "--out", str(a)])
    capsys.readouterr()  # drop the solve output
    code = main(["compare", "--a", str(a), "--b", str(a)])
    assert code == EXIT_OK
    outlines = capsys.readouterr().out.splitlines()
    dists = dict(ln.split() for ln in outlines)
    assert float(dists["L1"]) == 0.0
    assert float(dists["Linf"]) == 0.0


def test_main_compare_reads_the_snapshot_with_the_largest_index(tmp_path,
                                                                capsys):
    # snapshot_10000 sorts before snapshot_9999 by name
    run = tmp_path / "run"
    run.mkdir()
    for index, value in ((9999, 1.0), (10000, 0.0)):
        (run / f"snapshot_{index}.csv").write_text(
            "x,u\n" + "".join(f"{i / 4!r},{value!r}\n" for i in range(8)))
    assert main(["compare", "--a", str(run),
                 "--b", str(run / "snapshot_10000.csv")]) == EXIT_OK
    dists = dict(ln.split() for ln in capsys.readouterr().out.splitlines())
    assert float(dists["L1"]) == 0.0


def test_main_classify(capsys):
    assert main(["classify", "--r", "2", "--m", "2", "--gamma", "1.5"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "thm31"
    assert main(["classify", "--r", "1", "--m", "1", "--gamma", "2.5"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "thm32"


def test_main_sweep_from_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("""
[problem]
t_end = 0.2
[sweep]
epsilons = 0.08, 0.04
grids = 64, 128
ref_n = 256
samples = 5
[diagnostics]
enabled = young
theta_t_center = 0.1
theta_t_radius = 0.08
kruzkov_t_center = 0.1
kruzkov_t_radius = 0.08
window_t_lo = 0.1
window_t_hi = 0.2
""")
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", str(cfg), "--out", str(out),
                 "--plot-data"])
    assert code == EXIT_OK
    assert (out / "records.csv").exists()
    assert (out / "summary.json").exists()
    plot = (out / "plot_L1.dat").read_text().splitlines()
    assert len(plot) == 2
    assert float(plot[0].split()[0]) == 0.08


def test_main_sweep_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[sweep]\nepsilon = 0.1\n")
    assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


# one ladder entry; a later line of the same section overrides epsilons
_ONE_ENTRY = "[sweep]\nepsilons = 0.08\ngrids = 64\nref_n = 128\n"


@pytest.mark.parametrize("text", [
    "[problem]\nflux = nope\n",
    "[problem]\ndim = 3\n",
    "[sweep]\ncfl = 2.0\n",
    "[sweep]\nepsilons = 0.0\ngrids = 64\n",   # no delta_ladder entry
    "[sweep]\nepsilons = 0.08\ngrids = 96\nref_n = 256\n",  # incommensurate
    "[diagnostics]\nenabled = productoin, kruzkov\n",
    "[sweep]\nref_n = 4\n",   # commensurate, but too coarse a grid
    "[sweep]\nworkers = 0\n",
    "[problem]\ninitial = bump\nuL = 5.0\nw = 0.3\n",  # the bump takes neither
    "[diagnostics]\ntheta_radius = 0.0\n",
    "[diagnostics]\nkruzkov_center = 0.1\n",   # cut at the periodic seam
    "[sweep]\nepsilons = 0.0\ngrids = 512\ndeltas = 1e-5\ngamma = 0.0\n",
    # a window after the last sample time, and one off the box
    "[problem]\nt_end = 0.2\n[sweep]\nepsilons = 0.08\ngrids = 64\n"
    "ref_n = 64\n[diagnostics]\nenabled = young\nwindow_t_lo = 0.6\n"
    "window_t_hi = 0.7\n",
    "[diagnostics]\nwindow_center = 3.0\n",
    # a nan or inf, which would otherwise surface only as blown-up runs
    *(_ONE_ENTRY + line for line in (
        "gamma = nan\n", "coeff = inf\n", "epsilons = inf\n",
        "epsilons = nan\ndeltas = 1e-3\n", "epsilons = 0.0\ndeltas = nan\n",
        "[problem]\ndiffusion = powernan\n",
        "[problem]\ndiffusion = powerinf\n",
        "[problem]\ndiffusion = power1e400\n")),
])
def test_main_sweep_unusable_config_is_a_config_error(tmp_path, capsys, text):
    # found before any run starts, so it is not mistaken for a failed run;
    # building the config from the file is what rejects it
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    with pytest.raises((ValueError, LookupError)):
        sweep_config_from_sections(parse_config(cfg))
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("[sweep]\nepsilons =\ngrids =\n", "the ladder is empty"),
    ("[sweep]\nepsilons = 0.0, 0.0\ngrids = 64, 64\ndeltas = 1e-3\n",
     "deltas: epsilons[1] = 0 needs deltas[1], but deltas has length 1"),
], ids=["empty-ladder", "short-deltas"])
def test_main_sweep_config_error_names_the_cause(tmp_path, capsys, text,
                                                 message):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(text)
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_main_sweep_missing_config_is_a_config_error(tmp_path, capsys):
    assert main(["sweep", "--config", str(tmp_path / "missing.ini")]) \
        == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_main_diagnose_missing_run_is_a_config_error(tmp_path, capsys):
    assert main(["diagnose", "--run", str(tmp_path / "missing")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_main_diagnose_at_a_time_between_samples_is_a_config_error(
        tmp_path, capsys):
    out = tmp_path / "run"
    main(["solve", "--preset", "heat", "--epsilon", "0.1", "--N", "64",
          "--T", "0.2", "--samples", "5", "--out", str(out)])
    capsys.readouterr()
    assert main(["diagnose", "--run", str(out), "--t", "0.123"]) == EXIT_CONFIG
    assert "not a stored sample time" in capsys.readouterr().err
    assert not (out / "diagnostics.csv").exists()


_SHORT_SWEEP = ("[problem]\nt_end = 0.05\n[sweep]\nepsilons = 0.08\n"
                "grids = 64\nref_n = 64\n[diagnostics]\nwindow_t_lo = 0.0\n")


@pytest.mark.parametrize("error", [ValueError, BrokenProcessPool])
def test_main_lets_an_error_inside_a_run_propagate(tmp_path, monkeypatch,
                                                   error):
    # an error from inside a solve or diagnostic, or a pool that lost a
    # worker, is a bug: it is neither a config error (exit 2) nor a blow-up
    # (exit 3), though BrokenProcessPool is a RuntimeError
    def broken(cfg, idx):
        raise error("failure inside a run")

    monkeypatch.setattr(harness, "execute_run", broken)
    cfg = _write(tmp_path, _SHORT_SWEEP)
    with pytest.raises(error, match="failure inside a run"):
        main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out")])


def test_main_sweep_with_no_sample_in_theta_records_zero_production(tmp_path):
    # t_end = 0.05 ends where theta's time support begins
    out = tmp_path / "out"
    cfg = _write(tmp_path, _SHORT_SWEEP)
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    with open(out / "records.csv") as fh:
        header, row = (line.strip().split(",") for line in fh)
    record = dict(zip(header, row))
    assert [float(record[k]) for k in ("mu1", "mu2", "mu3")] == [0.0, 0.0, 0.0]


def _backward_linear(name):
    """b(l) = -l in place of every diffusion preset: every solve blows up."""
    return DiffusionSpec(
        eval=lambda lam: -np.asarray(lam, dtype=float),
        r=1.0, c2=1.0, spectral_bound=1.0, name="backward")


def test_main_solve_blowup_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "diffusion_preset", _backward_linear)
    out = tmp_path / "run"
    assert main(["solve", "--preset", "heat", "--epsilon", "40",
                 "--N", "16", "--T", "0.5", "--samples", "3",
                 "--out", str(out)]) == EXIT_NUMERICAL
    assert "blew up" in capsys.readouterr().err
    with open(out / "manifest.json") as fh:
        assert json.load(fh)["blowup"]


def test_main_sweep_where_every_run_blows_up_is_a_numerical_failure(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(harness, "diffusion_preset", _backward_linear)
    cfg = _write(tmp_path, "[problem]\nflux = zero\nt_end = 0.2\n[sweep]\n"
                 "epsilons = 1.0, 0.5\ngrids = 64, 64\nref_n = 64\n"
                 "[diagnostics]\nwindow_t_lo = 0.0\n")
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
    assert "every run in the sweep blew up" in capsys.readouterr().err


def test_main_compare_on_a_nonfinite_snapshot_is_a_config_error(tmp_path,
                                                                capsys):
    snap = tmp_path / "snap.csv"
    snap.write_text("x,u\n" + "".join(f"{i / 8!r},{'nan' if i == 3 else 0.0}\n"
                                     for i in range(16)))
    assert main(["compare", "--a", str(snap), "--b", str(snap)]) == EXIT_CONFIG
    assert "non-finite" in capsys.readouterr().err


def test_main_diagnose_on_snapshots_off_the_manifest_grid_is_a_config_error(
        tmp_path, capsys):
    out = tmp_path / "run"
    main(["solve", "--preset", "heat", "--epsilon", "0.1", "--N", "64",
          "--T", "0.2", "--samples", "5", "--out", str(out)])
    manifest = json.loads((out / "manifest.json").read_text())
    (out / "manifest.json").write_text(json.dumps(manifest | {"N": 128}))
    assert main(["diagnose", "--run", str(out)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err
    assert not (out / "diagnostics.csv").exists()
