"""Command-line front end: config parsing, subcommands, exit codes."""

import json
import os
import re
import shlex
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ddlab import cli, harness
from ddlab import diagnostics as diag
from ddlab.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    main,
    parse_config,
    sweep_config_from_sections,
)
from ddlab.grids import Trajectory
from ddlab.model import DiffusionSpec, linear_diffusion


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


def test_parse_config_rejects_a_key_set_twice(tmp_path, monkeypatch, capsys):
    # a section may recur with new keys, but a key set again in it is an
    # error naming both lines, not a silent override by the later value
    p = _write(tmp_path, "[sweep]\ngamma = 2.5\n[problem]\nflux = burgers\n"
                         "[sweep]\nref_n = 64\ngamma = 3\n")
    with pytest.raises(ConfigError, match=r":7: 'gamma' in \[sweep\] is "
                                          r"already set on line 2"):
        parse_config(p)
    monkeypatch.setattr(cli, "run_sweep", _never_runs)
    assert main(["sweep", "--config", str(p),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert "'gamma'" in capsys.readouterr().err
    p = _write(tmp_path, "[sweep]\ngamma = 2.5\n[sweep]\nref_n = 64\n")
    assert parse_config(p) == {"sweep": {"gamma": 2.5, "ref_n": 64}}


def test_window_end_set_alone_keeps_the_other_default(tmp_path):
    # setting the upper end alone once moved the lower end to t = 0, so
    # young_var pooled every sample from the initial data on
    p = _write(tmp_path, "[diagnostics]\nwindow_t_hi = 0.45\n")
    cfg = sweep_config_from_sections(parse_config(p))
    assert cfg.window_t == (0.4, 0.45)
    # with no window key the upper end is t_end too, as when the lower end
    # is stated at its default; it once stayed at 0.5
    for window in ("", "[diagnostics]\nwindow_t_lo = 0.4\n"):
        p = _write(tmp_path, "[problem]\nt_end = 1.0\n" + window)
        cfg = sweep_config_from_sections(parse_config(p))
        assert cfg.window_t == (0.4, 1.0)


def test_window_default_is_the_same_from_python_and_from_a_file(tmp_path):
    # SweepConfig alone fills an unstated window end, so a config built in
    # Python and its ini spelling are one config with one record path; the
    # Python-built one once pooled over (0.4, 0.5) whatever t_end was.
    # dataclasses.replace keeps the window filled at build time.
    built = harness.SweepConfig(t_end=0.6)
    read = sweep_config_from_sections(parse_config(
        _write(tmp_path, "[problem]\nt_end = 0.6\n")))
    assert built == read
    assert harness._record_path(built, 0) == harness._record_path(read, 0)
    assert built.window_t == (0.4, 0.6)
    assert replace(built, t_end=1.0).window_t == (0.4, 0.6)


def test_sweep_ending_before_the_window_pools_its_last_sample(tmp_path):
    # the unstated lower end is min(0.4, t_end): a sweep to t_end = 0.3
    # once asked for t in (0.4, 0.3), which holds no sample, and exited 2
    cfg = _write(tmp_path, "[problem]\nt_end = 0.3\n" + _ONE_ENTRY)
    assert sweep_config_from_sections(parse_config(cfg)).window_t == (0.3, 0.3)
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    with open(out / "records.csv") as fh:
        header, row = (line.strip().split(",") for line in fh)
    assert np.isfinite(float(row[header.index("young_var")]))


def test_window_end_within_rounding_of_a_sample_holds_it(tmp_path):
    # np.linspace(0, 0.6, 7) stores the sample meant for t = 0.4 as
    # 0.39999999999999997: the window (0.4, 0.6) once pooled samples 5 and 6
    # only (young_var 0.0017083), while sample_index(times, 0.4) found 4
    times = np.linspace(0.0, 0.6, 7)
    window = diag.Window(space=((0.0, 2.0),), t=(0.4, 0.6))
    assert window.samples(times) == [4, 5, 6]
    assert diag.sample_index(times, 0.4) == 4
    records = []
    for name, stated in (("default", ""),
                         ("stated", "[diagnostics]\nwindow_t_lo = 0.399\n")):
        (tmp_path / name).mkdir()
        cfg = _write(tmp_path / name, "[problem]\nt_end = 0.6\n" + _ONE_ENTRY
                     + "samples = 7\n" + stated)
        out = tmp_path / name / "out"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        records.append((out / "records.csv").read_text())
    assert records[0] == records[1]
    header, row = (line.split(",") for line in records[0].splitlines())
    assert float(row[header.index("young_var")]) == pytest.approx(
        0.003452717111423822, rel=1e-12)


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
    # planned at two steps per sample interval, the solve is step doubled:
    # the first and the last interval accept a trial of two steps, with one
    # coarse step each, and the two between a pair of one step each, with
    # one coarse step of twice the width
    assert manifest["params"]["steps"] == 6
    assert manifest["params"]["trial_steps"] == 3


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


@pytest.mark.parametrize("r, m", [("-1", "1"), ("1", "-1")], ids=["r", "m"])
def test_main_classify_negative_exponent_is_a_config_error(capsys, r, m):
    assert main(["classify", "--r", r, "--m", m, "--gamma", "3"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be >= 0" in captured.err


def _never_runs(*args, **kwargs):
    raise AssertionError("ran before the output directory was checked")


def test_main_solve_uncreatable_out_is_a_config_error(tmp_path, monkeypatch,
                                                      capsys):
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(cli, "solve", _never_runs)
    assert main(["solve", "--preset", "heat", "--epsilon", "0.1", "--N", "64",
                 "--T", "0.1", "--samples", "3",
                 "--out", str(tmp_path / "file" / "x")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_main_sweep_out_on_a_regular_file_is_a_config_error(tmp_path,
                                                            monkeypatch, capsys):
    (tmp_path / "file").write_text("")
    monkeypatch.setattr(cli, "run_sweep", _never_runs)
    cfg = _write(tmp_path, _SHORT_SWEEP)
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "file")]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_main_sweep_initial_data_dividing_by_zero_is_a_config_error(tmp_path,
                                                                    capsys):
    # a config error, not a numpy warning, whatever the warning filters:
    # the suite turns every warning into an error
    cfg = _write(tmp_path, "[problem]\nw = 0\n[sweep]\nepsilons = 0.08\n"
                           "grids = 64\nref_n = 128\n")
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("config error: initial smoothed_riemann "
                            "{'w': 0.0}: divide by zero encountered in divide\n")


def test_main_solve_unknown_preset(tmp_path, capsys):
    assert main(["solve", "--preset", "nope",
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: unknown preset 'nope'; have [")


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


def test_main_diagnose_evaluates_every_row_at_its_time(tmp_path, capsys):
    run = tmp_path / "run"
    main(["solve", "--preset", "burgers", "--epsilon", "0.02", "--delta", "1e-4",
          "--N", "128", "--T", "0.3", "--samples", "9", "--out", str(run)])
    assert main(["diagnose", "--run", str(run)]) == EXIT_OK
    assert main(["diagnose", "--run", str(run), "--t", "0.075"]) == EXIT_OK
    rows = [ln.split(",") for ln in
            (run / "diagnostics.csv").read_text().splitlines()[1:]]
    whole = cli._load_trajectory(run)
    cut = Trajectory(whole.grid, whole.times[:3], whole.fields[:3])
    budgets = []
    for traj, block in ((whole, rows[:3]), (cut, rows[3:])):
        residual = diag.energy_balance_residual(traj, linear_diffusion(), 0.02)
        budget = diag.gradient_budget(traj, linear_diffusion(), 0.02)
        assert [(name, float(t), float(v)) for _, name, t, v, _ in block] == [
            ("balance_residual", traj.times[-1], residual),
            ("gradient_budget_lhs", traj.times[-1], budget["lhs"]),
            ("gradient_budget_bound", traj.times[-1], budget["bound"]),
        ]
        budgets.append(budget["lhs"])
    assert 0.0 < budgets[1] < budgets[0]


def test_main_diagnose_reads_only_the_samples_up_to_t(tmp_path, capsys):
    # with the snapshots after t = 0.075 (sample 2) deleted, diagnose --t
    # still runs: it finds t in the manifest and opens snapshots 0..2 only
    run = tmp_path / "run"
    main(["solve", "--preset", "burgers", "--epsilon", "0.02", "--delta", "1e-4",
          "--N", "128", "--T", "0.3", "--samples", "9", "--out", str(run)])
    for i in range(3, 9):
        (run / f"snapshot_{i:04d}.csv").unlink()
    assert main(["diagnose", "--run", str(run), "--t", "0.075"]) == EXIT_OK
    rows = [ln.split(",") for ln in
            (run / "diagnostics.csv").read_text().splitlines()[1:]]
    traj = cli._load_trajectory(run, 0.075)
    assert len(traj.times) == 3
    residual = diag.energy_balance_residual(traj, linear_diffusion(), 0.02)
    budget = diag.gradient_budget(traj, linear_diffusion(), 0.02)
    assert [(name, float(t), float(v)) for _, name, t, v, _ in rows] == [
        ("balance_residual", traj.times[-1], residual),
        ("gradient_budget_lhs", traj.times[-1], budget["lhs"]),
        ("gradient_budget_bound", traj.times[-1], budget["bound"]),
    ]


def test_main_solve_replaces_a_previous_store(tmp_path, capsys):
    run = tmp_path / "run"
    for t_end, samples in (("0.3", "9"), ("0.1", "5")):
        assert main(["solve", "--preset", "burgers", "--epsilon", "0.02",
                     "--N", "128", "--T", t_end, "--samples", samples,
                     "--out", str(run)]) == EXIT_OK
        assert main(["diagnose", "--run", str(run)]) == EXIT_OK
        assert len((run / "diagnostics.csv").read_text().splitlines()) == 4
    assert len(list(run.glob("snapshot_*.csv"))) == 5
    capsys.readouterr()
    assert main(["compare", "--a", str(run),
                 "--b", str(run / "snapshot_0004.csv")]) == EXIT_OK
    dists = dict(ln.split() for ln in capsys.readouterr().out.splitlines())
    assert float(dists["L1"]) == 0.0


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


def _snapshot_text(value):
    return "x,u\n" + "".join(f"{i / 4!r},{value!r}\n" for i in range(8))


def test_main_compare_reads_the_last_sample_its_manifest_lists(tmp_path,
                                                               capsys):
    # 10,001 samples: the last is snapshot_10000, the only file on disk, so
    # compare takes its index and name from the manifest and opens one file
    run = tmp_path / "run"
    run.mkdir()
    (run / "manifest.json").write_text(json.dumps(
        {"times": [i * 1e-4 for i in range(10001)], "length": 2.0, "N": 8}))
    (run / "snapshot_10000.csv").write_text(_snapshot_text(0.5))
    (tmp_path / "b.csv").write_text(_snapshot_text(0.0))
    assert main(["compare", "--a", str(run),
                 "--b", str(tmp_path / "b.csv")]) == EXIT_OK
    dists = dict(ln.split() for ln in capsys.readouterr().out.splitlines())
    assert float(dists["L1"]) == 1.0   # |0.5| over a period of 2


def test_main_compare_ignores_a_snapshot_its_manifest_does_not_list(tmp_path,
                                                                    capsys):
    run = tmp_path / "run"
    main(["solve", "--preset", "heat", "--epsilon", "0.1", "--N", "64",
          "--T", "0.2", "--samples", "9", "--out", str(run)])
    argv = ["compare", "--a", str(run), "--b", str(run / "snapshot_0000.csv")]
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    before = capsys.readouterr().out
    (run / "snapshot_0009.csv").write_text(
        (run / "snapshot_0000.csv").read_text())
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == before
    assert float(dict(ln.split() for ln in before.splitlines())["L1"]) > 0.0


@pytest.mark.parametrize("rows", [0, 1, 4])
def test_main_compare_on_a_short_snapshot_is_a_config_error(tmp_path, capsys,
                                                            rows):
    # numpy would warn on a header-only file, and the suite fails on warnings
    snap = tmp_path / "snap.csv"
    snap.write_text("x,u\n" + "".join(f"{i / 8!r},0.0\n" for i in range(rows)))
    assert main(["compare", "--a", str(snap), "--b", str(snap)]) == EXIT_CONFIG
    assert f"snapshot has {rows} data rows" in capsys.readouterr().err


def test_main_compare_on_a_directory_without_a_manifest_is_a_config_error(
        tmp_path, capsys):
    (tmp_path / "snapshot_0000.csv").write_text(_snapshot_text(0.0))
    assert main(["compare", "--a", str(tmp_path),
                 "--b", str(tmp_path)]) == EXIT_CONFIG
    assert "manifest.json" in capsys.readouterr().err


def test_main_classify(capsys):
    assert main(["classify", "--r", "2", "--m", "2", "--gamma", "1.5"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "thm31"
    assert main(["classify", "--r", "1", "--m", "1", "--gamma", "2.5"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "thm32"


def test_python_m_ddlab_cli_runs_main():
    # the package under test, not whichever ddlab is installed
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "ddlab.cli", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60)

    done = run("classify", "--r", "2", "--m", "2", "--gamma", "1.5")
    assert (done.returncode, done.stdout) == (EXIT_OK, "thm31\n")
    done = run("compare", "--a", "missing_a", "--b", "missing_b")
    assert done.returncode == EXIT_CONFIG
    assert "config error" in done.stderr


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
    code = main(["sweep", "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    assert (out / "records.csv").exists()
    assert (out / "summary.json").exists()


def test_main_sweep_bad_config_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[sweep]\nepsilon = 0.1\n")
    assert main(["sweep", "--config", str(cfg)]) == EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


# one ladder entry, and its grid with epsilons left to the case: a key set
# twice in one section is itself a config error
_ONE_ENTRY = "[sweep]\nepsilons = 0.08\ngrids = 64\nref_n = 128\n"
_ONE_GRID = "[sweep]\ngrids = 64\nref_n = 128\n"


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
    # windows across the periodic seam: at N = 64 on [0, 2) the span
    # 0.02 -+ 0.06 covers 4 cells, of which cell centres compared without
    # wrapping pooled 3, and 1.98 -+ 0.06 pooled 2
    *(_ONE_ENTRY + f"[diagnostics]\nwindow_center = {c}\n"
      for c in (0.02, 1.98)),
    # a nan or inf, which would otherwise surface only as blown-up runs
    *(_ONE_GRID + line for line in (
        "epsilons = inf\n", "epsilons = nan\ndeltas = 1e-3\n",
        "epsilons = 0.0\ndeltas = nan\n")),
    *(_ONE_ENTRY + line for line in (
        "gamma = nan\n", "coeff = inf\n",
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
    (_ONE_ENTRY + "[diagnostics]\nwindow_center = 1.98\n",
     "young window x (1.92, 2.04) must lie in [0, length = 2.0]"),
], ids=["empty-ladder", "short-deltas", "window-across-seam"])
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


_BACKWARD = DiffusionSpec(
    eval=lambda lam: -np.asarray(lam, dtype=float),
    r=1.0, c2=1.0, spectral_bound=lambda grad_max: 1.0, name="backward")


def _backward_linear(name):
    """b(l) = -l in place of every diffusion preset: every solve blows up.
    Like the preset it stands in for, it gives every call one spec, which
    the entries of a grid share."""
    return _BACKWARD


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
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg),
                 "--out", str(out)]) == EXIT_NUMERICAL
    assert "every run in the sweep blew up" in capsys.readouterr().err
    # the records and the summary are written all the same
    with open(out / "records.csv") as fh:
        header, *rows = (line.strip().split(",") for line in fh)
    assert len(rows) == 2
    assert all(row[header.index("blowup")] == "1" for row in rows)
    assert json.loads((out / "summary.json").read_text())["blowups"] == 2


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


def test_every_readme_command_line_parses():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    lines = [ln for block in blocks for ln in block.splitlines()
             if ln.startswith("ddlab ")]
    assert len(lines) >= 5
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])
