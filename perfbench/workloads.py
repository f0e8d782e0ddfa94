"""Benchmark workloads: seeded inputs, one timed iteration each, and the
output checks.

Three workloads are parameter sweeps run through ``ddlab sweep``; the
fourth post-processes a stored ladder of synthetic trajectories.  Every
check threshold is copied from ``tests/test_acceptance.py``; a failed check
fails the iteration.  ddlab is driven only through its public functions.
"""

from __future__ import annotations

import csv
import io
import json
import math
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ddlab import cli, diagnostics, grids, harness, model

SWEEP_WORKLOADS = ("diffusive_ladder", "dispersive_ladder", "bounded_flux")
WORKLOADS = SWEEP_WORKLOADS + ("analysis",)

# smoothing width of the smoothed_riemann data; seeds other than 0 jitter it
BASE_W = 0.02
W_JITTER = 0.10

# sweep config values by ini key; unset keys keep the SweepConfig defaults,
# so diffusive_ladder at seed 0 is the acceptance ladder itself
SWEEPS = {
    "diffusive_ladder": {"workers": 2},
    "dispersive_ladder": {
        "epsilons": (0.0, 0.0, 0.0), "grids": (512, 512, 512),
        "deltas": (1e-3, 5e-4, 2.5e-4), "workers": 1,
    },
    "bounded_flux": {
        "flux": "bounded", "epsilons": (0.04, 0.02, 0.01),
        "grids": (256, 512, 1024), "gamma": 2.5, "ref_n": 256, "workers": 1,
    },
}
_SECTION = {"flux": "problem", "w": "problem", "epsilons": "sweep",
            "grids": "sweep", "deltas": "sweep", "gamma": "sweep",
            "ref_n": "sweep", "workers": "sweep"}

# acceptance thresholds (tests/test_acceptance.py)
D_U = 1.0                      # |uL - uR| of the smoothed jump
T_END = 0.5
DISPERSIVE_L1_MIN = 0.1 * D_U * (D_U * T_END)
YOUNG_VAR_MIN = 0.05 * D_U**2
MU2_MAX = 1e-10

# stored ladder of the analysis workload
ANALYSIS_EPS = (0.04, 0.02, 0.01, 0.005)
ANALYSIS_N = (512, 1024, 2048, 4096)
ANALYSIS_GAMMA = 2.5
LENGTH = 2.0
SAMPLES = 65
KRUZKOV_K = 0.5
_THETA = (1.0, 0.25, 0.45, 0.2)       # SweepConfig theta_* defaults
_KRU_THETA = (1.4, 0.25, 0.2, 0.2)    # SweepConfig kru_* defaults
_WINDOW = diagnostics.Window(space=((1.24, 1.36),), t=(0.4, 0.5))


@dataclass
class Outcome:
    """What one iteration produced and which checks it failed."""

    failures: list = field(default_factory=list)
    l1_finest: float = math.nan
    records: bytes | None = None     # records.csv, compared across iterations
    info: dict = field(default_factory=dict)


def smoothing_width(seed: int) -> float:
    if seed == 0:
        return BASE_W
    rng = np.random.default_rng([seed, 1])
    return BASE_W * (1.0 + rng.uniform(-W_JITTER, W_JITTER))


def effective_workers(workload: str) -> int:
    """Processes the sweep uses: harness.run_sweep pools only when more
    than one worker and more than one pending entry."""
    if workload not in SWEEPS:
        return 1
    w = SWEEPS[workload]["workers"]
    n = len(SWEEPS[workload].get("epsilons", harness.SweepConfig().epsilons))
    return w if w > 1 and n > 1 else 1


def sweep_config_text(workload: str, seed: int, workers=None) -> str:
    keys = dict(SWEEPS[workload])
    if workers is not None:
        keys["workers"] = workers
    if seed != 0:
        keys["w"] = smoothing_width(seed)
    sections: dict = {}
    for key, val in keys.items():
        text = ",".join(repr(v) for v in val) if isinstance(val, tuple) \
            else repr(val) if isinstance(val, float) else str(val)
        sections.setdefault(_SECTION[key], []).append(f"{key} = {text}")
    return "".join(f"[{name}]\n" + "\n".join(lines) + "\n"
                   for name, lines in sections.items())


# ---------------------------------------------------------------------------
# synthetic stored ladder


def entropy_profile(x, t: float):
    """Entropy solution of the Burgers data u = 1 on [0.5, 1.1), 0 elsewhere:
    a rarefaction fan from x = 0.5 and a shock from 1.1 at speed 1/2."""
    fan = np.clip((x - 0.5) / max(t, 1e-12), 0.0, 1.0)
    return np.where(x < 1.1 + 0.5 * t, fan, 0.0)


def synthetic_ladder(seed: int):
    """Four seeded trajectories: a viscous-shock profile relaxing from
    width w to eps, plus a dispersive wave train of wavelength
    pi sqrt(2 delta) behind the shock.  Returns (runs, reference field)."""
    rng = np.random.default_rng([seed, 2])
    w = smoothing_width(seed)
    times = np.linspace(0.0, T_END, SAMPLES)
    runs = []
    for eps, n in zip(ANALYSIS_EPS, ANALYSIS_N):
        delta = eps**ANALYSIS_GAMMA
        amp = rng.uniform(0.1, 0.2)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        grid = grids.GridSpec(n=n, length=LENGTH)
        x = grid.axes()[0]
        lam = np.pi * np.sqrt(2.0 * delta)
        traj = grids.Trajectory(grid=grid, params={
            "epsilon": eps, "delta": delta, "diffusion": "linear",
            "flux": "burgers", "initial": "synthetic"})
        for t in times:
            shock = 1.1 + 0.5 * t
            width = eps + w * np.exp(-t / 0.05)
            u = 0.5 * (np.tanh((x - 0.5 - 0.5 * t) / (w + t / 4.0))
                       - np.tanh((x - shock) / width))
            u += amp * (t / T_END) * np.exp(
                -((x - shock + 3.0 * lam) / (2.0 * lam)) ** 2
            ) * np.sin(2.0 * np.pi * (x - shock) / lam + phase)
            traj.append(t, grids.Field(grid, u))
        runs.append(traj)
    ref_grid = grids.GridSpec(n=ANALYSIS_N[-1], length=LENGTH)
    ref = grids.Field(ref_grid, entropy_profile(ref_grid.axes()[0], T_END))
    return runs, ref


# ---------------------------------------------------------------------------
# inputs


def make_inputs(workload: str, seed: int, setup_dir: Path, workers=None):
    """Seeded inputs for one workload; sweep configs are written as files."""
    if workload == "analysis":
        runs, ref = synthetic_ladder(seed)
        return {"runs": runs, "reference": ref, "store": setup_dir / "store"}
    if workload not in SWEEPS:
        raise KeyError(f"unknown workload {workload!r}; have {WORKLOADS}")
    setup_dir.mkdir(parents=True, exist_ok=True)
    path = setup_dir / f"{workload}.ini"
    path.write_text(sweep_config_text(workload, seed, workers))
    return {"config": path}


# ---------------------------------------------------------------------------
# checks


def read_records(path) -> list:
    with open(path, newline="") as fh:
        return [{k: float(v) for k, v in row.items()}
                for row in csv.DictReader(fh)]


def _strictly_decreasing(vals) -> bool:
    return all(b < a for a, b in zip(vals, vals[1:]))


def _common_checks(rows) -> list:
    fails = [f"blow-up at entry {i}" for i, r in enumerate(rows) if r["blowup"]]
    if not rows:
        fails.append("records.csv has no entries")
    return fails


def check_diffusive(rows, summary) -> list:
    fails = _common_checks(rows)
    l1 = [r["L1"] for r in rows]
    if not _strictly_decreasing(l1):
        fails.append(f"L1 not strictly decreasing: {l1}")
    if not l1[-1] <= l1[0] / 3.0:
        fails.append(f"L1 finest {l1[-1]!r} > L1 coarsest / 3")
    for r in rows:
        if not r["dx"] <= r["epsilon"] / 4.0:
            fails.append(f"dx {r['dx']!r} > eps/4 at eps {r['epsilon']!r}")
        if not r["mu2"] <= MU2_MAX:
            fails.append(f"mu2 {r['mu2']!r} > {MU2_MAX} at eps {r['epsilon']!r}")
    pos = [r["kruzkov_pos"] for r in rows]
    if not all(b <= a + 1e-15 for a, b in zip(pos, pos[1:])):
        fails.append(f"kruzkov_pos increases: {pos}")
    return fails


def check_dispersive(rows, summary) -> list:
    fails = _common_checks(rows)
    for r in rows:
        if not r["L1"] >= DISPERSIVE_L1_MIN:
            fails.append(f"L1 {r['L1']!r} < {DISPERSIVE_L1_MIN} at delta {r['delta']!r}")
        if not r["young_var"] >= YOUNG_VAR_MIN:
            fails.append(f"young_var {r['young_var']!r} < {YOUNG_VAR_MIN} "
                         f"at delta {r['delta']!r}")
    if rows and not rows[-1]["kruzkov_pos"] > 0.0:
        fails.append("kruzkov_pos is not positive at the finest entry")
    return fails


def check_bounded(rows, summary) -> list:
    fails = _common_checks(rows)
    l1 = [r["L1"] for r in rows]
    if not _strictly_decreasing(l1):
        fails.append(f"L1 not strictly decreasing: {l1}")
    if summary.get("theorem_tag") != "thm32":
        fails.append(f"theorem tag {summary.get('theorem_tag')!r} != 'thm32'")
    return fails


CHECKS = {
    "diffusive_ladder": check_diffusive,
    "dispersive_ladder": check_dispersive,
    "bounded_flux": check_bounded,
}


def cache_entries(out_dir: Path) -> int:
    """Cached sweep results a run would be served instead of computing."""
    return len(list(out_dir.glob("run_*.json"))) + \
        len(list(out_dir.glob("reference_*.ddl")))


# ---------------------------------------------------------------------------
# iterations


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _cli(tracer, name, argv):
    """ddlab.cli.main with its stdout captured; returns (code, stdout)."""
    buf = io.StringIO()
    with _span(tracer, name), redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def sweep_iteration(workload: str, inputs, it_dir: Path, tracer=None) -> Outcome:
    out = it_dir / "out"
    stale = cache_entries(out)
    if stale:
        return Outcome(failures=[f"{stale} cached results before the run"],
                       info={"cache_hits": stale})
    code, _ = _cli(tracer, "cli.sweep",
                   ["sweep", "--config", str(inputs["config"]), "--out", str(out)])
    if code != 0:
        return Outcome(failures=[f"ddlab sweep exited with {code}"])
    with _span(tracer, "bench.check"):
        records = (out / "records.csv").read_bytes()
        rows = read_records(out / "records.csv")
        summary = json.loads((out / "summary.json").read_text())
        fails = CHECKS[workload](rows, summary)
    return Outcome(failures=fails, l1_finest=rows[-1]["L1"] if rows else math.nan,
                   records=records, info={
                       "cache_hits": 0,
                       "young_var_min": min((r["young_var"] for r in rows),
                                            default=math.nan),
                       "L1": [r["L1"] for r in rows],
                   })


def _write_run(traj, run_dir: Path):
    """Store one trajectory in ``run_dir``, which the iterations of a run
    share.  Every file is deleted just before it is written, so nothing an
    earlier iteration wrote is read back.  Deleting file by file, not the
    whole store at once, lets each write reuse the page-cache pages the
    delete just freed.  On a virtual machine that reports free memory to
    its host, the 17 MB of a store freed in one go can be handed back, and
    every page taken again then costs a fault on the host, at a price set
    by the host's load, not by ddlab."""
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "diagnostics.csv").unlink(missing_ok=True)
    for i, f in enumerate(traj.fields):
        path = run_dir / f"snapshot_{i:04d}.csv"
        path.unlink(missing_ok=True)
        grids.write_snapshot_csv(f, path)
    (run_dir / "manifest.json").unlink(missing_ok=True)
    grids.write_manifest(run_dir / "manifest.json", {
        "role": "synthetic", "times": traj.times, "length": traj.grid.length,
        "N": traj.grid.n, "params": traj.params, "blowup": False, "taint": False,
    })


def _read_run(traj, run_dir: Path):
    """Read a stored run back; returns (trajectory, bit-exact round trip)."""
    back = grids.Trajectory(grid=traj.grid, params=dict(traj.params))
    exact = True
    for i, (t, f) in enumerate(zip(traj.times, traj.fields)):
        g = grids.read_snapshot_csv(run_dir / f"snapshot_{i:04d}.csv",
                                    length=traj.grid.length)
        exact = exact and g.grid == f.grid and np.array_equal(g.values, f.values)
        back.append(t, g)
    return back, exact


def analysis_iteration(workload: str, inputs, it_dir: Path, tracer=None) -> Outcome:
    runs, ref = inputs["runs"], inputs["reference"]
    fails: list = []
    values: list = []          # every diagnostic number, checked finite
    store = inputs["store"]
    ref_dir = store / "reference"
    _write_run(grids.Trajectory(grid=ref.grid, times=[T_END], fields=[ref]),
               ref_dir)
    run_dirs = [store / f"run_{i}" for i in range(len(runs))]
    for traj, run_dir in zip(runs, run_dirs):
        _write_run(traj, run_dir)

    l1 = []
    for run_dir in run_dirs:
        code, _ = _cli(tracer, "cli.diagnose", ["diagnose", "--run", str(run_dir)])
        if code != 0:
            fails.append(f"ddlab diagnose exited with {code} on {run_dir.name}")
            continue
        with open(run_dir / "diagnostics.csv", newline="") as fh:
            values += [float(row["value"]) for row in csv.DictReader(fh)]
        code, text = _cli(tracer, "cli.compare",
                          ["compare", "--a", str(run_dir), "--b", str(ref_dir)])
        if code != 0:
            fails.append(f"ddlab compare exited with {code} on {run_dir.name}")
            continue
        dists = dict(line.split() for line in text.splitlines())
        values += [float(v) for v in dists.values()]
        l1.append(float(dists["L1"]))

    flux = model.burgers_flux()
    diff = model.linear_diffusion()
    pair = harness.quadratic_entropy_pair(flux)
    theta = diagnostics.bump_over(*_THETA)
    kru_theta = diagnostics.bump_over(*_KRU_THETA)
    stored = []
    for traj, run_dir in zip(runs, run_dirs):
        back, exact = _read_run(traj, run_dir)
        if not exact:
            fails.append(f"CSV round trip is not bit-exact for {run_dir.name}")
        stored.append(back)
        eps, delta = back.params["epsilon"], back.params["delta"]
        rep = diagnostics.entropy_production(back, pair, theta, eps, delta, diff)
        if not rep.mu2 <= 0.0:
            fails.append(f"mu2 {rep.mu2!r} > 0 on {run_dir.name}")
        values += [rep.mu1, rep.mu2, rep.mu3]
        values.append(diagnostics.kruzkov_residual(
            back, flux, KRUZKOV_K, back.grid.dx, kru_theta))
        ident = diagnostics.power_energy_identity(back, 2.0, diff, eps, delta)
        values += [ident["imbalance"], ident["dispersive_term"]]
        values += list(diagnostics.h_regularity_check(back, eps, diff.r, delta).values())
        kru_pair = model.make_entropy_pair(
            *model.kruzkov_entropy(KRUZKOV_K, back.grid.dx), flux)
        with _span(tracer, "model.entropy_q"):
            q = kru_pair.q(back.final().values)
        values.append(float(np.sum(q)))
    hist = diagnostics.young_histogram(stored, _WINDOW)
    values.append(hist.concentration_score)

    bad = sum(1 for v in values if not math.isfinite(v))
    if bad:
        fails.append(f"{bad} of {len(values)} diagnostic values are not finite")
    return Outcome(failures=fails, l1_finest=l1[-1] if l1 else math.nan,
                   info={"L1": l1, "values": len(values)})


ITERATIONS = {name: sweep_iteration for name in SWEEP_WORKLOADS}
ITERATIONS["analysis"] = analysis_iteration
