"""Command-line front end.

Subcommands: solve, sweep, diagnose, compare, classify.  Exit codes:
0 success, 2 configuration or argument error (a missing, unreadable or
non-finite config file, stored run or snapshot, or an output directory that
cannot be created, included), 3 a blow-up: the solve blew up, or every run
of the sweep did (its records.csv and summary.json are written all the
same).  Any other error, such as a ValueError raised inside a solve or a
diagnostic, propagates as a bug.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
import typing
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .grids import (
    Field,
    GridSpec,
    Trajectory,
    read_manifest,
    read_snapshot_csv,
    write_manifest,
    write_snapshot_csv,
)
from .harness import SweepConfig, classify_regime, compare_to_reference, \
    run_sweep
from .model import diffusion_preset, flux_preset
from .solver import SolveParams, initial_preset, solve

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


@contextlib.contextmanager
def _config_errors():
    """Report a ValueError, LookupError, OSError or FloatingPointError (a
    non-finite input value) raised while reading the configuration, the
    arguments or the input files as a ConfigError; errors inside a run
    propagate."""
    try:
        yield
    except (ValueError, LookupError, OSError, FloatingPointError) as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# config file parsing: [section] headers, key=value lines, comma arrays

# [section] ini key -> SweepConfig field; the field's type hint gives the
# value type.  uL/uR/w/amplitude each add one (key, value) pair to
# initial_args; window_t_lo/hi are window_t's ends, None where unstated.
_INI_FIELDS = {
    "problem": {
        "flux": "flux", "diffusion": "diffusion", "initial": "initial",
        "uL": "initial_args", "uR": "initial_args", "w": "initial_args",
        "amplitude": "initial_args", "length": "length", "dim": "dim",
        "t_end": "t_end",
    },
    "sweep": {
        "epsilons": "epsilons", "grids": "grid_ns", "gamma": "gamma",
        "coeff": "coeff", "deltas": "delta_ladder", "ref_n": "ref_n",
        "cfl": "cfl_safety", "samples": "sample_count", "workers": "workers",
    },
    "diagnostics": {
        "enabled": "diagnostics", "theta_center": "theta_center",
        "theta_t_center": "theta_t_center", "theta_radius": "theta_radius",
        "theta_t_radius": "theta_t_radius", "kruzkov_k": "kruzkov_k",
        "kruzkov_center": "kru_center", "kruzkov_t_center": "kru_t_center",
        "kruzkov_radius": "kru_radius", "kruzkov_t_radius": "kru_t_radius",
        "window_center": "window_center",
        "window_halfwidth": "window_halfwidth",
        "window_t_lo": "window_t", "window_t_hi": "window_t",
    },
    "output": {"dir": "out_dir"},
}
_FIELD_TYPES = typing.get_type_hints(SweepConfig)


def _coerce(field: str, raw: str):
    """raw as a value of the field's type; tuple[X, ...] is a comma list."""
    if field in ("initial_args", "window_t"):
        return float(raw)  # one entry of the tuple per key
    hint = _FIELD_TYPES[field]
    if typing.get_origin(hint) is tuple:
        item = typing.get_args(hint)[0]
        return tuple(item(v.strip()) for v in raw.split(",") if v.strip())
    return hint(raw)


def parse_config(path) -> dict:
    """Flat key=value config with [section] markers.  A section may recur;
    a key set twice in one section is a ConfigError."""
    sections: dict = {}
    set_at: dict = {}   # (section, key) -> the line that set it
    section = None
    for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _INI_FIELDS:
                raise ConfigError(f"{path}:{lineno}: unknown section [{section}]")
            sections.setdefault(section, {})
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        if section is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, raw = (s.strip() for s in line.split("=", 1))
        fields = _INI_FIELDS[section]
        if key not in fields:
            raise ConfigError(
                f"{path}:{lineno}: unknown key {key!r} in [{section}]; "
                f"known keys: {', '.join(sorted(fields))}"
            )
        if (section, key) in set_at:
            raise ConfigError(
                f"{path}:{lineno}: {key!r} in [{section}] is already set on "
                f"line {set_at[section, key]}")
        set_at[section, key] = lineno
        try:
            sections[section][key] = _coerce(fields[key], raw)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return sections


def sweep_config_from_sections(sections: dict, out_override=None) -> SweepConfig:
    kwargs: dict = {"initial_args": ()}
    for section, fields in _INI_FIELDS.items():
        values = sections.get(section, {})
        for key, field in fields.items():
            if key not in values:
                continue
            if field == "initial_args":
                kwargs[field] += ((key, values[key]),)
            elif field != "window_t":
                kwargs[field] = values[key]
    dia = sections.get("diagnostics", {})
    kwargs["window_t"] = (dia.get("window_t_lo"), dia.get("window_t_hi"))
    if out_override:
        kwargs["out_dir"] = str(out_override)
    return SweepConfig(**kwargs)


# ---------------------------------------------------------------------------
# solve presets (whole-problem shortcuts for the CLI)

_SOLVE_PRESETS = {
    # name: (flux, diffusion, initial, default length)
    "heat": ("zero", "linear", "sine", 2.0 * np.pi),
    "burgers": ("burgers", "linear", "smoothed_riemann", 2.0),
    "burgers_bump": ("burgers", "linear", "bump", 2.0),
    "advection": ("advection", "linear", "sine", 2.0 * np.pi),
}


def _cmd_solve(args) -> int:
    """Solve a preset into --out, replacing any store already there."""
    if args.preset not in _SOLVE_PRESETS:
        raise ConfigError(
            f"unknown preset {args.preset!r}; have {sorted(_SOLVE_PRESETS)}")
    flux_name, diff_name, init_name, default_length = _SOLVE_PRESETS[args.preset]
    length = default_length if args.L is None else args.L
    with _config_errors():
        grid = GridSpec(n=args.N, length=length, dim=1)
        params = SolveParams(
            flux=flux_preset(flux_name), diffusion=diffusion_preset(diff_name),
            epsilon=args.epsilon, delta=args.delta, t_end=args.T,
            cfl_safety=args.cfl, sample_count=args.samples,
        )
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
    traj = solve(initial_preset(init_name), params, grid)

    for stale in [*out.glob("snapshot_*.csv"), out / "diagnostics.csv"]:
        stale.unlink(missing_ok=True)
    for i, (t, f) in enumerate(zip(traj.times, traj.fields)):
        write_snapshot_csv(f, out / f"snapshot_{i:04d}.csv")
    write_manifest(out / "manifest.json", {
        "role": "solver",
        "preset": args.preset,
        "times": traj.times,
        "length": length,
        "N": args.N,
        "params": traj.params,
        "blowup": traj.blowup,
    })
    if traj.blowup:
        print("run blew up; partial trajectory written", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"wrote {len(traj.times)} snapshots to {out}")
    return EXIT_OK


def _load_trajectory(path, t=None) -> Trajectory:
    """The run stored under path, on its manifest's grid, through its sample
    at time t (the last by default); no later snapshot is read."""
    path = Path(path)
    manifest = read_manifest(path / "manifest.json")
    times = manifest["times"]
    k = diag.sample_index(times, times[-1] if t is None else t)
    traj = Trajectory(
        grid=GridSpec(n=manifest["N"], length=manifest["length"], dim=1),
        params=manifest.get("params", {}),
    )
    for i in range(k + 1):
        traj.append(times[i], read_snapshot_csv(
            path / f"snapshot_{i:04d}.csv", length=manifest["length"]))
    return traj


def _cmd_diagnose(args) -> int:
    with _config_errors():
        traj = _load_trajectory(args.run, args.t)
        eps = float(traj.params.get("epsilon", 0.0))
        diffusion = diffusion_preset(traj.params.get("diffusion", "linear"))
    t = traj.times[-1]
    residual = diag.energy_balance_residual(traj, diffusion, eps)
    budget = diag.gradient_budget(traj, diffusion, eps)
    rows = [
        ("energy", "balance_residual", t, residual, abs(residual) <= 1e-2),
        ("energy", "gradient_budget_lhs", t, budget["lhs"], budget["holds"]),
        ("energy", "gradient_budget_bound", t, budget["bound"], True),
    ]
    out = Path(args.run) / "diagnostics.csv"
    diag.append_diagnostic_rows(out, rows)
    for row in rows:
        print(",".join(str(v) for v in row))
    return EXIT_OK


def _final_field(path) -> Field:
    """A snapshot file, its length inferred; a directory stands for the last
    sample its manifest lists, read at the manifest's length."""
    path = Path(path)
    if path.is_file():
        return read_snapshot_csv(path)
    manifest = read_manifest(path / "manifest.json")
    last = len(manifest["times"]) - 1
    return read_snapshot_csv(path / f"snapshot_{last:04d}.csv",
                             length=manifest["length"])


def _cmd_compare(args) -> int:
    with _config_errors():
        a = _final_field(args.a)
        b = _final_field(args.b)
        p_list = [np.inf if p.strip() == "inf" else float(p)
                  for p in args.p.split(",")]
        # the two inputs must share a domain and commensurate grids
        dists = compare_to_reference(a, b, p_list)
    for key in sorted(dists):
        print(f"{key} {dists[key]!r}")
    return EXIT_OK


def _cmd_classify(args) -> int:
    with _config_errors():
        tag = classify_regime(args.r, args.m, args.gamma, not args.no_h3)
    print(tag)
    return EXIT_OK


def _cmd_sweep(args) -> int:
    with _config_errors():
        sections = parse_config(args.config) if args.config else {}
        cfg = sweep_config_from_sections(sections, out_override=args.out)
        Path(cfg.out_dir).mkdir(parents=True, exist_ok=True)
    records = run_sweep(cfg)
    if all(r.blowup for r in records):
        print("numerical failure: every run in the sweep blew up",
              file=sys.stderr)
        return EXIT_NUMERICAL
    blowups = sum(r.blowup for r in records)
    print(f"sweep complete: {len(records)} runs, {blowups} blow-ups; "
          f"records in {Path(cfg.out_dir) / 'records.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ddlab",
        description="diffusive-dispersive conservation-law laboratory",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="run one regularized solve")
    s.add_argument("--preset", required=True)
    s.add_argument("--epsilon", type=float, default=0.0)
    s.add_argument("--delta", type=float, default=0.0)
    s.add_argument("--N", type=int, default=256)
    s.add_argument("--T", type=float, default=1.0)
    s.add_argument("--L", type=float, default=None)
    s.add_argument("--cfl", type=float, default=SolveParams.cfl_safety)
    s.add_argument("--samples", type=int, default=SolveParams.sample_count)
    s.add_argument("--out", default="solve_out")
    s.set_defaults(func=_cmd_solve)

    s = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    s.add_argument("--config", required=True)
    s.add_argument("--out", default=None)
    s.set_defaults(func=_cmd_sweep)

    s = sub.add_parser("diagnose", help="evaluate diagnostics on a stored run")
    s.add_argument("--run", required=True)
    s.add_argument("--t", type=float, default=None)
    s.set_defaults(func=_cmd_diagnose)

    s = sub.add_parser("compare", help="Lp distances between two snapshot sets")
    s.add_argument("--a", required=True)
    s.add_argument("--b", required=True)
    s.add_argument("--p", default="1,2,inf")
    s.set_defaults(func=_cmd_compare)

    s = sub.add_parser("classify", help="map (r, m, gamma) to a regime tag")
    s.add_argument("--r", type=float, required=True)
    s.add_argument("--m", type=float, required=True)
    s.add_argument("--gamma", type=float, required=True)
    s.add_argument("--no-h3", action="store_true")
    s.set_defaults(func=_cmd_classify)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
