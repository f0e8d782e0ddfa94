"""Per-layer measurements: which public ddlab functions the traced run
wraps, the per-layer metrics derived from its spans, and solver
micro-timings through the public ``rhs`` / ``step_rk4`` / ``stable_dt``.
"""

from __future__ import annotations

import statistics
import time

from ddlab import cli, diagnostics, grids, harness, model, solver

from tracing import MODULES, module_self_times

# diagnostics function -> metric stem
DIAGNOSTICS = {
    "entropy_production": "production",
    "kruzkov_residual": "kruzkov",
    "energy_balance_residual": "energy_balance",
    "gradient_budget": "gradient_budget",
    "power_energy_identity": "power_energy",
    "h_regularity_check": "h_regularity",
    "young_histogram": "young_histogram",
}

# the sweeps' ladders have at most four entries
MAX_ENTRIES = 4

# (label, diffusion preset, eps, delta); power2 is the nonlinear-diffusion
# path, which no workload runs: one power2 ladder entry takes over a minute
MICRO_CASES = (
    ("linear", "linear", 0.01, 0.01**2.5),
    ("dispersion", "linear", 0.0, 1e-3),
    ("power2", "power2", 0.01, 0.01**2.5),
)
MICRO_N = (512, 4096)


def _solve_attrs(args, kwargs, traj):
    return {"steps": int(traj.params.get("steps", 0)), "n": int(args[2].n)}


def _entry_attrs(args, kwargs, rec):
    return {"idx": int(args[1])}


def trace_targets():
    """(module, attribute, span name, attrs_of) for every wrapped call.

    A function is patched in each module that looks it up by name, so
    ``harness.solve`` is wrapped where harness calls it, and diagnostics
    functions on the diagnostics module that harness and cli reach through
    ``diag.<name>``.
    """
    targets = [
        (cli, "run_sweep", "harness.run_sweep", None),
        (cli, "compare_to_reference", "harness.compare_to_reference", None),
        (cli, "read_snapshot_csv", "grids.read_snapshot_csv", None),
        (harness, "execute_run", "harness.execute_run", _entry_attrs),
        (harness, "ensure_reference", "harness.ensure_reference", None),
        (harness, "compare_to_reference", "harness.compare_to_reference", None),
        (harness, "summarize", "harness.summarize", None),
        (harness, "solve", "solver.solve", _solve_attrs),
        (harness, "reference_solve", "reference.reference_solve", None),
        (harness, "read_snapshot_binary", "grids.read_snapshot_binary", None),
        (harness, "write_snapshot_binary", "grids.write_snapshot_binary", None),
        (grids, "write_snapshot_csv", "grids.write_snapshot_csv", None),
        (grids, "read_snapshot_csv", "grids.read_snapshot_csv", None),
    ]
    targets += [(diagnostics, fn, f"diagnostics.{fn}", None) for fn in DIAGNOSTICS]
    return targets


def per_layer_units() -> dict:
    """Name -> unit of every metric `layer_metrics` and `solver_microtimings`
    report, plus the trace-overhead figures: the per-layer list of
    BENCHMARK.json."""
    units = {"solver.solve_s": "s", "solver.solve_s_max": "s",
             "solver.steps": "count", "solver.us_per_step": "us"}
    units.update({f"solver.steps.entry{i}": "count" for i in range(MAX_ENTRIES)})
    units.update({f"solver.solve_s.entry{i}": "s" for i in range(MAX_ENTRIES)})
    units.update({f"solver.{fn}_us.{label}.{n}": "us"
                  for fn in ("rhs", "step", "stable_dt")
                  for label, *_ in MICRO_CASES for n in MICRO_N})
    units["reference.solve_s"] = "s"
    units.update({f"diagnostics.{stem}_ms": "ms" for stem in DIAGNOSTICS.values()})
    units.update({"model.entropy_q_ms": "ms", "grids.csv_write_ms": "ms",
                  "grids.csv_read_ms": "ms", "cli.sweep_s": "s",
                  "cli.diagnose_s": "s", "cli.compare_s": "s",
                  "harness.entry_s": "s", "harness.parallel_efficiency": "1",
                  "harness.cache_hits": "count"})
    units.update({f"selftime.{m}_s": "s" for m in MODULES})
    units.update({"trace.run_s": "s", "trace.untraced_run_s": "s",
                  "trace.overhead_s": "s"})
    return units


def layer_metrics(spans, workers: int, cache_hits: int) -> dict:
    """Per-layer figures of one traced iteration."""
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name):
        return sum((s.duration for s in by_name.get(name, ())), 0.0)

    def mean_ms(name):
        got = by_name.get(name, ())
        return 1e3 * sum(s.duration for s in got) / len(got) if got else 0.0

    out = {}
    solves = by_name.get("solver.solve", [])
    steps = sum(s.attrs["steps"] for s in solves)
    out["solver.solve_s"] = total("solver.solve")
    out["solver.solve_s_max"] = max((s.duration for s in solves), default=0.0)
    out["solver.steps"] = steps
    out["solver.us_per_step"] = 1e6 * out["solver.solve_s"] / steps if steps else 0.0
    entry_of = {s.id: s.attrs["idx"] for s in by_name.get("harness.execute_run", ())}
    for i in range(MAX_ENTRIES):
        mine = [s for s in solves if entry_of.get(s.parent) == i]
        out[f"solver.steps.entry{i}"] = sum(s.attrs["steps"] for s in mine)
        out[f"solver.solve_s.entry{i}"] = sum((s.duration for s in mine), 0.0)
    out["reference.solve_s"] = total("reference.reference_solve")
    for fn, stem in DIAGNOSTICS.items():
        out[f"diagnostics.{stem}_ms"] = mean_ms(f"diagnostics.{fn}")
    out["model.entropy_q_ms"] = mean_ms("model.entropy_q")
    out["grids.csv_write_ms"] = mean_ms("grids.write_snapshot_csv")
    out["grids.csv_read_ms"] = mean_ms("grids.read_snapshot_csv")
    out["cli.sweep_s"] = total("cli.sweep")
    out["cli.diagnose_s"] = total("cli.diagnose")
    out["cli.compare_s"] = total("cli.compare")
    out["harness.entry_s"] = total("harness.execute_run")
    sweep_wall = total("harness.run_sweep")
    out["harness.parallel_efficiency"] = \
        out["harness.entry_s"] / (workers * sweep_wall) if sweep_wall else 0.0
    out["harness.cache_hits"] = cache_hits
    for m, t in module_self_times(spans).items():
        out[f"selftime.{m}_s"] = t
    return out


def _per_call_us(fn, blocks: int = 5, min_block_s: float = 0.005) -> float:
    """Median over blocks of the mean per-call time, in microseconds."""
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= min_block_s:
            break
        reps *= 2
    means = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        means.append((time.perf_counter() - t0) / reps)
    return 1e6 * statistics.median(means)


def solver_microtimings() -> dict:
    out = {}
    flux = model.burgers_flux()
    for label, diff_name, eps, delta in MICRO_CASES:
        params = solver.SolveParams(
            flux=flux, diffusion=model.diffusion_preset(diff_name),
            epsilon=eps, delta=delta, t_end=0.5)
        for n in MICRO_N:
            grid = grids.GridSpec(n=n, length=2.0)
            u = solver.initial_preset("smoothed_riemann").build(grid)
            u_max = u.max_abs()
            grad_max = float(max(g.max_abs() for g in grids.gradient(u)))
            dt = solver.stable_dt(params, grid, u_max, grad_max)
            out[f"solver.rhs_us.{label}.{n}"] = _per_call_us(
                lambda: solver.rhs(u, params))
            out[f"solver.step_us.{label}.{n}"] = _per_call_us(
                lambda: solver.step_rk4(u, dt, params))
            out[f"solver.stable_dt_us.{label}.{n}"] = _per_call_us(
                lambda: solver.stable_dt(params, grid, u_max, grad_max))
    return out
