"""ddlab benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload from the repository's ``src/`` for about ``--seconds``
seconds, checks every iteration's outputs, and prints as its last line one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced iterations and reports the per-layer metrics.  A
results file with the run metadata goes to ``.bench_out/results/``.
See perfbench/README.md for the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "l1_finest": "1"}


def isolate_environment() -> dict:
    """Unset DDL_WORKERS (it overrides the configured worker count) and pin
    BLAS/OpenMP pools to one thread.  Must run before numpy is imported."""
    before = {"DDL_WORKERS": os.environ.pop("DDL_WORKERS", None)}
    for var in THREAD_VARS:
        before[var] = os.environ.get(var)
        os.environ[var] = "1"
    return before


def import_ddlab():
    """Import ddlab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import ddlab
    if not Path(ddlab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"ddlab imported from {ddlab.__file__}, not {SRC}")
    return ddlab


def cpu_seconds() -> float:
    """User + system time of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child, in MiB."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def metadata(workload: str, seed: int, env_before: dict, workers: int) -> dict:
    import numpy
    import workloads

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src_files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in src_files:
        digest.update(path.read_bytes())
    return {
        "workload": workload, "seed": seed,
        "smoothing_width": workloads.smoothing_width(seed),
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src_files),
        "effective_workers": workers,
        "start_method": multiprocessing.get_start_method(),
        "environment_before": env_before,
    }


def timed_setup(workload: str, seed: int, work: Path):
    """SETUP_REPEATS set-ups, each a fresh interpreter importing ddlab plus
    input generation; returns (seconds per set-up, the last inputs)."""
    import workloads

    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, inputs = [], None
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ddlab.cli"], env=env,
                       check=True, stdout=subprocess.DEVNULL)
        inputs = workloads.make_inputs(workload, seed, work / f"setup{k}")
        times.append(time.perf_counter() - t0)
    return times, inputs


def run_iteration(workload: str, inputs, it_dir: Path, tracer=None) -> dict:
    """One timed iteration in a fresh directory; never raises."""
    import workloads

    it_dir.mkdir(parents=True)
    if tracer is not None:
        tracer.spool_dir.mkdir()
    t0 = time.perf_counter()
    c0 = cpu_seconds()
    try:
        if tracer is None:
            outcome = workloads.ITERATIONS[workload](workload, inputs, it_dir)
        else:
            with tracer.span("bench.iteration"):
                outcome = workloads.ITERATIONS[workload](workload, inputs,
                                                         it_dir, tracer)
    except Exception as exc:   # one failed iteration must not end the run
        outcome = workloads.Outcome(failures=[f"{type(exc).__name__}: {exc}"])
    run_s = time.perf_counter() - t0
    cpu_s = cpu_seconds() - c0
    return {"run_s": run_s, "cpu_s": cpu_s, "outcome": outcome}


def tally(iterations: list) -> dict:
    """Failure counts; records.csv must repeat byte for byte within a run."""
    first = next((it["outcome"].records for it in iterations
                  if it["outcome"].records is not None), None)
    for it in iterations:
        rec = it["outcome"].records
        if rec is not None and rec != first:
            it["outcome"].failures.append("records.csv differs from the first iteration")
    failed = sum(1 for it in iterations if it["outcome"].failures)
    return {"attempted": len(iterations), "failed": failed,
            "correct": failed == 0 and len(iterations) > 0}


def result_line(counts: dict, metrics: dict, units: dict) -> str:
    """The final JSON line; a value that is not finite (only after failed
    iterations) is written as null to keep the line valid JSON."""
    def num(v):
        return v if math.isfinite(v) else None
    return json.dumps({
        "correct": counts["correct"], "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {k: {"value": num(metrics[k]), "unit": units[k]} for k in units},
    })


def measure(args, inputs, work: Path) -> list:
    """Untraced iterations until --seconds have passed."""
    iterations = []
    t_start = time.perf_counter()
    while not iterations or time.perf_counter() - t_start < args.seconds:
        it_dir = work / f"iter{len(iterations)}"
        it = run_iteration(args.workload, inputs, it_dir)
        shutil.rmtree(it_dir, ignore_errors=True)
        iterations.append(it)
        _report_iteration(len(iterations) - 1, it, "")
    return iterations


def measure_traced(args, inputs, traced_inputs, work: Path, workers: int) -> tuple:
    """Pairs of one untraced and one traced iteration until --seconds have
    passed, after the solver micro-timings.  Returns (iterations, per-layer
    metrics, spans of each traced iteration)."""
    import layers
    from tracing import Tracer, instrumented, tree_problems

    micro = layers.solver_microtimings()
    iterations, plain_s, traced, all_spans = [], [], [], []
    t_start = time.perf_counter()
    while not traced or time.perf_counter() - t_start < args.seconds:
        k = len(iterations)
        it = run_iteration(args.workload, inputs, work / f"iter{k}")
        shutil.rmtree(work / f"iter{k}", ignore_errors=True)
        plain_s.append(it["run_s"])
        iterations.append(it)
        _report_iteration(k, it, " untraced")

        it_dir = work / f"iter{k + 1}"
        tracer = Tracer(spool_dir=it_dir / "spool")
        with instrumented(tracer, layers.trace_targets()):
            it = run_iteration(args.workload, traced_inputs, it_dir, tracer)
        tracer.collect_spool()
        shutil.rmtree(it_dir, ignore_errors=True)
        problems = tree_problems(tracer.spans)
        it["outcome"].failures += [f"span tree: {p}" for p in problems]
        it["layers"] = layers.layer_metrics(
            tracer.spans, workers, it["outcome"].info.get("cache_hits", 0))
        iterations.append(it)
        traced.append(it)
        all_spans.append([vars(s) for s in tracer.spans])
        _report_iteration(k + 1, it, " traced")

    metrics = {name: statistics.median(it["layers"][name] for it in traced)
               for name in traced[0]["layers"]}
    metrics.update(micro)
    metrics["trace.run_s"] = statistics.median(it["run_s"] for it in traced)
    metrics["trace.untraced_run_s"] = statistics.median(plain_s)
    metrics["trace.overhead_s"] = metrics["trace.run_s"] - metrics["trace.untraced_run_s"]
    return iterations, metrics, all_spans


def _report_iteration(k: int, it: dict, label: str):
    o = it["outcome"]
    status = "ok" if not o.failures else "FAILED: " + "; ".join(o.failures)
    print(f"iteration {k}{label}: run_s={it['run_s']:.4f} "
          f"cpu_s={it['cpu_s']:.4f} {status}", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    env_before = isolate_environment()
    try:
        import_ddlab()
    except ImportError as exc:
        print(f"cannot import ddlab from {SRC}: {exc}", file=sys.stderr)
        return 2
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    work = OUT / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_times, inputs = timed_setup(args.workload, args.seed, work)
        workers = workloads.effective_workers(args.workload)
        traced_inputs, traced_workers, note = inputs, workers, None
        if args.trace and workers > 1 and multiprocessing.get_start_method() != "fork":
            # wrappers reach pool workers only through fork
            traced_workers = 1
            traced_inputs = workloads.make_inputs(args.workload, args.seed,
                                                  work / "traced", workers=1)
            note = "traced iterations run with workers = 1: no fork start method"
            print(note)
        meta = metadata(args.workload, args.seed, env_before, workers)
        meta["traced_workers"] = traced_workers if args.trace else None
        if args.trace:
            iterations, metrics, spans = measure_traced(
                args, inputs, traced_inputs, work, traced_workers)
        else:
            iterations = measure(args, inputs, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    counts = tally(iterations)
    timed = [it for it in iterations if "layers" not in it]
    young = [it["outcome"].info.get("young_var_min") for it in timed]
    summary = {
        "fail_frac": counts["failed"] / counts["attempted"],
        "failures": [f for it in iterations for f in it["outcome"].failures],
        "young_var_min": min((y for y in young if y is not None), default=None),
        "L1": timed[-1]["outcome"].info.get("L1"),
        "trace_note": note,
    }
    if args.trace:
        units = layers.per_layer_units()
    else:
        metrics = {
            "run_s": statistics.median(it["run_s"] for it in timed),
            "cpu_s": statistics.median(it["cpu_s"] for it in timed),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb(),
            "l1_finest": statistics.median(
                [it["outcome"].l1_finest for it in timed
                 if math.isfinite(it["outcome"].l1_finest)] or [math.nan]),
        }
        units = END_TO_END

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps({
        "metadata": meta, "summary": summary, "metrics": metrics,
        "setup_s": setup_times,
        "iterations": [{"run_s": it["run_s"], "cpu_s": it["cpu_s"],
                        "traced": "layers" in it,
                        "failures": it["outcome"].failures,
                        "info": it["outcome"].info} for it in iterations],
    }, indent=2, default=str))
    if args.trace:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans))

    print(f"workload {args.workload} seed {args.seed}: effective workers "
          f"{workers}, fail_frac {summary['fail_frac']:.3f}, "
          f"src lines {meta['src_lines']}")
    if summary["young_var_min"] is not None and args.workload == "dispersive_ladder":
        print(f"young_var min {summary['young_var_min']:.6f} against "
              f">= {workloads.YOUNG_VAR_MIN} (margin "
              f"{summary['young_var_min'] / workloads.YOUNG_VAR_MIN - 1.0:+.1%})")
    for name in units:
        print(f"{name} = {metrics[name]!r} {units[name]}")
    print(result_line(counts, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
