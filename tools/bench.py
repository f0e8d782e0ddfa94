"""Before/after benchmark of a change against a base revision.

    python3 tools/bench.py --base <rev> --out BENCH_<n>.json \
        [--rounds 10] [--seed 0]

Runs ``perfbench/run.py --trace 0``, unmodified, for every workload of
BENCHMARK.json, at its ``run_seconds``, on the base revision and on this
checkout, in alternating rounds: round r runs every workload on both sides
at seed ``--seed + r``, and the side that goes first alternates from round
to round.  The base revision is exported with
``git archive`` into a temporary directory; this checkout runs as it is on
disk.  The output file holds, per workload and end-to-end metric of
BENCHMARK.json, each side's median, quartiles and values, and the number
of rounds in which the change did better.  It also records the machine
(``nproc``, the Python and numpy versions) and each side's ``src/`` line
count, and is rewritten after every round.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def result_metrics(stdout: str) -> dict:
    """The last line run.py prints: {"attempted", "failed", "metrics"},
    with each metric's value in place of its {"value", "unit"} record."""
    line = [s for s in stdout.splitlines() if s.strip()][-1]
    result = json.loads(line)
    return {"attempted": result["attempted"], "failed": result["failed"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def spread(values: list) -> dict:
    """Median and quartiles (inclusive method) of values, and the values."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") \
        if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def summarize(rounds: list, better: dict) -> dict:
    """Per-metric spread of each side over rounds, a list of
    {"base": result, "change": result} of result_metrics, and the rounds
    the change won; better maps each metric to "lower" or "higher"."""
    out = {"failed": {side: sum(r[side]["failed"] for r in rounds)
                      for side in ("base", "change")},
           "attempted": {side: sum(r[side]["attempted"] for r in rounds)
                         for side in ("base", "change")},
           "metrics": {}}
    for name, direction in better.items():
        pairs = [(r["base"]["metrics"].get(name), r["change"]["metrics"].get(name))
                 for r in rounds]
        pairs = [(b, c) for b, c in pairs if b is not None and c is not None]
        if not pairs:
            continue
        sign = 1.0 if direction == "lower" else -1.0
        out["metrics"][name] = {
            "better": direction,
            "base": spread([b for b, _ in pairs]),
            "change": spread([c for _, c in pairs]),
            "change_wins": sum(sign * (b - c) > 0 for b, c in pairs),
            "pairs": len(pairs),
        }
    return out


def src_lines(root: Path) -> int:
    """Lines of src/ddlab/*.py, as ``wc -l`` counts them."""
    return sum(p.read_bytes().count(b"\n")
               for p in sorted((root / "src" / "ddlab").glob("*.py")))


def machine() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path):
    """The files of rev, written under dest."""
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def run_workload(root: Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {root} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    return result_metrics(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", required=True, help="git revision to compare to")
    ap.add_argument("--out", required=True, help="BENCH json file to write")
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    base_rev = git("rev-parse", args.base)
    report = {
        "machine": machine(),
        "command": "perfbench/run.py --workload W --seed S --seconds K --trace 0",
        "seconds": seconds,
        "base": {"rev": base_rev},
        "change": {"rev": git("rev-parse", "HEAD"),
                   "dirty": bool(git("status", "--porcelain", "--", "src", "perfbench")),
                   "src_lines": src_lines(ROOT)},
    }
    results: dict = {w: [] for w in workloads}
    with tempfile.TemporaryDirectory() as tmp:
        base_root = Path(tmp)
        export(base_rev, base_root)
        report["base"]["src_lines"] = src_lines(base_root)
        sides = {"base": base_root, "change": ROOT}
        for r in range(args.rounds):
            seed = args.seed + r
            order = ("base", "change") if r % 2 == 0 else ("change", "base")
            for w in workloads:
                got = {side: run_workload(sides[side], w, seed, seconds)
                       for side in order}
                results[w].append(got)
                print(f"round {r} seed {seed} {w}: " + ", ".join(
                    f"{side} run_s {got[side]['metrics'].get('run_s')}"
                    for side in order), flush=True)
            report["rounds"] = r + 1
            report["seeds"] = list(range(args.seed, seed + 1))
            report["workloads"] = {w: summarize(results[w], better)
                                   for w in workloads}
            Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
