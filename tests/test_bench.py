"""tools/bench.py: the aggregation of perfbench/run.py output into a BENCH
file."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("bench", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def _run_output(run_s, rss, failed=0):
    """What run.py --trace 0 prints: progress lines, then one JSON object."""
    last = json.dumps({"correct": failed == 0, "attempted": 4, "failed": failed,
                       "metrics": {"run_s": {"value": run_s, "unit": "s"},
                                   "peak_rss_mb": {"value": rss, "unit": "MB"},
                                   "l1_finest": {"value": None, "unit": "1"}}})
    return (f"iteration 0: run_s={run_s:.4f} cpu_s=0.1 ok\n"
            f"run_s = {run_s!r} s\n{last}\n\n")


def test_result_metrics_reads_the_last_line():
    got = bench.result_metrics(_run_output(0.25, 40.0, failed=1))
    assert got == {"attempted": 4, "failed": 1,
                   "metrics": {"run_s": 0.25, "peak_rss_mb": 40.0,
                               "l1_finest": None}}


def test_summarize_gives_each_side_its_median_quartiles_and_wins():
    base = [(0.30, 40.0), (0.34, 41.0), (0.25, 40.5), (0.31, 40.0), (0.28, 40.0)]
    change = [(0.20, 41.0), (0.22, 41.0), (0.26, 40.0), (0.19, 41.5), (0.21, 39.0)]
    rounds = [{"base": bench.result_metrics(_run_output(*b)),
               "change": bench.result_metrics(_run_output(*c, failed=i == 0))}
              for i, (b, c) in enumerate(zip(base, change))]
    out = bench.summarize(rounds, {"run_s": "lower", "peak_rss_mb": "higher",
                                   "l1_finest": "lower"})
    assert out["failed"] == {"base": 0, "change": 1}
    assert out["attempted"] == {"base": 20, "change": 20}
    run_s = out["metrics"]["run_s"]
    assert run_s["base"] == {"median": 0.30, "q1": 0.28, "q3": 0.31,
                             "values": [0.30, 0.34, 0.25, 0.31, 0.28]}
    assert run_s["change"]["median"] == 0.21
    assert (run_s["change"]["q1"], run_s["change"]["q3"]) == (0.20, 0.22)
    # the third round's 0.26 lost to 0.25
    assert run_s["change_wins"] == 4 and run_s["pairs"] == 5
    # higher is better here: the change is higher in the first and fourth
    # rounds; a tie is no win
    assert out["metrics"]["peak_rss_mb"]["change_wins"] == 2
    # a metric no run reported is left out
    assert "l1_finest" not in out["metrics"]


def test_spread_of_one_value():
    assert bench.spread([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0,
                                   "values": [2.0]}


def test_src_lines_counts_newlines_of_the_package_modules(tmp_path):
    pkg = tmp_path / "src" / "ddlab"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3\n")
    (pkg / "notes.txt").write_text("not counted\n")
    assert bench.src_lines(tmp_path) == 3


@pytest.mark.parametrize("name", ["nproc", "python", "numpy"])
def test_machine_names_the_platform(name):
    assert bench.machine()[name]


@pytest.mark.parametrize("option", [["--seconds", "5"], ["--workloads", "analysis"]])
def test_the_benchmark_fixes_workloads_and_run_length(option):
    # every BENCH file covers every workload at BENCHMARK.json's run_seconds
    with pytest.raises(SystemExit):
        bench.main(["--base", "HEAD", "--out", "unused.json", *option])
