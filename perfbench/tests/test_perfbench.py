"""Self-tests of the benchmark: output checks, seeded inputs, span trees.

Run with ``python -m pytest perfbench/tests``.
"""

import json
import multiprocessing
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ddlab import cli, harness

import layers
import run
import workloads
from tracing import Span, Tracer, instrumented, self_times, tree_problems


# ---------------------------------------------------------------------------
# output checks


def _diffusive_rows():
    """Records shaped like the acceptance ladder's, passing every check."""
    rows = []
    for eps, n, l1 in zip((0.04, 0.02, 0.01, 0.005), (512, 1024, 2048, 4096),
                          (0.08, 0.05, 0.03, 0.02)):
        rows.append({"epsilon": eps, "delta": eps**2.5, "N": n, "dx": 2.0 / n,
                     "blowup": 0.0, "L1": l1, "mu2": -1e-3,
                     "kruzkov_pos": 0.0, "young_var": 0.01})
    return rows


def _iteration(failures, records=b"x"):
    return {"run_s": 1.0, "cpu_s": 1.0,
            "outcome": workloads.Outcome(failures=list(failures), records=records)}


def test_good_records_pass():
    assert workloads.check_diffusive(_diffusive_rows(), {}) == []


def test_corrupted_record_counts_as_failure():
    rows = _diffusive_rows()
    rows[2]["L1"] = 0.06          # L1 now increases along the ladder
    fails = workloads.check_diffusive(rows, {})
    assert any("strictly decreasing" in f for f in fails)
    counts = run.tally([_iteration([]), _iteration(fails)])
    assert counts == {"attempted": 2, "failed": 1, "correct": False}


@pytest.mark.parametrize("column,value", [
    ("mu2", 1e-9), ("kruzkov_pos", 1e-3), ("blowup", 1.0), ("L1", float("nan")),
])
def test_each_diffusive_threshold_is_enforced(column, value):
    rows = _diffusive_rows()
    rows[-1][column] = value
    assert workloads.check_diffusive(rows, {})


def test_dispersive_and_bounded_thresholds():
    rows = [{"epsilon": 0.0, "delta": d, "blowup": 0.0, "L1": 0.3,
             "young_var": 0.06, "kruzkov_pos": 0.01} for d in (1e-3, 5e-4)]
    assert workloads.check_dispersive(rows, {}) == []
    rows[0]["young_var"] = 0.049
    assert workloads.check_dispersive(rows, {})
    rows = _diffusive_rows()[:3]
    assert workloads.check_bounded(rows, {"theorem_tag": "thm32"}) == []
    assert workloads.check_bounded(rows, {"theorem_tag": "unsupported"})


def test_records_must_repeat_within_a_run():
    counts = run.tally([_iteration([], b"a"), _iteration([], b"b")])
    assert counts["failed"] == 1


# ---------------------------------------------------------------------------
# seeded inputs


def test_synthetic_ladder_is_seed_deterministic():
    runs_a, ref_a = workloads.synthetic_ladder(3)
    runs_b, ref_b = workloads.synthetic_ladder(3)
    runs_c, _ = workloads.synthetic_ladder(4)
    assert np.array_equal(ref_a.values, ref_b.values)
    for a, b, c in zip(runs_a, runs_b, runs_c):
        assert a.times == b.times
        assert all(np.array_equal(f.values, g.values)
                   for f, g in zip(a.fields, b.fields))
        assert not np.array_equal(a.final().values, c.final().values)


def test_analysis_iterations_share_a_store_but_read_nothing_old(tmp_path):
    inputs = workloads.make_inputs("analysis", 3, tmp_path / "setup")
    first = workloads.analysis_iteration("analysis", inputs, tmp_path / "it0")
    second = workloads.analysis_iteration("analysis", inputs, tmp_path / "it1")
    assert first.failures == [] and second.failures == []
    # ddlab diagnose appends to diagnostics.csv, so a file left from the
    # first iteration would add its rows to the second one's values
    assert second.info == first.info
    assert first.l1_finest == second.l1_finest


def test_seed_zero_config_is_the_acceptance_ladder(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text(workloads.sweep_config_text("diffusive_ladder", 0))
    cfg = cli.sweep_config_from_sections(cli.parse_config(path), out_override="o")
    assert cfg == harness.SweepConfig(workers=2, out_dir="o")


def test_other_seeds_jitter_the_smoothing_width(tmp_path):
    widths = [workloads.smoothing_width(s) for s in range(1, 50)]
    assert all(abs(w / workloads.BASE_W - 1.0) <= workloads.W_JITTER for w in widths)
    assert len(set(widths)) == len(widths)
    path = tmp_path / "sweep.ini"
    path.write_text(workloads.sweep_config_text("bounded_flux", 7))
    cfg = cli.sweep_config_from_sections(cli.parse_config(path))
    assert dict(cfg.initial_args) == {"w": workloads.smoothing_width(7)}
    assert (cfg.flux, cfg.ref_n, cfg.grid_ns) == ("bounded", 256, (256, 512, 1024))


# ---------------------------------------------------------------------------
# span trees


def test_nested_spans_are_well_formed():
    tracer = Tracer()
    with tracer.span("bench.iteration"):
        with tracer.span("cli.sweep"):
            time.sleep(0.002)
            with tracer.span("solver.solve"):
                time.sleep(0.002)
        with tracer.span("grids.read_snapshot_csv"):
            pass
    assert tree_problems(tracer.spans) == []
    own = self_times(tracer.spans)
    assert all(t >= 0.0 for t in own.values())
    root = next(s for s in tracer.spans if s.parent is None)
    assert sum(own.values()) == pytest.approx(root.duration)


def test_defective_trees_are_reported():
    spans = [Span("1", "bench.iteration", None, 0.0, 1.0),
             Span("2", "cli.sweep", "1", 0.5, 1.5),
             Span("3", "solver.solve", "9", 0.1, 0.2)]
    problems = tree_problems(spans)
    assert any("outside parent" in p for p in problems)
    assert any("unknown parent" in p for p in problems)


def test_overlapping_children_are_subtracted_once():
    spans = [Span("1", "harness.run_sweep", None, 0.0, 10.0),
             Span("2", "harness.execute_run", "1", 1.0, 6.0),
             Span("3", "harness.execute_run", "1", 2.0, 9.0)]
    assert self_times(spans)["1"] == pytest.approx(2.0)


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="worker spans are collected through fork")
def test_pool_worker_spans_join_the_tree(tmp_path):
    cfg = replace(harness.SweepConfig(), epsilons=(0.04, 0.02),
                  grid_ns=(128, 128), t_end=0.05, ref_n=256, sample_count=3,
                  diagnostics=(), workers=2, out_dir=str(tmp_path / "out"))
    tracer = Tracer(spool_dir=tmp_path / "spool")
    tracer.spool_dir.mkdir()
    original = harness.execute_run
    with instrumented(tracer, layers.trace_targets()):
        assert harness.execute_run is not original
        with tracer.span("bench.iteration"):
            cli.run_sweep(cfg)
    assert harness.execute_run is original
    assert tracer.collect_spool() > 0
    assert tree_problems(tracer.spans) == []
    metrics = layers.layer_metrics(tracer.spans, workers=2, cache_hits=0)
    assert metrics["solver.steps.entry0"] > 0
    assert metrics["solver.steps.entry1"] > 0
    assert metrics["solver.steps"] == \
        metrics["solver.steps.entry0"] + metrics["solver.steps.entry1"]
    assert 0.0 < metrics["harness.parallel_efficiency"] <= 1.0
    # the names not derived from spans come from the micro-timings and
    # the untraced/traced comparison
    units = layers.per_layer_units()
    assert set(metrics) <= set(units)
    assert all(n.startswith(("solver.rhs_us.", "solver.step_us.",
                             "solver.stable_dt_us.", "trace."))
               for n in set(units) - set(metrics))


# ---------------------------------------------------------------------------
# BENCHMARK.json


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        layers.per_layer_units()


def test_result_line_stays_valid_json_after_failures():
    line = run.result_line({"correct": False, "attempted": 1, "failed": 1},
                           {"run_s": 1.5, "l1_finest": float("nan")},
                           {"run_s": "s", "l1_finest": "1"})
    out = json.loads(line)
    assert out["metrics"]["l1_finest"]["value"] is None
    assert out["metrics"]["run_s"] == {"value": 1.5, "unit": "s"}
