"""Tests of the benchmark itself: python -m pytest perfbench"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        k: v[:2] for k, v in spans.PER_LAYER.items()
    }


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analytic", "--seed", "5",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert res.returncode == 0, res.stderr
    out = _last_json(res.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {m["name"]: m["unit"] for m in table}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream_decode", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert "correct" not in res.stdout


def test_tail_needs_twenty_jobs():
    assert bench.tail([1.0] * 19) is None
    pct, value, n = bench.tail([float(i) for i in range(1, 21)])
    assert (pct, value, n) == (50.0, 10.0, 20)
    pct, value, n = bench.tail([float(i) for i in range(50, 0, -1)])
    assert (pct, value, n) == (80.0, 40.0, 50)  # exactly 10 jobs lie beyond it


class _Flaky:
    """A workload whose job 1 raises."""

    trials = None
    ref_nominal_s = 1.0

    def reference(self):
        return 1.0

    def run(self, k, threads, trials=None):
        if k == 1:
            raise RuntimeError("injected")
        return k

    def output(self, raw):
        return raw

    def same(self, a, b):
        return a == b

    def checks(self, out):
        return [("output_ok", True, "")]


def test_raising_job_counts_as_failed(capsys):
    rec = bench.closed_loop(_Flaky(), 60.0, (1, 2), max_rounds=3)
    assert rec.latencies(1)[1] == math.inf and rec.outputs[1] is None
    assert rec.jobs_per_s(1, raw=True) == 2 / sum(rec.times[1])
    assert rec.jobs_per_s(1) == pytest.approx(2 / sum(rec.times[1]))
    metrics = dict.fromkeys(bench.END_TO_END, 1.0)
    result = bench.result(rec.checks, metrics, bench.END_TO_END)
    # 3 rounds x 2 completion checks + 2 good rounds x (identity + output check)
    assert (result["attempted"], result["failed"]) == (10, 2)
    assert result["correct"] is False
    assert "injected" in capsys.readouterr().err


class _Slowing(_Flaky):
    """Every job takes 20 ms; the host's reference kernel takes twice as long each time."""

    ref_nominal_s = 0.5

    def __init__(self):
        self.refs = iter([1.0, 2.0, 4.0, 8.0])

    def reference(self):
        return next(self.refs)

    def run(self, k, threads, trials=None):
        time.sleep(0.02)
        return k


def test_job_time_scaled_by_reference_around_it():
    rec = bench.closed_loop(_Slowing(), 60.0, (1,), max_rounds=3)
    # scaled = wall x nominal / mean of the kernel times before and after the job
    for wall, scaled, ref in zip(rec.times[1], rec.scaled[1], (1.5, 3.0, 6.0)):
        assert scaled == pytest.approx(wall * 0.5 / ref)
    assert rec.jobs_per_s(1) == pytest.approx(3 / sum(rec.scaled[1]))


def test_family_threshold_passes_noise_and_flags_a_shift():
    rng = np.random.default_rng(0)
    se = np.ones(500)
    assert workloads.z_family("x", rng.standard_normal(500), se)[1]
    shifted = rng.standard_normal(500)
    shifted[7] += 8.0
    assert not workloads.z_family("x", shifted, se)[1]
    assert workloads.family_threshold(500) > workloads.family_threshold(5) > 3.0


def test_tracer_records_nested_spans_and_restores():
    from cascade_iv import mse, params

    original = mse.solve_grid
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span(spans.JOB_SPAN):
            mse.solve_grid(params.make_channel_params(1.0), mse.SingleSampleBoundary(), 3, 4)
    finally:
        tracer.uninstall()
    assert mse.solve_grid is original
    table = tracer.table()
    assert table.present() == {spans.JOB_SPAN, "mse.solve_grid"}
    assert table.count[table.of("mse.solve_grid")].tolist() == [4 * 6]
    job = table.of(spans.JOB_SPAN)
    assert table.self_time[job][0] == pytest.approx(
        table.dur[job][0] - table.dur[table.of("mse.solve_grid")][0]
    )


def test_bypassed_wrapper_fails_the_trace_check():
    from cascade_iv import simulate as sim

    bound_early = sim.trial_generator  # what a from-import binding would hold
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span(spans.JOB_SPAN):
            bound_early(1, 0)
            sim.draw_noise(sim.trial_generator(1, 0), "gaussian", (2, 3))
    finally:
        tracer.uninstall()
    checks = {name: ok for name, ok, _ in spans.trace_checks("stream_decode", tracer.table())}
    assert checks["trace_span:simulate.draw_noise"]
    assert checks["trace_span:simulate.trial_generator"]  # the lookup through the module
    tracer2 = spans.Tracer()
    tracer2.install()
    try:
        with tracer2.span(spans.JOB_SPAN):
            bound_early(1, 0)
    finally:
        tracer2.uninstall()
    checks = {name: ok for name, ok, _ in spans.trace_checks("stream_decode", tracer2.table())}
    assert not checks["trace_span:simulate.trial_generator"]
