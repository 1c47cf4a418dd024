"""Closed-loop measurement, set-up timing and the printed result of one benchmark run.

An untraced run (``trace=False``) reports the end-to-end metrics.  A traced
run measures the same jobs untraced, then again with the layer boundaries
wrapped by ``spans.Tracer``, and reports the per-layer metrics; their
difference is the tracing overhead.  Job and set-up times are reported at
the reference speed of the workload's reference kernel, which is timed next
to each of them.  Every job's output is checked, and the checks give
``attempted`` and ``failed`` in the result.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import cascade_iv
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"

# name -> (unit, better).  A job is one call of the workload's job: at
# threads=1, then at threads=2 with the same seed.  Throughput is completed
# jobs over the summed job time, and set-up is the median over fresh
# interpreters.  Both are times at the reference speed: each wall time is
# scaled by the nominal time of its workload's reference kernel over the
# kernel's time measured next to it (see workloads).  The raw wall times,
# the median job time and the tail are printed beside them.
END_TO_END = {
    "jobs_per_s": ("jobs/s", "higher"),
    "jobs_per_s_2t": ("jobs/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

SETUP_RUNS = 5
IMPORT_RUNS = 3
MAX_TRACED_JOBS = 4
BULK_NORMALS = 1 << 22
SUBPROCESS_TIMEOUT_S = 120
TAIL_MIN_JOBS = 20
TAIL_BEYOND = 10

# Runs in a fresh interpreter: import the package and build the workload's
# inputs (MC: solve_grid and precompute_gains; analytic: config load).
# Then, in the same process, it times the interpreter reference kernel four
# times and prints the set-up time and the median of the last three.
SETUP_SNIPPET = """\
import statistics, sys, time
t0 = time.perf_counter()
import workloads
workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3])
t = time.perf_counter() - t0
refs = [workloads.interpreter_reference() for _ in range(4)]
print(repr(t), repr(statistics.median(refs[1:])))
"""


@dataclass
class LoopRecord:
    """Per thread count: each job's wall time, its time at the reference speed and
    whether it completed; outputs at threads=1; checks."""

    times: dict[int, list[float]]
    scaled: dict[int, list[float]]
    ok: dict[int, list[bool]]
    outputs: list = field(default_factory=list)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def jobs_per_s(self, threads: int, jobs: int | None = None, raw: bool = False) -> float:
        """Completed jobs per second of job time at the reference speed (or of wall
        time), over the first ``jobs`` jobs or all of them."""
        times = (self.times if raw else self.scaled)[threads][:jobs]
        return sum(self.ok[threads][:jobs]) / sum(times)

    def latencies(self, threads: int) -> list[float]:
        """Job wall times, with a job that raised counted as never finishing."""
        return [t if ok else math.inf for t, ok in zip(self.times[threads], self.ok[threads])]


def closed_loop(wl, seconds: float, thread_counts, *, max_rounds=None, run=None) -> LoopRecord:
    """Run job k = 0, 1, ... at each thread count for about ``seconds``.

    One caller, one job at a time: ``run`` (default ``wl.run``) is timed,
    then ``wl.output`` collects what the checks read.  The workload's
    reference kernel runs before the first job and after each one; a job's
    time at the reference speed is its wall time times ``wl.ref_nominal_s``
    over the mean of the kernel times on either side of it.  A round (job k at
    every thread count) starts only while a mean round still fits in
    ``seconds``; the first always runs.  A job that raises is reported on
    standard error and fails its ``job_completed`` check; the loop goes on.
    Threads=1 and the other thread counts must give identical outputs, then
    the workload checks the output.
    """
    run = run or wl.run
    rec = LoopRecord(*({t: [] for t in thread_counts} for _ in range(3)))
    start = time.perf_counter()
    ref = wl.reference()
    k = 0
    while True:
        outs = {}
        for t in thread_counts:
            t0 = time.perf_counter()
            elapsed = None
            try:
                raw = run(k, t)
                elapsed = time.perf_counter() - t0
                outs[t] = wl.output(raw)
            except Exception:
                traceback.print_exc(file=sys.stderr)
            if elapsed is None:
                elapsed = time.perf_counter() - t0
            ref_after = wl.reference()
            rec.times[t].append(elapsed)
            rec.scaled[t].append(elapsed * wl.ref_nominal_s / ((ref + ref_after) / 2))
            ref = ref_after
            rec.ok[t].append(t in outs)
            rec.checks.append((f"job_completed[threads={t}]", t in outs, f"job {k}"))
        if len(outs) == len(thread_counts):
            base = outs[thread_counts[0]]
            for t in thread_counts[1:]:
                rec.checks.append((f"threads_identical[1 vs {t}]", wl.same(base, outs[t]), f"job {k}"))
            rec.checks.extend(wl.checks(base))
            rec.outputs.append(base)
        else:
            rec.outputs.append(None)
        k += 1
        spent = time.perf_counter() - start
        if (max_rounds is not None and k >= max_rounds) or spent + spent / k > seconds:
            return rec


def median(values) -> float:
    return statistics.median(values) if values else math.nan


def tail(values):
    """(percentile, value, jobs) at the highest percentile with TAIL_BEYOND jobs beyond it.

    None below TAIL_MIN_JOBS jobs, where such a percentile would sit at the median.
    """
    n = len(values)
    if n < TAIL_MIN_JOBS:
        return None
    rank = n - TAIL_BEYOND  # 1-based: exactly TAIL_BEYOND jobs lie beyond it
    return 100.0 * rank / n, sorted(values)[rank - 1], n


def warm_up(wl, thread_counts) -> None:
    """One short job per thread count, so imports, caches and thread start-up are done."""
    for t in thread_counts:
        wl.run(10**9, t, trials=workloads.WARMUP_TRIALS)


def setup_times(name: str, seed: int, workdir: str) -> tuple[list[float], list[float]]:
    """Set-up time of the workload in SETUP_RUNS fresh interpreters: wall times, and
    the same at the reference speed of the interpreter kernel."""
    wall, scaled = [], []
    for _ in range(SETUP_RUNS):
        res = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, name, str(seed), workdir],
            cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True,
        )
        t, ref = (float(x) for x in res.stdout.split()[-2:])
        wall.append(t)
        scaled.append(t * workloads.INTERPRETER_REF_S / ref)
    return wall, scaled


def import_times() -> dict[str, float]:
    """Median cumulative import time (ms) of each package module, from ``-X importtime``."""
    runs = []
    for _ in range(IMPORT_RUNS):
        res = subprocess.run(
            # the package first, so that cli's line does not include it
            [sys.executable, "-X", "importtime", "-c", "import cascade_iv; import cascade_iv.cli"],
            cwd=ROOT, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True,
        )
        ms = {}
        for line in res.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip().startswith("cascade_iv."):
                ms[parts[2].strip().split(".", 1)[1]] = int(parts[1]) / 1000.0
        runs.append(ms)
    return {m: median([r[m] for r in runs]) for m in spans.MODULES}


def bulk_normals_per_s() -> float:
    """Rate of one bulk ``standard_normal`` call on a Philox stream, median of three."""
    gen = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    rates = []
    for _ in range(3):
        t0 = time.perf_counter()
        gen.standard_normal(BULK_NORMALS)
        rates.append(BULK_NORMALS / (time.perf_counter() - t0))
    return median(rates)


def machine(thread_env, threads_2: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_counts": [1, threads_2],
        "thread_env": {k: os.environ.get(k) for k in thread_env},
        "CASCADE_IV_THREADS": os.environ.get("CASCADE_IV_THREADS"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def result(checks, metrics: dict, table: dict) -> dict:
    """The printed result: check counts and every metric of ``table`` with its unit."""
    failed = sum(1 for c in checks if not c[1])
    return {
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {
            k: {"value": metrics[k] if math.isfinite(metrics[k]) else None, "unit": unit}
            for k, (unit, _better) in table.items()
        },
    }


def run(name: str, seed: int, seconds: float, trace: bool, thread_env) -> int:
    if not Path(cascade_iv.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: cascade_iv imported from {cascade_iv.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    threads_2 = min(2, len(os.sched_getaffinity(0)))
    thread_counts = (1, threads_2)
    info = machine(thread_env, threads_2)
    STATE_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=STATE_DIR)
    try:
        if trace:
            checks, metrics, detail = _traced(name, seed, seconds, thread_counts, workdir)
        else:
            checks, metrics, detail = _untraced(name, seed, seconds, thread_counts, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info["loadavg_end"] = os.getloadavg()

    table = END_TO_END if not trace else {k: v[:2] for k, v in spans.PER_LAYER.items()}
    out = result(checks, metrics, table)
    failed = [c for c in checks if not c[1]]
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "machine": info, "detail": detail, "failed_checks": failed, **out}
    (STATE_DIR / f"result-{name}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))

    print(f"# perfbench {name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    print(f"# machine {json.dumps(info)}")
    for key, value in detail.items():
        print(f"# {key}: {value}")
    for c in failed:
        print(f"# FAILED {c[0]}: {c[2]}")
    print(f"# failed_frac {len(failed) / len(checks):.6g} ({len(failed)} of {len(checks)} checks)")
    for key, m in out["metrics"].items():
        print(f"# {key} = {m['value']} {m['unit']}")
    print(json.dumps(out))
    return 0


def _job_detail(wl, rec: LoopRecord, thread_counts) -> dict:
    detail = {}
    for t in thread_counts:
        detail[f"jobs[threads={t}]"] = len(rec.times[t])
        detail[f"job_times_s[threads={t}]"] = rec.times[t]
        detail[f"job_p50_s[threads={t}]"] = median(rec.latencies(t))
        detail[f"jobs_per_s_wall[threads={t}]"] = rec.jobs_per_s(t, raw=True)
        if wl.trials:
            detail[f"trials_per_s_wall[threads={t}]"] = wl.trials * rec.jobs_per_s(t, raw=True)
    # Jobs that take no thread count are the same job at either setting.
    pooled = wl.trials is None
    times = [x for t in thread_counts for x in rec.latencies(t)] if pooled else rec.latencies(1)
    tl = tail(times)
    where = "both thread settings" if pooled else "threads=1"
    detail["job_tail_s"] = (f"p{tl[0]:.1f} = {tl[1]!r} s over {tl[2]} jobs at {where}"
                            if tl else f"not reported below {TAIL_MIN_JOBS} jobs")
    return detail


def _untraced(name, seed, seconds, thread_counts, workdir):
    setup_wall, setups = setup_times(name, seed, workdir)
    wl = workloads.WORKLOADS[name](seed, workdir)
    warm_up(wl, thread_counts)
    rec = closed_loop(wl, seconds, thread_counts)
    metrics = {
        "jobs_per_s": rec.jobs_per_s(1),
        "jobs_per_s_2t": rec.jobs_per_s(thread_counts[1]),
        "setup_s": median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = _job_detail(wl, rec, thread_counts)
    detail["setup_runs_s"] = setups
    detail["setup_runs_wall_s"] = setup_wall
    return rec.checks, metrics, detail


def _traced(name, seed, seconds, thread_counts, workdir):
    wl = workloads.WORKLOADS[name](seed, workdir)
    warm_up(wl, thread_counts)
    plain = closed_loop(wl, seconds / 2, thread_counts)
    imports = import_times()
    bulk = bulk_normals_per_s()

    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span(spans.SETUP_SPAN):
            wl.setup()
        traced = closed_loop(
            wl, seconds / 2, (1,),
            max_rounds=min(len(plain.outputs), MAX_TRACED_JOBS),
            run=tracer.wrap(wl.run, spans.JOB_SPAN),
        )
    finally:
        tracer.uninstall()
    tracer.write(STATE_DIR / f"spans-{name}.json")

    n = len(traced.outputs)
    checks = plain.checks + traced.checks + [
        ("traced_output_equal", a is not None and b is not None and wl.same(a, b), f"job {k}")
        for k, (a, b) in enumerate(zip(plain.outputs, traced.outputs))
    ]
    table = tracer.table()
    checks += spans.trace_checks(name, table)
    ctx = {
        "jobs": n,
        # the untraced rate over the same jobs as the traced one
        "untraced_1t": plain.jobs_per_s(1, jobs=n),
        "untraced_2t": plain.jobs_per_s(thread_counts[1]),
        "traced_1t": traced.jobs_per_s(1),
        "threads_2": thread_counts[1],
        "bulk_normals_per_s": bulk,
        "lattice_cells": wl.lattice_cells,
        "import_ms": imports,
    }
    detail = _job_detail(wl, plain, thread_counts)
    detail["traced_jobs"] = n
    detail["traced_job_times_s"] = traced.times[1]
    detail["jobs_per_s[untraced, traced]"] = [ctx["untraced_1t"], ctx["traced_1t"]]
    detail["spans"] = len(tracer.spans)

    return checks, spans.layer_metrics(table, ctx), detail
