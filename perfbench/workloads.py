"""The benchmark workloads: set-up, one job, and the checks on the job's output.

Each workload is a closed loop: one caller issues jobs one after another,
each job a call into the package's public API.  Job ``k`` draws its
``master_seed`` from the run's seed, so a seed fixes every input.  Monte
Carlo jobs run ``MC_TRIALS`` trials, two default-size batches, so that
threads=2 has work to split.

Why these two workloads:

* ``stream_decode`` is the criterion-8 shape, the heaviest real job: a
  24x44 lattice, 1056 normals per trial and per-cell slicing and tallying,
  so the engine and ``pam`` do most of their work here.
* ``analytic`` has no Monte Carlo: the CLI's ``mse``/``exponents``/``iv``
  commands, the streaming envelope curve and a 2000x2000 lattice.  A Monte
  Carlo optimisation must show no change here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time
from statistics import NormalDist

import numpy as np

from cascade_iv import cli, config, exponents as xp, mse, params, simulate as sim

MC_TRIALS = 40_000
WARMUP_TRIALS = 2_000

# Family-wise false-alarm rate of each job's statistical checks.  Correct code
# runs hundreds of jobs per evaluation; a per-cell 3-sigma rule would flag it
# often, so the threshold is Bonferroni over the cells a check family tests.
FAMILY_ALPHA = 1e-6

# Host-speed references.  On a shared host the speed of a vCPU shifts by up to
# 2x over seconds to minutes, and job times move with it; how much depends on
# the kind of work.  Interpreter and small-array work slows most, streaming
# over large arrays least.  Each workload times a fixed reference kernel of its
# own kind of work next to every job, and the benchmark scales the job's time
# by the kernel's nominal time over its measured one.  The kernels use only
# Python and numpy, never the package, so a change to the package does not
# move them.
_SMALL = np.linspace(0.0, 1.0, 1000)


def interpreter_reference() -> float:
    """Wall time of a fixed mix of interpreter work and small numpy calls."""
    t0 = time.perf_counter()
    s = 0
    for i in range(200_000):
        s += i * i % 7
    for _ in range(3_000):
        (_SMALL * 2.0).sum()
    return time.perf_counter() - t0


def array_reference() -> float:
    """Wall time of a fixed pass of arithmetic and a scan over 32 MB arrays."""
    t0 = time.perf_counter()
    large = np.linspace(0.0, 1.0, 4_000_000)
    for _ in range(3):
        np.cumsum(large * 1.0001)
    return time.perf_counter() - t0


# Nominal kernel times, about their fast-state times on the 2-vCPU host where
# the benchmark was written.  They only set the scale of the reported times.
INTERPRETER_REF_S = 0.030
ARRAY_REF_S = 0.100


def job_seed(seed: int, k: int) -> int:
    """The master_seed of job k, below 2**63 as the CLI requires."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint64)[0] >> np.uint64(1))


def family_threshold(n_tests: int, two_sided: bool = True) -> float:
    """z above which any of ``n_tests`` tests fails, at family-wise rate FAMILY_ALPHA."""
    tail = FAMILY_ALPHA / max(n_tests, 1) / (2.0 if two_sided else 1.0)
    return NormalDist().inv_cdf(1.0 - tail)


def z_family(name: str, dev: np.ndarray, stderr: np.ndarray, two_sided: bool = True):
    """One check over a family of z-tests ``dev / stderr`` at a family-wise threshold."""
    dev = np.ravel(dev)
    stderr = np.ravel(stderr)
    zcrit = family_threshold(dev.size, two_sided)
    stat = np.abs(dev) if two_sided else dev
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(stderr > 0, stat / stderr, np.where(stat > 0, np.inf, 0.0))
    worst = float(z.max()) if z.size else 0.0
    return (name, worst <= zcrit, f"max z {worst:.2f} over {dev.size} tests, limit {zcrit:.2f}")


CH10 = params.make_channel_params(10.0)


class StreamDecode:
    """Criterion-8 shape: PacketStreamSource(2, 2) at SNR 10, stream decoding at v = IV/2."""

    name = "stream_decode"
    trials = MC_TRIALS
    reference = staticmethod(array_reference)
    ref_nominal_s = ARRAY_REF_S
    psi, period, tau_cap = 2, 2, 8
    r_list = (4, 8, 12, 16, 20, 24)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        stream = params.make_stream_params(self.psi, self.period, CH10)
        v = 0.5 * xp.iv_lower_bound_stream(CH10, stream.rate_nats)
        self.deltas = {r: math.floor(r / v) for r in self.r_list}
        self.t_max = self.tau_cap * self.period + max(self.deltas.values())
        self.cells = [
            (r, tau * self.period + self.deltas[r])
            for r in self.r_list
            for tau in range(self.tau_cap + 1)
        ]
        self.setup()

    def setup(self) -> None:
        boundary = mse.PacketStreamBoundary(self.psi, self.period)
        self.grid = mse.solve_grid(CH10, boundary, self.r_list[-1], self.t_max)
        self.gains = sim.precompute_gains(self.grid)

    @property
    def lattice_cells(self) -> int:
        return self.gains.r_max * (self.gains.t_max + 1)

    def run(self, k: int, threads: int, trials: int | None = None):
        stats, _ = sim.run_decoding_monte_carlo(
            self.gains,
            sim.PacketStreamSource(self.psi, self.period),
            "gaussian",
            trials or self.trials,
            job_seed(self.seed, k),
            self.cells,
            sim.DecodeSpec("stream", self.psi, self.period),
            threads=threads,
        )
        return stats

    def output(self, stats):
        return stats

    def same(self, a, b) -> bool:
        return list(a.rows()) == list(b.rows())

    def checks(self, out) -> list[tuple[str, bool, str]]:
        """Every bit's error rate at the tested delays stays under the worst-bit bound."""
        dev, se = [], []
        for r in self.r_list:
            delta = self.deltas[r]
            bound = xp.worst_bit_error_bound(self.grid, self.psi, self.period, r, delta, self.tau_cap)
            if bound >= 1.0:  # clamped: nothing to test
                continue
            for err, obs in out.cells[(r, delta)].per_bit.values():
                p = err / obs
                dev.append(p - bound)
                se.append(math.sqrt(p * (1.0 - p) / obs))
        return [z_family("worst_bit_within_bound", np.array(dev), np.array(se), two_sided=False)]


class Analytic:
    """CLI mse/exponents/iv on a refined_source config, envelope curve, 2000x2000 lattice."""

    name = "analytic"
    trials = None
    reference = staticmethod(interpreter_reference)
    ref_nominal_s = INTERPRETER_REF_S
    rate_nats = 0.5
    big = 2000

    def __init__(self, seed: int, workdir: str):
        self.out_dir = os.path.join(workdir, "out")
        self.cfg_path = os.path.join(workdir, "analytic.cfg")
        cfg = config.ExperimentConfig(
            scheme="refined_source", snr=CH10.snr, rate_nats=self.rate_nats,
            r_max=200, t_max=200, master_seed=job_seed(seed, 0), out_dir=self.out_dir,
        )
        cfg.save(self.cfg_path)
        rng = np.random.default_rng(seed)
        self.velocities = np.sort(rng.uniform(0.05, 0.95 * CH10.snr, 100))
        self.lattice_cells = 0
        self.setup()
        self._digest = None

    def setup(self) -> None:
        self.cfg = config.ExperimentConfig.load(self.cfg_path)

    def run(self, k: int, threads: int, trials: int | None = None):
        # The analytic calls take no thread count; the CLI's only control is
        # CASCADE_IV_THREADS, so the threads=2 job sets it.
        os.environ["CASCADE_IV_THREADS"] = str(threads)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for command in ("mse", "exponents", "iv"):
                    code = cli.main([command, "--config", self.cfg_path])
                    if code != 0:
                        raise RuntimeError(f"cascade-iv {command} exited with {code}")
        finally:
            del os.environ["CASCADE_IV_THREADS"]
        curve = xp.sample_exponent_curve(
            "STREAM_ENVELOPE", CH10, self.velocities, rate_nats=self.rate_nats
        )
        grid = mse.solve_grid(CH10, mse.SingleSampleBoundary(), self.big, self.big)
        return curve.values, grid.values

    def output(self, arrays) -> tuple[str, float]:
        """Digest of every output file and returned array, and the CLI's max_rel_discrepancy."""
        h = hashlib.sha256()
        for name in sorted(os.listdir(self.out_dir)):
            with open(os.path.join(self.out_dir, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        with open(os.path.join(self.out_dir, "mse_summary.csv")) as fh:
            max_rel = float(fh.read().split()[1])
        return h.hexdigest(), max_rel

    def same(self, a, b) -> bool:
        return a == b

    def checks(self, out) -> list[tuple[str, bool, str]]:
        digest, max_rel = out
        if self._digest is None:
            self._digest = digest
        return [
            ("closed_form_vs_dp", max_rel <= 1e-9, f"max_rel_discrepancy {max_rel:.3e}"),
            ("digest_equal_across_jobs", digest == self._digest, digest[:16]),
        ]


WORKLOADS = {w.name: w for w in (StreamDecode, Analytic)}
