"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the per-criterion
lines as they complete.  Monte Carlo criteria use pinned master seeds; all
aggregates are bit-reproducible for any thread count, so the 3-standard-error
verdicts are stable across reruns.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from cascade_iv import exponents as xp
from cascade_iv import simulate as sim
from cascade_iv.cli import cmd_iv
from cascade_iv.config import ExperimentConfig
from cascade_iv.mse import (
    ExponentialRefinementBoundary,
    PacketStreamBoundary,
    SingleSampleBoundary,
    UNDERFLOW_LINEAR,
    log_closed_form_single,
    log_closed_form_single_grid,
    log_closed_form_streaming_grid,
    solve_grid,
)
from cascade_iv.params import (
    HopConvention,
    Velocity,
    make_channel_params,
    make_stream_params,
    translate_velocity,
)

CH10 = make_channel_params(10.0)
MASTER_SEED = 14


def report(criterion, passed, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert passed, line


class TestCriterion1:
    def test_recursion_closed_form_equivalence(self):
        start = time.perf_counter()
        r_max = t_max = 200
        rate = math.log(2.0)
        worst_single = worst_stream = 0.0
        n_log_domain = 0
        for snr in (0.1, 1.0, 10.0, 100.0):
            ch = make_channel_params(snr)
            for flavor in ("single", "stream"):
                if flavor == "single":
                    grid = solve_grid(ch, SingleSampleBoundary(), r_max, t_max)
                    log_cf = log_closed_form_single_grid(ch, r_max, t_max)
                else:
                    grid = solve_grid(ch, ExponentialRefinementBoundary(rate), r_max, t_max)
                    li, lii = log_closed_form_streaming_grid(ch, rate, r_max, t_max)
                    log_cf = np.logaddexp(li, lii)
                dp = grid.values[1:, 1:]
                cf = np.exp(log_cf[1:])
                representable = dp >= UNDERFLOW_LINEAR
                rel = np.abs(cf[representable] - dp[representable]) / dp[representable]
                worst = rel.max()
                # below float range the DP carries no digits; the closed form
                # must agree the value is sub-representable
                if not representable.all():
                    n_log_domain += int((~representable).sum())
                    assert (log_cf[1:][~representable] < math.log(1e-290)).all()
                if flavor == "single":
                    worst_single = max(worst_single, worst)
                else:
                    worst_stream = max(worst_stream, worst)
        elapsed = time.perf_counter() - start
        passed = worst_single <= 1e-9 and worst_stream <= 1e-9 and elapsed < 10.0
        report(
            1,
            passed,
            f"max rel err single={worst_single:.2e} stream={worst_stream:.2e}, "
            f"{n_log_domain} sub-1e-300 cells checked in log domain, {elapsed:.1f}s",
        )


@pytest.fixture(scope="module")
def scheme1_gains():
    grid = solve_grid(CH10, SingleSampleBoundary(), 5, 20)
    return sim.precompute_gains(grid)


def _mse_power_checks(agg, grid):
    theory = grid.values[:, 1:]
    z_mse = np.abs(agg.mse_mean[1:] - theory[1:]) / agg.mse_stderr[1:]
    z_pow = np.abs(agg.power_mean - 10.0) / agg.power_stderr
    return z_mse.max(), z_pow.max()


class TestCriterion2:
    def test_scheme1_gaussian_monte_carlo(self, scheme1_gains):
        start = time.perf_counter()
        agg = sim.run_monte_carlo(
            scheme1_gains, sim.KnownSampleSource(), "gaussian", 100_000, MASTER_SEED,
            threads=4,
        )
        z_mse, z_pow = _mse_power_checks(agg, scheme1_gains.grid)
        # y_cov holds the pairs (t, t+1) and (0, t) of sim.probe_pairs(21)
        z_cov = float((np.abs(agg.y_cov) / agg.y_cov_stderr).max())
        z_l8 = float(
            (np.abs(agg.lemma8_diff_mean[1:5]) / agg.lemma8_diff_stderr[1:5]).max()
        )
        elapsed = time.perf_counter() - start
        passed = (
            z_mse <= 3.0
            and z_pow <= 3.0
            and z_cov <= 3.0
            and z_l8 <= 3.0
            and agg.identity_max <= 1e-12
            and elapsed < 120.0
        )
        report(
            2,
            passed,
            f"max|z|: mse={z_mse:.2f} power={z_pow:.2f} decorrelation={z_cov:.2f} "
            f"cov-identity={z_l8:.2f}; step identity {agg.identity_max:.1e}; {elapsed:.0f}s",
        )


class TestCriterion3:
    @pytest.mark.parametrize("kind", ["uniform", "rademacher"])
    def test_noise_universality(self, scheme1_gains, kind):
        agg = sim.run_monte_carlo(
            scheme1_gains, sim.KnownSampleSource(), kind, 100_000, MASTER_SEED, threads=4
        )
        z_mse, z_pow = _mse_power_checks(agg, scheme1_gains.grid)
        passed = z_mse <= 3.0 and z_pow <= 3.0 and agg.identity_max <= 1e-12
        report(3, passed, f"{kind}: max|z| mse={z_mse:.2f} power={z_pow:.2f}")


class TestCriterion4:
    def test_exponent_limits_and_continuity(self):
        c2 = 2.0 * CH10.capacity_nats
        lim_e1 = 1e-6 * xp.e1(CH10, 1e-6)
        ok_e1 = abs(lim_e1 - c2) / c2 <= 1e-4

        rate = 0.5
        lim_es = 1e-6 * xp.es(CH10, rate, 1e-6)
        ok_es = abs(lim_es - 2.0 * rate) / (2.0 * rate) <= 1e-4

        vb = xp.stream_region_boundary(CH10, rate)
        jump = abs(
            xp.es(CH10, rate, vb * (1 - 1e-12)) - xp.es(CH10, rate, vb * (1 + 1e-12))
        )
        ok_cont = jump <= 1e-9

        grid = np.geomspace(0.01, 12.0, 100)
        ok_eq = all(xp.es(CH10, 1.3, float(v)) == xp.e1(CH10, float(v)) for v in grid)

        passed = ok_e1 and ok_es and ok_cont and ok_eq
        report(
            4,
            passed,
            f"v*E1->{lim_e1:.5f} (2C={c2:.5f}), v*ES->{lim_es:.5f} (2R=1.0), "
            f"junction jump {jump:.1e}, ES==E1 above capacity on 100 points",
        )


class TestCriterion5:
    def test_exponent_fit_from_closed_form(self):
        details = []
        passed = True
        for v in (0.5, 1.0, 2.0):
            target = xp.e1(CH10, v)
            gaps = []
            for r in (50, 100, 200, 300):
                fit = -log_closed_form_single(CH10, r, math.floor(r / v)) / r
                gaps.append(abs(fit - target))
            monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
            rel = gaps[-1] / target
            passed = passed and monotone and rel <= 0.10
            details.append(f"v={v}: rel gap at r=300 {rel:.3f}, shrinking={monotone}")
        report(5, passed, "; ".join(details))


class TestCriterion6:
    def test_single_packet_bounds_and_double_exponential_diagnostic(self):
        start = time.perf_counter()
        psi, v, n_trials = 2, 1.0, 1_000_000
        r_list = list(range(2, 13))
        cells = [(r, math.floor(r / v)) for r in r_list]
        grid = solve_grid(CH10, SingleSampleBoundary(), 12, 12)
        gains = sim.precompute_gains(grid)
        stats, _ = sim.run_decoding_monte_carlo(
            gains,
            sim.SinglePacketSource(psi),
            "gaussian",
            n_trials,
            MASTER_SEED,
            cells,
            sim.DecodeSpec(kind="packet", packet_bits=psi),
            threads=4,
        )
        ok_bounds = True
        n_measurable = 0
        emp = []
        for r, t in cells:
            cell = stats.cells[(r, t)]
            p_hat = cell.packet_errors / cell.n_trials
            emp.append(p_hat)
            if cell.packet_errors:
                n_measurable += 1
            se = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / cell.n_trials)
            m = grid.at(r, t)
            ok_bounds = ok_bounds and p_hat <= xp.packet_error_bound_chebyshev(m, psi) + 3 * se
            ok_bounds = ok_bounds and p_hat <= xp.packet_error_bound_gaussian(m, psi) + 3 * se

        # doubly-exponential diagnostic log(-log p). The true error is far
        # below 1/n_trials at every sampled r (the double exponential at work),
        # so the empirical column is identically zero and the diagnostic runs
        # on the sub-Gaussian bound, whose inner exponent is exact.
        diag = []
        for r, t in cells:
            q = 3.0 / (2.0 ** (2 * psi + 1) * grid.at(r, t))
            diag.append(math.log(q - math.log(2.0)))
        diag = np.array(diag)
        increasing = bool((np.diff(diag) > 0).all())
        a = np.vstack([np.array(r_list, dtype=float), np.ones(len(r_list))]).T
        slope, intercept = np.linalg.lstsq(a, diag, rcond=None)[0]
        resid = diag - (slope * np.array(r_list) + intercept)
        linear = float(np.abs(resid).max() / (diag[-1] - diag[0])) <= 0.02

        elapsed = time.perf_counter() - start
        passed = ok_bounds and increasing and slope > 0 and linear and elapsed < 600.0
        report(
            6,
            passed,
            f"bounds hold at all 11 cells ({n_measurable} cells measurable at 1e6 "
            f"trials, max p_hat={max(emp):.1e}); diagnostic slope {slope:.3f}/relay, "
            f"max linearity residual {np.abs(resid).max():.3f}; {elapsed:.0f}s",
        )


class TestCriterion7:
    def test_prefix_bound_uniform_in_packet_size(self):
        psi, n_decode, n_trials = 30, 2, 200_000
        r_list = list(range(2, 11))
        cells = [(r, r) for r in r_list]  # velocity-1 trajectory
        grid = solve_grid(CH10, SingleSampleBoundary(), 10, 10)
        gains = sim.precompute_gains(grid)
        alpha = sim.coefficient_trial(gains)
        spec = sim.DecodeSpec(
            kind="packet_dithered",
            packet_bits=psi,
            decode_bits_n=n_decode,
            alphas=np.array([alpha[r, t] for r, t in cells]),
        )
        dithered, slicer = sim.run_decoding_monte_carlo(
            gains,
            sim.SinglePacketSource(psi),
            "gaussian",
            n_trials,
            MASTER_SEED,
            cells,
            spec,
            threads=4,
        )
        ok = True
        worst_margin = math.inf
        for r, t in cells:
            bound = xp.prefix_error_bound(grid.at(r, t), n_decode)
            for stats in (dithered, slicer):
                cell = stats.cells[(r, t)]
                p_hat = cell.prefix_errors / cell.n_trials
                se = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / cell.n_trials)
                ok = ok and p_hat <= bound + 3 * se
                worst_margin = min(worst_margin, bound + 3 * se - p_hat)
        report(
            7,
            ok,
            f"psi=30 prefix(n=2) errors within the uniform bound for r=2..10, "
            f"dithered and plain slicer (worst margin {worst_margin:.2e})",
        )


class TestCriterion8:
    def test_streaming_achievability(self):
        start = time.perf_counter()
        psi, period = 2, 2
        stream = make_stream_params(psi, period, CH10)
        iv_bound = xp.iv_lower_bound_stream(CH10, stream.rate_nats)
        v = 0.5 * iv_bound
        r_list = [4, 8, 12, 16, 20, 24]
        tau_cap = 8
        deltas = {r: math.floor(r / v) for r in r_list}
        t_max = tau_cap * period + max(deltas.values())
        grid = solve_grid(CH10, PacketStreamBoundary(psi, period), 24, t_max)
        gains = sim.precompute_gains(grid)
        cells = [
            (r, tau * period + deltas[r]) for r in r_list for tau in range(tau_cap + 1)
        ]
        stats, _ = sim.run_decoding_monte_carlo(
            gains,
            sim.PacketStreamSource(psi, period),
            "gaussian",
            1_000_000,
            MASTER_SEED,
            cells,
            sim.DecodeSpec(kind="stream", packet_bits=psi, period=period),
            threads=4,
        )
        rates = []
        ok_bound = True
        for r in r_list:
            cell = stats.cells[(r, deltas[r])]
            p_hat = cell.worst_bit_rate()
            rates.append(p_hat)
            bound = xp.worst_bit_error_bound(grid, psi, period, r, deltas[r], tau_cap)
            if bound < 1.0:  # only where the envelope is unclamped
                n_obs = next(iter(cell.per_bit.values()))[1]
                se = math.sqrt(max(p_hat * (1 - p_hat), 0.0) / n_obs)
                ok_bound = ok_bound and p_hat <= bound + 3 * se
        decreasing = all(a > b for a, b in zip(rates, rates[1:]))
        elapsed = time.perf_counter() - start
        passed = decreasing and ok_bound and elapsed < 1800.0
        report(
            8,
            passed,
            f"worst-bit error at v={v:.4g}: "
            + " > ".join(f"{p:.2e}" for p in rates)
            + f"; strictly decreasing={decreasing}, within envelope bound={ok_bound}; "
            f"{elapsed:.0f}s",
        )


class TestCriterion9:
    def test_delayed_hop_translations_exact(self):
        single_inst = xp.iv_lower_bound_single(CH10)
        single_delayed = xp.iv_lower_bound_single(CH10, HopConvention.DELAYED)
        ok_single = single_delayed == translate_velocity(
            Velocity(single_inst), HopConvention.DELAYED
        ).value and single_delayed == CH10.snr_bar

        rate = 0.5
        stream_inst = xp.iv_lower_bound_stream(CH10, rate)
        stream_delayed = xp.iv_lower_bound_stream(CH10, rate, HopConvention.DELAYED)
        ok_stream = stream_delayed == translate_velocity(
            Velocity(stream_inst), HopConvention.DELAYED
        ).value
        eta = (1.0 - CH10.snr_bar) * math.exp(2.0 * rate)
        ok_value = abs(stream_delayed - (1.0 - eta)) <= 1e-15

        passed = ok_single and ok_stream and ok_value
        report(
            9,
            passed,
            f"single: {single_inst} -> {single_delayed} (= pbar exactly); "
            f"stream: {stream_inst:.6f} -> {stream_delayed:.6f} (= 1-eta to 1e-15)",
        )


class TestCriterion10:
    def test_iv_curve_reproduction(self, tmp_path):
        cfg = ExperimentConfig(snr=0.01, out_dir=str(tmp_path))
        (path,) = cmd_iv(cfg, str(tmp_path))
        rows = [ln.split(",") for ln in open(path).read().splitlines()[1:]]
        by_p = {}
        for p, x, rate, iv, ratio, ref in rows:
            by_p.setdefault(float(p), []).append((float(x), float(iv), float(ratio), float(ref)))
        ok_ends = all(
            entries[0][2] == 1.0 and entries[-1][1] == 0.0 for entries in by_p.values()
        )
        worst_dev = max(
            abs(ratio / ref - 1.0) for x, _, ratio, ref in by_p[0.01] if x < 1.0
        )
        passed = ok_ends and worst_dev < 0.02
        report(
            10,
            passed,
            f"V(0)/P=1 and V(C)=0 for all curves; P=0.01 deviation from 1-R/C "
            f"{worst_dev * 100:.2f}% < 2%",
        )


class TestCriterion11:
    COMMANDS = {
        "mse": ExperimentConfig(r_max=20, t_max=25),
        "exponents": ExperimentConfig(),
        "iv": ExperimentConfig(),
        "simulate": ExperimentConfig(r_max=3, t_max=8, num_trials=20_000, master_seed=7),
        "packet": ExperimentConfig(
            scheme="single_packet", packet_bits=2, r_max=5, num_trials=20_000, master_seed=3
        ),
        "stream": ExperimentConfig(
            scheme="packet_stream", packet_bits=2, period=2, r_max=8,
            num_trials=10_000, master_seed=3,
        ),
    }

    def test_byte_identical_outputs_across_parallelism(self, tmp_path):
        start = time.perf_counter()
        mismatches = []
        for command, base_cfg in self.COMMANDS.items():
            outputs = {}
            for threads in (1, 4, 16):
                out = tmp_path / f"{command}_{threads}"
                cfg_path = tmp_path / f"{command}_{threads}.cfg"
                cfg_path.write_text(dataclasses.replace(base_cfg, out_dir=str(out)).to_text())
                env = dict(os.environ, CASCADE_IV_THREADS=str(threads))
                res = subprocess.run(
                    [sys.executable, "-m", "cascade_iv.cli", command, "--config", str(cfg_path)],
                    capture_output=True, text=True, env=env,
                )
                assert res.returncode == 0, f"{command}: {res.stderr}"
                outputs[threads] = {
                    f.name: (out / f.name).read_bytes() for f in sorted(out.iterdir())
                }
            if not (outputs[1] == outputs[4] == outputs[16]):
                mismatches.append(command)
        elapsed = time.perf_counter() - start
        passed = not mismatches
        report(
            11,
            passed,
            f"byte-identical outputs for {sorted(self.COMMANDS)} at threads 1/4/16"
            + (f"; MISMATCHES: {mismatches}" if mismatches else "")
            + f"; {elapsed:.0f}s",
        )
