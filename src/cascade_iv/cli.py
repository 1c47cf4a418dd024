"""Command-line orchestration: analytic pipelines, Monte Carlo, verification.

Subcommands
-----------
exponents   E1/ES curve family over a velocity grid (Fig.-3-style data)
iv          normalized streaming-IV lower bounds vs rate (Fig.-2-style data)
mse         DP lattice vs closed forms, with max relative discrepancy
simulate    Monte Carlo vs theory with pass/fail verdicts (exit status)
packet      single-packet error probabilities vs analytic bounds
stream      packet-streaming worst-bit errors vs the envelope bound
verify      fast end-to-end invariant suite

All outputs are CSV files with fixed schemas; reruns with equal seeds are
byte-identical for any parallelism degree (``CASCADE_IV_THREADS``).
Exit status: 0 = pass, 1 = verification failure (plus failures.json),
2 = usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from statistics import NormalDist

import numpy as np

from . import exponents as xp
from . import mse as mse_mod
from . import simulate as sim
from .config import ExperimentConfig
from .params import (
    HopConvention,
    Velocity,
    make_channel_params,
    make_stream_params,
    translate_velocity,
)

__all__ = ["main"]

_FIG3_RATES = (0.1, 0.5, 1.0, 1.3)
_FIG2_SNRS = (0.1, 1.0, 10.0, 100.0)


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _write_csv(path, header: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _convention(cfg: ExperimentConfig) -> HopConvention:
    return HopConvention.DELAYED if cfg.convention == "delayed" else HopConvention.INSTANTANEOUS


def _rate_of(cfg: ExperimentConfig, channel) -> float | None:
    if cfg.rate_nats is not None:
        return cfg.rate_nats
    if cfg.packet_bits is not None and cfg.period is not None:
        return make_stream_params(cfg.packet_bits, cfg.period, channel).rate_nats
    return None


def _source_for(cfg: ExperimentConfig):
    """The scheme's source process; its ``boundary()`` is the lattice boundary row."""
    if cfg.scheme == "single_sample":
        return sim.KnownSampleSource()
    if cfg.scheme == "single_packet":
        return sim.SinglePacketSource(cfg.packet_bits)
    if cfg.scheme == "refined_source":
        return sim.RefinementSource(cfg.rate_nats)
    return sim.PacketStreamSource(cfg.packet_bits, cfg.period)


def _default_velocities(channel, convention: HopConvention, n: int = 100) -> np.ndarray:
    grid = np.geomspace(0.01, channel.snr, n)
    if convention is HopConvention.DELAYED:
        grid = grid / (1.0 + grid)
    return grid


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_exponents(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    channel = make_channel_params(cfg.snr)
    conv = _convention(cfg)
    vgrid = np.asarray(cfg.velocities) if cfg.velocities else _default_velocities(channel, conv)
    rate = _rate_of(cfg, channel)
    rates = (rate,) if rate is not None else _FIG3_RATES
    curves = [xp.sample_exponent_curve("E1", channel, vgrid, convention=conv)]
    for r in rates:
        curves.append(xp.sample_exponent_curve("ES", channel, vgrid, rate_nats=r, convention=conv))
    path = os.path.join(out_dir, "exponents.csv")
    xp.write_curve_csv(curves, path)
    return [path]


def cmd_iv(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    x = np.linspace(0.0, 1.0, 101)
    rows = []
    for snr in _FIG2_SNRS + ((cfg.snr,) if cfg.snr not in _FIG2_SNRS else ()):
        channel = make_channel_params(snr)
        C = channel.capacity_nats
        for xi in x:
            rate = xi * C
            if xi == 0.0:
                iv = channel.snr  # expm1(2C) exactly
            elif xi == 1.0:
                iv = 0.0
            else:
                iv = math.expm1(2.0 * (C - rate))
            rows.append((snr, xi, rate, iv, iv / channel.snr, 1.0 - xi))
    path = os.path.join(out_dir, "iv.csv")
    _write_csv(path, "p,r_over_c,rate_nats,iv_bound,iv_over_p,linear_ref", rows)
    return [path]


def cmd_mse(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    channel = make_channel_params(cfg.snr)
    grid = mse_mod.solve_grid(channel, _source_for(cfg).boundary(), cfg.r_max, cfg.t_max)
    path = os.path.join(out_dir, "mse.csv")
    paths = [path]
    if cfg.scheme in ("single_sample", "single_packet", "refined_source"):
        if cfg.scheme == "refined_source":
            log_i, log_ii = mse_mod.log_closed_form_streaming_grid(
                channel, cfg.rate_nats, cfg.r_max, cfg.t_max
            )
            log_cf = np.logaddexp(log_i, log_ii)
        else:
            log_cf = mse_mod.log_closed_form_single_grid(channel, cfg.r_max, cfg.t_max)
        dp = grid.values[1:, 1:]
        log_cf = log_cf[1:]
        # math.exp, not np.exp: numpy's SIMD exp may differ by an ulp.
        cf = np.array(list(map(math.exp, log_cf.ravel().tolist()))).reshape(dp.shape)
        linear = dp >= mse_mod.UNDERFLOW_LINEAR
        rel = np.zeros_like(dp)
        np.divide(np.abs(cf - dp), dp, out=rel, where=linear)
        for i in np.flatnonzero(~linear):
            # compare in the log domain below linear resolution; exact zeros are skipped
            d = dp.flat[i]
            if d > 0:
                rel.flat[i] = abs(log_cf.flat[i] - math.log(d))
        max_rel = rel.max()  # NaN in any cell propagates
        mse_mod.write_lattice_csv(path, "r,t,mse_dp,mse_closed,rel_discrepancy",
                                  [dp, cf, rel], r0=1)
        summary = os.path.join(out_dir, "mse_summary.csv")
        _write_csv(summary, "max_rel_discrepancy", [(max_rel,)])
        paths.append(summary)
    else:  # packet_stream: staircase boundary, no closed form
        dp = grid.values[:, 1:]
        mse_mod.write_lattice_csv(path, "r,t,mse_dp,boundary_staircase",
                                  [dp, np.broadcast_to(dp[0], dp.shape)])
    grid_path = os.path.join(out_dir, "mse_grid.csv")
    mse_mod.write_grid_csv(grid, grid_path)
    paths.append(grid_path)
    return paths


# Family-wise false-alarm rate of each verdict: that of one two-sided
# 3-sigma test.
VERDICT_ALPHA = 0.0027


def _family_threshold(m: int, one_sided: bool = False) -> float:
    """Bonferroni z threshold holding the family of ``m`` tests at ``VERDICT_ALPHA``."""
    tail = VERDICT_ALPHA / max(m, 1)
    return NormalDist().inv_cdf(1.0 - (tail if one_sided else 0.5 * tail))


def _family_verdict(check: str, dev: np.ndarray, stderr: np.ndarray, what: str,
                    one_sided: bool = False) -> dict:
    """One check family of ``dev.size`` z-tests at its Bonferroni threshold."""
    z = _family_threshold(dev.size, one_sided)
    n_bad = int(np.count_nonzero((dev if one_sided else np.abs(dev)) > z * stderr))
    side = "one-sided " if one_sided else ""
    return {
        "check": check,
        "passed": n_bad == 0,
        "detail": f"{n_bad} of {dev.size} {what} outside {z:.3f} stderr "
                  f"({side}Bonferroni, family-wise alpha {VERDICT_ALPHA})",
    }


def simulate_verdicts(cfg: ExperimentConfig, agg: sim.MonteCarloAggregate, grid) -> list[dict]:
    """Theory-vs-simulation checks (identity at 1e-12).

    Each statistical family (MSE cells, power cells, decorrelation pairs,
    error-covariance cells) is tested at the Bonferroni threshold over its
    size, so under the normal approximation each verdict fails on correct
    code with probability at most ``VERDICT_ALPHA``.
    """
    theory = grid.values[:, 1:]
    upper_only = cfg.scheme == "single_packet"  # var(S^psi) < 1, MSE <= lattice
    return [
        # node 0 follows the boundary process exactly
        _family_verdict("mse_vs_theory", agg.mse_mean[1:] - theory[1:], agg.mse_stderr[1:],
                        "cells", upper_only),
        _family_verdict("power_equality", agg.power_mean - cfg.snr, agg.power_stderr,
                        "cells", upper_only),
        _family_verdict("output_decorrelation", agg.y_cov, agg.y_cov_stderr, "pairs"),
        _family_verdict("error_covariance_identity", agg.lemma8_diff_mean[1 : agg.r_max],
                        agg.lemma8_diff_stderr[1 : agg.r_max], "cells"),
        {
            "check": "per_step_identity",
            "passed": agg.identity_max <= 1e-12,
            "detail": f"max residual {agg.identity_max:.3e}",
        },
    ]


def cmd_simulate(cfg: ExperimentConfig, out_dir: str, threads: int | None = None) -> list[str]:
    channel = make_channel_params(cfg.snr)
    source = _source_for(cfg)
    grid = mse_mod.solve_grid(channel, source.boundary(), cfg.r_max, cfg.t_max)
    gains = sim.precompute_gains(grid)
    agg = sim.run_monte_carlo(gains, source, cfg.noise, cfg.num_trials, cfg.master_seed,
                              threads=threads)
    rows = []
    for r in range(0, cfg.r_max + 1):
        for t in range(0, cfg.t_max + 1):
            power = agg.power_mean[r, t] if r < cfg.r_max else ""
            rows.append((r, t, agg.mse_mean[r, t], power, agg.mse_stderr[r, t], agg.n_trials))
    path = os.path.join(out_dir, "simulate.csv")
    _write_csv(path, "r,t,emp_mse,emp_power,stderr_mse,n_trials", rows)

    verdicts = simulate_verdicts(cfg, agg, grid)
    report_path = os.path.join(out_dir, "report.json")
    with open(report_path, "w") as fh:
        json.dump(verdicts, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths = [path, report_path]
    failures = [v for v in verdicts if not v["passed"]]
    if failures:
        fail_path = os.path.join(out_dir, "failures.json")
        with open(fail_path, "w") as fh:
            json.dump(failures, fh, indent=2, sort_keys=True)
            fh.write("\n")
        paths.append(fail_path)
        raise VerificationFailure(paths, failures)
    return paths


class VerificationFailure(RuntimeError):
    def __init__(self, paths, failures):
        super().__init__(f"{len(failures)} verification check(s) failed")
        self.paths = paths
        self.failures = failures


def _censored(rate: float, n: int) -> str:
    """An error rate over ``n`` trials, or ``<10/n`` below ten expected errors."""
    threshold = 10.0 / n
    if rate < threshold:
        return f"<{threshold:.17g}"
    return _fmt(rate)


def cmd_packet(cfg: ExperimentConfig, out_dir: str, threads: int | None = None) -> list[str]:
    if cfg.packet_bits is None:
        raise ValueError("packet command requires packet_bits")
    channel = make_channel_params(cfg.snr)
    v = cfg.velocities[0] if cfg.velocities else 1.0
    r_list = list(range(2, cfg.r_max + 1))
    cells = [(r, math.floor(r / v)) for r in r_list]
    t_max = max(t for _, t in cells)
    grid = mse_mod.solve_grid(channel, mse_mod.SingleSampleBoundary(), cfg.r_max, t_max)
    gains = sim.precompute_gains(grid)
    stats, _ = sim.run_decoding_monte_carlo(
        gains,
        sim.SinglePacketSource(cfg.packet_bits),
        cfg.noise,
        cfg.num_trials,
        cfg.master_seed,
        cells,
        sim.DecodeSpec(kind="packet", packet_bits=cfg.packet_bits),
        threads=threads,
    )
    rows = []
    for r, t in cells:
        cell = stats.cells[(r, t)]
        m = grid.at(r, t)
        cheb = xp.packet_error_bound_chebyshev(m, cfg.packet_bits)
        gauss = xp.packet_error_bound_gaussian(m, cfg.packet_bits)
        pref = xp.prefix_error_bound(m, cfg.packet_bits)
        q = 3.0 / (2.0 ** (2 * cfg.packet_bits + 1) * m)
        diag = math.log(q - math.log(2.0)) if q > math.log(2.0) + 1e-12 else ""
        rows.append(
            (
                r,
                t,
                cell.n_trials,
                cell.packet_errors,
                _censored(cell.packet_errors / cell.n_trials, cell.n_trials),
                cheb,
                gauss,
                pref,
                diag,
            )
        )
    path = os.path.join(out_dir, "packet.csv")
    _write_csv(
        path,
        "r,t,n_trials,errors,packet_err,bound_chebyshev,bound_gaussian,bound_prefix,loglog_diag",
        rows,
    )
    return [path]


def cmd_stream(cfg: ExperimentConfig, out_dir: str, threads: int | None = None) -> list[str]:
    if cfg.packet_bits is None or cfg.period is None:
        raise ValueError("stream command requires packet_bits and period")
    channel = make_channel_params(cfg.snr)
    stream = make_stream_params(cfg.packet_bits, cfg.period, channel)
    if cfg.velocities:
        velocities = list(cfg.velocities)
    else:
        if not stream.below_capacity:
            raise ValueError(
                "rate at or above capacity: no velocity suggestion available; "
                "pass explicit velocities to force a run"
            )
        velocities = [0.5 * xp.iv_lower_bound_stream(channel, stream.rate_nats)]

    paths = []
    for vi, v in enumerate(velocities):
        r_list = [r for r in range(4, cfg.r_max + 1, 4)]
        tau_cap = 8
        deltas = {r: math.floor(r / v) for r in r_list}
        t_max = tau_cap * cfg.period + max(deltas.values())
        grid = mse_mod.solve_grid(
            channel,
            mse_mod.PacketStreamBoundary(cfg.packet_bits, cfg.period),
            cfg.r_max,
            t_max,
        )
        gains = sim.precompute_gains(grid)
        cells = []
        for r in r_list:
            for tau in range(tau_cap + 1):
                t = tau * cfg.period + deltas[r]
                if t <= t_max:
                    cells.append((r, t))
        stats, _ = sim.run_decoding_monte_carlo(
            gains,
            sim.PacketStreamSource(cfg.packet_bits, cfg.period),
            cfg.noise,
            cfg.num_trials,
            cfg.master_seed,
            cells,
            sim.DecodeSpec(kind="stream", packet_bits=cfg.packet_bits, period=cfg.period),
            threads=threads,
        )
        suffix = f"_v{vi}" if len(velocities) > 1 else ""
        err_path = os.path.join(out_dir, f"stream_errors{suffix}.csv")
        _write_csv(
            err_path,
            "r,delta,n_trials,bit_err,prefix_err,packet_err,worst_bit_pe",
            stats.rows(),
        )
        env = (xp.stream_envelope_exponent(channel, stream.rate_nats, v)
               if 0 < v < channel.snr else -math.inf)
        bound_rows = []
        for r in r_list:
            delta = deltas[r]
            cell = stats.cells.get((r, delta))
            worst = ""
            if cell is not None and cell.per_bit:
                n_obs = next(iter(cell.per_bit.values()))[1]
                worst = _censored(cell.worst_bit_rate(), n_obs)
            exact = xp.worst_bit_error_bound(grid, cfg.packet_bits, cfg.period, r, delta, tau_cap)
            bound_rows.append((r, delta, v, worst, exact, env))
        bpath = os.path.join(out_dir, f"stream_bounds{suffix}.csv")
        _write_csv(
            bpath,
            "r,delta,v,worst_bit_pe,exact_envelope_bound,envelope_exponent_per_delta",
            bound_rows,
        )
        paths += [err_path, bpath]
    return paths


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_checks() -> list[dict]:
    """Fast deterministic invariant suite over all modules."""
    checks = []

    def record(name, passed, detail=""):
        checks.append({"check": name, "passed": bool(passed), "detail": detail})

    channel = make_channel_params(10.0)

    # lattice recursion and closed forms
    grid = mse_mod.solve_grid(channel, mse_mod.SingleSampleBoundary(), 40, 60)
    pbar = channel.snr_bar
    m = grid.values
    resid = np.abs(m[1:, 1:] - (pbar * m[:-1, 1:] + (1 - pbar) * m[1:, :-1])).max()
    record("recursion_identity", resid <= 1e-12, f"max residual {resid:.2e}")

    log_cf = mse_mod.log_closed_form_single_grid(channel, 40, 60)
    rel = np.abs(np.exp(log_cf[1:]) - m[1:, 1:]) / m[1:, 1:]
    record("closed_form_single", rel.max() <= 1e-9, f"max rel {rel.max():.2e}")

    rate = math.log(2.0)
    sgrid = mse_mod.solve_grid(channel, mse_mod.ExponentialRefinementBoundary(rate), 40, 60)
    li, lii = mse_mod.log_closed_form_streaming_grid(channel, rate, 40, 60)
    total = np.exp(np.logaddexp(li, lii))
    rel = np.abs(total[1:] - sgrid.values[1:, 1:]) / sgrid.values[1:, 1:]
    record("closed_form_streaming", rel.max() <= 1e-9, f"max rel {rel.max():.2e}")

    pgrid = mse_mod.solve_grid(channel, mse_mod.PacketStreamBoundary(2, 2), 40, 60)
    dominated = (pgrid.values <= sgrid.values + 1e-15).all()
    record("staircase_dominates_refinement", dominated)

    # exponents
    c2 = 2 * channel.capacity_nats
    lim1 = 1e-6 * xp.e1(channel, 1e-6)
    record("limit_v_e1", abs(lim1 - c2) / c2 <= 1e-4, f"v*E1 -> {lim1:.6f} vs {c2:.6f}")
    lim2 = 1e-6 * xp.es(channel, 0.5, 1e-6)
    record("limit_v_es", abs(lim2 - 1.0) <= 1e-4, f"v*ES -> {lim2:.6f} vs 1.0")
    vb = xp.stream_region_boundary(channel, 0.5)
    record(
        "es_junction_continuity",
        abs(xp.es(channel, 0.5, vb * (1 - 1e-12)) - xp.es(channel, 0.5, vb * (1 + 1e-12))) <= 1e-9,
    )
    vgrid = np.geomspace(0.01, channel.snr * 0.999, 100)
    worst = max(abs(xp.e2(channel, 0.5, v) - xp.es(channel, 0.5, v)) for v in vgrid)
    record("e2_equals_es", worst <= 1e-9, f"max |e2-es| {worst:.2e}")

    # velocity translation round trip; the back map has condition number 1+v,
    # so the flat 1e-14 budget applies on the moderate range and an ulp-scale
    # allowance 4 eps (1+v) beyond it
    worst = 0.0
    ok = True
    for v in np.geomspace(1e-6, 1e3, 60):
        w = translate_velocity(Velocity(float(v)), HopConvention.DELAYED)
        back = translate_velocity(w, HopConvention.INSTANTANEOUS).value
        rel = abs(back - v) / v
        worst = max(worst, rel)
        ok = ok and rel <= max(1e-14, 4.0 * np.finfo(float).eps * (1.0 + v))
    record("velocity_involution", ok, f"max rel {worst:.2e}")

    # small deterministic Monte Carlo
    mini = mse_mod.solve_grid(channel, mse_mod.SingleSampleBoundary(), 3, 8)
    gains = sim.precompute_gains(mini)
    agg1 = sim.run_monte_carlo(gains, sim.KnownSampleSource(), "gaussian", 20000, 7, threads=1)
    agg2 = sim.run_monte_carlo(gains, sim.KnownSampleSource(), "gaussian", 20000, 7, threads=4)
    record(
        "determinism_across_threads",
        all(np.array_equal(getattr(agg1, f), getattr(agg2, f))
            for f in ("mse_mean", "power_mean", "y_mean", "y_cov", "y_cov_stderr",
                      "lemma8_diff_mean")),
    )
    theory = mini.values[1:, 1:]
    dev = np.abs(agg1.mse_mean[1:] - theory) <= 3.0 * agg1.mse_stderr[1:]
    record("mc_mse_within_3se", dev.all(), f"{int((~dev).sum())} cells out")
    pw = np.abs(agg1.power_mean - 10.0) <= 3.0 * agg1.power_stderr
    record("mc_power_within_3se", pw.all(), f"{int((~pw).sum())} cells out")
    record("per_step_identity", agg1.identity_max <= 1e-12, f"{agg1.identity_max:.2e}")

    return checks


def cmd_verify(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    checks = _verify_checks()
    path = os.path.join(out_dir, "verify.json")
    with open(path, "w") as fh:
        json.dump(checks, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['check']}" + (f": {c['detail']}" if c["detail"] else ""))
    failures = [c for c in checks if not c["passed"]]
    if failures:
        fail_path = os.path.join(out_dir, "failures.json")
        with open(fail_path, "w") as fh:
            json.dump(failures, fh, indent=2, sort_keys=True)
            fh.write("\n")
        raise VerificationFailure([path, fail_path], failures)
    return [path]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascade-iv",
        description="Relay-cascade information-velocity toolkit: theory and Monte Carlo",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("exponents", "iv", "mse", "simulate", "packet", "stream", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="experiment config file (key = value format)")
        p.add_argument("--seed", type=int, help="override master seed")
        p.add_argument("--out", help="override output directory")
        p.add_argument("--trials", type=int, help="override trial count")
        p.add_argument("--convention", choices=("inst", "delayed"), help="hop convention")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
        overrides = {}
        if args.seed is not None:
            overrides["master_seed"] = args.seed
        if args.out is not None:
            overrides["out_dir"] = args.out
        if args.trials is not None:
            overrides["num_trials"] = args.trials
        if args.convention is not None:
            overrides["convention"] = args.convention
        if args.command == "packet" and cfg.scheme != "single_packet" and not args.config:
            overrides.setdefault("scheme", "single_packet")
            overrides.setdefault("packet_bits", 2)
        if args.command == "stream" and cfg.scheme != "packet_stream" and not args.config:
            overrides.setdefault("scheme", "packet_stream")
            overrides.setdefault("packet_bits", 2)
            overrides.setdefault("period", 2)
        if overrides:
            cfg = replace(cfg, **overrides)
        out_dir = cfg.out_dir
        os.makedirs(out_dir, exist_ok=True)

        if args.command == "exponents":
            paths = cmd_exponents(cfg, out_dir)
        elif args.command == "iv":
            paths = cmd_iv(cfg, out_dir)
        elif args.command == "mse":
            paths = cmd_mse(cfg, out_dir)
        elif args.command == "simulate":
            paths = cmd_simulate(cfg, out_dir)
        elif args.command == "packet":
            paths = cmd_packet(cfg, out_dir)
        elif args.command == "stream":
            paths = cmd_stream(cfg, out_dir)
        else:
            paths = cmd_verify(cfg, out_dir)
    except VerificationFailure as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for p in paths:
        print(p)
    return 0


if __name__ == "__main__":
    sys.exit(main())
