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
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import exponents as xp
from . import mse as mse_mod
from . import simulate as sim
from ._table import g17_text, open_table, write_lattice_csv, write_table
from .config import CONVENTIONS, SCHEMES, ExperimentConfig
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


def _rate_of(cfg: ExperimentConfig, channel) -> float | None:
    if cfg.rate_nats is not None:
        return cfg.rate_nats
    if cfg.packet_bits is not None and cfg.period is not None:
        return make_stream_params(cfg.packet_bits, cfg.period, channel).rate_nats
    return None


def _source_for(cfg: ExperimentConfig):
    """The scheme's source process; its ``boundary()`` is the lattice boundary row."""
    cls, keys = SCHEMES[cfg.scheme]
    return cls(*(getattr(cfg, key) for key in keys))


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
    conv = HopConvention(cfg.convention)
    vgrid = np.asarray(cfg.velocities) if cfg.velocities else _default_velocities(channel, conv)
    rate = _rate_of(cfg, channel)
    rates = (rate,) if rate is not None else _FIG3_RATES
    curves = [xp.sample_exponent_curve("E1", channel, vgrid, convention=conv)]
    for r in rates:
        curves.append(xp.sample_exponent_curve("ES", channel, vgrid, rate_nats=r, convention=conv))
    sizes = [c.velocities.size for c in curves]
    path = os.path.join(out_dir, "exponents.csv")
    write_table(path, "v,exponent,kind,convention", [
        np.concatenate([c.velocities for c in curves]),
        np.concatenate([c.values for c in curves]),
        np.repeat([c.label.encode() for c in curves], sizes),
        np.repeat([c.convention.value.encode() for c in curves], sizes),
    ])
    return [path]


def cmd_iv(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    x = np.linspace(0.0, 1.0, 101)
    blocks = []
    for snr in _FIG2_SNRS + ((cfg.snr,) if cfg.snr not in _FIG2_SNRS else ()):
        channel = make_channel_params(snr)
        C = channel.capacity_nats
        rate = x * C
        # math.expm1, not np.expm1: numpy's SIMD expm1 may differ by an ulp.
        iv = np.array(list(map(math.expm1, (2.0 * (C - rate)).tolist())))
        iv[0] = channel.snr  # expm1(2C) exactly
        iv[-1] = 0.0
        blocks.append((np.full(x.size, snr), x, rate, iv, iv / channel.snr, 1.0 - x))
    path = os.path.join(out_dir, "iv.csv")
    write_table(path, "p,r_over_c,rate_nats,iv_bound,iv_over_p,linear_ref",
                [np.concatenate(column) for column in zip(*blocks)])
    return [path]


def cmd_mse(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    channel = make_channel_params(cfg.snr)
    grid = mse_mod.solve_grid(channel, _source_for(cfg).boundary(), cfg.r_max, cfg.t_max)
    path = os.path.join(out_dir, "mse.csv")
    paths = [path]
    closed = mse_mod.closed_form_discrepancy(grid)
    if closed is not None:
        cf, rel = closed
        summary = os.path.join(out_dir, "mse_summary.csv")
        write_table(summary, "max_rel_discrepancy", [rel.max()])  # NaN in any cell propagates
        paths.append(summary)
        header, r0, extra = "r,t,mse_dp,mse_closed,rel_discrepancy", 1, [cf, rel]
    else:  # packet_stream: no closed form; the boundary row M_0(t) beside each row
        header, r0 = "r,t,mse_dp,boundary_staircase", 0
        extra = [np.broadcast_to(g17_text(grid.values[0, 1:]), (cfg.r_max + 1, cfg.t_max + 1))]

    grid_path = os.path.join(out_dir, "mse_grid.csv")
    with open_table(path, header) as append:
        # mse.csv holds the lattice cells r >= r0, t >= 0 (mse_dp) and the
        # cells [r - r0, t] of each extra column; it is written block by
        # block beside mse_grid.csv, from the same text.
        def on_block(r, t, text):
            keep = (r >= r0) & (t >= 0)
            r, t, text = r[keep], t[keep], text[keep]
            append([r, t, text, *(column[r - r0, t] for column in extra)])

        mse_mod.write_grid_csv(grid, grid_path, on_block)
    paths.append(grid_path)
    return paths


# Family-wise false-alarm rate of each verdict: that of one two-sided
# 3-sigma test.
VERDICT_ALPHA = 0.0027


def _family_threshold(m: int, one_sided: bool = False) -> float:
    """Bonferroni z threshold holding the family of ``m`` tests at ``VERDICT_ALPHA``."""
    # imported on first use: statistics is only needed by the Monte Carlo verdicts
    from statistics import NormalDist

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
    upper_only = SCHEMES[cfg.scheme][0] is sim.SinglePacketSource  # var(S^psi) < 1
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


def cmd_simulate(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    channel = make_channel_params(cfg.snr)
    source = _source_for(cfg)
    grid = mse_mod.solve_grid(channel, source.boundary(), cfg.r_max, cfg.t_max)
    gains = sim.precompute_gains(grid)
    agg = sim.run_monte_carlo(gains, source, cfg.noise, cfg.num_trials, cfg.master_seed)
    # node r_max transmits on no simulated hop: its power cells are empty
    power = np.concatenate([g17_text(agg.power_mean), np.full((1, cfg.t_max + 1), b"")])
    path = os.path.join(out_dir, "simulate.csv")
    write_lattice_csv(path, "r,t,emp_mse,emp_power,stderr_mse,n_trials", [
        agg.mse_mean, power, agg.mse_stderr, np.broadcast_to(agg.n_trials, power.shape),
    ])

    verdicts = simulate_verdicts(cfg, agg, grid)
    report_path = os.path.join(out_dir, "report.json")
    _write_json(report_path, verdicts)
    _raise_failures(verdicts, [path, report_path], out_dir)
    return [path, report_path]


class VerificationFailure(RuntimeError):
    def __init__(self, paths, failures):
        super().__init__(f"{len(failures)} verification check(s) failed")
        self.paths = paths
        self.failures = failures


def _write_json(path: str, checks: list[dict]) -> None:
    """``checks`` as indented JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(checks, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _raise_failures(checks: list[dict], paths: list[str], out_dir: str) -> None:
    """If any of ``checks`` failed, write them to failures.json and raise VerificationFailure."""
    failures = [c for c in checks if not c["passed"]]
    if failures:
        fail_path = os.path.join(out_dir, "failures.json")
        _write_json(fail_path, failures)
        raise VerificationFailure([*paths, fail_path], failures)


def _censored(rates, n) -> np.ndarray:
    """Error rates over ``n`` trials as bytes, ``<10/n`` below ten expected errors."""
    threshold = 10.0 / np.asarray(n, dtype=float)
    return np.where(rates < threshold, np.char.add(b"<", g17_text(threshold)), g17_text(rates))


def _scheme_lattice(cfg: ExperimentConfig) -> None:
    """Build the scheme's source and size its lattice, as ``mse`` and ``simulate``
    will; input they cannot run raises ValueError."""
    _source_for(cfg)
    mse_mod.check_grid_size(cfg.r_max, cfg.t_max)


def _packet_cells(cfg: ExperimentConfig) -> list[tuple[int, int]]:
    """The (r, t) cells ``packet`` decodes; input it cannot run raises ValueError."""
    if cfg.packet_bits is None:
        raise ValueError("packet command requires packet_bits")
    if cfg.r_max < 2:
        raise ValueError(
            f"packet command needs r_max >= 2 (packets are decoded at r = 2..r_max), "
            f"got r_max = {cfg.r_max}"
        )
    if cfg.velocities and len(cfg.velocities) > 1:
        raise ValueError(
            f"packet command takes one velocity, got {len(cfg.velocities)}; "
            "run it once per velocity"
        )
    v = cfg.velocities[0] if cfg.velocities else 1.0
    cells = [(r, math.floor(r / v)) for r in range(2, cfg.r_max + 1)]
    mse_mod.check_grid_size(cfg.r_max, max(t for _, t in cells))
    return cells


def cmd_packet(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    cells = _packet_cells(cfg)
    channel = make_channel_params(cfg.snr)
    t_max = max(t for _, t in cells)
    source = sim.SinglePacketSource(cfg.packet_bits)
    grid = mse_mod.solve_grid(channel, source.boundary(), cfg.r_max, t_max)
    gains = sim.precompute_gains(grid)
    stats, _ = sim.run_decoding_monte_carlo(
        gains, source, cfg.noise, cfg.num_trials, cfg.master_seed, cells,
        sim.DecodeSpec(kind="packet", packet_bits=cfg.packet_bits))
    rows = []
    for r, t in cells:
        cell = stats.cells[(r, t)]
        m = grid.at(r, t)
        q = xp.gaussian_packet_exponent(m, cfg.packet_bits)
        has_diag = q > math.log(2.0) + 1e-12
        rows.append((
            r,
            t,
            cell.n_trials,
            cell.packet_errors,
            xp.packet_error_bound_chebyshev(m, cfg.packet_bits),
            xp.packet_error_bound_gaussian(m, cfg.packet_bits),
            xp.prefix_error_bound(m, cfg.packet_bits),
            math.log(q - math.log(2.0)) if has_diag else 0.0,
            has_diag,
        ))
    r, t, n, errors, cheb, gauss, pref, diag, has_diag = map(np.array, zip(*rows))
    path = os.path.join(out_dir, "packet.csv")
    write_table(
        path,
        "r,t,n_trials,errors,packet_err,bound_chebyshev,bound_gaussian,bound_prefix,loglog_diag",
        [r, t, n, errors, _censored(errors / n, n), cheb, gauss, pref,
         np.where(has_diag, g17_text(diag), b"")],
    )
    return [path]


# ``stream`` decodes packets tau = 0 .. _TAU_CAP at each relay.
_TAU_CAP = 8


def _stream_lattice(cfg: ExperimentConfig, v: float) -> tuple[dict, int]:
    """The delay floor(r / v) of each decoded relay r = 4, 8, ... and the
    t_max of the lattice ``stream`` solves at velocity ``v``."""
    deltas = {r: math.floor(r / v) for r in range(4, cfg.r_max + 1, 4)}
    return deltas, _TAU_CAP * cfg.period + max(deltas.values())


def _stream_velocities(cfg: ExperimentConfig) -> list[float]:
    """The velocities ``stream`` decodes at; input it cannot run raises ValueError."""
    if cfg.packet_bits is None or cfg.period is None:
        raise ValueError("stream command requires packet_bits and period")
    if cfg.r_max < 4:
        raise ValueError(
            f"stream command needs r_max >= 4 (relays are decoded at r = 4, 8, ...), "
            f"got r_max = {cfg.r_max}"
        )
    if cfg.velocities:
        velocities = list(cfg.velocities)
    else:
        channel = make_channel_params(cfg.snr)
        stream = make_stream_params(cfg.packet_bits, cfg.period, channel)
        if not stream.below_capacity:
            raise ValueError(
                "rate at or above capacity: no velocity suggestion available; "
                "pass explicit velocities to force a run"
            )
        velocities = [0.5 * xp.iv_lower_bound_stream(channel, stream.rate_nats)]
    for v in velocities:
        mse_mod.check_grid_size(cfg.r_max, _stream_lattice(cfg, v)[1])
    return velocities


def cmd_stream(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    velocities = _stream_velocities(cfg)
    channel = make_channel_params(cfg.snr)
    stream = make_stream_params(cfg.packet_bits, cfg.period, channel)
    source = sim.PacketStreamSource(cfg.packet_bits, cfg.period)
    paths = []
    for vi, v in enumerate(velocities):
        deltas, t_max = _stream_lattice(cfg, v)
        r_list = list(deltas)
        grid = mse_mod.solve_grid(channel, source.boundary(), cfg.r_max, t_max)
        gains = sim.precompute_gains(grid)
        cells = [(r, tau * cfg.period + deltas[r]) for r in r_list
                 for tau in range(_TAU_CAP + 1)]
        stats, _ = sim.run_decoding_monte_carlo(
            gains, source, cfg.noise, cfg.num_trials, cfg.master_seed, cells,
            sim.DecodeSpec(kind="stream", packet_bits=cfg.packet_bits, period=cfg.period))
        suffix = f"_v{vi}" if len(velocities) > 1 else ""
        err_path = os.path.join(out_dir, f"stream_errors{suffix}.csv")
        write_table(err_path, "r,delta,n_trials,bit_err,prefix_err,packet_err,worst_bit_pe",
                    list(map(np.array, zip(*stats.rows()))))
        env = (xp.stream_envelope_exponent(channel, stream.rate_nats, v)
               if 0 < v < channel.snr else -math.inf)
        worst_cells, exact = [], []
        for r in r_list:
            delta = deltas[r]
            cell = stats.cells.get((r, delta))
            worst = b""
            if cell is not None and cell.per_bit:
                n_obs = next(iter(cell.per_bit.values()))[1]
                worst = _censored(cell.worst_bit_rate(), n_obs)
            worst_cells.append(worst)
            exact.append(
                xp.worst_bit_error_bound(grid, cfg.packet_bits, cfg.period, r, delta, _TAU_CAP))
        bpath = os.path.join(out_dir, f"stream_bounds{suffix}.csv")
        n_rows = len(r_list)
        write_table(
            bpath,
            "r,delta,v,worst_bit_pe,exact_envelope_bound,envelope_exponent_per_delta",
            [r_list, [deltas[r] for r in r_list], np.full(n_rows, v),
             np.array(worst_cells, dtype=np.bytes_), exact, np.full(n_rows, env)],
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
    m = grid.values
    resid = np.abs(m[1:, 1:] - (channel.snr_bar * m[:-1, 1:] + channel.qbar * m[1:, :-1])).max()
    record("recursion_identity", resid <= 1e-12, f"max residual {resid:.2e}")
    sgrid = mse_mod.solve_grid(channel, mse_mod.ExponentialRefinementBoundary(math.log(2.0)),
                               40, 60)
    for name, g in (("closed_form_single", grid), ("closed_form_streaming", sgrid)):
        rel = mse_mod.closed_form_discrepancy(g)[1].max()
        record(name, rel <= 1e-9, f"max rel {rel:.2e}")

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
    # four batches, so that four workers reach the forked-process path
    one, four = (sim.run_monte_carlo(gains, sim.KnownSampleSource(), "gaussian", 20000, 7,
                                     batch_size=5_000, threads=threads) for threads in (1, 4))
    record(
        "determinism_across_threads",
        all(np.array_equal(getattr(one, f), getattr(four, f))
            for f in ("mse_mean", "power_mean", "y_mean", "y_cov", "y_cov_stderr",
                      "lemma8_diff_mean")),
    )
    theory = mini.values[1:, 1:]
    dev = np.abs(one.mse_mean[1:] - theory) <= 3.0 * one.mse_stderr[1:]
    record("mc_mse_within_3se", dev.all(), f"{int((~dev).sum())} cells out")
    pw = np.abs(one.power_mean - 10.0) <= 3.0 * one.power_stderr
    record("mc_power_within_3se", pw.all(), f"{int((~pw).sum())} cells out")
    record("per_step_identity", one.identity_max <= 1e-12, f"{one.identity_max:.2e}")

    return checks


def cmd_verify(cfg: ExperimentConfig, out_dir: str) -> list[str]:
    checks = _verify_checks()
    path = os.path.join(out_dir, "verify.json")
    _write_json(path, checks)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['check']}" + (f": {c['detail']}" if c["detail"] else ""))
    _raise_failures(checks, [path], out_dir)
    return [path]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Command:
    """What a command reads beyond ``--config`` and ``--out``."""

    no_seed: str | None = None  # why it reads no --seed and --trials; None if it reads both
    convention: bool = False  # whether it reads the hop convention
    defaults: dict = field(default_factory=dict)  # its config overrides without --config
    check: object = None  # raises ValueError on a config it cannot run, before any output


_COMMANDS = {
    "exponents": _Command("runs no Monte Carlo", convention=True),
    "iv": _Command("runs no Monte Carlo"),
    "mse": _Command("runs no Monte Carlo", check=_scheme_lattice),
    "simulate": _Command(check=_scheme_lattice),
    "packet": _Command(defaults={"scheme": "single_packet", "packet_bits": 2},
                       check=_packet_cells),
    "stream": _Command(defaults={"scheme": "packet_stream", "packet_bits": 2, "period": 2},
                       check=_stream_velocities),
    "verify": _Command("runs fixed checks"),
}


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: building it takes 1-3 ms."""
    parser = argparse.ArgumentParser(
        prog="cascade-iv",
        description="Relay-cascade information-velocity toolkit: theory and Monte Carlo",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="experiment config file (key = value format)")
        p.add_argument("--seed", type=int, help="override master seed")
        p.add_argument("--out", help="override output directory")
        p.add_argument("--trials", type=int, help="override trial count")
        p.add_argument("--convention", choices=CONVENTIONS, help="hop convention")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        for flag, value in (("--seed", args.seed), ("--trials", args.trials)):
            if command.no_seed and value is not None:
                raise ValueError(f"{args.command} {command.no_seed} and reads no {flag}")
        cfg = ExperimentConfig.load(args.config) if args.config else ExperimentConfig()
        overrides = {} if args.config else dict(command.defaults)
        for key, value in (("master_seed", args.seed), ("out_dir", args.out),
                           ("num_trials", args.trials), ("convention", args.convention)):
            if value is not None:
                overrides[key] = value
        if overrides:
            cfg = replace(cfg, **overrides)
        if HopConvention(cfg.convention) is HopConvention.DELAYED and not command.convention:
            raise ValueError(
                f"{args.command} ignores the hop convention; "
                "convention = delayed is read only by the exponents command"
            )
        if command.no_seed is None:
            sim.resolve_threads()  # a bad CASCADE_IV_THREADS fails before any output
        if command.check:
            command.check(cfg)
        os.makedirs(cfg.out_dir, exist_ok=True)
        # through the module, so that a wrapper set on cmd_<name> is the one run
        paths = globals()[f"cmd_{args.command}"](cfg, cfg.out_dir)
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
