"""Discrete-time simulation of the feedback relay cascade.

One trial runs the linear relaying scheme on the (r, t) lattice: node r
transmits X_r(t) = beta_r(t) [Shat_r(t) - Shat_{r+1}(t-1)], node r+1 receives
Y = X + Z and updates Shat_{r+1}(t) = Shat_{r+1}(t-1) + gamma_{r+1}(t) Y.
The gains come from the analytic MSE lattice (they are the exact LMMSE
coefficients), so trials are embarrassingly parallel.  Within a time step
nodes are processed in ascending r, which makes hops instantaneous; delayed
hops are the same dynamics with node r retarded by exactly r steps, handled
at evaluation time rather than by a second engine.

Reproducibility: trial i draws everything from its own counter-based stream
``Philox(key=(master_seed, i))``, read from counter 0 in a fixed order
(source draw, then the hop noise lattice in r-major layout, then any decoder
dither), so every sample is addressable and independent of batching and
thread count.  Packet bits are read as raw Philox words, two per word,
and equal ``Generator.integers(0, 2)`` draws bit for bit.  A batch builds
one generator and resets its state to trial i's key rather than building a
generator per trial, and stores the noise trial-contiguous, (r_max, T, B),
for the recursion.  Monte Carlo aggregation uses fixed-size batches merged
in batch order with compensated summation, making aggregates bit-identical
for any parallelism degree.

One recursion, ``_sweep``, serves every caller; what each keeps is an
observer of its time steps: the moments and probes of ``run_monte_carlo``,
the captured estimates of ``run_decoding_monte_carlo`` (nothing else), or
the full traces of ``run_trial``.  The probes are always on and cover only
the output pairs of ``probe_pairs``, so only y(0) and y(t-1) are kept.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from . import pam
from .mse import (
    BoundaryCondition,
    ExponentialRefinementBoundary,
    MseGrid,
    PacketStreamBoundary,
    SequenceBoundary,
    SingleSampleBoundary,
    write_lattice_csv,
)
from .params import ChannelParams

__all__ = [
    "NOISE_KINDS",
    "EPS_DEGENERATE",
    "CorruptedGridError",
    "GainTable",
    "precompute_gains",
    "KnownSampleSource",
    "SinglePacketSource",
    "RefinementSource",
    "CustomRefinementSource",
    "PacketStreamSource",
    "SourceBatch",
    "trial_generator",
    "draw_noise",
    "resolve_threads",
    "TrialResult",
    "run_trial",
    "coefficient_trial",
    "MonteCarloAggregate",
    "probe_pairs",
    "run_monte_carlo",
    "DecodeSpec",
    "run_decoding_monte_carlo",
]

NOISE_KINDS = ("gaussian", "uniform", "rademacher", "zero")

# Below this lattice-MSE decrease the power normalization is undefined; the
# hop transmits nothing and the receiver keeps its estimate.
EPS_DEGENERATE = 1e-300

_NEG_DIFF_TOL = -1e-12


class CorruptedGridError(ValueError):
    """The lattice violates its monotonicity beyond floating-point tolerance."""


# ---------------------------------------------------------------------------
# RNG streams
# ---------------------------------------------------------------------------

def trial_generator(master_seed: int, trial_index: int) -> Generator:
    """Counter-based stream for one trial, keyed by (master_seed, trial)."""
    key = np.array([master_seed, trial_index], dtype=np.uint64)
    return Generator(Philox(key=key))


def draw_noise(gen: Generator, kind: str, shape, out: np.ndarray | None = None) -> np.ndarray:
    """Zero-mean unit-variance hop noise in a fixed r-major layout.

    With ``out`` (of shape ``shape``) the draw is written there and ``out``
    is returned; the values are the same as those of the returning form.
    """
    if kind == "gaussian":
        return gen.standard_normal(shape, out=out)
    if kind == "uniform":
        s = math.sqrt(3.0)
        z = gen.uniform(-s, s, size=shape)
    elif kind == "rademacher":
        z = 2.0 * gen.integers(0, 2, size=shape).astype(float) - 1.0
    elif kind == "zero":
        z = np.zeros(shape)
    else:
        raise ValueError(f"unknown noise kind {kind!r}; expected one of {NOISE_KINDS}")
    if out is None:
        return z
    out[...] = z
    return out


# Trials whose r-major noise is drawn before one transposed copy into the
# trial-contiguous batch array; about 1 MB on the criterion-8 lattice.
_NOISE_CHUNK = 128


class _TrialStreams:
    """The per-trial streams of one batch, read from one Philox reset per trial.

    Trial i reads ``Philox(key=(master_seed, i))`` from counter 0: its
    source draw, then its hop noise in r-major (r_max, T) order, then
    ``n_dither`` dither values.  Resetting the state of one generator gives
    the same numbers as a fresh ``trial_generator`` per trial.

    A source's ``draw_batch`` iterates this object once, in trial order,
    and draws from the generator it is handed.  When it asks for the next
    trial, the current trial's noise and dither are drawn; ``finish`` draws
    them for the trials the source did not iterate over.  Noise lands in
    ``noise``, a trial-contiguous (r_max, T, B) array, so the recursion
    reads each hop cell as one contiguous vector.
    """

    def __init__(self, master_seed, start, count, noise_kind, noise_shape,
                 n_dither=0, dither_half=0.0):
        shape = tuple(noise_shape)
        self.count = count
        self.noise = np.empty(shape + (count,))
        self.dither = np.empty((count, n_dither)) if n_dither else None
        self._trials = self._draw(master_seed, start, noise_kind, shape, dither_half)
        self._iterated = False

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        if self._iterated:
            raise RuntimeError("a batch's trial streams can be iterated only once")
        self._iterated = True
        return self._trials

    def finish(self) -> None:
        self._iterated = True
        for _ in self._trials:
            pass

    def _draw(self, master_seed, start, noise_kind, shape, dither_half):
        gen = trial_generator(master_seed, start)
        bitgen = gen.bit_generator
        fresh = bitgen.state
        key = fresh["state"]["key"]
        chunk = np.empty((min(_NOISE_CHUNK, self.count),) + shape)
        for i in range(self.count):
            key[1] = start + i
            bitgen.state = fresh
            yield gen
            j = i % len(chunk)
            draw_noise(gen, noise_kind, shape, chunk[j])
            if self.dither is not None:
                self.dither[i] = gen.uniform(-dither_half, dither_half, size=self.dither.shape[1])
            if j == len(chunk) - 1 or i == self.count - 1:
                lo = i - j
                self.noise[..., lo : i + 1] = np.moveaxis(chunk[: j + 1], 0, -1)


def _draw_inputs(source, noise_kind, master_seed, start, count, r_max, t_max,
                 n_dither=0, dither_half=0.0):
    """Source draws, (r_max, T, B) noise and (B, n_dither) dither of one batch."""
    streams = _TrialStreams(master_seed, start, count, noise_kind, (r_max, t_max + 1),
                            n_dither, dither_half)
    src = source.draw_batch(streams, t_max)
    streams.finish()
    return src, streams.noise, streams.dither


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: explicit argument, else CASCADE_IV_THREADS, else 1."""
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("CASCADE_IV_THREADS")
    if env:
        return max(1, int(env))
    return 1


# ---------------------------------------------------------------------------
# Source processes
# ---------------------------------------------------------------------------

def _draw_bits(gens, n: int) -> np.ndarray:
    """(B, n) uniform bits, int8, equal to ``g.integers(0, 2, size=n)`` per trial.

    ``integers(0, 2)`` is Lemire's method on [0, 2), which never rejects:
    bit k is the top bit of the stream's 32-bit output k, and each 64-bit
    Philox word supplies two of them, low half first.  So each trial reads
    ``n // 2`` raw words in one call and the bits are cut out for the whole
    batch at once.  An odd last bit is drawn by ``integers``, which leaves
    the word's high half buffered for the next 32-bit draw, as the plain
    call does.  Each generator's 32-bit buffer must be empty on entry, as it
    is on a fresh or reset trial stream.
    """
    n_words, odd = divmod(n, 2)
    raw = np.empty((len(gens), n_words), dtype=np.uint64)
    bits = np.empty((len(gens), n), dtype=np.int8)
    for i, g in enumerate(gens):
        raw[i] = g.bit_generator.random_raw(n_words)
        if odd:
            bits[i, -1] = g.integers(0, 2, size=1)[0]
    bits[:, 0 : 2 * n_words : 2] = raw >> np.uint64(31) & np.uint64(1)
    bits[:, 1 : 2 * n_words : 2] = raw >> np.uint64(63)
    return bits


@dataclass(frozen=True)
class SourceBatch:
    """Per-batch source draws: target values, node-0 estimates, optional bits."""

    s: np.ndarray          # (B,)
    shat0: np.ndarray      # (B, t_max+1)
    bits: np.ndarray | None = None  # (B, depth) for packet streams


@dataclass(frozen=True)
class KnownSampleSource:
    """Source revealed fully at t = 0; value None draws uniform on [-sqrt3, sqrt3)."""

    value: float | None = None

    def boundary(self) -> BoundaryCondition:
        return SingleSampleBoundary()

    def draw_batch(self, gens, t_max: int) -> SourceBatch:
        if self.value is None:
            s = np.array([g.uniform(-pam.SQRT3, pam.SQRT3) for g in gens])
        else:
            s = np.full(len(gens), float(self.value))
        shat0 = np.repeat(s[:, None], t_max + 1, axis=1)
        return SourceBatch(s=s, shat0=shat0)


def _split_rounds_for_factor(factor: float):
    """Binary split ratios realizing one MSE contraction ``factor`` in (0, 1].

    Splitting every cell of a partition of the uniform source at ratio rho
    scales the conditional MSE by rho^3 + (1-rho)^3, which covers [1/4, 1);
    chaining one such split with j-1 exact halvings reaches any factor.
    """
    if not 0.0 < factor <= 1.0:
        raise ValueError(f"contraction factor must lie in (0, 1], got {factor!r}")
    if factor >= 1.0 - 1e-15:
        return []
    j = max(1, math.ceil(math.log(1.0 / factor) / math.log(4.0) - 1e-12))
    g = factor * 4.0 ** (j - 1)
    # solve rho^3 + (1-rho)^3 = g on (0, 1/2]
    rho = (3.0 - math.sqrt(12.0 * g - 3.0)) / 6.0
    return [rho] + [0.5] * (j - 1)


def _refinement_split_plan(rate_nats: float):
    """Split rounds for the constant per-step factor exp(-2R)."""
    return _split_rounds_for_factor(math.exp(-2.0 * rate_nats))


def _draw_quantized(gens, plans, t_max: int) -> SourceBatch:
    """Nested-quantizer refinement of a uniform source, one plan per time step."""
    s = np.array([g.uniform(-pam.SQRT3, pam.SQRT3) for g in gens])
    lo = np.full(s.shape, -pam.SQRT3)
    width = np.full(s.shape, 2.0 * pam.SQRT3)
    shat0 = np.empty((len(gens), t_max + 1))
    for t in range(t_max + 1):
        for rho in plans[t]:
            cut = lo + rho * width
            right = s >= cut
            lo = np.where(right, cut, lo)
            width = np.where(right, (1.0 - rho) * width, rho * width)
        shat0[:, t] = lo + 0.5 * width
    return SourceBatch(s=s, shat0=shat0)


@dataclass(frozen=True)
class RefinementSource:
    """Successively refined uniform source with MSE exactly exp(-2R(t+1)).

    Realized by nested quantization: each time step splits every cell of the
    current partition (same ratios for all cells) and reveals the conditional
    mean, so the estimates are orthogonal projections and form a Markov
    refinement chain with the exact exponential MSE profile.
    """

    rate_nats: float

    def boundary(self) -> BoundaryCondition:
        return ExponentialRefinementBoundary(self.rate_nats)

    def draw_batch(self, gens, t_max: int) -> SourceBatch:
        plan = _refinement_split_plan(self.rate_nats)
        return _draw_quantized(gens, [plan] * (t_max + 1), t_max)


@dataclass(frozen=True)
class CustomRefinementSource:
    """Markov refinement hitting a caller-supplied monotone MSE profile.

    ``mse_profile[t]`` is the exact target M_0(t); it must be non-increasing
    and cover every simulated time step.
    """

    mse_profile: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "mse_profile", tuple(float(m) for m in self.mse_profile))
        SequenceBoundary(self.mse_profile)  # reuse its validation

    def boundary(self) -> BoundaryCondition:
        return SequenceBoundary(self.mse_profile)

    def draw_batch(self, gens, t_max: int) -> SourceBatch:
        if len(self.mse_profile) < t_max + 1:
            raise ValueError(
                f"profile of length {len(self.mse_profile)} too short for t_max={t_max}"
            )
        prev = 1.0
        plans = []
        for m in self.mse_profile[: t_max + 1]:
            plans.append(_split_rounds_for_factor(m / prev))
            prev = m
        return _draw_quantized(gens, plans, t_max)


@dataclass(frozen=True)
class PacketStreamSource:
    """I.i.d. uniform bit packets mapped to nested PAM prefixes.

    The packet arriving at t = tau*T enters the transmitter estimate at that
    instant: Shat_0(t) is the PAM point of the first psi*(floor(t/T)+1) bits.
    The virtual source is the deep expansion of ``depth`` bits (default: the
    staircase depth plus a 24-bit guard band, beyond float64 resolution of
    the decoded prefixes).
    """

    packet_bits: int
    period: int
    extra_depth: int = 24

    def boundary(self) -> BoundaryCondition:
        return PacketStreamBoundary(self.packet_bits, self.period)

    def depth(self, t_max: int) -> int:
        return self.packet_bits * (t_max // self.period + 1) + self.extra_depth

    def draw_batch(self, gens, t_max: int) -> SourceBatch:
        depth = self.depth(t_max)
        bits = _draw_bits(gens, depth)
        w = pam.SQRT3 * np.exp2(-(np.arange(depth) + 1.0))
        contrib = (1.0 - 2.0 * bits) * w
        csum = np.cumsum(contrib, axis=1)
        s = csum[:, -1].copy()
        t = np.arange(t_max + 1)
        n_t = self.packet_bits * (t // self.period + 1)
        shat0 = csum[:, n_t - 1]
        return SourceBatch(s=s, shat0=shat0, bits=bits)


@dataclass(frozen=True)
class SinglePacketSource:
    """One packet of psi bits mapped to S^psi and known upfront.

    The finite constellation point itself is the source (variance
    1 - 4^-psi < 1), transmitted with the unit-variance gain tables, so the
    estimation MSE is bounded by the single-sample lattice.
    """

    packet_bits: int

    def boundary(self) -> BoundaryCondition:
        return SingleSampleBoundary()

    def draw_batch(self, gens, t_max: int) -> SourceBatch:
        bits = _draw_bits(gens, self.packet_bits)
        w = pam.SQRT3 * np.exp2(-(np.arange(self.packet_bits) + 1.0))
        s = ((1.0 - 2.0 * bits) * w).sum(axis=1)
        shat0 = np.repeat(s[:, None], t_max + 1, axis=1)
        return SourceBatch(s=s, shat0=shat0, bits=bits)


# ---------------------------------------------------------------------------
# Gains
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GainTable:
    """Precomputed beta/gamma per hop and time, with silent-hop markers.

    ``beta[r, t]`` scales the transmission on hop r (node r toward node r+1)
    and ``gamma[r, t]`` the innovation at node r >= 1 (row 0 unused).  Silent
    cells transmit 0 and skip the update.  Any cell whose expected input
    power lands above P is rescaled down; ``clamp_count`` reports only the
    cells that exceeded P beyond ordinary rounding (1e-12 relative), which
    indicates a defective lattice rather than float noise.
    """

    channel: ChannelParams
    r_max: int
    t_max: int
    beta: np.ndarray = field(repr=False)
    gamma: np.ndarray = field(repr=False)
    silent: np.ndarray = field(repr=False)
    grid: MseGrid = field(repr=False)
    clamp_count: int = 0


def precompute_gains(grid: MseGrid, eps_degenerate: float = EPS_DEGENERATE) -> GainTable:
    """Gain tables from a solved lattice.

    beta_r(t) = sqrt(P / (M_{r+1}(t-1) - M_r(t))) and
    gamma_r(t) = sqrt(P (M_r(t-1) - M_{r-1}(t))) / (P+1), so that
    beta_{r-1}(t) gamma_r(t) = pbar at every defined cell.
    """
    P = grid.channel.snr
    M = grid.values
    diff = M[1:, :-1] - M[:-1, 1:]  # (r_max, t_max+1): M_{r+1}(t-1) - M_r(t)
    if (diff < _NEG_DIFF_TOL).any():
        worst = float(diff.min())
        raise CorruptedGridError(f"lattice decrease went negative ({worst:.3e})")
    silent = diff <= eps_degenerate
    safe = np.where(silent, 1.0, diff)
    beta = np.where(silent, 0.0, np.sqrt(P / safe))
    gamma = np.zeros((grid.r_max + 1, grid.t_max + 1))
    gamma[1:] = np.where(silent, 0.0, np.sqrt(P * safe) / (P + 1.0))
    # enforce E[X^2] <= P in expectation; count only beyond-rounding overshoots
    power = beta * beta * diff
    over = (power > P) & ~silent
    clamp_count = int(np.count_nonzero((power > P * (1.0 + 1e-12)) & ~silent))
    if over.any():
        beta = np.where(over, beta * np.sqrt(P / np.where(over, power, 1.0)), beta)
    beta.setflags(write=False)
    gamma.setflags(write=False)
    silent.setflags(write=False)
    return GainTable(
        channel=grid.channel,
        r_max=grid.r_max,
        t_max=grid.t_max,
        beta=beta,
        gamma=gamma,
        silent=silent,
        grid=grid,
        clamp_count=clamp_count,
    )


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------

def _sweep(gains: GainTable, shat0: np.ndarray, z: np.ndarray, on_step, first_trial: int,
           hops=None) -> None:
    """Run the lattice recursion for a batch, in place on one (r_max+1, B) state.

    ``shat0`` is the (B, T) node-0 estimate and ``z`` the (r_max, T, B) hop
    noise.  Row r+1 of the state still holds time t-1 when hop r updates it
    at time t, so no second state is needed.  After each time step
    ``on_step(t, est)`` sees every node's estimate.  If ``hops`` is an
    ``(x, y)`` pair of (r_max, B) arrays, each step also leaves there its
    channel inputs and outputs.
    """
    r_max, T, count = z.shape
    silent = gains.silent.tolist()
    beta = gains.beta.tolist()
    gamma = gains.gamma.tolist()
    shat0 = np.ascontiguousarray(shat0.T)
    est = np.zeros((r_max + 1, count))
    x = np.empty(count)
    y = np.empty(count)
    scaled = np.empty(count)
    for t in range(T):
        est[0] = shat0[t]
        # an inf state makes transient nan arithmetic before the finite-state
        # guard below raises; keep that path quiet
        with np.errstate(invalid="ignore"):
            for r in range(r_max):
                if hops is not None:
                    x, y = hops[0][r], hops[1][r]
                if silent[r][t]:
                    if hops is not None:
                        x.fill(0.0)
                        y[...] = z[r, t]
                    continue
                np.subtract(est[r], est[r + 1], out=x)
                x *= beta[r][t]
                np.add(x, z[r, t], out=y)
                np.multiply(y, gamma[r + 1][t], out=scaled)
                est[r + 1] += scaled
        if not np.isfinite(est).all():
            bad_r = int(np.argwhere(~np.isfinite(est))[0, 0])
            raise FloatingPointError(
                f"non-finite estimate at node r={bad_r}, t={t} "
                f"(trials {first_trial}..{first_trial + count - 1})"
            )
        on_step(t, est)


def probe_pairs(T: int) -> list[tuple[int, int]]:
    """The output pairs (t, u) ``run_monte_carlo`` probes, in column order.

    Lag-1 pairs (t, t+1) come first, then origin pairs (0, t) for t >= 2:
    ``max(2T - 3, 0)`` pairs over T time steps.
    """
    return [(t, t + 1) for t in range(T - 1)] + [(0, t) for t in range(2, T)]


class _Moments:
    """Per-step observer of ``_sweep`` accumulating the Monte Carlo partial sums.

    The output probes keep only y(0) and y(t-1): step t adds the products
    of y(t) with each, the two pairs of ``probe_pairs`` that end at t.
    """

    def __init__(self, gains: GainTable, s: np.ndarray, z: np.ndarray):
        r_max, T, count = z.shape
        self.gains, self.s, self.z = gains, s, z
        self.hops = (np.empty((r_max, count)), np.empty((r_max, count)))
        self.prev = np.zeros((r_max + 1, count))
        self.y0 = np.empty((r_max, count))
        self.y_prev = np.empty((r_max, count))
        n_pairs = len(probe_pairs(T))
        self.sums = {
            "n": count,
            "err_sum": np.zeros((r_max + 1, T)),
            "sq_sum": np.zeros((r_max + 1, T)),
            "sq2_sum": np.zeros((r_max + 1, T)),
            "pow_sum": np.zeros((r_max, T)),
            "pow2_sum": np.zeros((r_max, T)),
            "identity_max": 0.0,
            "d_sum": np.zeros((r_max + 1, T)),
            "d2_sum": np.zeros((r_max + 1, T)),
            "y_sum": np.zeros((r_max, T)),
            "yy_sum": np.zeros((r_max, n_pairs)),
            "y2y2_sum": np.zeros((r_max, n_pairs)),
        }

    def _add_pair(self, k: int, y: np.ndarray, other: np.ndarray) -> None:
        prod = y * other
        self.sums["yy_sum"][:, k] = prod.sum(axis=1)
        prod *= prod
        self.sums["y2y2_sum"][:, k] = prod.sum(axis=1)

    def __call__(self, t: int, est: np.ndarray) -> None:
        sums, s, prev = self.sums, self.s, self.prev
        x, y = self.hops
        err = s[None, :] - est
        sq = err * err
        sums["err_sum"][:, t] = err.sum(axis=1)
        sums["sq_sum"][:, t] = sq.sum(axis=1)
        sums["sq2_sum"][:, t] = (sq * sq).sum(axis=1)
        x2 = x * x
        sums["pow_sum"][:, t] = x2.sum(axis=1)
        sums["pow2_sum"][:, t] = (x2 * x2).sum(axis=1)
        # per-hop identity:
        # Shat_{r+1}(t) = pbar Shat_r(t) + (1-pbar) Shat_{r+1}(t-1) + gamma Z
        active = ~self.gains.silent[:, t]
        if active.any():
            pbar = self.gains.channel.snr_bar
            resid = est[1:][active] - (
                pbar * est[:-1][active]
                + (1.0 - pbar) * prev[1:][active]
                + self.gains.gamma[1:, t][active, None] * self.z[:, t][active]
            )
            sums["identity_max"] = max(sums["identity_max"], float(np.abs(resid).max()))
        d = err[1:-1] * (s - prev[2:]) - sq[1:-1]
        sums["d_sum"][1:-1, t] = d.sum(axis=1)
        sums["d2_sum"][1:-1, t] = (d * d).sum(axis=1)
        sums["y_sum"][:, t] = y.sum(axis=1)
        if t >= 1:
            self._add_pair(t - 1, y, self.y_prev)  # (t-1, t)
        if t >= 2:
            self._add_pair(self.z.shape[1] + t - 3, y, self.y0)  # (0, t)
        if t == 0:
            self.y0[...] = y
        self.y_prev[...] = y
        prev[...] = est


def _simulate_batch(gains: GainTable, source, noise_kind: str, master_seed: int,
                    start_trial: int, count: int) -> dict:
    """Run ``count`` trials and return partial sums (see run_monte_carlo)."""
    src, z, _ = _draw_inputs(source, noise_kind, master_seed, start_trial, count,
                             gains.r_max, gains.t_max)
    moments = _Moments(gains, src.s, z)
    _sweep(gains, src.shat0, z, moments, start_trial, hops=moments.hops)
    return moments.sums


def _capture_batch(gains: GainTable, source, noise_kind: str, master_seed: int,
                   start_trial: int, count: int, cells, n_dither: int = 0,
                   dither_half: float = 0.0):
    """Run ``count`` trials keeping only the estimates at ``cells``.

    Returns the source batch, the (n_cells, B) captured estimates and the
    (B, n_dither) dither, or None without dither.
    """
    src, z, dither = _draw_inputs(source, noise_kind, master_seed, start_trial, count,
                                  gains.r_max, gains.t_max, n_dither, dither_half)
    captures = np.empty((len(cells), count))
    by_t: dict[int, list[tuple[int, int]]] = {}
    for idx, (r, t) in enumerate(cells):
        by_t.setdefault(t, []).append((idx, r))

    def capture(t, est):
        for idx, r in by_t.get(t, ()):
            captures[idx] = est[r]

    _sweep(gains, src.shat0, z, capture, start_trial)
    return src, captures, dither


def _neumaier_add(total: np.ndarray, comp: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One compensated-summation step; mutates ``comp`` and returns the new total."""
    new = total + x
    comp += np.where(np.abs(total) >= np.abs(x), (total - new) + x, (x - new) + total)
    return new


class _CompensatedSums:
    """Order-deterministic compensated accumulator for dicts of float arrays."""

    def __init__(self):
        self.totals: dict[str, np.ndarray] = {}
        self.comps: dict[str, np.ndarray] = {}

    def add(self, key: str, x: np.ndarray) -> None:
        if key not in self.totals:
            self.totals[key] = np.array(x, dtype=float, copy=True)
            self.comps[key] = np.zeros_like(self.totals[key])
        else:
            self.totals[key] = _neumaier_add(self.totals[key], self.comps[key], x)

    def value(self, key: str) -> np.ndarray:
        return self.totals[key] + self.comps[key]


def _batch_ranges(num_trials: int, batch_size: int):
    return [
        (start, min(batch_size, num_trials - start))
        for start in range(0, num_trials, batch_size)
    ]


def _run_batches(jobs, worker, threads: int):
    """Execute batch jobs, returning results in job order regardless of scheduling."""
    if threads <= 1:
        return [worker(*job) for job in jobs]
    results = [None] * len(jobs)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = {pool.submit(worker, *job): i for i, job in enumerate(jobs)}
        for fut, i in futures.items():
            results[i] = fut.result()
    return results


@dataclass(frozen=True, eq=False)
class MonteCarloAggregate:
    """Deterministic Monte Carlo aggregate over the (r, t) lattice."""

    channel: ChannelParams
    r_max: int
    t_max: int
    n_trials: int
    mse_mean: np.ndarray = field(repr=False)       # (r_max+1, t_max+1)
    mse_stderr: np.ndarray = field(repr=False)
    err_mean: np.ndarray = field(repr=False)
    power_mean: np.ndarray = field(repr=False)     # (r_max, t_max+1)
    power_stderr: np.ndarray = field(repr=False)
    identity_max: float
    y_mean: np.ndarray = field(repr=False)         # (r_max, t_max+1)
    y_cov: np.ndarray = field(repr=False)          # (r_max, n_pairs), see probe_pairs
    y_cov_stderr: np.ndarray = field(repr=False)
    lemma8_diff_mean: np.ndarray = field(repr=False)   # (r_max+1, t_max+1)
    lemma8_diff_stderr: np.ndarray = field(repr=False)


def run_monte_carlo(
    gains: GainTable,
    source,
    noise_kind: str,
    num_trials: int,
    master_seed: int,
    *,
    batch_size: int = 20_000,
    threads: int | None = None,
) -> MonteCarloAggregate:
    """Estimate MSE, input power, and covariance probes over the lattice.

    The probes are the channel-output means, the output covariances at the
    pairs of ``probe_pairs`` (column k of ``y_cov`` is pair k) and the
    error-covariance identity differences.  Trial i always uses the stream
    (master_seed, i); batches have a fixed size and are merged in index
    order with compensated summation, so the aggregate is bit-identical for
    any thread count.
    """
    if num_trials < 1:
        raise ValueError("num_trials must be >= 1")
    threads = resolve_threads(threads)

    def worker(start, count):
        return _simulate_batch(gains, source, noise_kind, master_seed, start, count)

    results = _run_batches(_batch_ranges(num_trials, batch_size), worker, threads)

    acc = _CompensatedSums()
    identity_max = 0.0
    n = 0
    for res in results:  # batch order, not completion order
        n += res["n"]
        identity_max = max(identity_max, res["identity_max"])
        for key, val in res.items():
            if key in ("n", "identity_max"):
                continue
            acc.add(key, val)

    mse_mean = acc.value("sq_sum") / n
    mse_var = np.maximum(acc.value("sq2_sum") / n - mse_mean**2, 0.0)
    power_mean = acc.value("pow_sum") / n
    power_var = np.maximum(acc.value("pow2_sum") / n - power_mean**2, 0.0)
    y_mean = acc.value("y_sum") / n
    yy = acc.value("yy_sum") / n
    t, u = np.array(probe_pairs(gains.t_max + 1), dtype=int).reshape(-1, 2).T
    prod_var = np.maximum(acc.value("y2y2_sum") / n - yy**2, 0.0)
    d_mean = acc.value("d_sum") / n
    d_var = np.maximum(acc.value("d2_sum") / n - d_mean**2, 0.0)
    return MonteCarloAggregate(
        channel=gains.channel,
        r_max=gains.r_max,
        t_max=gains.t_max,
        n_trials=n,
        mse_mean=mse_mean,
        mse_stderr=np.sqrt(mse_var / n),
        err_mean=acc.value("err_sum") / n,
        power_mean=power_mean,
        power_stderr=np.sqrt(power_var / n),
        identity_max=identity_max,
        y_mean=y_mean,
        y_cov=yy - y_mean[:, t] * y_mean[:, u],
        y_cov_stderr=np.sqrt(prod_var / n),
        lemma8_diff_mean=d_mean,
        lemma8_diff_stderr=np.sqrt(d_var / n),
    )


# ---------------------------------------------------------------------------
# Single trials and linear-coefficient extraction
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class TrialResult:
    """Full traces of one trial (channel inputs/outputs, noise, estimates)."""

    source_value: float
    estimates: np.ndarray = field(repr=False)  # (r_max+1, t_max+1)
    x: np.ndarray = field(repr=False)          # (r_max, t_max+1)
    y: np.ndarray = field(repr=False)
    z: np.ndarray = field(repr=False)
    squared_errors: np.ndarray = field(repr=False)

    def write_csv(self, path) -> None:
        """Trace rows ``t,r,x,y,z,estimate`` (estimate of the receiving node r+1)."""
        write_lattice_csv(path, "t,r,x,y,z,estimate",
                          [self.x.T, self.y.T, self.z.T, self.estimates[1:].T])


def _trace_trial(gains: GainTable, source, noise_kind: str, master_seed: int,
                 trial_index: int):
    """One trial with every estimate, channel input and output kept.

    Returns the source batch, the (r_max+1, T) estimates, the (r_max, T)
    inputs x and outputs y, and the (r_max, T) noise.
    """
    r_max, T = gains.r_max, gains.t_max + 1
    src, z, _ = _draw_inputs(source, noise_kind, master_seed, trial_index, 1, r_max, gains.t_max)
    est = np.empty((r_max + 1, T))
    x = np.empty((r_max, T))
    y = np.empty((r_max, T))
    hops = (np.empty((r_max, 1)), np.empty((r_max, 1)))

    def record(t, state):
        est[:, t] = state[:, 0]
        x[:, t] = hops[0][:, 0]
        y[:, t] = hops[1][:, 0]

    _sweep(gains, src.shat0, z, record, trial_index, hops=hops)
    return src, est, x, y, z[..., 0]


def run_trial(
    gains: GainTable,
    source,
    noise_kind: str,
    master_seed: int,
    trial_index: int = 0,
) -> TrialResult:
    """Run a single trial with full traces retained."""
    src, est, x, y, z = _trace_trial(gains, source, noise_kind, master_seed, trial_index)
    s = float(src.s[0])
    return TrialResult(
        source_value=s,
        estimates=est,
        x=x,
        y=y,
        z=z,
        squared_errors=(s - est) ** 2,
    )


def coefficient_trial(gains: GainTable) -> np.ndarray:
    """Linear coefficient alpha_r(t) of the source inside each estimate.

    The scheme is linear, so one noise-free pass with constant source 1
    yields alpha exactly: estimates[r, t] = alpha_r(t).
    """
    return _trace_trial(gains, KnownSampleSource(value=1.0), "zero", 0, 0)[1]


# ---------------------------------------------------------------------------
# Decoding Monte Carlo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecodeSpec:
    """What to decode at each captured cell.

    kind "packet": slice the whole packet (packet_bits) at every cell.
    kind "stream": slice the full prefix psi*(floor(t/T)+1) at every cell and
    tally per-packet delays.  kind "packet_dithered": dithered slicer at
    ``decode_bits_n`` with per-cell alphas, alongside the plain slicer.
    """

    kind: str
    packet_bits: int
    period: int = 1
    decode_bits_n: int | None = None
    alphas: np.ndarray | None = None  # per capture cell, for dithered decoding


def run_decoding_monte_carlo(
    gains: GainTable,
    source,
    noise_kind: str,
    num_trials: int,
    master_seed: int,
    capture_cells,
    decode: DecodeSpec,
    *,
    batch_size: int = 20_000,
    threads: int | None = None,
) -> tuple[pam.ErrorStats, pam.ErrorStats | None]:
    """Decode captured estimates batch by batch into deterministic error counts.

    Returns (primary stats, slicer stats); the second entry is only populated
    for dithered decoding, where the plain slicer runs alongside for
    comparison.
    """
    if decode.kind not in ("packet", "stream", "packet_dithered"):
        raise ValueError(f"unknown decode kind {decode.kind!r}")
    if decode.kind == "packet_dithered" and (
        decode.decode_bits_n is None or decode.alphas is None
    ):
        raise ValueError("dithered decoding needs decode_bits_n and alphas")
    threads = resolve_threads(threads)
    cells = list(capture_cells)
    for r, t in cells:
        if not (0 <= r <= gains.r_max and 0 <= t <= gains.t_max):
            raise ValueError(f"capture cell {(r, t)} outside lattice")
    dithered = decode.kind == "packet_dithered"
    n_dither = len(cells) if dithered else 0
    dither_half = 0.5 * pam.min_distance(decode.packet_bits) if dithered else 0.0

    def worker(start, count):
        src, caps, dither = _capture_batch(
            gains, source, noise_kind, master_seed, start, count, cells, n_dither, dither_half
        )
        primary = pam.ErrorStats()
        secondary = pam.ErrorStats() if dithered else None
        for idx, (r, t) in enumerate(cells):
            if decode.kind == "stream":
                n_bits = decode.packet_bits * (t // decode.period + 1)
                truth = src.bits[:, :n_bits]
                decoded = pam.decode_bits(caps[idx], n_bits)
                pam.tally_errors(
                    primary, decoded, truth, r, t, decode.packet_bits, decode.period
                )
            elif decode.kind == "packet":
                truth = src.bits[:, : decode.packet_bits]
                decoded = pam.decode_bits(caps[idx], decode.packet_bits)
                pam.tally_errors(
                    primary, decoded, truth, r, t, decode.packet_bits, gains.t_max + 1
                )
            else:  # packet_dithered
                n = decode.decode_bits_n
                truth = src.bits[:, :n]
                dith = pam.dithered_decode(
                    caps[idx],
                    decode.alphas[idx],
                    decode.packet_bits,
                    n,
                    dither=dither[:, idx],
                )
                plain = pam.decode_bits(caps[idx], n)
                pam.tally_errors(primary, dith, truth, r, t, n, gains.t_max + 1)
                pam.tally_errors(secondary, plain, truth, r, t, n, gains.t_max + 1)
        return primary, secondary

    results = _run_batches(_batch_ranges(num_trials, batch_size), worker, threads)
    primary = pam.ErrorStats()
    secondary = pam.ErrorStats() if dithered else None
    for p, s in results:
        primary.merge(p)
        if secondary is not None:
            secondary.merge(s)
    return primary, secondary
