"""Discrete-time simulation of the feedback relay cascade.

One trial runs the linear relaying scheme on the (r, t) lattice: node r
transmits X_r(t) = beta_r(t) [Shat_r(t) - Shat_{r+1}(t-1)], node r+1 receives
Y = X + Z and updates Shat_{r+1}(t) = Shat_{r+1}(t-1) + gamma_{r+1}(t) Y.
The gains come from the analytic MSE lattice (they are the exact LMMSE
coefficients), so trials are embarrassingly parallel.  Node r+1 at time t
reads node r at the same time t, which makes hops instantaneous; delayed
hops are the same dynamics with node r retarded by exactly r steps, handled
at evaluation time rather than by a second engine.

Reproducibility: trial i draws everything from its own counter-based stream
``Philox(key=(master_seed, i))``, read from counter 0 in a fixed order
(source words, then the hop noise lattice in r-major layout, then any
decoder dither words), so every sample is addressable and independent of
batching and worker count.  A source declares how many 32-bit halves it
reads, and maps the raw words of all its trials to its draws in one call:
its uniforms and packet bits equal ``Generator.uniform`` and
``Generator.integers(0, 2)`` draws bit for bit.  A batch builds one
generator and resets its state to trial i's key rather than building a
generator per trial.  From the raw words to the error tally every array
keeps the trial axis last: the (k, B) words, the source's (T, B) node-0
estimates and (depth, B) bits, the (r_max, T, B) noise, the (n_cells, B)
captures and the (n, B) decoded bits.  Monte Carlo aggregation uses
fixed-size batches merged in batch order with compensated summation,
making aggregates bit-identical for any parallelism degree.

Parallelism: batches share no state, so with ``threads`` (or
``CASCADE_IV_THREADS``) above 1 they are spread over that many workers, at
most one per batch: the calling process is one of them, and the others are
processes forked for the call, free of the interpreter lock that the
per-trial stream loop would hold in threads.  Each child returns its
batch's sums or error counts, which are merged with the caller's own in
batch order as above.  Where ``fork`` is not available (any platform but
Linux) the batches run in-process, one after another.

One recursion, ``_sweep``, serves every caller.  It is a wavefront over
the anti-diagonals e = r + t of the lattice: cell (r, t) reads only
(r-1, t) and (r, t-1), so one in-place step updates every node of a
diagonal with one numpy call per stage, whatever the number of trials.
Silent hops take that step too, on the +0.0 gains ``precompute_gains``
gives them.  What each caller keeps is an observer that reads only the
state after each diagonal: the moments and probes of ``run_monte_carlo``,
the captured estimates of ``run_decoding_monte_carlo`` (nothing else), or
the full traces of ``run_trial``.  The probes are always on and cover only
the output pairs of ``probe_pairs``, so only y(0) and y(t-1) are kept.

Every caller runs its batches through one driver, ``_run_blocks``, in
blocks of about 16 MiB of noise (``_BLOCK_BUDGET``), so memory does not
grow with the batch.  The blocks are leaves of the pairwise tree in which
numpy sums a row of the batch's trials, so the float sums of
``run_monte_carlo``, added along that tree, are the bits of one
whole-batch sum; a summed block holds 128 trials at the least, numpy's
leaf, whatever the lattice.  Decoding counts are integers and do not
depend on the cut, so a decode block holds down to one trial and its noise
stays within the budget on any lattice that one trial's noise fits.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import pam
from ._table import write_lattice_csv
from .mse import (
    BoundaryCondition,
    ExponentialRefinementBoundary,
    MseGrid,
    PacketStreamBoundary,
    SequenceBoundary,
    SingleSampleBoundary,
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

def trial_generator(master_seed: int, trial_index: int) -> np.random.Generator:
    """Counter-based stream for one trial, keyed by (master_seed, trial)."""
    # imported on first use: numpy.random adds about 23 ms to the import of
    # every command, and the analytic ones draw nothing
    from numpy.random import Generator, Philox

    key = np.array([master_seed, trial_index], dtype=np.uint64)
    return Generator(Philox(key=key))


def draw_noise(gen: np.random.Generator, kind: str, shape,
               out: np.ndarray | None = None) -> np.ndarray:
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


def _uniform(words: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Uniform draws on [lo, hi), one per raw 64-bit Philox word.

    ``Generator.uniform(lo, hi)`` computes ``lo + (hi - lo) * u`` with u the
    top 53 bits of the next word times 2**-53, so this is that value, word
    for word.
    """
    return lo + (hi - lo) * ((words >> np.uint64(11)) * 2.0**-53)


def _bits(words: np.ndarray, n: int) -> np.ndarray:
    """(n, B) int8 bits from (k, B) raw words; column b is trial b's ``integers(0, 2, size=n)``.

    ``integers(0, 2)`` is Lemire's method on [0, 2), which never rejects:
    bit j is the top bit of the stream's 32-bit output j, and each 64-bit
    Philox word supplies two of them, low half first.
    """
    halves = words[:, None] >> np.array([[31], [63]], dtype=np.uint64) & np.uint64(1)
    return halves.reshape(-1, words.shape[1])[:n].astype(np.int8)


# Trials whose r-major noise is drawn before one transposed copy into the
# trial-contiguous batch array; about 1 MB on the criterion-8 lattice.  On a
# bigger lattice the chunk holds at most _CHUNK_BYTES of noise, and one trial
# at the least.
_NOISE_CHUNK = 128
_CHUNK_BYTES = 2 << 20


def _draw_inputs(source, noise_kind, master_seed, start, out, chunk,
                 n_dither=0, dither_half=0.0):
    """Source draws and (n_dither, B) dither of the trials from ``start`` on.

    Trial i reads ``Philox(key=(master_seed, i))`` from counter 0: the
    source's ``halves(t_max)`` 32-bit halves as raw words, then its hop
    noise in r-major (r_max, T) order, then ``n_dither`` dither words.
    Resetting the state of one generator gives the same numbers as a fresh
    ``trial_generator`` per trial.  An odd last half is read by
    ``integers``, which leaves the word's high half buffered for the
    noise, as ``integers(0, 2)`` does.  The source turns the (k, B) words
    into its draws in one call.

    The noise is staged in ``chunk``, a (c, r_max, T) array, and copied c
    trials at a time into ``out``, a C-contiguous (r_max, T, B) array whose
    shape sets the trial count B and the horizon T = t_max + 1.
    """
    r_max, T, count = out.shape
    n_words, odd = divmod(source.halves(T - 1), 2)
    words = np.empty((n_words + odd, count), dtype=np.uint64)
    dither = np.empty((n_dither, count), dtype=np.uint64)
    gen = trial_generator(master_seed, start)
    bitgen = gen.bit_generator
    # The state setter reads counter, key and buffer item by item; Python
    # ints make that cheap, where uint64 arrays make a numpy scalar per item.
    fresh = bitgen.state
    fresh["buffer"] = fresh["buffer"].tolist()
    state = fresh["state"]
    state["counter"] = state["counter"].tolist()
    key = state["key"] = state["key"].tolist()
    for lo in range(0, count, len(chunk)):
        n = min(len(chunk), count - lo)
        for i in range(lo, lo + n):
            key[1] = start + i
            bitgen.state = fresh
            words[:n_words, i] = bitgen.random_raw(n_words)
            if odd:
                words[n_words, i] = gen.integers(0, 2**32, dtype=np.uint32)
            draw_noise(gen, noise_kind, (r_max, T), chunk[i - lo])
            if n_dither:
                dither[:, i] = bitgen.random_raw(n_dither)
        out[..., lo : lo + n] = np.moveaxis(chunk[:n], 0, -1)
    src = source.draw_batch(words, T - 1)
    return src, _uniform(dither, -dither_half, dither_half) if n_dither else None


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: explicit argument, else CASCADE_IV_THREADS, else 1.

    A CASCADE_IV_THREADS that is not an integer raises ValueError naming it.
    """
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("CASCADE_IV_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"CASCADE_IV_THREADS must be an integer, got {env!r}") from None
    return 1


# ---------------------------------------------------------------------------
# Source processes
# ---------------------------------------------------------------------------
#
# A source reads ``halves(t_max)`` 32-bit halves from the head of each
# trial's stream: two per uniform draw and one per packet bit.
# ``draw_batch(words, t_max)`` maps the (ceil(halves / 2), B) uint64 raw
# words of B trials to their SourceBatch; a last odd half is the low half
# of its word.

@dataclass(frozen=True)
class SourceBatch:
    """Per-batch source draws: target values, node-0 estimates, optional bits."""

    s: np.ndarray          # (B,)
    shat0: np.ndarray      # (t_max+1, B), possibly a read-only broadcast of s
    bits: np.ndarray | None = None  # (depth, B) for packet sources


@dataclass(frozen=True)
class KnownSampleSource:
    """Source revealed fully at t = 0; value None draws uniform on [-sqrt3, sqrt3)."""

    value: float | None = None

    def boundary(self) -> BoundaryCondition:
        return SingleSampleBoundary()

    def halves(self, t_max: int) -> int:
        return 2 if self.value is None else 0

    def draw_batch(self, words, t_max: int) -> SourceBatch:
        if self.value is None:
            s = _uniform(words[0], -pam.SQRT3, pam.SQRT3)
        else:
            s = np.full(words.shape[1], float(self.value))
        return SourceBatch(s=s, shat0=np.broadcast_to(s, (t_max + 1, len(s))))


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


def _draw_quantized(words, plans, t_max: int) -> SourceBatch:
    """Nested-quantizer refinement of a uniform source, one plan per time step."""
    s = _uniform(words[0], -pam.SQRT3, pam.SQRT3)
    lo = np.full(s.shape, -pam.SQRT3)
    width = np.full(s.shape, 2.0 * pam.SQRT3)
    shat0 = np.empty((t_max + 1, len(s)))
    for t in range(t_max + 1):
        for rho in plans[t]:
            cut = lo + rho * width
            right = s >= cut
            lo = np.where(right, cut, lo)
            width = np.where(right, (1.0 - rho) * width, rho * width)
        shat0[t] = lo + 0.5 * width
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

    def __post_init__(self) -> None:
        self.boundary()  # reuse its validation
        # the split plan inverts the per-step factor, which must be a normal double
        if math.exp(-2.0 * self.rate_nats) < sys.float_info.min:
            raise ValueError(
                f"rate_nats = {self.rate_nats!r} is too high for a refinement source: "
                "its per-step MSE factor exp(-2R) is below the smallest normal double"
            )

    def boundary(self) -> BoundaryCondition:
        return ExponentialRefinementBoundary(self.rate_nats)

    def halves(self, t_max: int) -> int:
        return 2

    def draw_batch(self, words, t_max: int) -> SourceBatch:
        plan = _refinement_split_plan(self.rate_nats)
        return _draw_quantized(words, [plan] * (t_max + 1), t_max)


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

    def halves(self, t_max: int) -> int:
        return 2

    def draw_batch(self, words, t_max: int) -> SourceBatch:
        if len(self.mse_profile) < t_max + 1:
            raise ValueError(
                f"profile of length {len(self.mse_profile)} too short for t_max={t_max}"
            )
        prev = 1.0
        plans = []
        for m in self.mse_profile[: t_max + 1]:
            plans.append(_split_rounds_for_factor(m / prev))
            prev = m
        return _draw_quantized(words, plans, t_max)


# Bits of a packet-stream source beyond its deepest staircase prefix.
_GUARD_BITS = 24


@dataclass(frozen=True)
class PacketStreamSource:
    """I.i.d. uniform bit packets mapped to nested PAM prefixes.

    The packet arriving at t = tau*T enters the transmitter estimate at that
    instant: Shat_0(t) is the PAM point of the first psi*(floor(t/T)+1) bits.
    The virtual source is the deep expansion of ``depth`` bits: the
    staircase depth plus a guard band of ``_GUARD_BITS``, beyond float64
    resolution of the decoded prefixes.
    """

    packet_bits: int
    period: int

    def boundary(self) -> BoundaryCondition:
        return PacketStreamBoundary(self.packet_bits, self.period)

    def depth(self, t_max: int) -> int:
        return self.packet_bits * (t_max // self.period + 1) + _GUARD_BITS

    def halves(self, t_max: int) -> int:
        return self.depth(t_max)

    def draw_batch(self, words, t_max: int) -> SourceBatch:
        depth = self.depth(t_max)
        bits = _bits(words, depth)
        w = pam.SQRT3 * np.exp2(-(np.arange(depth) + 1.0))
        csum = np.cumsum((1.0 - 2.0 * bits) * w[:, None], axis=0)
        s = csum[-1].copy()
        t = np.arange(t_max + 1)
        shat0 = csum[self.packet_bits * (t // self.period + 1) - 1]
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

    def halves(self, t_max: int) -> int:
        return self.packet_bits

    def draw_batch(self, words, t_max: int) -> SourceBatch:
        bits = _bits(words, self.packet_bits)
        w = pam.SQRT3 * np.exp2(-(np.arange(self.packet_bits) + 1.0))
        # Each trial's psi terms are summed as one contiguous row, the order
        # the pinned bytes were recorded in: numpy sums a row of 8 or more
        # values in 8 lanes, which a sum down the trial-last columns does not.
        s = ((1.0 - 2.0 * np.ascontiguousarray(bits.T)) * w).sum(axis=1)
        return SourceBatch(s=s, shat0=np.broadcast_to(s, (t_max + 1, len(s))), bits=bits)


# ---------------------------------------------------------------------------
# Gains
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GainTable:
    """Precomputed beta/gamma per hop and time, with silent-hop markers.

    ``beta[r, t]`` scales the transmission on hop r (node r toward node r+1)
    and ``gamma[r, t]`` the innovation at node r >= 1 (row 0 unused).  A
    silent cell has beta and gamma exactly +0.0, so it transmits nothing and
    leaves its receiver's estimate bit for bit; the engine relies on that
    and runs silent hops through its one step.  Any cell whose expected input
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


def precompute_gains(grid: MseGrid) -> GainTable:
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
    silent = diff <= EPS_DEGENERATE
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

def _diagonal(a: np.ndarray, d: int, lo: int, hi: int) -> np.ndarray:
    """``a[n, d - n]`` for n = lo..hi-1, an anti-diagonal of the first two axes.

    Every ``d - n`` must lie in ``[0, a.shape[1])``.  The cells are one
    strided slice of the rows of ``a``, so for a C-contiguous ``a`` the
    result is a view, through which writes reach ``a``.
    """
    width = a.shape[1]
    rows = a.reshape((-1,) + a.shape[2:])
    if hi <= lo:
        return rows[:0]
    step = max(width - 1, 1)  # at width 1 a diagonal holds one cell
    start = lo * width + d - lo
    return rows[start : start + (hi - lo - 1) * step + 1 : step]


def _wavefront(gains: GainTable):
    """The anti-diagonals e = n + t of the (r_max+1, T) lattice, in order.

    Each entry is ``(e, lo, hi, p, beta, gamma)``: rows lo..hi-1 hold the
    diagonal's cells (n, e - n), and receiving nodes p..hi-1, p = max(lo, 1),
    take hops p-1..hi-2 (hop n-1 at time e - n) with the (k, 1) gain columns
    ``beta`` and ``gamma``.  A silent hop's gains are +0.0 and ride along.
    """
    T = gains.t_max + 1
    plan = []
    for e in range(gains.r_max + T):
        lo, hi = max(0, e - T + 1), min(gains.r_max, e) + 1
        p = max(lo, 1)
        plan.append((e, lo, hi, p, _diagonal(gains.beta, e - 1, p - 1, hi - 1)[:, None],
                     _diagonal(gains.gamma, e, p, hi)[:, None]))
    return plan


def _sweep(plan, shat0: np.ndarray, z: np.ndarray, on_diagonal, first_trial: int) -> None:
    """Run the lattice recursion for a batch, in place on one (r_max+1, B) state.

    ``plan`` is the gain table's ``_wavefront``, ``shat0`` the (T, B)
    node-0 estimate and ``z`` the (r_max, T, B) hop noise.  Cell (n, t)
    reads only (n-1, t) and (n, t-1), so the cells of one anti-diagonal
    e = n + t depend only on the diagonal before it: a wavefront step
    updates all of them at once, with one numpy call per stage on one
    (k, B) slab, each node reading its hop noise z[n-1, e-n] through a
    strided view.  Row n of the state holds Shat_n(e - n - 1) before the
    step and Shat_n(e - n) after it; node 0 is set to ``shat0[e]`` after
    the update, which reads its previous value.

    A silent hop runs the same step on its +0.0 gains and adds +0.0 or
    -0.0 to its receiver.  That leaves the receiver's bits, because a
    receiver's estimate is never -0.0: it starts at +0.0, and a sum is -0.0
    only when both terms are.

    After step e, ``on_diagonal(e, lo, hi, est)`` sees the state, whose rows
    lo..hi-1 are the diagonal's cells.
    """
    r_max, T, count = z.shape
    est = np.zeros((r_max + 1, count))
    x = np.empty((r_max, count))
    for e, lo, hi, p, beta, gamma in plan:
        step = x[p - 1 : hi - 1]
        # an inf state makes transient nan arithmetic before the finite-state
        # guard below raises; keep that path quiet
        with np.errstate(invalid="ignore"):
            np.subtract(est[p - 1 : hi - 1], est[p:hi], out=step)
            step *= beta
            step += _diagonal(z, e - 1, p - 1, hi - 1)
            step *= gamma
            est[p:hi] += step
        if lo == 0:
            est[0] = shat0[e]
        finite = np.isfinite(est[lo:hi])
        if not finite.all():
            bad_r = lo + int(np.argwhere(~finite)[0, 0])
            raise FloatingPointError(
                f"non-finite estimate at node r={bad_r}, t={e - bad_r} "
                f"(trials {first_trial}..{first_trial + count - 1})"
            )
        on_diagonal(e, lo, hi, est)


def probe_pairs(T: int) -> list[tuple[int, int]]:
    """The output pairs (t, u) ``run_monte_carlo`` probes, in column order.

    Lag-1 pairs (t, t+1) come first, then origin pairs (0, t) for t >= 2:
    ``max(2T - 3, 0)`` pairs over T time steps.
    """
    return [(t, t + 1) for t in range(T - 1)] + [(0, t) for t in range(2, T)]


class _Moments:
    """Per-diagonal observer of ``_sweep`` accumulating the Monte Carlo partial sums.

    Each quantity is reduced over the trials row by row on the diagonal's
    cells and scattered into its (node, time) array, so every cell's sum is
    the same pairwise sum over the same values as in a time-major pass.
    ``prev`` is the state before the diagonal.  From it the hop inputs
    x = beta (prev[r] - prev[r+1]) and outputs y = x + z are formed again,
    the sweep's own operands in its own order, so they are its bits; the
    per-hop identity reads it as well.  The output probes keep only y(0)
    and y(t-1) per hop: hop r at time t adds the products of y(t) with
    each, the two pairs of ``probe_pairs`` that end at t.
    """

    def __init__(self, gains: GainTable, s: np.ndarray, z: np.ndarray):
        r_max, T, count = z.shape
        self.gains, self.s, self.z = gains, s, z
        self.prev = np.zeros((r_max + 1, count))
        self.x = np.empty((r_max, count))
        self.y = np.empty((r_max, count))
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

    def join(self, other: "_Moments") -> "_Moments":
        """Add in the sums of ``other``, whose trials follow these."""
        for key, value in other.sums.items():
            mine = self.sums[key]
            self.sums[key] = max(mine, value) if key == "identity_max" else mine + value
        return self

    def _scatter(self, key: str, d: int, lo: int, hi: int, values: np.ndarray) -> None:
        """Per-row sums of ``values`` into cells (n, d - n), n = lo..hi-1, of ``sums[key]``."""
        _diagonal(self.sums[key], d, lo, hi)[...] = values.sum(axis=1)

    def _add_pair(self, d: int, lo: int, hi: int, y: np.ndarray, other: np.ndarray) -> None:
        prod = y * other
        self._scatter("yy_sum", d, lo, hi, prod)
        prod *= prod
        self._scatter("y2y2_sum", d, lo, hi, prod)

    def __call__(self, e, lo, hi, est) -> None:
        s, prev = self.s, self.prev
        r_max, T = self.z.shape[:2]
        err = s - est[lo:hi]
        sq = err * err
        self._scatter("err_sum", e, lo, hi, err)
        self._scatter("sq_sum", e, lo, hi, sq)
        self._scatter("sq2_sum", e, lo, hi, sq * sq)
        # lemma 8 on nodes 1..r_max-1: Shat_{n+1}(t-1) is row n+1 of this diagonal
        n0, n1 = max(lo, 1), min(hi, r_max)
        if n0 < n1:
            d = err[n0 - lo : n1 - lo] * (s - est[n0 + 1 : n1 + 1]) - sq[n0 - lo : n1 - lo]
            self._scatter("d_sum", e, n0, n1, d)
            self._scatter("d2_sum", e, n0, n1, d * d)
        h0, h1 = n0 - 1, hi - 1  # hop r, from node r to r+1, at time e-1-r
        if h0 < h1:
            xs, ys, zs = self.x[h0:h1], self.y[h0:h1], _diagonal(self.z, e - 1, h0, h1)
            np.subtract(prev[h0:h1], prev[h0 + 1 : h1 + 1], out=xs)
            xs *= _diagonal(self.gains.beta, e - 1, h0, h1)[:, None]
            np.add(xs, zs, out=ys)
            x2 = xs * xs
            self._scatter("pow_sum", e - 1, h0, h1, x2)
            self._scatter("pow2_sum", e - 1, h0, h1, x2 * x2)
            # per-hop identity:
            # Shat_{r+1}(t) = pbar Shat_r(t) + (1-pbar) Shat_{r+1}(t-1) + gamma Z
            silent = _diagonal(self.gains.silent, e - 1, h0, h1)
            quiet = np.count_nonzero(silent)
            if quiet < h1 - h0:
                channel = self.gains.channel
                rows = ~silent if quiet else slice(None)  # a slice copies nothing
                resid = est[h0 + 1 : h1 + 1][rows] - (
                    channel.snr_bar * prev[h0:h1][rows]
                    + channel.qbar * prev[h0 + 1 : h1 + 1][rows]
                    + _diagonal(self.gains.gamma, e, h0 + 1, h1 + 1)[rows, None] * zs[rows]
                )
                self.sums["identity_max"] = max(self.sums["identity_max"],
                                                float(np.abs(resid).max()))
            self._scatter("y_sum", e - 1, h0, h1, ys)
            lag = min(h1, e - 1)  # hops at t >= 1 close the pair (t-1, t), column t-1
            if h0 < lag:
                self._add_pair(e - 2, h0, lag, ys[: lag - h0], self.y_prev[h0:lag])
            origin = min(h1, e - 2)  # hops at t >= 2 close (0, t), column T+t-3
            if h0 < origin:
                self._add_pair(T + e - 4, h0, origin, ys[: origin - h0], self.y0[h0:origin])
            if h1 == e:  # hop e-1 is at t = 0
                self.y0[e - 1] = self.y[e - 1]
            # the next diagonal's hops at t >= 1 are rows of this one's
            self.y, self.y_prev = self.y_prev, self.y
        prev[lo:hi] = est[lo:hi]


# Noise bytes of one block, about 2k trials on the criterion-8 lattice.  A
# summed block may exceed it only at numpy's leaf of 128 values, summed in
# one pass; a decode block only when one trial does.
_BLOCK_BUDGET = 16 << 20
_PAIRWISE_LEAF = 128


def _run_blocks(gains: GainTable, source, noise_kind: str, master_seed: int,
                start_trial: int, count: int, leaf, join=None,
                n_dither: int = 0, dither_half: float = 0.0):
    """Draw and sweep ``count`` trials in blocks cut by ``_pairwise``.

    Each block is drawn into one noise buffer, sized to the largest block,
    through one staging chunk; ``leaf(trials, src, z, dither)``, given its
    slice of the batch, returns its ``_sweep`` observer.  Summed runs
    (``join`` given) cut no block below numpy's leaf; decoding counts do
    not depend on the cut, so decode runs cut down to one trial.
    """
    r_max, T = gains.r_max, gains.t_max + 1
    trial_bytes = 8 * r_max * T
    size = max(_BLOCK_BUDGET // trial_bytes, _PAIRWISE_LEAF if join else 1)
    largest = _pairwise(lambda first, n: n, max, size, 0, count)
    noise = np.empty(r_max * T * largest)
    staged = max(min(_NOISE_CHUNK, largest, _CHUNK_BYTES // trial_bytes), 1)
    chunk = np.empty((staged, r_max, T))
    plan = _wavefront(gains)

    def block(first, n):
        z = noise[: r_max * T * n].reshape(r_max, T, n)
        src, dither = _draw_inputs(source, noise_kind, master_seed, start_trial + first, z,
                                   chunk, n_dither, dither_half)
        observer = leaf(slice(first, first + n), src, z, dither)
        _sweep(plan, src.shat0, z, observer, start_trial + first)
        return observer

    return _pairwise(block, join, size, 0, count)


def _pairwise(block, join, size, first, n):
    """``block(first, n)``, or, above ``size``, the halves where numpy's pairwise
    sum splits a row of n values, cut again and joined by ``join`` (None without).
    Below 16 values, which only a decode run cuts, numpy splits no row and
    the halves are n // 2 and the rest.

    This is not nested in ``_run_blocks``: a closure that calls itself is a
    reference cycle, which would hold the noise buffer until gc collects it.
    """
    if n <= size:
        return block(first, n)
    half = n // 2 - n // 2 % 8 or n // 2
    left = _pairwise(block, join, size, first, half)
    right = _pairwise(block, join, size, first + half, n - half)
    return join(left, right) if join else None


def _simulate_batch(gains: GainTable, source, noise_kind: str, master_seed: int,
                    start_trial: int, count: int) -> dict:
    """Run ``count`` trials and return partial sums (see run_monte_carlo)."""
    return _run_blocks(gains, source, noise_kind, master_seed, start_trial, count,
                       lambda trials, src, z, dither: _Moments(gains, src.s, z),
                       _Moments.join).sums


def _compensated_sum(parts) -> np.ndarray:
    """Neumaier's compensated sum of equally shaped float arrays, in list order."""
    total = np.array(parts[0], dtype=float)
    comp = np.zeros_like(total)
    for x in parts[1:]:
        new = total + x
        comp += np.where(np.abs(total) >= np.abs(x), (total - new) + x, (x - new) + total)
        total = new
    return total + comp


def _batch_ranges(num_trials: int, batch_size: int):
    """``(start, count)`` of each batch of ``batch_size`` trials; the last may be short."""
    if num_trials < 1:
        raise ValueError("num_trials must be >= 1")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    return [
        (start, min(batch_size, num_trials - start))
        for start in range(0, num_trials, batch_size)
    ]


def _run_batches(worker, args: tuple, num_trials: int, batch_size: int, threads) -> list:
    """``worker(*args, start, count)`` for each batch of ``_batch_ranges``, in batch order.

    The trials 0..num_trials-1 are cut into batches of ``batch_size`` (the
    last may be short), and ``threads`` is read by ``resolve_threads``; a
    bad argument raises ValueError before any batch runs.

    With ``w = min(threads, len(ranges))`` above 1 on Linux, the caller is
    one of the w workers: batches 0, w, 2w, ... run here, and the others in
    a pool of w - 1 processes forked for this call and joined before it
    returns, so they run free of the interpreter lock; the worker and
    ``args`` are pickled to them.  Every child batch is submitted before
    the caller starts its own, so the children are forked before the caller
    allocates a batch.  Each process holds one batch at a time, as a pool of
    w would.  Otherwise, including on every other platform, the batches run
    in this process one after another.  An exception in a batch reaches the
    caller with its type and message; when several batches fail, the one
    with the lowest index is raised.

    ``fork`` starts a worker without importing numpy again, which ``spawn``
    would pay per worker on every call.  The package starts no threads of
    its own; a caller that runs other threads should pass ``threads=1``,
    since forking a process with threads is unsafe.
    """
    ranges = _batch_ranges(num_trials, batch_size)
    workers = min(resolve_threads(threads), len(ranges))
    if workers <= 1 or not sys.platform.startswith("linux"):
        return [worker(*args, *batch) for batch in ranges]
    # imported on first use: together they add about 15 ms to every import
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers - 1,
                             mp_context=multiprocessing.get_context("fork")) as pool:
        try:
            futures = {k: pool.submit(worker, *args, *batch)
                       for k, batch in enumerate(ranges) if k % workers}
            own, error = {}, None
            for k in range(0, len(ranges), workers):
                try:
                    own[k] = worker(*args, *ranges[k])
                except Exception as exc:
                    error = exc
                    break
            results = []
            for k in range(len(ranges)):
                if k % workers:
                    results.append(futures[k].result())
                elif k in own:
                    results.append(own[k])
                else:  # the caller's first failed batch; every lower one succeeded
                    raise error
            return results
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


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
    any thread count.  Memory holds one block of noise per worker.
    """
    results = _run_batches(_simulate_batch, (gains, source, noise_kind, master_seed),
                           num_trials, batch_size, threads)
    n = sum(res.pop("n") for res in results)
    identity_max = max(res.pop("identity_max") for res in results)
    acc = {key: _compensated_sum([res[key] for res in results]) for key in results[0]}

    mse_mean = acc["sq_sum"] / n
    mse_var = np.maximum(acc["sq2_sum"] / n - mse_mean**2, 0.0)
    power_mean = acc["pow_sum"] / n
    power_var = np.maximum(acc["pow2_sum"] / n - power_mean**2, 0.0)
    y_mean = acc["y_sum"] / n
    yy = acc["yy_sum"] / n
    t, u = np.array(probe_pairs(gains.t_max + 1), dtype=int).reshape(-1, 2).T
    prod_var = np.maximum(acc["y2y2_sum"] / n - yy**2, 0.0)
    d_mean = acc["d_sum"] / n
    d_var = np.maximum(acc["d2_sum"] / n - d_mean**2, 0.0)
    return MonteCarloAggregate(
        channel=gains.channel,
        r_max=gains.r_max,
        t_max=gains.t_max,
        n_trials=n,
        mse_mean=mse_mean,
        mse_stderr=np.sqrt(mse_var / n),
        err_mean=acc["err_sum"] / n,
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


def run_trial(gains: GainTable, source, noise_kind: str, master_seed: int,
              trial_index: int = 0) -> TrialResult:
    """Run trial ``trial_index`` alone, keeping every estimate, channel input and output.

    The trial reads its own stream (master_seed, trial_index), so its values
    are those it has in any Monte Carlo run of the same gains and source.
    Its channel inputs and outputs are formed from its estimates with the
    sweep's own operations, so they are the sweep's bits.
    """
    r_max, T = gains.r_max, gains.t_max + 1
    est = np.empty((r_max + 1, T))
    inputs = []

    def record(e, lo, hi, state):
        _diagonal(est, e, lo, hi)[...] = state[lo:hi, 0]

    def leaf(trials, src, z, dither):
        inputs.extend((src, z[..., 0]))
        return record

    _run_blocks(gains, source, noise_kind, master_seed, trial_index, 1, leaf)
    src, z = inputs
    s = float(src.s[0])
    # hop r at time t sends beta (Shat_r(t) - Shat_{r+1}(t-1)), Shat_{r+1}(-1) = 0;
    # + 0.0 turns the -0.0 of a silent hop with a negative difference into +0.0
    x = (est[:-1] - np.pad(est[1:, :-1], ((0, 0), (1, 0)))) * gains.beta + 0.0
    y = x + z
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
    return run_trial(gains, KnownSampleSource(value=1.0), "zero", 0, 0).estimates


# ---------------------------------------------------------------------------
# Decoding Monte Carlo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecodeSpec:
    """What to decode at each captured cell.

    kind "stream": slice the full prefix of psi = packet_bits bits per packet,
    psi*(floor(t/period)+1) bits at time t, and tally each packet at its
    own delay.  kind "packet": the stream decode at period t_max + 1, so
    every cell slices the one packet of packet_bits bits.  kind
    "packet_dithered": the packet decode at psi = ``decode_bits_n``, by the
    dithered slicer with one alpha per capture cell and, alongside, by the
    plain slicer.  A bad field raises ValueError naming it.
    """

    kind: str
    packet_bits: int
    period: int = 1
    decode_bits_n: int | None = None
    alphas: np.ndarray | None = None  # per capture cell, for dithered decoding

    def __post_init__(self) -> None:
        kinds = ("packet", "stream", "packet_dithered")
        if self.kind not in kinds:
            raise ValueError(f"kind must be one of {kinds}, got {self.kind!r}")
        if self.packet_bits < 1:
            raise ValueError(f"packet_bits must be >= 1, got {self.packet_bits!r}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period!r}")
        if self.kind == "packet_dithered":
            if self.decode_bits_n is None or self.decode_bits_n < 1:
                raise ValueError(
                    f"decode_bits_n must be >= 1 for dithered decoding, got {self.decode_bits_n!r}"
                )
            if self.alphas is None:
                raise ValueError("alphas are required for dithered decoding")


def _slicing(decode: DecodeSpec, t_max: int) -> tuple[int, int]:
    """(psi, period) of ``decode`` on a lattice to ``t_max``: cell (r, t) slices
    psi * (t // period + 1) bits."""
    psi = decode.decode_bits_n if decode.kind == "packet_dithered" else decode.packet_bits
    return psi, decode.period if decode.kind == "stream" else t_max + 1


def _decode_batch(gains: GainTable, source, noise_kind: str, master_seed: int, cells,
                  decode: DecodeSpec, start_trial: int, count: int):
    """Capture and decode ``count`` trials into (primary, slicer) error stats.

    The trials run block by block, keeping only the estimates at ``cells``,
    the source bits and the dither; every trial reads its own stream, so
    the counts do not depend on the block size.  See
    ``run_decoding_monte_carlo``; the slicer stats are None unless the
    decoding is dithered.
    """
    dithered = decode.kind == "packet_dithered"
    psi, period = _slicing(decode, gains.t_max)
    n_dither = len(cells) if dithered else 0
    dither_half = 0.5 * pam.min_distance(decode.packet_bits) if dithered else 0.0
    captures = np.empty((len(cells), count))
    dither = np.empty((n_dither, count))
    bits = None
    by_e: dict[int, list[tuple[int, int]]] = {}
    for idx, (r, t) in enumerate(cells):
        by_e.setdefault(r + t, []).append((idx, r))

    def leaf(trials, src, z, block_dither):
        nonlocal bits
        if bits is None:
            bits = np.empty((len(src.bits), count), dtype=src.bits.dtype)
        bits[:, trials] = src.bits
        if n_dither:
            dither[:, trials] = block_dither

        def capture(e, lo, hi, est):
            for idx, r in by_e.get(e, ()):
                captures[idx, trials] = est[r]

        return capture

    _run_blocks(gains, source, noise_kind, master_seed, start_trial, count, leaf,
                n_dither=n_dither, dither_half=dither_half)
    primary = pam.ErrorStats()
    secondary = pam.ErrorStats() if dithered else None
    for idx, (r, t) in enumerate(cells):
        n = psi * (t // period + 1)
        truth = bits[:n]
        decoded = pam.decode_bits(captures[idx], n)
        if secondary is not None:  # the plain slicer, then the dithered one
            pam.tally_errors(secondary, decoded, truth, r, t, psi, period)
            decoded = pam.dithered_decode(captures[idx], decode.alphas[idx], n, dither[idx])
        pam.tally_errors(primary, decoded, truth, r, t, psi, period)
    return primary, secondary


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
    comparison.  Trial i always uses the stream (master_seed, i), and a
    batch is swept in blocks of a fixed noise budget, so the counts do not
    depend on ``batch_size``, the thread count or the block size.  Memory
    holds one block of noise per worker, plus each batch's captures and bits.
    A source that draws fewer bits than the deepest cell decodes raises
    ValueError before any trial runs.
    """
    cells = list(capture_cells)
    for r, t in cells:
        if not (0 <= r <= gains.r_max and 0 <= t <= gains.t_max):
            raise ValueError(f"capture cell {(r, t)} outside lattice")
    psi, period = _slicing(decode, gains.t_max)
    need = max((psi * (t // period + 1) for _, t in cells), default=0)
    # the source's bits, from one trial of all-zero words: no noise is drawn
    zeros = np.zeros((-(-source.halves(gains.t_max) // 2), 1), dtype=np.uint64)
    bits = source.draw_batch(zeros, gains.t_max).bits
    if bits is None or len(bits) < need:
        raise ValueError(f"{source!r} draws {0 if bits is None else len(bits)} bits per trial, "
                         f"but the deepest capture cell decodes {need}")
    if decode.alphas is not None and np.shape(decode.alphas) != (len(cells),):
        raise ValueError(f"alphas must hold one entry per capture cell ({len(cells)}), "
                         f"got shape {np.shape(decode.alphas)}")
    results = _run_batches(_decode_batch, (gains, source, noise_kind, master_seed, cells, decode),
                           num_trials, batch_size, threads)
    primary = pam.ErrorStats()
    secondary = pam.ErrorStats() if decode.kind == "packet_dithered" else None
    for p, s in results:
        primary.merge(p)
        if secondary is not None:
            secondary.merge(s)
    return primary, secondary
