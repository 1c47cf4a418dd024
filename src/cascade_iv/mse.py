"""Exact LMMSE lattice M_r(t) over relay index r and time t.

The lattice obeys the two-term recursion

    M_r(t) = snr_bar * M_{r-1}(t) + (1 - snr_bar) * M_r(t-1),   r >= 1, t >= 0

with initial condition M_r(-1) = 1 for every r and a pluggable boundary row
M_0(t).  Three boundaries are supported:

* ``SingleSampleBoundary``            M_0(t) = 0 (source known upfront)
* ``ExponentialRefinementBoundary``   M_0(t) = exp(-2 R (t+1))
* ``PacketStreamBoundary``            M_0(t) = 2^(-2 psi (floor(t/T) + 1))

The packet staircase incorporates the packet arriving at t = tau*T
immediately, so it sits on or below the exponential-refinement profile with
equality at the end of each period.

``solve_grid`` evaluates the recursion as an anti-diagonal wavefront in
plain numpy: cells with equal r + t depend only on the previous diagonal, so
the whole lattice takes r_max + t_max vector steps.  Each cell is computed as
``(1 - snr_bar) * left + snr_bar * up``, the arithmetic of a first-order IIR
filter run along each row.

Closed forms are evaluated in the log domain because the binomial factors
overflow float64 long before r = t = 200.  Log-binomials at integer
arguments index one table of ln k!, built as a Neumaier-compensated running
sum of ln k (within one ulp of the exact value for k <= 4000), and sums of
exponentials go through ``np.logaddexp``.  Linear wrappers may underflow to
0.0; callers comparing values below ~1e-300 should use the ``log_*``
variants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .params import ChannelParams, HopConvention, Velocity

__all__ = [
    "DEFAULT_CELL_CAP",
    "UNDERFLOW_LINEAR",
    "GridSizeError",
    "SingleSampleBoundary",
    "ExponentialRefinementBoundary",
    "PacketStreamBoundary",
    "SequenceBoundary",
    "BoundaryCondition",
    "MseGrid",
    "solve_grid",
    "log_closed_form_single",
    "closed_form_single",
    "log_closed_form_streaming",
    "closed_form_streaming",
    "log_closed_form_single_grid",
    "log_closed_form_streaming_grid",
    "mse_at_velocity",
    "velocity_time_index",
    "write_lattice_csv",
    "write_grid_csv",
]

DEFAULT_CELL_CAP = 50_000_000

# Linear values below this are meaningless in float64; compare logs instead.
UNDERFLOW_LINEAR = 1e-300

# Rows per block of ``write_lattice_csv``; a block's temporaries stay near 2 MB.
_CSV_BLOCK_ROWS = 4096

# Decimal exponents of the finite nonzero doubles, 5e-324 .. 1.8e308.
_K_MIN, _K_MAX = -324, 308
# Bytes of one formatted value: the sign, a body of at most 22 bytes ("0.000"
# and 17 digits) and an exponent of at most 5 ("e-308").
_G17_BODY = 22
_G17_WIDTH = 1 + _G17_BODY + 5


class GridSizeError(ValueError):
    """Requested grid exceeds the configured cell-count cap."""


@dataclass(frozen=True)
class SingleSampleBoundary:
    """Source known perfectly at the transmitter from t = 0 on."""

    kind = "single_sample"

    def profile(self, t_max: int) -> np.ndarray:
        return np.zeros(t_max + 1)


@dataclass(frozen=True)
class ExponentialRefinementBoundary:
    """Transmitter-side MSE exp(-2 R (t+1)), the fixed-rate refinement idealization."""

    rate_nats: float
    kind = "exponential_refinement"

    def __post_init__(self) -> None:
        if not math.isfinite(self.rate_nats) or self.rate_nats <= 0.0:
            raise ValueError(f"rate_nats must be positive, got {self.rate_nats!r}")

    def profile(self, t_max: int) -> np.ndarray:
        t = np.arange(t_max + 1)
        return np.exp(-2.0 * self.rate_nats * (t + 1))


@dataclass(frozen=True)
class PacketStreamBoundary:
    """Staircase 2^(-2 psi (floor(t/T)+1)) realized by PAM packet arrivals.

    The packet arriving at t = tau*T enters the transmitter estimate at that
    same instant, so the staircase lies on or below exp(-2 R (t+1)) with
    equality at t = (tau+1)*T - 1.
    """

    packet_bits: int
    period: int
    kind = "packet_stream"

    def __post_init__(self) -> None:
        if self.packet_bits < 1 or self.period < 1:
            raise ValueError("packet_bits and period must be >= 1")

    def profile(self, t_max: int) -> np.ndarray:
        t = np.arange(t_max + 1)
        return np.exp2(-2.0 * self.packet_bits * (t // self.period + 1.0))


@dataclass(frozen=True)
class SequenceBoundary:
    """Explicit boundary row M_0(t), for caller-supplied refinement profiles."""

    values: tuple
    kind = "sequence"

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("boundary sequence must be a non-empty 1-D profile")
        if (vals < 0).any() or (vals > 1).any():
            raise ValueError("boundary values must lie in [0, 1]")
        if (np.diff(vals) > 1e-15).any():
            raise ValueError("boundary profile must be non-increasing in t")

    def profile(self, t_max: int) -> np.ndarray:
        vals = np.asarray(self.values, dtype=float)
        if vals.size < t_max + 1:
            raise ValueError(
                f"boundary profile of length {vals.size} too short for t_max={t_max}"
            )
        return vals[: t_max + 1].copy()


BoundaryCondition = Union[
    SingleSampleBoundary,
    ExponentialRefinementBoundary,
    PacketStreamBoundary,
    SequenceBoundary,
]


@dataclass(frozen=True, eq=False)
class MseGrid:
    """Solved lattice; ``values[r, t+1]`` stores M_r(t) with column 0 holding t = -1."""

    channel: ChannelParams
    boundary: BoundaryCondition
    r_max: int
    t_max: int
    values: np.ndarray = field(repr=False)

    def at(self, r: int, t: int) -> float:
        """M_r(t) for 0 <= r <= r_max and -1 <= t <= t_max."""
        if not (0 <= r <= self.r_max and -1 <= t <= self.t_max):
            raise IndexError(f"cell (r={r}, t={t}) outside solved grid")
        return float(self.values[r, t + 1])


def solve_grid(
    channel: ChannelParams,
    boundary: BoundaryCondition,
    r_max: int,
    t_max: int,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> MseGrid:
    """Solve the lattice by dynamic programming in O(r_max * t_max).

    Anti-diagonal wavefront: every cell of diagonal d = r + t + 1 needs only
    its left and upper neighbours, both on diagonal d - 1.  The previous
    diagonal is kept in a contiguous buffer indexed by r, so each step is
    two contiguous multiplies, one add and one strided write into
    ``values``.  The convex-combination structure keeps every entry inside
    [0, 1]; the result is read-only.
    """
    if r_max < 1 or t_max < 0:
        raise ValueError("need r_max >= 1 and t_max >= 0")
    n_cells = (r_max + 1) * (t_max + 2)
    if n_cells > cell_cap:
        raise GridSizeError(f"grid of {n_cells} cells exceeds cap {cell_cap}")

    pbar = channel.snr_bar
    qbar = 1.0 - pbar
    n_cols = t_max + 2
    values = np.empty((r_max + 1, n_cols))
    values[:, 0] = 1.0  # M_r(-1) = 1
    values[0, 1:] = boundary.profile(t_max)
    flat = values.reshape(-1)
    # diag[r] holds cell (r, d - r) of the last diagonal d, in column
    # coordinates; rows not yet reached keep M_r(-1) = 1.
    diag = np.ones(r_max + 1)
    up = np.empty(r_max)
    for d in range(2, r_max + n_cols):
        if d <= n_cols:
            diag[0] = values[0, d - 1]
        lo, hi = max(1, d - n_cols + 1), min(r_max, d - 1)
        n = hi - lo + 1
        np.multiply(diag[lo - 1 : hi], pbar, out=up[:n])
        cells = diag[lo : hi + 1]
        np.multiply(cells, qbar, out=cells)
        np.add(cells, up[:n], out=cells)
        flat[d + lo * (n_cols - 1) : d + hi * (n_cols - 1) + 1 : n_cols - 1] = cells
    values.setflags(write=False)
    return MseGrid(channel=channel, boundary=boundary, r_max=r_max, t_max=t_max, values=values)


def _log_factorials(n: int) -> np.ndarray:
    """ln k! for k = 0..n, as a Neumaier-compensated running sum of ln k."""
    total = comp = 0.0
    out = [0.0]
    for k in range(1, n + 1):
        x = math.log(k)
        s = total + x
        comp += (total - s) + x if total >= x else (x - s) + total
        total = s
        out.append(total + comp)
    return np.array(out)


def _check_cell(r: int, t: int) -> None:
    if r < 1 or t < 0:
        raise ValueError(f"closed forms require r >= 1 and t >= 0, got (r={r}, t={t})")


def log_closed_form_single(channel: ChannelParams, r: int, t: int) -> float:
    """ln M_r(t) for the single-sample boundary.

    M_r(t) = (1-pbar)^(t+1) * sum_{k=1}^{r} C(t+r-k, r-k) pbar^(r-k).
    """
    _check_cell(r, t)
    pbar = channel.snr_bar
    j = np.arange(r)  # j = r - k
    lf = _log_factorials(t + r - 1)
    terms = lf[t + j] - lf[j] - lf[t] + j * math.log(pbar)
    return (t + 1) * math.log1p(-pbar) + float(np.logaddexp.reduce(terms))


def closed_form_single(channel: ChannelParams, r: int, t: int) -> float:
    """Linear-domain wrapper; may underflow to 0.0 for deep cells."""
    return math.exp(log_closed_form_single(channel, r, t))


def log_closed_form_streaming(
    channel: ChannelParams, rate_nats: float, r: int, t: int
) -> tuple[float, float]:
    """(ln MSE_I, ln MSE_II) for the exponential-refinement boundary.

    MSE_I is the single-sample closed form (effect of the unit initial
    conditions); MSE_II collects the boundary cells M_0(x) = exp(-2R(x+1)),
    each reaching (r, t) through C(r+s-1, s) lattice paths:

        MSE_II = pbar^r * sum_{s=0}^{t} exp(-2R(t-s+1)) C(r+s-1, s) (1-pbar)^s.
    """
    _check_cell(r, t)
    if rate_nats <= 0.0:
        raise ValueError("rate_nats must be positive")
    pbar = channel.snr_bar
    s = np.arange(t + 1)
    lf = _log_factorials(r + t - 1)
    terms = (
        -2.0 * rate_nats * (t - s + 1)
        + lf[r + s - 1]
        - lf[s]
        - lf[r - 1]
        + s * math.log1p(-pbar)
    )
    log_ii = r * math.log(pbar) + float(np.logaddexp.reduce(terms))
    return log_closed_form_single(channel, r, t), log_ii


def closed_form_streaming(
    channel: ChannelParams, rate_nats: float, r: int, t: int
) -> tuple[float, float]:
    log_i, log_ii = log_closed_form_streaming(channel, rate_nats, r, t)
    return math.exp(log_i), math.exp(log_ii)


def log_closed_form_single_grid(
    channel: ChannelParams, r_max: int, t_max: int
) -> np.ndarray:
    """ln M_r(t) for all 1 <= r <= r_max, 0 <= t <= t_max; shape (r_max+1, t_max+1).

    Row 0 is the boundary (-inf since M_0 = 0).  The cumulative log-sum-exp
    over the path-count terms makes the whole grid O(r_max * t_max).
    """
    pbar = channel.snr_bar
    t = np.arange(t_max + 1)[None, :]
    j = np.arange(r_max)[:, None]  # j = r - k
    lf = _log_factorials(t_max + r_max - 1)
    terms = lf[t + j] - lf[j] - lf[t] + j * math.log(pbar)
    cum = np.logaddexp.accumulate(terms, axis=0)
    out = np.full((r_max + 1, t_max + 1), -np.inf)
    out[1:] = (t + 1) * math.log1p(-pbar) + cum
    return out


def log_closed_form_streaming_grid(
    channel: ChannelParams, rate_nats: float, r_max: int, t_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """(ln MSE_I, ln MSE_II) grids, shape (r_max+1, t_max+1); row 0 is the boundary."""
    if rate_nats <= 0.0:
        raise ValueError("rate_nats must be positive")
    pbar = channel.snr_bar
    log_i = log_closed_form_single_grid(channel, r_max, t_max)
    s = np.arange(t_max + 1)[None, :]
    r = np.arange(1, r_max + 1)[:, None]
    # 2Rs absorbs the t-dependence so one accumulation serves every t.
    lf = _log_factorials(r_max + t_max - 1)
    terms = 2.0 * rate_nats * s + lf[r + s - 1] - lf[s] - lf[r - 1] + s * math.log1p(-pbar)
    cum = np.logaddexp.accumulate(terms, axis=1)
    log_ii = np.full((r_max + 1, t_max + 1), -np.inf)
    log_ii[1:] = r * math.log(pbar) - 2.0 * rate_nats * (s + 1) + cum
    log_ii[0] = -2.0 * rate_nats * (np.arange(t_max + 1) + 1)
    return log_i, log_ii


def velocity_time_index(v: Velocity, r: int) -> int:
    """Time index paired with relay r when moving at velocity v.

    Instantaneous convention: t = floor(r / v).  Delayed hops retard node r by
    exactly r steps, so the delayed lattice is the instantaneous one shifted:
    t = floor(r / v) - r, which is the instantaneous index at the translated
    velocity v/(1-v).
    """
    if r < 1:
        raise ValueError("need r >= 1")
    t = math.floor(r / v.value)
    if v.convention is HopConvention.DELAYED:
        t -= r
    return t


def mse_at_velocity(
    source: MseGrid | Callable[[int, int], float], v: Velocity, r: int
) -> float:
    """M_r(t) along the fixed-velocity trajectory t = floor(r / v)."""
    t = velocity_time_index(v, r)
    if isinstance(source, MseGrid):
        if t > source.t_max:
            raise IndexError(
                f"t={t} for (r={r}, v={v.value}) exceeds solved t_max={source.t_max}"
            )
        return source.at(r, max(t, -1))
    return source(r, t)


def _fallback_17g(x: float) -> bytes:
    """``'%.17g' % x``, for the values ``_format_17g`` leaves to Python."""
    return b"%.17g" % x


@functools.lru_cache(maxsize=None)
def _g17_tables():
    """Lookup tables of ``_format_17g``, built on first use.

    * ``hi, lo, exp2`` hold ``10**(16 - k) ~= (hi + lo) * 2**exp2`` for
      ``k = _K_MAX .. _K_MIN`` (index ``_K_MAX - k``), ``hi`` in [0.5, 1).
      The power is rounded to 121 bits in integer arithmetic, so ``hi + lo``
      is within 2**-105 of it, relatively.
    * ``quad[q]`` is the four ASCII digits of ``q`` as one uint32.
    * column ``k - _K_MIN`` of ``expo`` is ``b"e%+03d" % k`` padded with NUL
      to 5 bytes; the extra last column is all NUL, for fixed notation.
    """
    hi, lo, exp2 = [], [], []
    for k in range(_K_MAX, _K_MIN - 1, -1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        e = num.bit_length() - den.bit_length()
        if (num << max(-e, 0)) < (den << max(e, 0)):
            e -= 1
        # 2**e <= 10**(16-k) < 2**(e+1); q = round(10**(16-k) * 2**(120-e)) has 121 bits
        q, rem = divmod(num << max(120 - e, 0), den << max(e - 120, 0))
        q += 2 * rem >= den << max(e - 120, 0)
        h = float(q)
        hi.append(math.ldexp(h, -121))
        lo.append(math.ldexp(float(q - int(h)), -121))
        exp2.append(e + 1)
    q = np.arange(10_000)
    quad = (q[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8).view(np.uint32)
    expo = np.array([b"e%+03d" % k for k in range(_K_MIN, _K_MAX + 1)] + [b""], dtype="S5")
    tables = (np.array(hi), np.array(lo), np.array(exp2), quad.ravel(),
              np.ascontiguousarray(expo.view(np.uint8).reshape(-1, 5).T))
    for table in tables:
        table.setflags(write=False)  # shared by every caller
    return tables


def _two_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of ``a`` into two halves of at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _format_17g(values: np.ndarray, out: np.ndarray) -> None:
    """Write ``'%.17g' % x`` of every ``x`` in ``values`` into ``out``, NUL-padded.

    ``values`` is a 1-D float64 array and ``out`` a uint8 array of shape
    ``(values.size, _G17_WIDTH)``.  NUL bytes may sit anywhere in a row of
    ``out``; the caller drops them.  Each finite value ``|x| = m * 2**e``
    (``np.frexp``) with decimal exponent ``k = floor(log10|x|)`` gives ``y =
    m * 10**(16-k) * 2**e`` in [1e16, 1e17): ``m`` times the double-double
    power of ten is exact by Dekker's two-product, and the power of two only
    rescales.  ``y`` is then known to
    about 1e-13, its nearest integer is the 17-digit significand, and the
    digits are laid out as ``%g`` does: fixed notation for -4 <= k < 17,
    otherwise scientific, trailing zeros stripped.

    Values whose rounding that accuracy cannot settle go through
    ``_fallback_17g`` one at a time: non-finite values, ``y`` within 1e-6 of
    a rounding tie (``%.17g`` rounds exact ties half to even), and ``y``
    below 1e16 or rounding to 1e17, where ``log10`` missed the decade or the
    significand carries into the next one.
    """
    hi_t, lo_t, exp2_t, quad, expo = _g17_tables()
    n = values.size
    a = np.abs(values)
    finite = np.isfinite(a)
    nonzero = finite & (a != 0)
    a = np.where(nonzero, a, 1.0)
    k = np.floor(np.log10(a))
    i = _K_MAX - k.astype(np.intp)
    m, e = np.frexp(a)
    hi = hi_t[i]
    m_hi, m_lo = _two_split(m)
    h_hi, h_lo = _two_split(hi)
    p = m * hi
    p_err = ((m_hi * h_hi - p) + m_hi * h_lo + m_lo * h_hi) + m_lo * h_lo
    scale = ((e + exp2_t[i] + 1023) << 52).view(np.float64)  # 2**(e + exp2), exact
    y_hi = p * scale  # an integer: y_hi >= 2**53 whenever 1e16 <= y
    y_lo = (p_err + m * lo_t[i]) * scale
    floor_lo = np.floor(y_lo)
    tie = (y_lo - floor_lo) - 0.5
    # significand N = y_hi + floor_lo + (tie > 0) = q * 1e8 + r, all in exact doubles
    q = np.floor(y_hi * 1e-8)
    r = (y_hi - q * 1e8) + (floor_lo + (tie > 0))
    carry = np.floor(r * 1e-8)
    q += carry
    r -= carry * 1e8
    slow = ~finite | (nonzero & (
        (np.abs(tie) < 1e-6)  # next to a rounding tie
        | (q < 1e8) | ((q == 1e8) & (r == 0) & (tie > 0))  # y below 1e16
        | (q >= 1e9)))  # N rounded up to 1e17
    q[~nonzero] = 0
    r[~nonzero] = 0
    k[~nonzero] = 0

    # Byte p of every value's digit string is row p of ``digits``: "0000"
    # for the zeros of 0.000ddd, the 17 significand digits (d0, then four
    # groups of four), then NUL.
    d0 = np.floor(q * 1e-8)
    q -= d0 * 1e8
    groups = np.empty((n, 4))
    np.floor(q * 1e-4, out=groups[:, 0])
    np.subtract(q, groups[:, 0] * 1e4, out=groups[:, 1])
    np.floor(r * 1e-4, out=groups[:, 2])
    np.subtract(r, groups[:, 2] * 1e4, out=groups[:, 3])
    digits = np.zeros((4 + _G17_BODY, n), dtype=np.uint8)
    digits[:4] = ord("0")
    digits[4] = d0 + ord("0")
    digits[5:21] = quad[groups.astype(np.intp)].view(np.uint8).T
    significand = digits[4:21]
    place = np.arange(17, dtype=np.int8)[:, None]
    last = ((significand != ord("0")) * place).max(axis=0)  # last nonzero digit, 0 for 0

    fixed = (k >= -4) & (k < 17)
    # decimal exponent in fixed notation, 0 in scientific: digits 0..X are integral
    X = np.where(fixed, k, 0).astype(np.int8)
    significand *= place <= np.maximum(last, X)  # strip trailing fractional zeros
    # 0.000ddd: move those values' digits -X rows down, behind the leading zeros
    neg = np.flatnonzero(X < 0)
    digits[4:, neg] = digits[4 + X[neg] + np.arange(_G17_BODY)[:, None], neg]
    # body[j] is digits[4 + j] before the point at j = P and digits[3 + j] after it
    P = np.maximum(X, 0) + 1
    before = (np.arange(_G17_BODY, dtype=np.int8)[:, None] < P).view(np.uint8)
    text = np.empty((_G17_WIDTH, n), dtype=np.uint8)
    np.multiply(np.signbit(values), ord("-"), out=text[0], casting="unsafe")
    body = text[1 : 1 + _G17_BODY]
    np.bitwise_xor(digits[4:], digits[3:-1], out=body)
    body *= before
    body ^= digits[3:-1]
    body[P, np.arange(n)] = (last > X) * ord(".")
    exp_col = np.where(fixed, expo.shape[1] - 1, k.astype(np.intp) - _K_MIN)
    np.take(expo, exp_col, axis=1, out=text[1 + _G17_BODY :])
    out[...] = text.T
    for i in np.flatnonzero(slow):
        exact = _fallback_17g(float(values[i]))
        out[i] = 0
        out[i, : len(exact)] = np.frombuffer(exact, dtype=np.uint8)


def _index_bytes(first: int, count: int) -> np.ndarray:
    """``b"%d" % v`` for ``v = first .. first + count - 1``, NUL-padded rows of uint8."""
    text = np.array([b"%d" % v for v in range(first, first + count)], dtype="S")
    return text.view(np.uint8).reshape(count, text.itemsize)


def write_lattice_csv(path, header: str, columns, r0: int = 0, t0: int = 0) -> None:
    """Write 2-D lattice arrays as ``r,t,v1,v2,...`` CSV rows, r-major then t.

    ``columns`` are arrays of one shape ``(n_r, n_t)``; the row for element
    ``[i, j]`` is ``"%d,%d" % (r0 + i, t0 + j)`` followed by ``",%.17g" %
    c[i, j]`` for each column ``c``.  The file is byte for byte what that
    per-value formatting writes: every value goes through a numpy kernel
    whose output equals ``'%.17g' % x``, and the few values it cannot settle
    exactly (non-finite values, values within 1e-6 of a rounding tie of the
    17th digit, and values at a decade edge) are formatted by ``'%.17g'``
    one at a time.  Rows are formatted 4,096 per block into one uint8 matrix
    whose NUL padding is dropped, so memory stays bounded on large lattices.
    """
    n_r, n_t = columns[0].shape
    r_text, t_text = _index_bytes(r0, n_r), _index_bytes(t0, n_t)
    t_at = r_text.shape[1] + 1
    v_at = t_at + t_text.shape[1] + 1
    n_cols = len(columns)
    n = n_r * n_t
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, n, _CSV_BLOCK_ROWS):
            r, t = np.divmod(np.arange(lo, min(lo + _CSV_BLOCK_ROWS, n)), n_t)
            block = np.empty((r.size, v_at + n_cols * (_G17_WIDTH + 1)), dtype=np.uint8)
            block[:, : t_at - 1] = r_text[r]
            block[:, t_at - 1] = ord(",")
            block[:, t_at : v_at - 1] = t_text[t]
            block[:, v_at - 1] = ord(",")
            slots = block[:, v_at:].reshape(r.size, n_cols, _G17_WIDTH + 1)
            slots[:, :, _G17_WIDTH] = ord(",")
            slots[:, -1, _G17_WIDTH] = ord("\n")
            for c, col in enumerate(columns):
                _format_17g(np.asarray(col[r, t], dtype=np.float64), slots[:, c, :_G17_WIDTH])
            fh.write(block[block != 0])


def write_grid_csv(grid: MseGrid, path) -> None:
    """Export ``r,t,mse`` rows, r-major then t (t = -1 column included)."""
    write_lattice_csv(path, "r,t,mse", [grid.values], t0=-1)
