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
filter run along each row.  The steps run in bands of up to 60 diagonals on
the contiguous rows of a small scratch: a band copies in from the lattice
only the cells its steps read but do not compute (the strips), takes three
ufunc calls per diagonal, and goes back in one copy that runs along lattice
rows.  Cells that underflow to +0.0 keep the lattice's initial zero: a band
starts where its carry diagonal's run of +0.0 ends, and one scan of its last
diagonal finds where the next band starts.

Closed forms are evaluated in the log domain because the binomial factors
overflow float64 long before r = t = 200.  Log-binomials at integer
arguments index one table of ln k!, built as a Neumaier-compensated running
sum of ln k (within one ulp of the exact value for k <= 4000), and sums of
exponentials go through ``np.logaddexp``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ._table import g17_fields, open_table
from .params import ChannelParams

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
    "check_grid_size",
    "solve_grid",
    "log_closed_form_single",
    "log_closed_form_streaming",
    "log_closed_form_single_grid",
    "log_closed_form_streaming_grid",
    "closed_form_discrepancy",
    "write_grid_csv",
]

DEFAULT_CELL_CAP = 50_000_000

# Anti-diagonals per band of ``solve_grid``'s sweep.
_BAND = 60

# Linear values below this are meaningless in float64; compare logs instead.
UNDERFLOW_LINEAR = 1e-300


class GridSizeError(ValueError):
    """Requested grid has more than ``DEFAULT_CELL_CAP`` cells."""


@dataclass(frozen=True)
class SingleSampleBoundary:
    """Source known perfectly at the transmitter from t = 0 on."""

    def profile(self, t_max: int) -> np.ndarray:
        return np.zeros(t_max + 1)


@dataclass(frozen=True)
class ExponentialRefinementBoundary:
    """Transmitter-side MSE exp(-2 R (t+1)), the fixed-rate refinement idealization."""

    rate_nats: float

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

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("boundary sequence must be a non-empty 1-D profile")
        if not ((vals >= 0) & (vals <= 1)).all():  # NaN fails both
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


def check_grid_size(r_max: int, t_max: int) -> None:
    """Raise ``GridSizeError`` if the lattice to (r_max, t_max) exceeds ``DEFAULT_CELL_CAP``."""
    n_cells = (r_max + 1) * (t_max + 2)
    if n_cells > DEFAULT_CELL_CAP:
        raise GridSizeError(f"grid of {n_cells} cells exceeds cap {DEFAULT_CELL_CAP}")


def solve_grid(
    channel: ChannelParams,
    boundary: BoundaryCondition,
    r_max: int,
    t_max: int,
) -> MseGrid:
    """Solve the lattice by dynamic programming in O(r_max * t_max).

    Anti-diagonal wavefront: every cell of diagonal d = r + t + 1 needs only
    its left and upper neighbours, both on diagonal d - 1.  ``diagonals`` is
    a strided view of ``values`` whose row d is diagonal d, stepping
    n_cols - 1 cells per r.  The sweep runs in bands of K = min(60,
    n_cols - 1) diagonals d0 .. d1 - 1; at 2000 x 2000 the band's scratch
    and product row take 992 KB.  A band works on the rectangle
    ``diagonals[d0 - 1 : d1, a : b + 1]`` (rows a..b of the carry diagonal
    d0 - 1 and of the band's own), mirrored in a small C-contiguous
    scratch, so each step is two contiguous multiplies and one add from one
    scratch row into the next; its bounds are clamped with comparisons, so
    those three ufunc calls and four slices are all it costs.  Only what
    the steps do not compute is copied in: the carry diagonal, the low
    strip (row a, and the cells past t_max once the band reaches the last
    column) and the high strip (t <= -1).  One copy then puts the band's K
    diagonals back; it runs along lattice rows, K adjacent cells at a time.
    The convex-combination structure keeps every entry inside [0, 1]; the
    result is C-contiguous and read-only.

    A position of the rectangle off the lattice (t < -1 or t > t_max)
    aliases, in memory, the cell n_cols - 1 diagonals away.  The K <=
    n_cols - 1 diagonals written back lie closer together than that, so no
    cell is written twice and no aliased cell is one the band computes: a
    copied-in position goes back unchanged.

    Deep cells underflow to +0.0, and underflow raises nothing whatever
    ``np.seterr`` says: a cell whose two neighbours are both +0.0 is
    exactly +0.0, so the run of +0.0 at the low-r end of a diagonal carries
    over to the next one while the boundary row is zero.  ``values`` starts
    at zero.  A band computes from row z, where the run on its carry
    diagonal ends (row 1 if a boundary cell it reads is nonzero), since a
    cell computed inside the run is +0.0 again; one scan of its last
    diagonal finds the next z (62 % of a 2000 x 2000 single-sample lattice
    is +0.0).
    """
    if r_max < 1 or t_max < 0:
        raise ValueError("need r_max >= 1 and t_max >= 0")
    check_grid_size(r_max, t_max)

    # 0-d arrays spare each ufunc call converting a Python float; the
    # products are the same
    pbar = np.array(channel.snr_bar)
    qbar = np.array(channel.qbar)
    n_cols = t_max + 2
    n_diags = r_max + n_cols
    values = np.zeros((r_max + 1, n_cols))
    # diagonals[d, r] is values[r, d - r]; its last element is the lattice's
    # last cell, so the view stays inside ``values``.
    step = values.itemsize
    diagonals = as_strided(values, shape=(n_diags, r_max + 1),
                           strides=(step, (n_cols - 1) * step))
    with np.errstate(under="ignore"):
        values[:, 0] = 1.0  # M_r(-1) = 1
        # before the scratch exists, so that the profile's temporaries are
        # freed first
        values[0, 1:] = boundary.profile(t_max)
        k_max = min(_BAND, n_cols - 1)
        scratch = np.empty((k_max + 1, min(r_max + 1, n_cols + k_max)))
        up = np.empty(scratch.shape[1])
        mul, add = np.multiply, np.add
        z = 1
        for d0 in range(2, n_diags, k_max):
            d1 = min(d0 + k_max, n_diags)
            # a nonzero boundary cell ends the run; the boundary row ends at
            # diagonal n_cols - 1, and tall lattices have many bands past it
            if d0 <= n_cols and values[0, d0 - 1 : d1 - 1].any():
                z = 1
            a = max(z, d0 - n_cols + 1) - 1
            b = min(r_max, d1 - 1)
            w = b - a + 1
            band = diagonals[d0 - 1 : d1, a : b + 1]
            rows = scratch[: d1 - d0 + 1, :w]  # rows[i, j] mirrors band[i, j]
            # copy in what the steps read but do not compute: the carry
            # diagonal, the low strip and the high strip (t <= -1)
            low = max(1, d1 - n_cols - a)  # row a, and the cells past t_max
            rows[0, : d0 - a] = band[0, : d0 - a]
            rows[1:, :low] = band[1:, :low]
            rows[1:, d0 - a :] = band[1:, d0 - a :]
            # step i computes columns lo..hi-1 of rows[i] from rows[i - 1]
            lo_off, hi_off = d0 - n_cols - a, d0 - 1 - a
            prev = rows[0]
            for i, cur in enumerate(rows[1:], 1):
                lo = i + lo_off
                if lo < 1:
                    lo = 1
                hi = i + hi_off
                if hi > w:
                    hi = w
                cells = cur[lo:hi]
                pup = up[lo:hi]
                mul(prev[lo - 1 : hi - 1], pbar, pup)
                mul(prev[lo:hi], qbar, cells)
                add(cells, pup, cells)
                prev = cur
            band[1:] = rows[1:]
            z = a + lo
            while z < a + hi and not prev.item(z - a):
                z += 1
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
    j = np.arange(r)  # j = r - k
    lf = _log_factorials(t + r - 1)
    terms = lf[t + j] - lf[j] - lf[t] + j * channel.log_pbar
    return (t + 1) * channel.log_qbar + float(np.logaddexp.reduce(terms))


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
    s = np.arange(t + 1)
    lf = _log_factorials(r + t - 1)
    terms = (
        -2.0 * rate_nats * (t - s + 1)
        + lf[r + s - 1]
        - lf[s]
        - lf[r - 1]
        + s * channel.log_qbar
    )
    log_ii = r * channel.log_pbar + float(np.logaddexp.reduce(terms))
    return log_closed_form_single(channel, r, t), log_ii


def log_closed_form_single_grid(
    channel: ChannelParams, r_max: int, t_max: int
) -> np.ndarray:
    """ln M_r(t) for all 1 <= r <= r_max, 0 <= t <= t_max; shape (r_max+1, t_max+1).

    Row 0 is the boundary (-inf since M_0 = 0).  The cumulative log-sum-exp
    over the path-count terms makes the whole grid O(r_max * t_max).
    """
    t = np.arange(t_max + 1)[None, :]
    j = np.arange(r_max)[:, None]  # j = r - k
    lf = _log_factorials(t_max + r_max - 1)
    terms = lf[t + j] - lf[j] - lf[t] + j * channel.log_pbar
    cum = np.logaddexp.accumulate(terms, axis=0)
    out = np.full((r_max + 1, t_max + 1), -np.inf)
    out[1:] = (t + 1) * channel.log_qbar + cum
    return out


def log_closed_form_streaming_grid(
    channel: ChannelParams, rate_nats: float, r_max: int, t_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """(ln MSE_I, ln MSE_II) grids, shape (r_max+1, t_max+1); row 0 is the boundary."""
    if rate_nats <= 0.0:
        raise ValueError("rate_nats must be positive")
    log_i = log_closed_form_single_grid(channel, r_max, t_max)
    s = np.arange(t_max + 1)[None, :]
    r = np.arange(1, r_max + 1)[:, None]
    # 2Rs absorbs the t-dependence so one accumulation serves every t.
    lf = _log_factorials(r_max + t_max - 1)
    terms = 2.0 * rate_nats * s + lf[r + s - 1] - lf[s] - lf[r - 1] + s * channel.log_qbar
    cum = np.logaddexp.accumulate(terms, axis=1)
    log_ii = np.full((r_max + 1, t_max + 1), -np.inf)
    log_ii[1:] = r * channel.log_pbar - 2.0 * rate_nats * (s + 1) + cum
    log_ii[0] = -2.0 * rate_nats * (np.arange(t_max + 1) + 1)
    return log_i, log_ii


def closed_form_discrepancy(grid: MseGrid) -> tuple[np.ndarray, np.ndarray] | None:
    """The closed form M_r(t), r >= 1, t >= 0, of ``grid``'s boundary and its
    relative discrepancy from the lattice, or None for a boundary without one.

    Cells below ``UNDERFLOW_LINEAR`` compare in the log domain, and cells
    that underflowed to exactly 0 read 0.  NaN in the closed form propagates.
    """
    channel, boundary, r_max, t_max = grid.channel, grid.boundary, grid.r_max, grid.t_max
    if isinstance(boundary, ExponentialRefinementBoundary):
        log_cf = np.logaddexp(*log_closed_form_streaming_grid(
            channel, boundary.rate_nats, r_max, t_max))
    elif isinstance(boundary, SingleSampleBoundary):
        log_cf = log_closed_form_single_grid(channel, r_max, t_max)
    else:
        return None
    dp = grid.values[1:, 1:]
    log_cf = log_cf[1:]
    # math.exp, not np.exp: numpy's SIMD exp may differ by an ulp.  One
    # row at a time as Python floats, not the whole grid (32 bytes a cell).
    rows = itertools.chain.from_iterable(map(np.ndarray.tolist, log_cf))
    cf = np.fromiter(map(math.exp, rows), float, dp.size).reshape(dp.shape)
    linear = dp >= UNDERFLOW_LINEAR
    rel = np.zeros_like(dp)
    np.divide(np.abs(cf - dp), dp, out=rel, where=linear)
    for i in np.flatnonzero(~linear):
        d = dp.flat[i]
        if d > 0:
            rel.flat[i] = abs(log_cf.flat[i] - math.log(d))
    return cf, rel


def write_grid_csv(grid: MseGrid, path, on_block=None) -> None:
    """Export ``r,t,mse`` rows, r-major then t (t = -1 column included).

    The lattice is formatted once, a block of cells at a time
    (``_table.g17_fields``).  ``on_block(r, t, text)``, when given, is
    called with each block after its rows are written: the cells' ``r`` and
    ``t`` (the ``r,t`` of their rows) and their ``%.17g`` text, which a
    table of the same values written alongside takes as a text column
    instead of formatting them again.
    """
    with open_table(path, "r,t,mse") as append:
        for lo, text in g17_fields(grid.values.reshape(-1)):
            r, col = np.divmod(np.arange(lo, lo + text.size), grid.t_max + 2)
            t = col - 1
            append([r, t, text])
            if on_block is not None:
                on_block(r, t, text)
