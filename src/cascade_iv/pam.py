"""Nested PAM constellation: bit packets to analog points and back.

Natural labeling maps a bit string to the signed binary expansion

    S^n = sqrt(3) * sum_{i=0}^{n-1} (-1)^(b_i) 2^(-(i+1)),

so distinct n-bit prefixes land at least D_n = sqrt(3) * 2^(-n+1) apart and
the infinite expansion is uniform on [-sqrt(3), sqrt(3)) with unit variance.
Decoding is a slicer implemented by successive sign tests (O(n) instead of a
search over 2^n points): bit i is 0 iff the running residual is positive,
with exact midpoints resolved to bit 1, i.e. toward the smaller value.

The dithered decoder adds alpha * U to an estimate of the finite
constellation point before slicing, where U is uniform on
[-D_psi/2, D_psi/2) and alpha is the linear coefficient multiplying the
constellation point in the estimate; this emulates estimating the infinite
expansion and makes the psi-uniform prefix bound applicable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SQRT3 = math.sqrt(3.0)

__all__ = [
    "SQRT3",
    "min_distance",
    "encode",
    "decode_bits",
    "dithered_decode",
    "CellErrorCounts",
    "ErrorStats",
    "tally_errors",
]


def min_distance(n: int) -> float:
    """Spacing D_n between adjacent n-bit constellation points."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return SQRT3 * 2.0 ** (-n + 1)


def encode(bits, n: int | None = None) -> float:
    """Map ``bits[0:n]`` to the constellation point S^n."""
    bits = np.asarray(bits, dtype=np.int64)
    if bits.ndim != 1 or (bits.size and not np.isin(bits, (0, 1)).all()):
        raise ValueError("bits must be a 1-D sequence of 0/1")
    if n is None:
        n = bits.size
    if n > bits.size:
        raise ValueError(f"requested depth {n} exceeds {bits.size} available bits")
    i = np.arange(n)
    return float(SQRT3 * np.sum((1 - 2 * bits[:n]) * np.exp2(-(i + 1.0))))


def decode_bits(estimate, n: int) -> np.ndarray:
    """Slice an estimate (scalar or array) to its nearest n-bit string.

    Successive sign extraction: bit i is 0 iff the residual is > 0, the
    residual then drops by the signed contribution sqrt(3) (-1)^b 2^-(i+1).
    Ties (residual exactly 0) give bit 1, choosing the smaller point.
    Output shape is (n,) + input shape: bit-major, one contiguous
    ``estimate``-shaped row per bit.  The contribution is formed as
    ``b * (-2w) + w`` with w = sqrt(3) 2^-(i+1), which is exactly +w or -w,
    in two passes over preallocated buffers.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    est = np.asarray(estimate, dtype=float)
    if not np.isfinite(est).all():
        raise ValueError("estimate must be finite")
    residual = est.copy()
    out = np.empty((n,) + est.shape, dtype=np.int8)
    rows = out.view(bool)  # the sign tests write their 0/1 bytes in place
    step = np.empty(est.shape)
    for i in range(n):
        w = SQRT3 * 2.0 ** (-(i + 1))
        b = np.less_equal(residual, 0.0, out=rows[i, ...])
        np.multiply(b, -2.0 * w, out=step)
        step += w
        residual -= step
    return out


def dithered_decode(estimate, alpha, n: int, dither) -> np.ndarray:
    """Slice ``estimate + alpha * dither`` at depth n.

    ``dither`` is the psi-bit dither U, uniform on [-D_psi/2, D_psi/2).
    ``alpha`` is the coefficient multiplying the constellation point inside
    the linear estimate and must lie in (0, 1).  The bits are laid out as
    ``decode_bits`` lays them out.
    """
    alpha_arr = np.asarray(alpha, dtype=float)
    if not ((alpha_arr > 0.0) & (alpha_arr < 1.0)).all():
        raise ValueError("alpha must lie strictly inside (0, 1)")
    est = np.asarray(estimate, dtype=float)
    return decode_bits(est + alpha_arr * np.asarray(dither, dtype=float), n)


@dataclass
class CellErrorCounts:
    """Error counters for one (relay, delay) cell.

    ``per_bit`` maps (packet index tau, bit position within packet) to
    [errors, observations]; the worst-bit error rate is the max ratio.
    """

    n_trials: int = 0
    bit_errors: int = 0
    prefix_errors: int = 0
    packet_errors: int = 0
    per_bit: dict = field(default_factory=dict)

    def worst_bit_rate(self) -> float:
        if not self.per_bit:
            return 0.0
        return max(err / obs for err, obs in self.per_bit.values() if obs)

    def merge(self, other: "CellErrorCounts") -> None:
        self.n_trials += other.n_trials
        self.bit_errors += other.bit_errors
        self.prefix_errors += other.prefix_errors
        self.packet_errors += other.packet_errors
        for key, (err, obs) in other.per_bit.items():
            cur = self.per_bit.setdefault(key, [0, 0])
            cur[0] += err
            cur[1] += obs


@dataclass
class ErrorStats:
    """Bit/prefix/packet error counters keyed by (relay, decoding delay)."""

    cells: dict = field(default_factory=dict)

    def cell(self, r: int, delta: int) -> CellErrorCounts:
        return self.cells.setdefault((r, delta), CellErrorCounts())

    def merge(self, other: "ErrorStats") -> None:
        for key, counts in sorted(other.cells.items()):
            self.cell(*key).merge(counts)

    def rows(self):
        """CSV rows ``r,delta,n_trials,bit_err,prefix_err,packet_err,worst_bit_pe``."""
        for (r, delta), c in sorted(self.cells.items()):
            yield r, delta, c.n_trials, c.bit_errors, c.prefix_errors, c.packet_errors, c.worst_bit_rate()


def tally_errors(
    stats: ErrorStats,
    decoded: np.ndarray,
    truth: np.ndarray,
    r: int,
    t: int,
    packet_bits: int,
    period: int,
) -> None:
    """Account one batch of decodes at node r, time t into ``stats``.

    ``decoded`` and ``truth`` are (n_bits, trials) prefix arrays, the
    layout ``decode_bits`` returns.  Bit n was generated at time
    floor(n/psi) * period, so the bits of packet tau are tallied at delay
    t - tau*period.  Per packet the single-bit, whole-packet and
    whole-prefix error events are counted.  A ``period`` below 1 raises
    ValueError.
    """
    decoded = np.asarray(decoded)
    truth = np.asarray(truth)
    if decoded.shape != truth.shape:
        raise ValueError(f"decoded {decoded.shape} and truth {truth.shape} misaligned")
    n_bits, n_trials = decoded.shape
    if n_bits % packet_bits:
        raise ValueError("prefix length must be a whole number of packets")
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period!r}")
    n_packets = n_bits // packet_bits
    # packet tau is tallied iff tau * period <= t
    n_gen = min(n_packets, t // period + 1) if t >= 0 else 0
    if n_gen == 0:
        return
    width = n_gen * packet_bits
    # bit-major mismatches: every count below reduces contiguous trial rows
    mism = np.not_equal(decoded[:width], truth[:width])
    per_bit = [int(np.count_nonzero(row)) for row in mism]
    packet_any = np.logical_or.reduce(mism.reshape(n_gen, packet_bits, n_trials), axis=1)
    prefix_any = np.zeros(n_trials, dtype=bool)
    for tau in range(n_gen):
        prefix_any |= packet_any[tau]  # running OR: any error in packets 0..tau
        cell = stats.cell(r, t - tau * period)
        cell.n_trials += n_trials
        bits = per_bit[tau * packet_bits : (tau + 1) * packet_bits]
        cell.bit_errors += sum(bits)
        cell.packet_errors += int(np.count_nonzero(packet_any[tau]))
        cell.prefix_errors += int(np.count_nonzero(prefix_any))
        for j, err in enumerate(bits):
            cur = cell.per_bit.setdefault((tau, j), [0, 0])
            cur[0] += err
            cur[1] += n_trials
