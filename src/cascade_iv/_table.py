"""The one CSV table writer: numpy formatting equal to ``%d`` and ``%.17g``.

``write_table(path, header, columns)`` writes a header line and one row per
element of its columns, fields joined by commas.  A column is an integer
array, written as ``'%d' % v``, a float array, written as ``'%.17g' % x``,
or a text array (``bytes``, or ``str``, encoded once), written as it is.
All columns share one shape, 1-D or 2-D, and rows follow the elements in C
order.  A text column carries the cells no number format covers: the
censored ``<10/n`` rates, empty cells and labels; ``g17_text`` gives the
``%.17g`` bytes of its numeric cells, one value at a time.
``write_lattice_csv`` prefixes 2-D columns with their ``r,t`` indices.
``open_table`` writes one table in pieces, and ``g17_fields`` formats
floats block by block into text that two tables of the same values can
share, so each value is formatted once.

Files: the columns are checked before the file is opened with
``open(path, "wb")``, so a rejected call leaves an existing file as it was.

Byte contract: the file is byte for byte what per-value ``'%d'`` and
``'%.17g'`` formatting writes.  Floats go through a numpy kernel built on
Dekker's exact two-product; the values it cannot settle (non-finite values,
values within 1e-6 of a rounding tie of the 17th digit, and values at a
decade edge) are formatted by ``'%.17g'`` one at a time (``_fallback_17g``).

Memory: rows are formatted ``_BLOCK_ROWS`` (4,096) at a time into one uint8
matrix of fixed-width NUL-padded fields, whose NUL bytes are dropped as the
block is written.  A block's temporaries stay near 2 MB whatever the table
size; no buffer for the text of the whole table is built.
"""

from __future__ import annotations

import contextlib
import functools
import math

import numpy as np

__all__ = ["g17_fields", "g17_text", "open_table", "write_lattice_csv", "write_table"]

_BLOCK_ROWS = 4096

# Decimal exponents of the finite nonzero doubles, 5e-324 .. 1.8e308.
_K_MIN, _K_MAX = -324, 308
# Bytes of one formatted float, four uint64 words: the sign, the "0." to
# "0.000" that fixed notation puts before the digits of |x| < 1, the first
# digit and the point; 16 more digits; an exponent of at most 5 ("e-308").
_G17_WIDTH = 32
# dtype of the fields ``g17_fields`` yields.
G17_FIELD = np.dtype(f"S{_G17_WIDTH}")


def _fallback_17g(x: float) -> bytes:
    """``'%.17g' % x``, for the values ``_format_floats`` leaves to Python."""
    return b"%.17g" % x


def _four_digits(q: np.ndarray, blank: str = "") -> np.ndarray:
    """The four ASCII digits of each ``q`` as one uint32, some zeros as NUL.

    ``blank`` names the zeros written as NUL: "trailing", "leading", or
    "leading+" (leading zeros but the last digit, so that 0 reads "0").
    """
    digits = (q[:, None] // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    zero = digits == ord("0")
    if blank == "trailing":
        digits[np.logical_and.accumulate(zero[:, ::-1], axis=1)[:, ::-1]] = 0
    elif blank:
        zero = np.logical_and.accumulate(zero, axis=1)
        zero[:, 3] &= blank == "leading"
        digits[zero] = 0
    return digits.view(np.uint32).ravel()


@functools.lru_cache(maxsize=None)
def _tables():
    """Lookup tables of the formatters, built on first use.

    * ``hi, lo, exp2`` hold ``10**(16 - k) ~= (hi + lo) * 2**exp2`` for
      ``k = _K_MAX .. _K_MIN`` (index ``_K_MAX - k``), ``hi`` in [0.5, 1).
      The power is rounded to 121 bits in integer arithmetic, so ``hi + lo``
      is within 2**-105 of it, relatively.  In the same order, ``expo`` is
      the exponent word of a float's text, ``b"e%+03d" % k`` in scientific
      notation, and ``head[40 * i + 20 * sign + 2 * d + whole]`` its first
      word: the sign, the fixed-notation prefix ("0.000" for k = -4), the
      first digit d and the point, which is left out when no digit follows
      (``whole``) and in the prefix below 1.
    * ``fraction[q + 10000 * z]`` is the four ASCII digits of ``q`` as one
      uint32, with trailing zeros as NUL when ``z`` (no nonzero digit
      follows).  ``leading`` and ``units`` do the same with leading zeros,
      ``units`` keeping the last digit of 0.
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
    k = np.arange(_K_MAX, _K_MIN - 1, -1)
    head = np.zeros((k.size, 2, 10, 2, 8), dtype=np.uint8)  # k, sign, digit, whole
    head[:, 1, ..., 0] = ord("-")
    below_one = (k >= -4) & (k < 0)
    prefix = np.array([b"0." + b"0" * (-j - 1) for j in k[below_one]], dtype="S5")
    head[below_one, ..., 1:6] = prefix.view(np.uint8).reshape(-1, 1, 1, 1, 5)
    head[..., 6] = np.arange(ord("0"), ord("0") + 10)[:, None]
    head[~below_one, :, :, 0, 7] = ord(".")
    expo = np.array([b"e%+03d" % j if not -4 <= j < 17 else b"" for j in k], dtype="S8")
    q = np.arange(10_000)
    quad = _four_digits(q)
    tables = (np.array(hi), np.array(lo), np.array(exp2),
              head.view(np.uint64).ravel(), expo.view(np.uint64),
              np.concatenate([quad, _four_digits(q, "trailing")]),
              np.concatenate([quad, _four_digits(q, "leading")]),
              np.concatenate([quad, _four_digits(q, "leading+")]))
    for table in tables:
        table.setflags(write=False)  # shared by every caller
    return tables


def _two_split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split of ``a`` into two halves of at most 26 significant bits."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


def _format_floats(values: np.ndarray, out: np.ndarray, tables) -> None:
    """Write ``'%.17g' % x`` of every ``x`` in ``values`` into ``out``, NUL-padded.

    ``values`` is a 1-D float64 array and ``out`` a uint8 array of shape
    ``(values.size, _G17_WIDTH)`` whose rows are contiguous.  NUL bytes may
    sit anywhere in a row of ``out``; the caller drops them.  Each finite
    value ``|x| = m * 2**e`` (``np.frexp``) with decimal exponent ``k =
    floor(log10|x|)`` gives ``y = m * 10**(16-k) * 2**e`` in [1e16, 1e17):
    ``m`` times the double-double power of ten is exact by Dekker's
    two-product, and the power of two only rescales.  ``y`` is then known to
    about 1e-13, its nearest integer is the 17-digit significand, and the
    digits are laid out as ``%g`` does: fixed notation for -4 <= k < 17,
    otherwise scientific, trailing zeros stripped.  Every row is laid out
    as scientific notation (first digit, point, 16 digits, exponent); fixed
    notation below 1 blanks the point and fills the "0.000" prefix, so only
    the rows with 1 <= k < 17 move their point (``_place_point``).

    Values whose rounding that accuracy cannot settle go through
    ``_fallback_17g`` one at a time: non-finite values, ``y`` within 1e-6 of
    a rounding tie (``%.17g`` rounds exact ties half to even), and ``y``
    below 1e16 or rounding to 1e17, where ``log10`` missed the decade or the
    significand carries into the next one.
    """
    hi_t, lo_t, exp2_t, head, expo, fraction = tables[:6]
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
    q *= nonzero  # zeros and non-finite values carry the digits of 1.0 so far
    r *= nonzero

    # N = d0 * 1e16 + the four-digit groups g0..g3 of the fraction digits
    d0 = np.floor(q * 1e-8)
    q -= d0 * 1e8
    groups = np.empty((n, 4))
    np.floor(q * 1e-4, out=groups[:, 0])
    np.subtract(q, groups[:, 0] * 1e4, out=groups[:, 1])
    np.floor(r * 1e-4, out=groups[:, 2])
    np.subtract(r, groups[:, 2] * 1e4, out=groups[:, 3])
    # a group's trailing zeros are NUL (index + 1e4) when only zeros follow it
    zeros = groups == 0
    index = np.empty((n, 4))
    index[:, 3] = 1e4
    np.multiply(index[:, 3], zeros[:, 3], out=index[:, 2])
    np.multiply(index[:, 2], zeros[:, 2], out=index[:, 1])
    np.multiply(index[:, 1], zeros[:, 1], out=index[:, 0])
    whole = index[:, 0] * zeros[:, 0]  # 1e4 when no digit follows the first, else 0
    index += groups

    words = out.view(np.uint64)
    first = (_K_MAX - k) * 40 + d0 * 2 + whole / 1e4
    first += np.signbit(values) * 20
    words[:, 0] = head[first.astype(np.intp)]
    out[:, 8:24].view("V16")[:, 0] = fraction[index.astype(np.intp)].view("V16")[:, 0]
    words[:, 3] = expo[i]
    if k.max() >= 1:
        moved = np.flatnonzero((k >= 1) & (k < 17))
        _place_point(out, moved, k[moved].astype(np.intp), d0[moved],
                     groups[moved].astype(np.intp), fraction)
    for j in np.flatnonzero(slow):
        exact = _fallback_17g(float(values[j]))
        out[j] = 0
        out[j, : len(exact)] = np.frombuffer(exact, dtype=np.uint8)


def _place_point(out, rows, k, d0, groups, fraction):
    """Fixed-notation digits of the rows with 1 <= k < 17: the point after digit k.

    Digits 0..k are integral and kept; fractional trailing zeros are
    stripped; the point is written only before a nonzero fraction.
    """
    m = rows.size
    digits = np.empty((m, 17), dtype=np.uint8)
    np.add(d0, ord("0"), out=digits[:, 0], casting="unsafe")
    digits[:, 1:] = fraction[groups].view(np.uint8).reshape(m, 16)
    place = np.arange(17)
    last = ((digits != ord("0")) * place).max(axis=1)  # last nonzero digit
    digits *= place <= np.maximum(last, k)[:, None]
    body = np.zeros((m, 18), dtype=np.uint8)
    before = place < (k + 1)[:, None]
    body[:, :17] = digits * before
    body[:, 1:] += digits * ~before
    body[np.arange(m), k + 1] = (last > k) * ord(".")
    out[rows, 6:24] = body


def _int_field(values: np.ndarray, tables):
    """(width, writer) of ``'%d' % v`` for every ``v``: ``writer(out)`` fills ``out``, NUL-padded.

    The field is a sign byte when any v < 0, then four bytes per group of
    four digits.
    """
    leading, units = tables[6:]
    neg = values < 0
    sign = int(neg.any())
    mag = np.abs(values).astype(np.uint64)  # |int64 min| wraps to 2**63 here
    n_groups = -(-len(str(int(mag.max(initial=0)))) // 4)

    def write(out):
        if sign:
            np.multiply(neg, ord("-"), out=out[:, 0], casting="unsafe")
        if n_groups == 1:  # the common case: every value below 10000
            out[:, sign:].view(np.uint32)[:, 0] = units[mag.astype(np.intp) + 10_000]
            return
        for g in range(n_groups):
            power = 4 * (n_groups - 1 - g)
            group = mag // np.uint64(10**power) % np.uint64(10_000)
            # zeros before the first nonzero digit are NUL
            first = mag < np.uint64(10 ** (power + 4)) if power + 4 < 20 else True
            table = units if g == n_groups - 1 else leading
            out[:, sign + 4 * g : sign + 4 * g + 4].view(np.uint32)[:, 0] = (
                table[group.astype(np.intp) + first * 10_000])

    return sign + 4 * n_groups, write


def _rows(column: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Elements lo..hi-1 of ``column`` in C order, copying at most those elements."""
    if column.ndim == 1:
        return column[lo:hi]
    width = column.shape[1]
    i0, j0 = divmod(lo, width)
    i1, j1 = divmod(hi, width)
    if i0 == i1:
        return column[i0, j0:j1]
    tail = [column[i1, :j1]] if j1 else []
    return np.concatenate([column[i0, j0:], column[i0 + 1 : i1].reshape(-1), *tail])


def _field(chunk: np.ndarray, tables):
    """(width, writer) of one column's block: ``writer(out)`` fills the (rows, width) field."""
    if chunk.dtype.kind == "f":
        values = chunk.astype(np.float64, copy=False)
        return _G17_WIDTH, lambda out: _format_floats(values, out, tables)
    if chunk.dtype.kind == "S":
        text = chunk.view(np.uint8).reshape(chunk.size, chunk.itemsize)
        return chunk.itemsize, lambda out: np.copyto(out, text)
    return _int_field(chunk, tables)


def _checked(columns) -> list[np.ndarray]:
    """``columns`` as arrays of one 1-D or 2-D shape and a kind ``write_table`` writes.

    Raises ``ValueError`` for mismatched shapes and ``TypeError`` for any
    other dtype, before a caller opens its file.
    """
    columns = [np.atleast_1d(np.asarray(c)) for c in columns]
    columns = [c.astype(np.bytes_) if c.dtype.kind == "U" else c for c in columns]
    shape = columns[0].shape
    if any(c.shape != shape for c in columns) or len(shape) > 2:
        raise ValueError(f"columns need one 1-D or 2-D shape, got {[c.shape for c in columns]}")
    for c in columns:
        if c.dtype.kind not in "fiuS":
            raise TypeError(f"cannot write a column of dtype {c.dtype}")
    return columns


def _write_rows(fh, columns: list[np.ndarray]) -> None:
    """Append one CSV row per element of the ``_checked`` ``columns`` to ``fh``."""
    tables = _tables()
    n = columns[0].size
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        fields = [_field(_rows(c, lo, hi), tables) for c in columns]
        ends = np.cumsum([width + 1 for width, _ in fields])
        block = np.empty((hi - lo, ends[-1]), dtype=np.uint8)
        for end, (width, write) in zip(ends, fields):
            write(block[:, end - 1 - width : end - 1])
            block[:, end - 1] = ord(",")
        block[:, -1] = ord("\n")
        fh.write(block.tobytes().translate(None, b"\0"))


@contextlib.contextmanager
def open_table(path, header: str):
    """Write ``header`` to ``path``; yields ``append(columns)``, which adds rows.

    ``append`` takes what ``write_table`` takes and writes the same rows, so
    one table can be written in pieces, beside another.
    """
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        yield lambda columns: _write_rows(fh, _checked(columns))


def write_table(path, header: str, columns) -> None:
    """Write ``header`` and one CSV row per element of ``columns`` to ``path``.

    The columns are int, float or text arrays of one shape, 1-D or 2-D;
    rows follow their elements in C order.  They are checked before
    ``path`` is opened, so a rejected call leaves an existing file as it
    was.  See the module docstring for the byte contract and the memory
    bound.
    """
    columns = _checked(columns)
    with open_table(path, header) as append:
        append(columns)


def write_lattice_csv(path, header: str, columns) -> None:
    """Write 2-D lattice arrays as ``r,t,v1,v2,...`` CSV rows, r-major then t.

    ``columns`` are arrays of one shape ``(n_r, n_t)``; the row for element
    ``[r, t]`` is ``"%d,%d" % (r, t)`` followed by each column's element,
    formatted by ``write_table``.
    """
    n_r, n_t = np.shape(columns[0])
    r = np.broadcast_to(np.arange(n_r)[:, None], (n_r, n_t))
    t = np.broadcast_to(np.arange(n_t), (n_r, n_t))
    write_table(path, header, [r, t, *columns])


def g17_fields(values: np.ndarray):
    """Yield ``(lo, fields)``: the ``%.17g`` text of ``values[lo:lo + fields.size]``.

    ``values`` is a 1-D float64 array, formatted ``_BLOCK_ROWS`` values at a
    time.  ``fields`` is a ``G17_FIELD`` array of NUL-padded text, NUL
    bytes anywhere in a field; as a text column of ``write_table`` it
    writes the same bytes as the float column would.  A caller writing the
    same values to two tables formats them once this way.
    """
    tables = _tables()
    for lo in range(0, values.size, _BLOCK_ROWS):
        chunk = values[lo : lo + _BLOCK_ROWS]
        out = np.empty((chunk.size, _G17_WIDTH), dtype=np.uint8)
        _format_floats(chunk, out, tables)
        yield lo, out.view(G17_FIELD)[:, 0]


def g17_text(values) -> np.ndarray:
    """``b'%.17g' % x`` of every float in ``values``, as a bytes array of the same shape.

    For the few numeric cells of text columns, formatted one value at a
    time; a float column of ``write_table`` is formatted block by block by
    the kernel instead.
    """
    values = np.asarray(values, dtype=np.float64)
    cells = [b"%.17g" % x for x in values.ravel().tolist()]
    return np.array(cells, dtype=np.bytes_).reshape(values.shape)
