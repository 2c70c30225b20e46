"""Axis-aligned boxes and uniform sampling grids shared across the package."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class GridSpecError(Exception):
    """Inconsistent box or grid specification."""


def fmt17(x) -> str:
    """Format a float with 17 significant digits so it round-trips exactly."""
    return format(float(x), ".17g")


# Rows per chunk of every 17-digit text writer (grid_text, write_impulse_csv).
CHUNK_ROWS = 2048

# encode17 writes each number into a slot of three little-endian uint64
# words, 24 bytes: byte 0 the separator that text17 puts before the number,
# byte 1 the sign, byte 2 free for the one-byte shift that makes room for
# the point, bytes 3-6 the zeros of "0.000", bytes 7-23 the 17 digits.
# Masks from one table column per (sign, exponent, last nonzero digit)
# zero every byte '%.17g' does not print, and text17 deletes the zero
# bytes.  Slots are word-major, shape (3, n), so that each step is a pass
# over contiguous arrays of n.
_U64 = np.dtype("<u8")
_WORDS = 3
# the |v| whose text encode17 works out itself: there '%.17g' prints no
# exponent, and |v| * 10**(16 - k) stays far from overflow and underflow
_FAST_MIN, _FAST_MAX = 1e-4, 1e16
# 10**e for e = 0..21, from products exact up to 10**22 (5**22 < 2**53),
# each split by Veltkamp's constant 2**27 + 1 into two 26-bit halves for
# Dekker's product
_SPLIT = 134217729.0
_POW10 = np.cumprod(np.full(22, 10.0)) / 10.0
_POW10_HI = _POW10 * _SPLIT - (_POW10 * _SPLIT - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _digit_tables():
    """The ASCII digits of 0..9999, four bytes in the low half of a word;
    and for the four 4-digit groups of digits 1-16, the place (1 to 16) of
    the last nonzero digit of group i at index 10000 * i + group, 0 for a
    zero group."""
    g = np.arange(10000, dtype=np.uint32)
    ascii4 = g // 1000 | g // 100 % 10 << 8 | g // 10 % 10 << 16 | g % 10 << 24 | 0x30303030
    place = np.select([g % 10 != 0, g % 100 != 0, g % 1000 != 0, g != 0],
                      np.arange(4, 0, -1, dtype=np.uint8), np.uint8(0))
    last16 = (place + np.arange(0, 16, 4, dtype=np.uint8)[:, None]) * (place != 0)
    return ascii4.astype(_U64), last16.ravel()


_DIGITS4, _LAST16 = _digit_tables()
_GROUP_BASE = np.arange(0, 40000, 10000)[:, None]
# the first word of every slot, its first digit '0': byte 1 '-', bytes 3-7 "00000"
_WORD0 = np.frombuffer(b"\0-\x0000000", _U64)[0]


def _mask_tables():
    """Three tables of words, one column of three words per (sign,
    decimal exponent x in -4..16, place of the last nonzero digit in
    0..16) at (sign * 21 + x + 4) * 17 + last, and a last column,
    _FALLBACK, for the per-value fallback: the bytes to take from the slot
    shifted one byte down (the digits through the units), the bytes to
    take from it unshifted (the sign and the fraction digits), and the
    bytes to set (the point, or the fallback's '%.17g')."""
    neg, x, last, byte = np.ix_([0, 1], np.arange(-4, 17), np.arange(17), np.arange(24))
    u = x + 4  # the units digit is e[u] of e = "0000" + the digits
    j = byte - 2  # byte 2 + j holds e[j] for j <= u, the point, then e[j - 1]
    end = np.where(last + 4 > u, last + 5, u)  # through the last nonzero fraction digit
    kept = (j >= np.minimum(u, 4)) & (j <= end)
    masks = np.broadcast_arrays(
        kept & (j <= u), kept & (j > u + 1) | (byte == 1) & (neg == 1), kept & (j == u + 1)
    )
    fill = np.array([255, 255, ord(".")], np.uint8)[:, None, None]
    masks = np.stack(masks).reshape(3, -1, 24) * fill
    fallback = np.zeros((3, 1, 24), np.uint8)
    fallback[2, 0, 1:6] = np.frombuffer(b"%.17g", np.uint8)
    tables = np.concatenate([masks, fallback], axis=1).view(_U64)
    return [np.ascontiguousarray(t.T) for t in tables]


_SHIFTED, _UNSHIFTED, _SET = _mask_tables()
_FALLBACK = _SET.shape[1] - 1
_TEMPLATE = _SET[0, _FALLBACK]  # the first word of a fallback slot


def _times_pow10(a, k):
    """(hi, lo) with hi + lo == a * 10**(16 - k) exactly: Dekker's
    error-free product of a and the exact power, from 26-bit halves."""
    e = 16 - k
    hi = a * _POW10.take(e)
    c = a * _SPLIT
    ah = c - (c - a)
    al = a - ah
    sh, sl = _POW10_HI.take(e), _POW10_LO.take(e)
    lo = ((ah * sh - hi) + ah * sl + al * sh) + al * sl
    return hi, lo


def _round17(a):
    """The decade k, 10**k <= a < 10**(k + 1), and the 17 digits
    D = round-half-even(a * 10**(16 - k)) of positive a in [1e-4, 1e16)."""
    k = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _times_pow10(a, k)
    # log10 can miss the decade by one next to a power of ten, where the
    # exact product falls outside [1e16, 1e17); such an hi is at an end
    edge = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    if edge.size:
        he, le = hi[edge], lo[edge]
        up = (he > 1e17) | (he == 1e17) & (le >= 0)
        down = (he < 1e16) | (he == 1e16) & (le < 0)
        k[edge] += up.astype(np.intp) - down
        hi[edge], lo[edge] = _times_pow10(a[edge], k[edge])
    # hi is an even integer (ulp >= 2 above 2**53), so rounding lo half to
    # even rounds hi + lo half to even.  The largest double below
    # 10**(k + 1) gives D <= 10**17 - 8 for every k here, so no value
    # rounds up into the next decade
    return k, hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _digit_slots(d):
    """Slots holding '-', "0000" and the 17 digits of each D, and the
    place (0 to 16) of each D's last nonzero digit."""
    n = d.size
    top = d // 10**16
    d = d - top * 10**16
    halves = np.empty((2, n), np.int64)
    halves[0] = d // 10**8
    halves[1] = d - halves[0] * 10**8
    groups = np.empty((4, n), np.int64)
    groups[::2] = halves // 10**4
    groups[1::2] = halves - groups[::2] * 10**4
    digits = _DIGITS4.take(groups)
    slots = np.empty((_WORDS, n), _U64)
    slots[0] = top.astype(_U64) << 56 | _WORD0
    slots[1:] = digits[::2] | digits[1::2] << 32
    groups += _GROUP_BASE
    return slots, _LAST16.take(groups).max(axis=0)


def encode17(values):
    """Encode a float array as the text '%.17g' gives each value.

    Returns `(values, slots)`: the values as a flat float64 array and a
    `(3, n)` array of little-endian uint64 words, word-major, of 24-byte
    text slots in which every byte not printed is zero.  For
    1e-4 <= |v| < 1e16 and for zeros the digits come from
    D = round-half-even(|v| * 10**(16 - k)), 10**k <= |v| < 10**(k + 1),
    which hi + lo holds exactly; every other value (tiny, huge, subnormal,
    inf, nan) holds the template '%.17g' that text17 fills with the value.
    """
    v = np.asarray(values, dtype=float).reshape(-1)
    a = np.abs(v)
    slow = ~((a >= _FAST_MIN) & (a < _FAST_MAX))
    a[slow] = 2.0  # a stand-in inside a decade; its digits are dropped
    k, d = _round17(a)
    d[slow] = 0
    k[slow] = 0
    slots, last = _digit_slots(d)
    column = (np.signbit(v) * 21 + k + 4) * 17 + last
    column[slow & (v != 0)] = _FALLBACK
    moved = slots >> 8  # the slot one byte down, across its three words
    moved[:-1] |= slots[1:] << 56
    moved &= _SHIFTED.take(column, axis=1)
    slots &= _UNSHIFTED.take(column, axis=1)
    slots |= moved
    slots |= _SET.take(column, axis=1)
    return v, slots


def text17(cells, sep, ends=None):
    """The rows `c0<sep>c1...<sep>cm`, one per value of the encode17
    `cells`, each ended by a newline; the bool array `ends` marks the rows
    followed by a blank line.  `sep` is one ASCII character, not '%'."""
    newline = np.full((1, len(cells[0][0])), ord("\n"), _U64)
    if ends is not None:
        newline[0, ends] |= ord("\n") << 8
    buf = np.concatenate([slots for _, slots in cells] + [newline])
    buf[_WORDS:-1:_WORDS] |= ord(sep)
    raw = buf.T.tobytes()
    del buf  # hold at most two of the words, the bytes and the text at once
    raw = raw.translate(None, b"\0")
    text = raw.decode("ascii")
    if "%" in text:
        values = np.column_stack([values for values, _ in cells])
        fallback = np.column_stack([slots[0] == _TEMPLATE for _, slots in cells])
        text %= tuple(values[fallback].tolist())
    return text


def grid_text(axes, values, sep, scan_breaks=False):
    """Yield the rows `x[<sep>y]<sep>v` of `values` sampled on the grid
    `axes`, in row-major order, each number as fmt17 writes it.

    Each chunk of CHUNK_ROWS rows encodes its samples.  A grid with two or
    more axes encodes its axis labels once and each chunk takes its labels
    from them; a 1-D chunk encodes its own labels with its samples, so the
    writer holds a chunk's text, not the whole axis's.  With `scan_breaks`,
    a blank line follows each run along the last axis of a grid with two
    or more axes, as gnuplot separates scan lines.
    """
    labels = [encode17(axis) for axis in axes] if len(axes) > 1 else None
    shape = tuple(len(axis) for axis in axes)
    flat = np.reshape(values, -1)
    for a in range(0, flat.size, CHUNK_ROWS):
        rows, ends = slice(a, a + CHUNK_ROWS), None
        if labels is None:
            cells = [encode17(axes[0][rows])]
        else:
            index = np.unravel_index(np.arange(a, min(a + CHUNK_ROWS, flat.size)), shape)
            cells = [(t.take(i), slots.take(i, axis=1)) for (t, slots), i in zip(labels, index)]
            ends = index[-1] == shape[-1] - 1 if scan_breaks else None
        cells.append(encode17(flat[rows]))
        yield text17(cells, sep, ends)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box, lo[i] <= x[i] <= hi[i] per axis."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if len(lo) != len(hi) or not lo:
            raise GridSpecError("box bounds must share a nonzero dimension")
        if not all(map(math.isfinite, lo + hi)):
            raise GridSpecError("box bounds must be finite")
        if any(h <= l for l, h in zip(lo, hi)):
            raise GridSpecError("box must be nondegenerate (hi > lo on every axis)")

    @classmethod
    def cube(cls, lo, hi, dim):
        return cls((float(lo),) * dim, (float(hi),) * dim)

    @property
    def dim(self):
        return len(self.lo)

    @property
    def lengths(self):
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def volume(self):
        return float(math.prod(self.lengths))

    def expand(self, left, right=0.0):
        """Enlarge every axis by `left` below lo and `right` above hi."""
        if left < 0 or right < 0:
            raise GridSpecError("margins must be nonnegative")
        return Box(tuple(l - left for l in self.lo), tuple(h + right for h in self.hi))

    def contains(self, points):
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((pts >= lo) & (pts <= hi), axis=1)

    def format(self):
        """Render as lo..hi pairs joined by ';', e.g. '0..10;0..10'."""
        return ";".join(f"{fmt17(l)}..{fmt17(h)}" for l, h in zip(self.lo, self.hi))

    @classmethod
    def parse(cls, text):
        lows, highs = [], []
        for part in text.split(";"):
            lo_s, _, hi_s = part.partition("..")
            if not _:
                raise GridSpecError(f"bad box token {part!r}")
            lows.append(float(lo_s))
            highs.append(float(hi_s))
        return cls(tuple(lows), tuple(highs))


@dataclass(frozen=True)
class Grid:
    """Uniform grid over a box, endpoints included, identical step per axis."""

    box: Box
    step: float

    def __post_init__(self):
        h = float(self.step)
        object.__setattr__(self, "step", h)
        if not 0.0 < h < math.inf:
            raise GridSpecError("grid step must be positive and finite")
        for l, hi in zip(self.box.lo, self.box.hi):
            n = (hi - l) / h
            if not math.isfinite(n):
                raise GridSpecError("grid step is too fine for the box")
            if abs(n - round(n)) > 1e-6:
                raise GridSpecError("grid step must tile the box exactly")

    @property
    def dim(self):
        return self.box.dim

    @property
    def shape(self):
        return tuple(
            int(round((hi - l) / self.step)) + 1
            for l, hi in zip(self.box.lo, self.box.hi)
        )

    def whole_steps(self, length):
        """`length` rounded up to a whole number of steps, within 1e-9 step."""
        return math.ceil(length / self.step - 1e-9) * self.step

    def axis(self, i=0):
        return self.box.lo[i] + self.step * np.arange(self.shape[i])

    @property
    def axes(self):
        return tuple(self.axis(i) for i in range(self.dim))

    def trapezoid_weights(self):
        """Per-axis trapezoid quadrature weights (endpoint weights halved)."""
        out = []
        for n in self.shape:
            w = np.full(n, self.step)
            w[0] *= 0.5
            w[-1] *= 0.5
            out.append(w)
        return out

    def weight_array(self):
        """Full tensor-product quadrature weight array matching `shape`."""
        ws = self.trapezoid_weights()
        arr = ws[0]
        for w in ws[1:]:
            arr = np.multiply.outer(arr, w)
        return arr
