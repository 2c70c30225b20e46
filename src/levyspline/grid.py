"""Axis-aligned boxes and uniform sampling grids shared across the package."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


class GridSpecError(Exception):
    """Inconsistent box or grid specification."""


def fmt17(x) -> str:
    """Format a float with 17 significant digits so it round-trips exactly."""
    return format(float(x), ".17g")


def grid_text(axes, values, sep, scan_breaks=False):
    """Yield the rows `x[<sep>y]<sep>v` of `values` sampled on the grid
    `axes`, in row-major order, each number as fmt17 writes it.

    One chunk per run along the last axis: the axis labels are formatted
    once and each run fills one '%.17g' template ('%.17g' % v is
    format(v, '.17g')).  With `scan_breaks`, a blank line follows each run
    of a grid with two or more axes, as gnuplot separates scan lines.
    """
    cells = [f"{fmt17(t)}{sep}%.17g" for t in axes[-1]]
    leads = [[fmt17(t) + sep for t in axis] for axis in axes[:-1]]
    end = "\n\n" if scan_breaks and leads else "\n"
    runs = np.reshape(values, (-1, len(cells)))
    for labels, run in zip(itertools.product(*leads), runs):
        lead = "".join(labels)
        yield (lead + ("\n" + lead).join(cells) + end) % tuple(run.tolist())


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
