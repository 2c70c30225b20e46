"""Realization builders.

synthesize_spline turns an impulse field into the random L-spline
s = p0 + sum_k a_k rho_L(. - x_k) sampled on a window grid, with the
null-space term pinned (s(lo) = 0 for causal 1-D operators, zero window
mean for the spectral path).  reference_levy_path runs the limit noise,
one increment per cell (limit_cell_block), through the same engine: an
exact limit-process path for the first derivative.  Every operator runs
on one O(K + G) engine: scatter the impulses with one bincount per kernel
term, then invert L.  Causal families bin each impulse to the first node
at or beyond it, weighted by its offset, and run each axis's causal
kernel (cumulative sums or the one-pole recursion), which equals the
Green superposition at the nodes; the fractional Laplacian rounds to the
nearest node of the torus whose period is the sampling box, so every node
holds one full cell, and divides by ||omega||^gamma.  The engine's adjoint
is the pairing table of every convergence study.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exponents import JumpLaw
from .grid import Box, Grid, fmt17, grid_text
from .noise import ImpulseBlock
from .operators import (
    OperatorSpec,
    format_operator_config,
    margin_rule,
    one_pole,
    parse_operator_config,
    sampling_box,
    spectral_divide,
)

# Relative slack when snapping impulse coordinates to grid bins.
BIN_SNAP = 1e-9


class SynthesisError(Exception):
    """Realization construction failed."""


class MarginTooSmall(SynthesisError):
    """Field box does not cover the grid plus the operator's margin rule."""


class UnsupportedReference(SynthesisError):
    """No exact reference sampler exists for this operator or family."""


@dataclass(frozen=True, eq=False)
class GridRealization:
    """Dense samples of a process on a uniform grid with run metadata."""

    dim: int
    box: Box
    step: float
    samples: np.ndarray
    operator: OperatorSpec
    provenance: str
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=float))

    @property
    def grid(self):
        return Grid(self.box, self.step)


def _bin_ceil(coords, lo, h, n):
    """First grid index at or beyond each coordinate, snapped against
    floating-point jitter, clipped into [0, n-1].  The subtraction and the
    final cast to intp allocate; ceil and clip run in place in the float
    domain, so a coordinate far beyond the grid clips to n-1 before the
    cast instead of overflowing it."""
    r = np.subtract(coords, lo, dtype=float)
    r /= h
    r -= BIN_SNAP
    np.ceil(r, out=r)
    np.clip(r, 0, n - 1, out=r)
    return r.astype(np.intp)


def _check_margin(field, op, grid):
    need = margin_rule(op, grid.box)
    want = sampling_box(op, grid.box, need)
    slack = 1e-9 * max(1.0, need)
    lo_ok = all(f <= w + slack for f, w in zip(field.box.lo, want.lo))
    hi_ok = all(f >= w - slack for f, w in zip(field.box.hi, want.hi))
    if not (lo_ok and hi_ok):
        raise MarginTooSmall(
            f"operator needs a margin of {need:.6g} per side, field box "
            f"{field.box.format()} does not cover grid box {grid.box.format()}"
        )


def synthesize_spline(field, op, grid):
    """Sample s = sum_k a_k rho_L(. - x_k) (plus pinning) on the grid, for
    the impulses of the one-member block `field`."""
    if field.members != 1:
        raise SynthesisError(f"synthesis takes one field, not a block of {field.members}")
    if field.dim != op.dim or grid.dim != op.dim:
        raise SynthesisError("field, operator, and grid dimensions must agree")
    _check_margin(field, op, grid)
    engine = _Engine(op, grid, field.box)
    _, flat, terms = engine.scatter(field.locations, field.amplitudes)
    samples = engine.synthesize(flat, terms)
    if not np.all(np.isfinite(samples)):
        raise SynthesisError("synthesized samples are not finite")
    return GridRealization(
        dim=op.dim,
        box=grid.box,
        step=grid.step,
        samples=samples,
        operator=op,
        provenance=f"poisson(lambda={fmt17(field.rate)})",
        seed=field.seed,
    )


def _causal_kept(coords, op, grid):
    """The impulses a causal scatter keeps: on every axis those not beyond
    the window end, and for a pinned operator those strictly right of the
    window start; slice(None) when it keeps them all.

    A causal kernel is zero left of its impulse, so an impulse beyond the
    window end adds nothing to the window.  For pinned causal 1-D synthesis
    an impulse at x_k <= lo contributes a pure null-space mode, which the
    pinning removes exactly, so dropping it is algebraically exact rather
    than a truncation.  Per-axis min and max decide; the mask is built only
    when an impulse is dropped.
    """
    if not coords[0].size:
        return slice(None)
    start = grid.box.lo[0] + BIN_SNAP * grid.step
    his = grid.box.hi
    if all(x.max() <= hi for x, hi in zip(coords, his)) and not (
        op.pinned and coords[0].min() <= start
    ):
        return slice(None)
    mask = coords[0] <= his[0]
    for x, hi in zip(coords[1:], his[1:]):
        mask &= x <= hi
    if op.pinned:
        mask &= coords[0] > start
    return mask


def _poly_kernel(m, h):
    """Causal recursion y[i] = sum_{b <= i} c[b] ((i - b) h)^m / m! along an axis.

    Newton's series i^m = sum_p (Delta^p 0^m) C(i, p), whose weights
    Delta^p 0^m = p! S(m, p) are Stirling numbers of the second kind, makes
    it repeated cumulative sums: C(i - b, p) is p + 1 cumulative sums of a
    unit impulse at b + p.
    """
    if m == 0:
        return np.cumsum
    weights = [int(np.diff(np.arange(m + 1) ** m, p)[0]) for p in range(m + 1)]
    scale = h**m / math.factorial(m)

    def run(arr, axis):
        z = np.moveaxis(arr, axis, -1)
        out = np.zeros_like(z)
        for p, c in enumerate(weights):
            z = np.cumsum(z, axis=-1)
            out[..., p:] += c * z[..., : z.shape[-1] - p]
        return np.moveaxis(scale * out, -1, axis)

    return run


def _factor_kernel(factor, h):
    """Causal Green's kernel of one axis factor (n, alpha) as (moments, filters).

    An impulse of amplitude a at x, binned to the node x_b = x + delta,
    adds to the nodes i >= b the sum over terms j of filters[j] run over
    moments(a, offset)[j] placed at b, where offset() returns a fresh array
    of the deltas.  D^n expands ((i - b) h + delta)^(n-1) / (n-1)! into the
    offset moments a delta^j / j! times polynomial kernels of degree
    n - 1 - j, so D^1's one moment is the amplitude itself and never calls
    offset(); D + alpha I is a exp(-alpha delta), computed inside the offset
    array, times the one-pole recursion r^(i - b), r = exp(-alpha h).
    """
    n, alpha = factor
    if alpha is None:

        def moments(a, offset):
            out = [a]
            if n > 1:
                delta = offset()
                for j in range(1, n):
                    out.append(out[-1] * delta / j)
            return out

        return moments, [_poly_kernel(n - 1 - j, h) for j in range(n)]
    r = math.exp(-alpha * h)

    def moments(a, offset):
        w = offset()
        w *= -alpha
        np.exp(w, out=w)
        w *= a
        return [w]

    return moments, [lambda arr, axis: one_pole(arr, r, axis)]


def _offset(nodes, idx, x):
    """offset() -> nodes[idx] - x, a fresh array, for _factor_kernel's moments."""

    def offset():
        delta = nodes[idx]
        delta -= x
        return delta

    return offset


def _axis_kernels(op, grid):
    """(nodes, moments, filters) of each axis's factor."""
    return [(grid.axis(axis), *_factor_kernel(f, grid.step)) for axis, f in enumerate(op.factors)]


class _Engine:
    """Scatter grid, kernel terms and adjoint of one operator on one window.

    Causal operators scatter onto the window, the fractional Laplacian onto
    the torus whose period is the field `box`: one node per step of the
    box, starting at its low corner, so its high corner wraps to node 0.
    Build one per synthesis call or study rung, not per block.
    """

    def __init__(self, op, grid, box):
        self.op, self.grid, self.box = op, grid, box
        h = grid.step
        if op.causal:
            self.kernels = _axis_kernels(op, grid)
            self.filters = list(itertools.product(*(f for _, _, f in self.kernels)))
            self.shape = grid.shape
        else:
            pads_lo = [int(round((lo - blo) / h)) for lo, blo in zip(grid.box.lo, box.lo)]
            pads_hi = [int(round((bhi - hi) / h)) for hi, bhi in zip(grid.box.hi, box.hi)]
            self.filters = [()]
            self.shape = tuple(nl + n - 1 + nh for nl, n, nh in zip(pads_lo, grid.shape, pads_hi))
            self.origin = [lo - nl * h for lo, nl in zip(grid.box.lo, pads_lo)]
            self.crop = tuple(slice(nl, nl + n) for nl, n in zip(pads_lo, grid.shape))
        self.cells = math.prod(self.shape)

    def scatter(self, locations, amplitudes):
        """Impulses kept (a causal scatter drops those beyond the window end
        and, pinned, those at or left of its start; slice(None) when it
        drops none), their flat cells on the scatter grid, and one (axis
        filters, weights) pair per kernel term.  A causal axis bins each
        impulse to the first node at or beyond it; the node-minus-impulse
        offset is computed only for a factor whose moments read it.  A
        spectral axis bins it to the nearest torus node, modulo the
        period."""
        grid, h = self.grid, self.grid.step
        coords = [locations[:, axis] for axis in range(grid.dim)]
        if self.op.causal:
            kept = _causal_kept(coords, self.op, grid)
            if not isinstance(kept, slice):
                coords = [x[kept] for x in coords]
            bins, weights = [], [amplitudes[kept]]
            for x, (nodes, moments, _) in zip(coords, self.kernels):
                idx = _bin_ceil(x, nodes[0], h, nodes.size)
                bins.append(idx)
                offset = _offset(nodes, idx, x)
                weights = [w for a in weights for w in moments(a, offset)]
        else:
            kept = slice(None)
            bins = [
                np.round((x - lo) / h).astype(int) % n
                for x, lo, n in zip(coords, self.origin, self.shape)
            ]
            weights = [amplitudes / h**grid.dim]
        flat = bins[0]
        for idx, n in zip(bins[1:], self.shape[1:]):
            flat = flat * n + idx
        return kept, flat, list(zip(self.filters, weights))

    def synthesize(self, flat, terms):
        """Window samples from one member's scatter: one bincount per term,
        its axis filters, then (spectral) the division, crop and mean."""
        parts = []
        for filters, weights in terms:
            acc = np.bincount(flat, weights, minlength=self.cells).reshape(self.shape)
            for axis, run in enumerate(filters):
                acc = run(acc, axis)
            parts.append(acc)
        out = sum(parts[1:], parts[0])
        if self.op.causal:
            return out
        window = spectral_divide(out, self.grid.step, self.op.gamma)[self.crop]
        return window - window.mean()

    def tables(self, phis):
        """Adjoint of synthesis on the quadrature-weighted test functions:
        one (cells, len(phis)) table per kernel term, so that <s, phi> is
        the sum over terms of hist @ table.  Causal filters run
        time-reversed; the spectral path takes w phi minus its window
        mean, embedded in the torus, through the symmetric spectral
        division (the scatter weights already carry 1 / h^dim)."""
        grid = self.grid
        axes = tuple(range(1, grid.dim + 1))
        wphis = grid.weight_array() * np.stack(phis)
        if self.op.causal:
            out = []
            for filters in self.filters:
                t = np.flip(wphis, axes)
                for axis, run in enumerate(filters, start=1):
                    t = run(t, axis)
                out.append(np.flip(t, axes))
        else:
            psi = np.zeros((len(phis),) + self.shape)
            psi[(slice(None),) + self.crop] = wphis - wphis.mean(axis=axes, keepdims=True)
            out = [np.stack([spectral_divide(p, grid.step, self.op.gamma) for p in psi])]
        return [t.reshape(len(phis), self.cells).T for t in out]


def limit_cell_block(f, engine, rng, members):
    """`members` draws of the limit noise (rate inf) as one ImpulseBlock,
    from one sample call: an impulse at each cell's node, whose amplitude is
    the noise's increment over the cell.  For the first derivative a cell is
    a step (x_{i-1}, x_i], its increment JumpLaw(f, h), with characteristic
    function exp(h f(xi)).  Raises UnsupportedReference for every other operator."""
    op, grid = engine.op, engine.grid
    if op.family != "D" or op.n != 1 or grid.dim != 1:
        raise UnsupportedReference(
            "exact references exist only for the first-derivative operator "
            f"(operator=D n=1), not {format_operator_config(op)}"
        )
    # a node past the window end by round-off would be dropped by the scatter
    nodes = np.minimum(grid.axis(0)[1:], grid.box.hi[0])
    amplitudes = JumpLaw(f, grid.step).sample(rng.generator(), members * nodes.size)
    counts, locations = np.full(members, nodes.size), np.tile(nodes, members)[:, None]
    return ImpulseBlock(1, engine.box, counts, locations, amplitudes, math.inf, rng.seed, rng.index)


def reference_levy_path(f, op, grid, rng):
    """Exact-in-law path of the limit process: the one-member
    limit_cell_block drawn from `rng`, run through the engine (for the
    first derivative, 0 at the window start plus one increment per step)."""
    engine = _Engine(op, grid, grid.box)
    block = limit_cell_block(f, engine, rng, 1)
    _, flat, terms = engine.scatter(block.locations, block.amplitudes)
    samples = engine.synthesize(flat, terms)
    return GridRealization(1, grid.box, grid.step, samples, op, f"reference({f.family})", rng.seed)


def write_realization_csv(real, path):
    with open(path, "w") as fh:
        fh.write(_realization_header(real) + "\n")
        fh.writelines(grid_text(real.grid.axes, real.samples, ","))


def write_realization_binary(real, path):
    """Raw little-endian float64 dump plus a sidecar .hdr text file."""
    data = np.ascontiguousarray(real.samples, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(data.tobytes())
    shape = ",".join(str(n) for n in real.samples.shape)
    with open(str(path) + ".hdr", "w") as fh:
        fh.write(_realization_header(real) + "\n")
        fh.write(f"# shape={shape} dtype=<f8 order=C\n")


def _realization_header(real):
    op_token = ";".join(format_operator_config(real.operator).split())
    return (
        f"# dim={real.dim} box={real.box.format()} step={fmt17(real.step)} "
        f"{op_token} provenance={real.provenance} seed={real.seed}"
    )


def _parse_realization_header(header, path):
    if not header.startswith("# "):
        raise SynthesisError(f"{path}: missing realization header")
    meta = dict(tok.split("=", 1) for tok in header[2:].split())
    dim = int(meta["dim"])
    box = Box.parse(meta["box"])
    if box.dim != dim:
        raise SynthesisError(f"{path}: header says dim={dim} over a box of dimension {box.dim}")
    op = parse_operator_config("operator=" + meta["operator"].replace(";", " "), dim=dim)
    return dim, box, float(meta["step"]), op, meta["provenance"], int(meta["seed"])


def read_realization_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
    dim, box, step, op, provenance, seed = _parse_realization_header(header, path)
    # loadtxt skips the header as a '#' comment; it reads a path faster than
    # an open text handle
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        values = np.loadtxt(path, delimiter=",", usecols=dim, ndmin=1)
    if not values.size:
        raise SynthesisError(f"{path}: no samples")
    samples = values.reshape(Grid(box, step).shape)
    return GridRealization(dim, box, step, samples, op, provenance, seed)


def read_realization_binary(path):
    with open(str(path) + ".hdr") as fh:
        header = fh.readline().strip()
        dim, box, step, op, provenance, seed = _parse_realization_header(header, path)
        shape_line = fh.readline().strip()
    meta = dict(tok.split("=", 1) for tok in shape_line[2:].split())
    shape = tuple(int(v) for v in meta["shape"].split(","))
    if shape != Grid(box, step).shape:
        raise SynthesisError(f"{path}: header says shape={meta['shape']}, not its grid's shape")
    samples = np.fromfile(path, dtype="<f8").reshape(shape)
    return GridRealization(dim, box, step, samples, op, provenance, seed)
