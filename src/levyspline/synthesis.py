"""Realization builders.

synthesize_spline turns an impulse field into the random L-spline
s = p0 + sum_k a_k rho_L(. - x_k) sampled on a window grid, with the
null-space term pinned (s(lo) = 0 on every axis of a causal operator,
zero window mean for the spectral path).  Every operator runs on one
O(K + G) engine whose one hand-off from a draw is the cell sums
(_Engine.cell_sums): scatter the impulses, then one bincount per kernel
term gives each cell's sum of that term's weights; synthesis inverts L on
them and a study pairs them with the adjoint tables.  Where a cell weighs
every impulse in it alike (D n=1, DxDy, the fractional Laplacian), the
limit noise is drawn directly as cell sums, one increment per cell times
that weight (limit_cell_sums), and reference_levy_path runs it through the
same engine: an exact limit path.  Causal families bin each impulse to the
first node at or beyond it, weighted by its offset, and run each axis's
causal kernel (cumulative sums or the one-pole recursion), which equals
the Green superposition at the nodes; the fractional Laplacian rounds to
the nearest node of the torus whose period is the sampling box, so every
node holds one full cell, and divides by ||omega||^gamma.  engine_for
builds each engine once per (operator, grid, field box) and hands every
caller the same read-only engine.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .exponents import JumpLaw
from .grid import Box, Grid, fmt17, grid_text
from .operators import (
    SETUP_CACHE_SIZE,
    OperatorSpec,
    format_operator_config,
    grid_margin,
    margin_rule,
    one_pole,
    parse_operator_config,
    sampling_box,
    spectral_divide,
)

# Relative slack when snapping impulse coordinates to grid bins.
BIN_SNAP = 1e-9

# Bytes read at each end of a realization.csv: more than its longest row.
_ROW_BYTES = 256


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
    final cast to intp allocate; ceil and the clip run in place in the
    float domain, so a coordinate far beyond the grid clips to n-1 before
    the cast instead of overflowing it."""
    r = np.subtract(coords, lo, dtype=float)
    r /= h
    r -= BIN_SNAP
    np.ceil(r, out=r)
    np.maximum(r, 0, out=r)
    np.minimum(r, n - 1, out=r)
    return r.astype(np.intp)


def _check_margin(op, grid, box):
    need = margin_rule(op, grid.box)
    want = sampling_box(op, grid.box, need)
    slack = 1e-9 * max(1.0, need)
    lo_ok = all(f <= w + slack for f, w in zip(box.lo, want.lo))
    hi_ok = all(f >= w - slack for f, w in zip(box.hi, want.hi))
    if not (lo_ok and hi_ok):
        raise MarginTooSmall(
            f"operator needs a margin of {need:.6g} per side, field box "
            f"{box.format()} does not cover grid box {grid.box.format()}"
        )


def synthesize_spline(field, op, grid):
    """Sample s = sum_k a_k rho_L(. - x_k) (plus pinning) on the grid, for
    the impulses of the one-member block `field`."""
    if field.members != 1:
        raise SynthesisError(f"synthesis takes one field, not a block of {field.members}")
    if field.dim != op.dim or grid.dim != op.dim:
        raise SynthesisError("field, operator, and grid dimensions must agree")
    engine = engine_for(op, grid, field.box)
    samples = engine.synthesize(engine.cell_sums(field))
    if not np.isfinite(samples).all():
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


def _causal_kept(coords, grid):
    """The impulses a causal scatter keeps: on every axis those strictly
    right of the window start and not beyond its end; slice(None) when it
    keeps them all.

    A causal kernel is zero left of its impulse, so an impulse beyond the
    window end adds nothing to the window.  An impulse at or left of the
    window start on some axis adds to the window a null-space mode of that
    axis's factor, which the pinning removes exactly, so dropping it is
    algebraically exact rather than a truncation.  Per-axis min and max
    decide; the mask is built only when an impulse is dropped.
    """
    if not coords[0].size:
        return slice(None)
    pad = BIN_SNAP * grid.step
    bounds = [(x, lo + pad, hi) for x, lo, hi in zip(coords, grid.box.lo, grid.box.hi)]
    if all(start < x.min() and x.max() <= hi for x, start, hi in bounds):
        return slice(None)
    mask = np.ones(coords[0].size, dtype=bool)
    for x, start, hi in bounds:
        mask &= x <= hi
        mask &= x > start
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


def kernel_terms(op):
    """The number of kernel terms of the engine of `op` (len of its filters):
    over the axes the product of n for D^n and 1 for D + alpha I; 1 for the
    spectral path."""
    return math.prod(n if alpha is None else 1 for n, alpha in op.factors)


def _offset(nodes, idx, x):
    """offset() -> nodes[idx] - x, a fresh array, for _factor_kernel's
    moments; clamped at 0, since an impulse _bin_ceil snaps back onto its
    node lies on it."""

    def offset():
        delta = nodes[idx]
        delta -= x
        np.maximum(delta, 0.0, out=delta)
        return delta

    return offset


def _axis_kernels(op, grid):
    """(nodes, moments, filters) of each axis's factor, the nodes read-only."""
    out = []
    for axis, f in enumerate(op.factors):
        nodes = grid.axis(axis)
        nodes.flags.writeable = False
        out.append((nodes, *_factor_kernel(f, grid.step)))
    return tuple(out)


class _Engine:
    """Scatter grid, kernel terms and adjoint of one operator on one window.

    Causal operators scatter onto the window, the fractional Laplacian onto
    the torus whose period is the field `box`: one node per step of the
    box, starting at its low corner, so its high corner wraps to node 0.
    Built only by engine_for, and read-only once built: every caller with
    the same key shares it.
    """

    def __init__(self, op, grid, box):
        self.op, self.grid, self.box = op, grid, box
        h = grid.step
        if op.causal:
            self.kernels = _axis_kernels(op, grid)
            self.filters = tuple(itertools.product(*(f for _, _, f in self.kernels)))
            self.shape = grid.shape
        else:
            pads_lo = [int(round((lo - blo) / h)) for lo, blo in zip(grid.box.lo, box.lo)]
            pads_hi = [int(round((bhi - hi) / h)) for hi, bhi in zip(grid.box.hi, box.hi)]
            self.filters = ((),)
            self.shape = tuple(nl + n - 1 + nh for nl, n, nh in zip(pads_lo, grid.shape, pads_hi))
            self.origin = tuple(lo - nl * h for lo, nl in zip(grid.box.lo, pads_lo))
            self.crop = tuple(slice(nl, nl + n) for nl, n in zip(pads_lo, grid.shape))
        self.cells = math.prod(self.shape)

    def scatter(self, locations, amplitudes):
        """Impulses kept (a causal scatter drops those beyond the window end
        and those at or left of its start; slice(None) when it drops none),
        their flat cells on the scatter grid, and one weight array per
        kernel term, in the order of self.filters.  A causal axis
        bins each impulse to the first node at or beyond it; the
        node-minus-impulse offset is computed only for a factor whose
        moments read it.  A spectral axis bins it to the nearest torus
        node, modulo the period."""
        grid, h = self.grid, self.grid.step
        coords = [locations[:, axis] for axis in range(grid.dim)]
        if self.op.causal:
            kept = _causal_kept(coords, grid)
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
        return kept, flat, weights

    def cell_sums(self, block):
        """Each cell's sum of kernel-term weights over the impulses of every
        member of `block`: one (members, cells) array per kernel term, in
        the order of self.filters.  The one hand-off from a draw to
        synthesis and to the pairing tables: one scatter, each kept
        impulse's flat cell offset by its member's row, and one bincount
        per term."""
        kept, flat, weights = self.scatter(block.locations, block.amplitudes)
        members = block.members
        if members > 1:
            flat += np.repeat(np.arange(members) * self.cells, block.counts)[kept]
        size = members * self.cells
        return [np.bincount(flat, w, minlength=size).reshape(members, self.cells) for w in weights]

    def synthesize(self, sums):
        """Window samples from one member's cell sums, a list of one array of
        self.cells values per kernel term, which it empties: each term's
        axis filters, then (spectral) the division, crop and mean.  A term's
        sums are freed once its first filter has read them, so a 2-D
        causal window holds two grid arrays at a time, not three."""
        parts = []
        for filters in self.filters:
            acc = sums.pop(0).reshape(self.shape)
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
        the sum over terms of cell_sums @ table.  Causal filters run
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


@functools.lru_cache(maxsize=SETUP_CACHE_SIZE)
def engine_for(op, grid, box):
    """The engine of `op` on `grid` for impulses on the field box `box`,
    built once per (op, grid, box) and shared read-only by every caller.
    Raises MarginTooSmall when `box` does not cover the grid plus the
    operator's margin rule; a refusal is raised again on every call, since
    the cache keeps only returned engines."""
    _check_margin(op, grid, box)
    return _Engine(op, grid, box)


def limit_cell_sums(f, engine, rng, members):
    """`members` draws of the limit noise (rate inf) as the engine's cell
    sums, from one sample call: each cell's sum is the noise's increment
    over the cell, JumpLaw(f, h^dim), times the weight the scatter gives
    any impulse in it (1 / h^dim on the spectral torus), drawn member by
    member.  A causal cell at index 0 on some axis is pinned and holds
    nothing.  Raises UnsupportedReference when that weight reads the
    impulse's offset in its cell (D^n, n >= 2, and D + alpha I)."""
    op, grid = engine.op, engine.grid
    if any(factor != (1, None) for factor in op.factors):
        raise UnsupportedReference(
            "exact references exist only for operators whose cells weigh impulses alike "
            f"(D n=1, DxDy, frac_laplacian), not {format_operator_config(op)}"
        )
    measure = grid.step**grid.dim
    sums = np.zeros((members,) + engine.shape)
    cells = sums[(slice(None),) + (slice(int(op.causal), None),) * grid.dim]
    cells[...] = JumpLaw(f, measure).sample(rng.generator(), cells.size).reshape(cells.shape)
    if not op.causal:
        cells /= measure
    return [sums.reshape(members, engine.cells)]


def reference_levy_path(f, op, grid, rng):
    """Exact-in-law path of the limit process: the one-member
    limit_cell_sums drawn from `rng`, run through the engine on the operator's
    own sampling box (for D, 0 at the window start plus one increment per step)."""
    engine = engine_for(op, grid, sampling_box(op, grid.box, grid_margin(op, grid)))
    samples = engine.synthesize(limit_cell_sums(f, engine, rng, 1))
    provenance = f"reference({f.family})"
    return GridRealization(grid.dim, grid.box, grid.step, samples, op, provenance, rng.seed)


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
    with open(path, "rb") as fh:
        header = fh.readline().decode().strip()
        head = fh.read(_ROW_BYTES)
        fh.seek(max(fh.seek(0, os.SEEK_END) - _ROW_BYTES, 0))
        tail = fh.read()
    dim, box, step, op, provenance, seed = _parse_realization_header(header, path)
    # loadtxt skips the header as a '#' comment; it reads a path faster than
    # an open text handle
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        values = np.loadtxt(path, delimiter=",", usecols=dim, ndmin=1)
    if not values.size:
        raise SynthesisError(f"{path}: no samples")
    grid = Grid(box, step)
    samples = values.reshape(grid.shape)
    # with the node count fixed, the labels of the first and last rows fix
    # the box and the step; the rows between are not read
    ends = ((head.lstrip().split(b"\n", 1)[0], box.lo),
            (tail.rstrip().rsplit(b"\n", 1)[-1],
             [lo + step * (n - 1) for lo, n in zip(box.lo, grid.shape)]))
    for row, nodes in ends:
        labels = [float(v) for v in row.split(b",")[:dim]]
        if not all(abs(x - node) <= BIN_SNAP * step for x, node in zip(labels, nodes)):
            raise SynthesisError(
                f"{path}: a row labelled {','.join(map(fmt17, labels))} where the header's "
                f"grid has node {','.join(map(fmt17, nodes))}"
            )
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
