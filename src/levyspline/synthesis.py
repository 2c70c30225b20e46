"""Realization builders.

synthesize_spline turns an impulse field into the random L-spline
s = p0 + sum_k a_k rho_L(. - x_k) sampled on a window grid, with the
null-space term pinned (s(lo) = 0 for causal 1-D operators, zero window
mean for the spectral path).  reference_levy_path draws the limiting
process exactly for the first-derivative operator.  Closed-form causal
families share one O(K + G) engine: bin each impulse to the first grid
point at or beyond it, weight it by its offset to that point, scatter the
weights with one bincount, and run each axis's causal kernel (cumulative
sums or the one-pole exponential recursion) over the bins.  This equals
the Green superposition at the grid points; run time-reversed, the same
kernels give the fast pairing tables in verify.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import JumpLaw
from .grid import Box, Grid, fmt17
from .noise import RngStream
from .operators import (
    OperatorSpec,
    format_operator_config,
    margin_rule,
    one_pole,
    parse_operator_config,
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
    floating-point jitter, clipped into [0, n-1]."""
    r = (np.asarray(coords, dtype=float) - lo) / h
    idx = np.ceil(r - BIN_SNAP).astype(int)
    return np.minimum(np.maximum(idx, 0), n - 1)


def _check_margin(field, op, grid):
    need = margin_rule(op, grid.box)
    slack = 1e-9 * max(1.0, need)
    right_need = need if not op.causal else 0.0
    for axis in range(grid.dim):
        lo_ok = field.box.lo[axis] <= grid.box.lo[axis] - need + slack
        hi_ok = field.box.hi[axis] >= grid.box.hi[axis] + right_need - slack
        if not (lo_ok and hi_ok):
            raise MarginTooSmall(
                f"operator needs a margin of {need:.6g} per side, field box "
                f"{field.box.format()} does not cover grid box {grid.box.format()}"
            )


def synthesize_spline(field, op, grid):
    """Sample s = sum_k a_k rho_L(. - x_k) (plus pinning) on the grid."""
    if field.dim != op.dim or grid.dim != op.dim:
        raise SynthesisError("field, operator, and grid dimensions must agree")
    _check_margin(field, op, grid)
    if op.pinned:
        x, a = _pinned_window_impulses(field, grid)
        samples = _synth_causal(op, grid, (x,), a)
    elif op.causal:
        samples = _synth_causal(op, grid, field.locations.T, field.amplitudes)
    else:
        samples = _synth_spectral(field, op, grid)
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


def _pinned_window_mask(x, grid):
    """Impulses strictly right of the window start and not beyond its end.

    For pinned causal 1-D synthesis an impulse at x_k <= lo contributes a
    pure null-space mode, which the pinning removes exactly, so dropping
    it is algebraically exact rather than a truncation.
    """
    lo, hi = grid.box.lo[0], grid.box.hi[0]
    return (x > lo + BIN_SNAP * grid.step) & (x <= hi)


def _pinned_window_impulses(field, grid):
    x = field.locations[:, 0]
    keep = _pinned_window_mask(x, grid)
    return x[keep], field.amplitudes[keep]


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


def _axis_kernels(op, grid):
    """Causal Green's kernel of each axis as (nodes, moments, filters).

    An impulse of amplitude a at x, binned to the node x_b = x + delta,
    adds to the nodes i >= b the sum over terms j of filters[j] run over
    moments(a, delta)[j] placed at b.  D^n expands ((i - b) h + delta)^(n-1)
    / (n-1)! into the offset moments a delta^j / j! times polynomial kernels
    of degree n - 1 - j; D + alpha I is a exp(-alpha delta) times the
    one-pole recursion r^(i - b), r = exp(-alpha h).
    """
    h = grid.step
    if op.family in ("D", "DxDy"):
        n = op.n if op.family == "D" else 1

        def moments(a, delta):
            out = [a]
            for j in range(1, n):
                out.append(out[-1] * delta / j)
            return out

        filters = [_poly_kernel(n - 1 - j, h) for j in range(n)]
    else:
        r = math.exp(-op.alpha * h)

        def moments(a, delta):
            return [a * np.exp(-op.alpha * delta)]

        filters = [lambda arr, axis: one_pole(arr, r, axis)]
    return [(grid.axis(axis), moments, filters) for axis in range(op.dim)]


def _impulse_terms(kernels, step, coords, amps):
    """Bins of the impulses at coords (one array per axis) and their
    (filters, weights) terms, one per product of the axes' kernel terms."""
    bins, terms = [], [((), amps)]
    for x, (nodes, moments, filters) in zip(coords, kernels):
        idx = _bin_ceil(x, nodes[0], step, nodes.size)
        bins.append(idx)
        terms = [
            (fs + (f,), w) for fs, a in terms for f, w in zip(filters, moments(a, nodes[idx] - x))
        ]
    return bins, terms


def _synth_causal(op, grid, coords, amps):
    """Scatter each term's weights into the bins and run its causal filters."""
    bins, terms = _impulse_terms(_axis_kernels(op, grid), grid.step, coords, amps)
    flat = np.ravel_multi_index(bins, grid.shape)
    parts = []
    for filters, weights in terms:
        acc = np.bincount(flat, weights, minlength=math.prod(grid.shape)).reshape(grid.shape)
        for axis, run in enumerate(filters):
            acc = run(acc, axis)
        parts.append(acc)
    return sum(parts[1:], parts[0])


def _synth_spectral(field, op, grid):
    h = grid.step
    pads_lo = []
    pads_hi = []
    for axis in range(grid.dim):
        pads_lo.append(int(round((grid.box.lo[axis] - field.box.lo[axis]) / h)))
        pads_hi.append(int(round((field.box.hi[axis] - grid.box.hi[axis]) / h)))
    shape = tuple(
        nl + n + nh for nl, n, nh in zip(pads_lo, grid.shape, pads_hi)
    )
    acc = np.zeros(shape)
    if field.count:
        idx = []
        for axis in range(grid.dim):
            lo_pad = grid.box.lo[axis] - pads_lo[axis] * h
            i = np.round((field.locations[:, axis] - lo_pad) / h).astype(int)
            idx.append(np.clip(i, 0, shape[axis] - 1))
        np.add.at(acc, tuple(idx), field.amplitudes / h**grid.dim)
    full = spectral_divide(acc, h, op.gamma)
    crop = tuple(slice(nl, nl + n) for nl, n in zip(pads_lo, grid.shape))
    window = full[crop]
    return window - window.mean()


def reference_levy_path(f, op, grid, rng):
    """Exact-in-law path of the limit process for the first derivative.

    The increments over one step h are i.i.d. draws from the base law at
    time h, JumpLaw(f, h), whose characteristic function is exp(h f(xi)).
    """
    if op.family != "D" or op.n != 1 or grid.dim != 1:
        raise UnsupportedReference(
            "exact references exist only for the first-derivative operator"
        )
    (n,) = grid.shape
    h = grid.step
    inc = JumpLaw(f, h).sample(rng.generator(), n - 1)
    samples = np.concatenate([[0.0], np.cumsum(inc)])
    return GridRealization(
        dim=1,
        box=grid.box,
        step=h,
        samples=samples,
        operator=op,
        provenance=f"reference({f.family})",
        seed=rng.seed,
    )


def ensemble(factory, count, base_seed, start_index=0):
    """Yield count realizations, one RngStream per index.

    factory(stream) must build the realization for that stream; outputs
    are keyed by index so any execution order gives the same ensemble.
    """
    if count < 1:
        raise SynthesisError("ensemble size must be at least 1")
    for i in range(int(count)):
        yield factory(RngStream(base_seed, start_index + i))


def write_realization_csv(real, path):
    header = _realization_header(real)
    axes = real.grid.axes
    lines = [header]
    if real.dim == 1:
        for x, v in zip(axes[0], real.samples):
            lines.append(f"{fmt17(x)},{fmt17(v)}")
    else:
        for i, x in enumerate(axes[0]):
            for j, y in enumerate(axes[1]):
                lines.append(f"{fmt17(x)},{fmt17(y)},{fmt17(real.samples[i, j])}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


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
    op = parse_operator_config("operator=" + meta["operator"].replace(";", " "), dim=dim)
    return dim, box, float(meta["step"]), op, meta["provenance"], int(meta["seed"])


def read_realization_csv(path):
    with open(path) as fh:
        header = fh.readline().strip()
        dim, box, step, op, provenance, seed = _parse_realization_header(header, path)
        rows = [line.strip() for line in fh if line.strip()]
    if not rows:
        raise SynthesisError(f"{path}: no samples")
    values = np.array([float(r.rsplit(",", 1)[1]) for r in rows])
    shape = Grid(box, step).shape
    samples = values.reshape(shape)
    return GridRealization(dim, box, step, samples, op, provenance, seed)


def read_realization_binary(path):
    with open(str(path) + ".hdr") as fh:
        header = fh.readline().strip()
        dim, box, step, op, provenance, seed = _parse_realization_header(header, path)
        shape_line = fh.readline().strip()
    meta = dict(tok.split("=", 1) for tok in shape_line[2:].split())
    shape = tuple(int(v) for v in meta["shape"].split(","))
    samples = np.fromfile(path, dtype="<f8").reshape(shape)
    return GridRealization(dim, box, step, samples, op, provenance, seed)
