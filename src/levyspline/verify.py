"""Convergence-in-law verification.

The theorem under test says the compound-Poisson processes with exponent
f_n = n (exp(f/n) - 1) converge in law to the process with exponent f.
Pointwise convergence of characteristic functionals E[exp(i <s, phi>)]
over a finite test-function bank is the measurable surrogate: this module
estimates empirical functionals, computes the analytic limit
exp(integral f(T phi)), and fits the error decay across a rate ladder.
A study has one verdict (CFReport.verdict): it passes when the slope fitted
over the rungs whose mean error exceeds NOISE_SPLIT mean SEs lies in
SLOPE_BAND and no test function's error rises between adjacent rungs by
more than MONOTONE_SLACK times their larger SE (below two rungs: NOISE_FLOOR).
Every pairing runs through one block step (_pair_block) over the blocks
of one rung (_rung_blocks): draw a block of members, take its cell sums
from the synthesis engine (_Engine.cell_sums, one scatter and one
histogram per kernel term), and pair every member with every test
function by one matrix product per term with the engine's adjoint tables.
A study runs it in _study_cf -> _share_sums -> _pair_block;
block_pairings is the same loop in one process, yielding each block's
pairings.  For a causal operator the blocks are drawn on the window cut
one node past the bank's support (_rung_engine): no
impulse beyond it reaches a test function, so the cut changes the draws
and not their law.  A point value is the pairing s(x_i) = <s, delta_i /
w_i> (point_bank), so block_pairings gives the marginals that back up the
functional picture.  At the rate lam = inf the blocks are the limit
process itself, drawn directly as cell sums (synthesis.limit_cell_sums).

Each block draws from its own RngStream, so a rung's blocks are independent
work: _study_cf cuts every rung's blocks into as many contiguous shares as
the study has workers, one per usable CPU (workers.run forks them once per
study), pairs share 0 of every rung itself and share w of every rung in
worker w, which writes its block sums into a table shared by all of them,
and adds each rung's block sums in block order.  Its results, and every
file written from them, have the same bytes for any number of workers.  A
study too small to repay a fork runs in one process, and so does every
study on a platform without fork or in a process that runs other threads.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass

import numpy as np

from . import workers
from .exponents import evaluate, exponent_to_kv, poissonize
from .grid import Box, Grid, fmt17
from .noise import RngStream, sample_impulse_block
from .operators import apply_adjoint, apply_T, format_operator_config, grid_margin
from .operators import sampling_box, support_ends
from .synthesis import BIN_SNAP, engine_for, limit_cell_sums

# Minimum ensemble size for a trustworthy empirical functional.
MIN_ENSEMBLE = 100
# Rungs qualify for the slope fit when bias exceeds this multiple of SE.
NOISE_SPLIT = 3.0
# The verdict's closed slope band, and the rise between adjacent rungs a
# test function's error may take, in the pair's larger standard error.
SLOPE_BAND = (-1.3, -0.7)
MONOTONE_SLACK = 2.0
# Soft cap on total jump amplitudes drawn for a compound-sum reference.
MAX_REFERENCE_VALUES = 10**7
# Study ensembles are drawn in blocks of members sized so that a block's
# histogram cells (scatter cells per member) plus its expected impulses
# stay near this count, which bounds a rung's working memory at every rate.
BLOCK_CELLS = 2**16
# A study is split across forked workers only when each holds at least
# SHARE_WORK units of the study's work, a unit being one scatter cell of
# one member of one rung; an expected impulse counts IMPULSE_WORK units,
# about what its draw, bin and weights cost against a cell's histogram and
# pairing work.  On a 2-vCPU Xeon guest (1-D `D` and `DaI` rungs, 0:10 at
# step 0.01, alternating serial and two-share runs of one rung, each with
# its own fork), two shares beat one in 73 of 324 runs below 2 * SHARE_WORK
# units and in 82 of 144 runs from there to 10^7 units: the threshold sits
# where a fork, its reap and the child's copy-on-write faults cost what the
# second CPU saves, and a study pays them once for all its rungs.
# A study uses at most MAX_WORKERS processes, the most that were measured.
SHARE_WORK = 2**21
IMPULSE_WORK = 6
MAX_WORKERS = 2

# Test-function rows (name, centre fraction per axis, width fraction,
# amplitude) of bumps, as fractions of the box length.  The study bank's
# amplitudes are tuned so the rate-1 rung sits well inside the nonlinear
# regime while mid-ladder rungs stay above the Monte Carlo noise floor at
# ensemble sizes near 1e5; its plateau is CF_PLATEAU (start, end and edge
# fractions, amplitude).  ID_ROWS: unit bumps, by (dimension, zero_mean).
CF_ROWS = (
    ("bump1", (0.15,), 0.12, 1.26),
    ("bump2", (0.11,), 0.08, 2.20),
    ("bump3", (0.20,), 0.16, 0.82),
    ("bump4", (0.17,), 0.10, 1.38),
)
CF_PLATEAU = (0.05, 0.22, 0.04, 1.47)


def _unit_rows(*geometry):
    return tuple((f"bump{k}", c, w, 1.0) for k, (c, w) in enumerate(geometry, start=1))


ID_ROWS = {
    (1, False): _unit_rows(((0.20,), 0.060), ((0.35,), 0.080), ((0.50,), 0.100),
                           ((0.65,), 0.120), ((0.80,), 0.090)),
    (2, False): _unit_rows(((0.46, 0.52), 0.36), ((0.54, 0.48), 0.40), ((0.50, 0.55), 0.42),
                           ((0.48, 0.46), 0.44), ((0.52, 0.50), 0.38)),
    (2, True): _unit_rows(((0.45, 0.50), 0.13), ((0.55, 0.48), 0.15), ((0.50, 0.55), 0.17),
                          ((0.48, 0.45), 0.19), ((0.52, 0.52), 0.16)),
}
ID_ROWS[1, True] = ID_ROWS[1, False]
ZERO_MEAN_WIDEN = 1.6


class VerifyError(Exception):
    """Verification request is malformed or unsupported."""


class GridMismatch(VerifyError):
    """Test function and ensemble live on different grids."""


class NoiseFloor(VerifyError):
    """Too few ladder rungs rise above Monte Carlo noise to fit a slope."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def _bump_profile(x, center, width):
    r = (np.asarray(x, dtype=float) - center) / width
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
    return out


def _smoothstep(u):
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _product_bump(grid, center_fracs, width_frac):
    parts = [
        _bump_profile(x, lo + c * length, width_frac * length)
        for x, lo, length, c in zip(grid.axes, grid.box.lo, grid.box.lengths, center_fracs)
    ]
    out = parts[0]
    for p in parts[1:]:
        out = np.multiply.outer(out, p)
    return out


@dataclass
class TestFunctionBank:
    """Named test functions sampled on one grid."""

    grid: Grid
    names: list
    phis: list

    def __len__(self):
        return len(self.phis)


def _bump_bank(grid, rows, zero_mean=False):
    """The bank of `rows` on `grid`: per row its amplitude times
    _product_bump.  zero_mean=True subtracts from each a copy
    ZERO_MEAN_WIDEN times as wide, scaled so the profile integrates to
    zero (matching the DC-zeroed spectral left inverse), and names it
    zm<name>."""
    weights = grid.weight_array() if zero_mean else None
    names, phis = [], []
    for name, centres, width, amp in rows:
        phi = amp * _product_bump(grid, centres, width)
        if zero_mean:
            wide = _product_bump(grid, centres, ZERO_MEAN_WIDEN * width)
            phi = phi - (np.sum(weights * phi) / np.sum(weights * wide)) * wide
            name = "zm" + name
        names.append(name)
        phis.append(phi)
    return TestFunctionBank(grid=grid, names=names, phis=phis)


def build_cf_bank(grid, op=None):
    """Five-profile bank (the four CF_ROWS bumps and a plateau) for
    functional studies.  The profiles are the same for every operator;
    `op` is accepted and not used."""
    if grid.dim != 1:
        raise VerifyError("functional-study bank is one dimensional")
    bank = _bump_bank(grid, CF_ROWS)
    lo, length, x = grid.box.lo[0], grid.box.lengths[0], grid.axis(0)
    a, b, edge, amp = CF_PLATEAU
    a, b, edge = lo + a * length, lo + b * length, edge * length
    bank.names.append("plateau")
    bank.phis.append(amp * (_smoothstep((x - a) / edge) * _smoothstep((b - x) / edge)))
    return bank


def build_identity_bank(grid, zero_mean=False):
    """Five unit bumps (ID_ROWS) for left-inverse identity checks, in one
    or two dimensions; zero_mean=True makes each integrate to zero."""
    return _bump_bank(grid, ID_ROWS[grid.dim, zero_mean], zero_mean)


def point_bank(grid, points):
    """Point evaluations as a bank: delta_i / w_i at each grid node x_i, so
    that the quadrature pairing <s, delta_i / w_i> is s(x_i).

    A point is a coordinate (1-D) or a tuple of one per axis; raises
    VerifyError unless it is a node of the grid's closed window.
    """
    weights = grid.weight_array()
    names, phis = [], []
    for point in points:
        coords = np.atleast_1d(np.asarray(point, dtype=float))
        if coords.shape != (grid.dim,):
            raise VerifyError(f"point {point!r} does not have {grid.dim} coordinates")
        pos = (coords - grid.box.lo) / grid.step
        idx = np.round(pos)
        if not np.all((idx >= 0) & (idx < grid.shape)):
            raise VerifyError(f"point {point!r} lies outside the window {grid.box.format()}")
        if np.any(np.abs(pos - idx) > BIN_SNAP):
            raise VerifyError(f"point {point!r} is not a grid node")
        node = tuple(idx.astype(int))
        phi = np.zeros(grid.shape)
        phi[node] = 1.0 / weights[node]
        names.append("s(" + ",".join(f"{v:g}" for v in coords) + ")")
        phis.append(phi)
    return TestFunctionBank(grid=grid, names=names, phis=phis)


def left_inverse_residual(op, phi, step):
    """Relative sup-norm of T L*{phi} - phi on the sampling grid."""
    lstar = apply_adjoint(op, phi, step)
    back = apply_T(op, lstar, step)
    return float(np.max(np.abs(back - phi)) / np.max(np.abs(phi)))


@dataclass
class CFEstimate:
    value: complex
    se: float
    count: int


def empirical_cf(realizations, phi):
    """Mean of exp(i <s, phi>) over an ensemble, with its standard error.

    The pairing uses trapezoid quadrature on the realization grid.  The
    complex summands have unit modulus, so the sample standard error is
    sqrt((1 - |mean|^2) / (M - 1)).
    """
    phi = np.asarray(phi, dtype=float)
    weighted = None
    total = 0.0 + 0.0j
    count = 0
    for real in realizations:
        if real.samples.shape != phi.shape:
            raise GridMismatch(
                f"test function shape {phi.shape} does not match ensemble {real.samples.shape}"
            )
        if weighted is None:
            weighted = real.grid.weight_array() * phi
        t = float(np.vdot(weighted, real.samples))
        total += complex(math.cos(t), math.sin(t))
        count += 1
    if count < MIN_ENSEMBLE:
        raise VerifyError(f"ensemble size {count} is below the minimum {MIN_ENSEMBLE}")
    mean, se = _cf_mean_se(total, count)
    return CFEstimate(value=mean, se=float(se), count=count)


def analytic_cf(f, op, phi, grid):
    """exp(integral f(T phi)) by trapezoid quadrature at the grid step.

    The integration domain is the box a study draws on: the window plus
    the grid margin (none for the causal operators, whose pinning cancels
    every contribution from the left of the window).  The spectral path
    integrates over the torus its synthesis runs on, one node per step of
    that box, each weighted h^dim (the trapezoid rule on a periodic grid).
    So any truncation of the integrand at the domain edge is the one the
    study's draws make too: both sides see the same box.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != grid.shape:
        raise GridMismatch("test function must be sampled on the window grid")
    margin = grid_margin(op, grid)
    pad = round(margin / grid.step)
    domain = Grid(sampling_box(op, grid.box, margin), grid.step)
    if op.causal:
        shape, weights = domain.shape, domain.weight_array()
    else:
        shape, weights = engine_for(op, grid, domain.box).shape, grid.step**grid.dim
    embedded = np.zeros(shape)
    embedded[tuple(slice(pad, pad + n) for n in grid.shape)] = phi
    tphi = apply_T(op, embedded, domain.step)
    integrand = evaluate(f, tphi)
    total = complex(np.sum(weights * integrand))
    out = complex(np.exp(total))
    return out


@dataclass
class CFReport:
    """Empirical (rungs, nphi) versus analytic (nphi,) characteristic
    functionals on a rate ladder, and the study's conclusions: abs_err per
    rung and function; mean_err and mean_se per rung; qualified, the rungs
    with mean_err > NOISE_SPLIT * mean_se; slope, the log-log fit of
    mean_err over them (NaN below two).  verdict() passes a slope in
    SLOPE_BAND when no function's error rises between adjacent rungs by
    more than MONOTONE_SLACK times their larger standard error."""

    operator_desc: str
    exponent_desc: str
    ensemble_size: int
    ladder: list
    phi_names: list
    empirical: np.ndarray
    se: np.ndarray
    analytic: np.ndarray

    def __post_init__(self):
        self.abs_err = np.abs(self.empirical - self.analytic[None, :])
        self.mean_err = self.abs_err.mean(axis=1)
        self.mean_se = self.se.mean(axis=1)
        self.qualified = self.mean_err > NOISE_SPLIT * self.mean_se
        self.slope = math.nan
        if int(self.qualified.sum()) >= 2:
            rates = np.asarray(self.ladder)[self.qualified]
            fit = np.polyfit(np.log(rates), np.log(self.mean_err[self.qualified]), 1)
            self.slope = float(fit[0])

    def to_csv(self, path):
        lines = ["lambda,phi,re_emp,im_emp,se,re_ana,im_ana,abs_err"]
        for r, lam in enumerate(self.ladder):
            for j, name in enumerate(self.phi_names):
                emp, ana = self.empirical[r, j], self.analytic[j]
                values = (emp.real, emp.imag, self.se[r, j], ana.real, ana.imag, self.abs_err[r, j])
                lines.append(",".join([fmt17(lam), name, *map(fmt17, values)]))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def per_phi_monotone(self, slack=MONOTONE_SLACK):
        """Errors non-increasing along the ladder, per test function,
        allowing `slack` times the larger standard error of each rung pair."""
        allowed = self.abs_err[:-1] + slack * np.maximum(self.se[:-1], self.se[1:])
        return not np.any(self.abs_err[1:] > allowed)

    def verdict(self):
        """(passed, lines): passed when the slope lies in SLOPE_BAND and
        per_phi_monotone() holds; `lines` are summary.txt's verdict lines,
        one NOISE_FLOOR line for a NaN slope."""
        if math.isnan(self.slope):
            return False, ["verdict=FAIL reason=NOISE_FLOOR"]
        lo, hi = SLOPE_BAND
        checks = {"slope_in_band": lo <= self.slope <= hi, "monotone": self.per_phi_monotone()}
        passed = all(checks.values())
        lines = [f"slope_band={lo:g}..{hi:g}"]
        lines += [f"{name}={'yes' if ok else 'no'}" for name, ok in checks.items()]
        return passed, lines + [f"verdict={'PASS' if passed else 'FAIL'}"]

    def summary_text(self):
        lines = [
            "convergence study summary",
            f"operator: {self.operator_desc}",
            f"exponent: {self.exponent_desc}",
            f"ensemble per rung: {self.ensemble_size}",
        ]
        for r, lam in enumerate(self.ladder):
            tag = "yes" if self.qualified[r] else "no"
            lines.append(
                f"rung lambda={lam:g}: mean_abs_err={self.mean_err[r]:.6g} "
                f"mean_se={self.mean_se[r]:.6g} qualified={tag}"
            )
        if math.isnan(self.slope):
            lines.append("fitted slope: NOISE_FLOOR (too few rungs above noise)")
        else:
            lines.append(f"fitted log-log slope over qualified rungs: {self.slope:.6g}")
        return "\n".join(lines)


def _support_grid(grid, phis):
    """The grid's window cut on each axis to one node past the last node
    where some function of `phis` is nonzero.  A causal table row is zero
    from that node on, so every impulse the cut drops, or bins to its new
    end node, pairs to zero; the end node's halved trapezoid weight falls
    where every function is zero.  An axis keeps its whole window when the
    support reaches its end, and every axis does when no function is
    nonzero."""
    support = np.zeros(grid.shape, dtype=bool)
    for phi in phis:
        support |= phi != 0
    ends = support_ends(support)
    if ends is None:
        return grid
    lo, hi, h = grid.box.lo, list(grid.box.hi), grid.step
    for axis, ((_, last), n) in enumerate(zip(ends, grid.shape)):
        if last + 2 < n:
            hi[axis] = lo[axis] + (last + 1) * h
    return Grid(Box(lo, tuple(hi)), h)


def _rung_engine(op, bank):
    """The synthesis engine of one study rung, on the window plus the grid
    margin: the box analytic_cf integrates over, except that a causal
    operator's window ends on each axis one node past the bank's support
    (_support_grid).  <s, phi> depends on the noise only where
    L^{-1*} phi is nonzero, which for a causal L ends where phi does, and
    a Poisson noise restricted to a sub-box is the same noise on that
    sub-box, so the crop leaves every rung's law as it is and draws,
    scatters and pairs only impulses the bank can see."""
    grid = _support_grid(bank.grid, bank.phis) if op.causal else bank.grid
    return engine_for(op, grid, sampling_box(op, grid.box, grid_margin(op, bank.grid)))


def _rung_tables(engine, bank):
    """The engine's pairing tables of the bank functions cut to its window."""
    window = tuple(slice(n) for n in engine.grid.shape)
    return engine.tables([phi[window] for phi in bank.phis])


def _member_impulses(engine, lam):
    """A member's expected impulse count on the engine's box, one per cell
    at lam = inf (never the seed or the realized counts)."""
    return engine.cells if lam == math.inf else math.ceil(lam * engine.box.volume)


def _block_members(engine, lam):
    """Members per ensemble block: a member holds its scatter cells and its
    expected impulses in the block's working set."""
    return max(1, BLOCK_CELLS // (engine.cells + _member_impulses(engine, lam)))


def _member_work(engine, lam):
    """A member's work in units of one scatter cell (see SHARE_WORK)."""
    return engine.cells + IMPULSE_WORK * _member_impulses(engine, lam)


def _rung_blocks(f, engine, lam, count, base_seed, stream_offset, blocks=slice(None)):
    """The cell sums (_Engine.cell_sums) of the rung's `count` members,
    drawn in ImpulseBlocks on the engine's box (at lam = inf,
    limit_cell_sums), one list per block, or those of the blocks in the
    slice `blocks` of them.

    The block starting at member i draws from RngStream(base_seed,
    stream_offset + i), so rungs with disjoint member ranges never share
    a stream, and a block draws the same whichever range holds it.
    """
    jumps = None if lam == math.inf else poissonize(f, lam).jump_law
    size = _block_members(engine, lam)
    for start in range(0, count, size)[blocks]:
        stream = RngStream(base_seed, stream_offset + start)
        members = min(size, count - start)
        if jumps is None:
            yield limit_cell_sums(f, engine, stream, members)
        else:
            # no local keeps the block, so its impulses are freed once
            # their cell sums are taken, before the next block is drawn
            dim, box = engine.grid.dim, engine.box
            yield engine.cell_sums(sample_impulse_block(dim, box, lam, jumps, stream, members))


def _cf_mean_se(acc, count):
    mean = acc / count
    se = np.sqrt(np.maximum(1.0 - np.abs(mean) ** 2, 0.0) / (count - 1))
    return mean, se


def block_pairings(f, op, lam, count, bank, base_seed, stream_offset=0):
    """Yield the pairings <s, phi> of `count` rate-`lam` members with every
    bank function, one (members, len(bank)) array per block, without
    densifying paths (lam = inf: the limit process, see limit_cell_sums).

    <s, phi> = <w, L^{-1*} phi>: the pairing tables are the synthesis
    engine's adjoint, built once per call.  Each block is drawn once and
    handed over as its (member, cell) sums per kernel term; one matrix
    product per term with the table pairs every member with every test
    function.  This equals synthesize-then-quadrature on the same draws to
    round-off, for every operator.
    """
    engine = _rung_engine(op, bank)
    tables = _rung_tables(engine, bank)
    for sums in _rung_blocks(f, engine, lam, count, base_seed, stream_offset):
        yield _pair_block(tables, sums)


def _pair_block(tables, sums):
    """The (members, len(bank)) pairings of one block from its cell sums:
    per kernel term its (members, cells) sums times its table."""
    return sum(s @ table for s, table in zip(sums, tables))


def _study_shares(engine, rungs, count):
    """Each rung's blocks cut into contiguous slices, one per worker of the
    study: one per usable CPU (at most MAX_WORKERS), but no more than the
    largest rung has blocks or the study has SHARE_WORK of work
    (_member_work per member of every rung) to give each.  A rung with
    fewer blocks than workers leaves some slices empty."""
    nblocks = [-(-count // _block_members(engine, lam)) for lam, _ in rungs]
    work = count * sum(_member_work(engine, lam) for lam, _ in rungs)
    n = max(1, min(workers.usable_cpus(MAX_WORKERS), max(nblocks), work // SHARE_WORK))
    return [[slice(k * b // n, (k + 1) * b // n) for k in range(n)] for b in nblocks]


def _share_sums(f, engine, tables, lam, count, base_seed, stream_offset, blocks):
    """sum over members of exp(i <s, phi>), one row per block of the slice
    `blocks` of the rung, on a built engine and its tables."""
    drawn = _rung_blocks(f, engine, lam, count, base_seed, stream_offset, blocks)
    return np.array(
        [np.exp(1j * _pair_block(tables, sums)).sum(axis=0) for sums in drawn], dtype=complex
    )


def _study_cf(f, op, rungs, count, bank, base_seed):
    """Empirical functionals and standard errors of `count` members on each
    rung of `rungs`, a list of (lam, stream_offset) pairs (lam = inf: the
    limit), as one (mean, se) pair per rung.

    The engine and its pairing tables depend on the operator and the bank
    alone, so they are built once, with one shared table: a row of sums per
    block of every rung, and per worker a count of the rungs it has
    finished.  workers.run pairs share w of every rung (_study_shares) in
    worker w, which writes its block sums into the table in place.  Each
    rung's sums are added in block order, so the result has the same bytes
    for any number of workers.  Raises VerifyError naming the rung and
    blocks, and quoting the error, of a worker that fails.
    """
    engine = _rung_engine(op, bank)
    tables = _rung_tables(engine, bank)
    plans = _study_shares(engine, rungs, count)
    n, nbank = len(plans[0]), len(bank)
    first = np.cumsum([0] + [shares[-1].stop for shares in plans])  # each rung's first row
    shared = mmap.mmap(-1, int(first[-1]) * nbank * 16 + n * 8)  # complex rows, int64 counts
    table = np.frombuffer(shared, complex, int(first[-1]) * nbank).reshape(-1, nbank)
    done = np.frombuffer(shared, np.int64, n, offset=table.nbytes)

    def pair(w):
        for r, (lam, offset) in enumerate(rungs):
            blocks = plans[r][w]
            if blocks.stop > blocks.start:
                sums = _share_sums(f, engine, tables, lam, count, base_seed, offset, blocks)
                rows = table[first[r] + blocks.start : first[r] + blocks.stop]
                if sums.shape != rows.shape:
                    raise VerifyError(f"paired {sums.shape} block sums for {rows.shape}")
                rows[:] = sums
            done[w] += 1

    for w, (code, said) in enumerate(workers.run(pair, n), start=1):
        if code:
            # a worker killed after its last rung is named by that rung
            r = min(int(done[w]), len(rungs) - 1)
            blocks = plans[r][w]
            raise VerifyError(
                f"rung lambda={rungs[r][0]:g}: the worker pairing blocks "
                f"{blocks.start}-{blocks.stop - 1} exited with status {code}"
                + (f": {said}" if said else "")
            )
    out = []
    for r in range(len(rungs)):
        acc = np.zeros(len(bank), dtype=complex)
        for block in table[first[r] : first[r + 1]]:
            acc += block
        out.append(_cf_mean_se(acc, count))
    return out


def rung_cf(f, op, lam, count, bank, base_seed, stream_offset):
    """Empirical functionals and standard errors of one rung (lam = inf: the
    limit): the one-rung study of _study_cf."""
    [(mean, se)] = _study_cf(f, op, [(lam, stream_offset)], count, bank, base_seed)
    return mean, se


def study_ladder(ladder, count):
    """The ladder as floats; raises VerifyError unless it climbs strictly
    through at least 3 positive, finite rungs and `count` reaches MIN_ENSEMBLE."""
    ladder = [float(v) for v in ladder]
    if len(ladder) < 3:
        raise VerifyError("rate ladder needs at least 3 rungs")
    if not all(0.0 < v < math.inf for v in ladder):
        raise VerifyError("rate ladder rungs must be positive and finite")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise VerifyError("rate ladder must be strictly ascending")
    if count < MIN_ENSEMBLE:
        raise VerifyError(f"ensemble size {count} is below the minimum {MIN_ENSEMBLE}")
    return ladder


def convergence_study(f, op, ladder, count, bank, base_seed=0):
    """Empirical vs analytic functionals along an ascending rate ladder.

    Every rung estimates the empirical functional per bank entry from
    `count` realizations of the poissonized process at its rate, and
    compares against the analytic functional of the limit exponent.  The
    rungs run as one _study_cf call, whose workers are forked once for the
    whole ladder.  The CFReport fits the log-log error slope over rungs whose mean error
    exceeds NOISE_SPLIT standard errors; fewer than two such rungs raises
    NoiseFloor (carrying the partial report).
    """
    ladder = study_ladder(ladder, count)
    analytic = np.array([analytic_cf(f, op, phi, bank.grid) for phi in bank.phis])
    if np.any(np.abs(analytic) > 1.0 + 1e-12):
        raise VerifyError("analytic functional exceeded unit modulus")
    rungs = _study_cf(f, op, [(lam, r * int(count)) for r, lam in enumerate(ladder)], int(count),
                      bank, base_seed)
    empirical, se = (np.array(part) for part in zip(*rungs))
    report = CFReport(
        format_operator_config(op), exponent_to_kv(f), int(count), ladder, list(bank.names),
        empirical, se, analytic,
    )
    if math.isnan(report.slope):
        raise NoiseFloor(
            "every ladder rung sits within the Monte Carlo noise floor; "
            "increase the ensemble or lower the ladder",
            report=report,
        )
    return report


def compound_marginal_reference(lam, jump_law, t, draws, seed):
    """Direct draws of sum_{k <= N} a_k with N ~ Poisson(lam t).

    The draw count is capped so the total number of jump amplitudes stays
    near MAX_REFERENCE_VALUES; at large lam*t the sample shrinks but the
    two-sample comparison it feeds remains valid.
    """
    mean_count = lam * t
    budget = max(5000, int(MAX_REFERENCE_VALUES / max(mean_count, 1.0)))
    draws = min(int(draws), budget)
    gen = RngStream(seed, 104729).generator()
    counts = gen.poisson(mean_count, int(draws))
    amps = jump_law.sample(gen, int(counts.sum()))
    bounds = np.concatenate([[0], np.cumsum(counts)])
    csum = np.concatenate([[0.0], np.cumsum(amps)])
    return csum[bounds[1:]] - csum[bounds[:-1]]
