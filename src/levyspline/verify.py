"""Convergence-in-law verification.

The theorem under test says the compound-Poisson processes with exponent
f_n = n (exp(f/n) - 1) converge in law to the process with exponent f.
Pointwise convergence of characteristic functionals E[exp(i <s, phi>)]
over a finite test-function bank is the measurable surrogate: this module
estimates empirical functionals from ensembles, computes the analytic
limit exp(integral f(T phi)), and fits the error decay across a rate
ladder.  Marginal goodness-of-fit tests back up the functional picture.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .exponents import PoissonizedExponent, evaluate, exponent_to_kv, poissonize
from .grid import Grid, fmt17
from .noise import RngStream, sample_impulse_block
from .operators import apply_adjoint, apply_T, format_operator_config, margin_rule, sampling_box
from .synthesis import _axis_kernels, _impulse_terms, _pinned_window_mask, synthesize_spline

# Minimum ensemble size for a trustworthy empirical functional.
MIN_ENSEMBLE = 100
# Rungs qualify for the slope fit when bias exceeds this multiple of SE.
NOISE_SPLIT = 3.0
# Relative level at which truncated integrand tails trigger a warning.
TAIL_LEVEL = 1e-8
# Soft cap on total jump amplitudes drawn for a compound-sum reference.
MAX_REFERENCE_VALUES = 10**7
# Study ensembles are drawn in blocks of members sized so that a block's
# histogram cells (grid points per member) plus its expected impulses stay
# near this count, which bounds a rung's working memory at every rate.
BLOCK_CELLS = 2**16

# Test-function geometry, as fractions of the box length.  The bump
# amplitudes are tuned so the rate-1 rung sits well inside the nonlinear
# regime while mid-ladder rungs stay above the Monte Carlo noise floor at
# ensemble sizes near 1e5.
CF_BUMPS = (
    (0.15, 0.12, 1.26),
    (0.11, 0.08, 2.20),
    (0.20, 0.16, 0.82),
    (0.17, 0.10, 1.38),
)
CF_PLATEAU = (0.05, 0.22, 0.04, 1.47)

ID_BUMPS_1D = ((0.20, 0.060), (0.35, 0.080), (0.50, 0.100), (0.65, 0.120), (0.80, 0.090))
ID_BUMPS_2D = (
    ((0.46, 0.52), 0.36),
    ((0.54, 0.48), 0.40),
    ((0.50, 0.55), 0.42),
    ((0.48, 0.46), 0.44),
    ((0.52, 0.50), 0.38),
)
ZERO_MEAN_BUMPS_2D = (
    ((0.45, 0.50), 0.13),
    ((0.55, 0.48), 0.15),
    ((0.50, 0.55), 0.17),
    ((0.48, 0.45), 0.19),
    ((0.52, 0.52), 0.16),
)
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


class TailTruncationWarning(UserWarning):
    """Analytic-functional integrand has not decayed at the margin edge."""


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


def _plateau_profile(x, a, b, edge):
    x = np.asarray(x, dtype=float)
    return _smoothstep((x - a) / edge) * _smoothstep((b - x) / edge)


def _product_bump(grid, center_fracs, width_frac):
    parts = []
    for axis in range(grid.dim):
        lo = grid.box.lo[axis]
        length = grid.box.lengths[axis]
        parts.append(
            _bump_profile(grid.axis(axis), lo + center_fracs[axis] * length, width_frac * length)
        )
    out = parts[0]
    for p in parts[1:]:
        out = np.multiply.outer(out, p)
    return out


@dataclass
class TestFunctionBank:
    """Named sampled test functions with T phi precomputed for one operator."""

    grid: Grid
    op: object
    names: list
    phis: list
    tphis: list = field(default_factory=list)

    def __len__(self):
        return len(self.phis)


def build_cf_bank(grid, op):
    """Five-profile bank (four bumps and a plateau) for functional studies."""
    if grid.dim != 1:
        raise VerifyError("functional-study bank is one dimensional")
    lo = grid.box.lo[0]
    length = grid.box.lengths[0]
    x = grid.axis(0)
    names, phis = [], []
    for k, (cf, wf, amp) in enumerate(CF_BUMPS, start=1):
        names.append(f"bump{k}")
        phis.append(amp * _bump_profile(x, lo + cf * length, wf * length))
    a, b, edge, amp = CF_PLATEAU
    names.append("plateau")
    phis.append(amp * _plateau_profile(x, lo + a * length, lo + b * length, edge * length))
    tphis = [apply_T(op, phi, grid.step) for phi in phis]
    return TestFunctionBank(grid=grid, op=op, names=names, phis=phis, tphis=tphis)


def build_identity_bank(grid, zero_mean=False):
    """Five unit bumps for left-inverse identity checks.

    zero_mean=True subtracts a widened copy of each bump so the profile
    integrates to zero, matching the DC-zeroed spectral left inverse.
    """
    weights = grid.weight_array()
    names, phis = [], []
    if grid.dim == 1:
        geo = [((c,), w) for c, w in ID_BUMPS_1D]
    else:
        geo = list(ZERO_MEAN_BUMPS_2D if zero_mean else ID_BUMPS_2D)
    for k, (cfs, wf) in enumerate(geo, start=1):
        phi = _product_bump(grid, cfs, wf)
        if zero_mean:
            wide = _product_bump(grid, cfs, ZERO_MEAN_WIDEN * wf)
            phi = phi - (np.sum(weights * phi) / np.sum(weights * wide)) * wide
        names.append(f"zmbump{k}" if zero_mean else f"bump{k}")
        phis.append(phi)
    return TestFunctionBank(grid=grid, op=None, names=names, phis=phis)


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
    mean = total / count
    se = math.sqrt(max(1.0 - abs(mean) ** 2, 0.0) / (count - 1))
    return CFEstimate(value=mean, se=se, count=count)


def _extended_embedding(op, grid):
    """Window grid plus the margin demanded by the operator's decay rule.

    Returns (domain grid, slices embedding the window, pad counts).
    Operators without a margin integrate over the window itself; for the
    pinned ones the pinning cancels every contribution from the left of
    the window, so no margin enters the analytic functional.
    """
    h = grid.step
    need = margin_rule(op, grid.box)
    if need == 0.0:
        return grid, tuple(slice(0, n) for n in grid.shape), [0] * grid.dim
    pad = int(math.ceil(need / h - 1e-9))
    ext = Grid(sampling_box(op, grid.box, pad * h), h)
    slices = tuple(slice(pad, pad + n) for n in grid.shape)
    return ext, slices, [pad] * grid.dim


def analytic_cf(f, op, phi, grid):
    """exp(integral f(T phi)) by trapezoid quadrature at the grid step.

    The integration domain is the window for pinned or margin-free
    operators and the margin-extended grid for decaying kernels; a
    TailTruncationWarning signals an integrand that has not died off at
    the domain edge.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.shape != grid.shape:
        raise GridMismatch("test function must be sampled on the window grid")
    domain, slices, pads = _extended_embedding(op, grid)
    if domain is grid:
        embedded = phi
    else:
        embedded = np.zeros(domain.shape)
        embedded[slices] = phi
    tphi = apply_T(op, embedded, domain.step)
    integrand = evaluate(f, tphi)
    if any(pads):
        peak = float(np.max(np.abs(integrand)))
        for axis in range(domain.dim):
            edges = [0] + ([domain.shape[axis] - 1] if not op.causal else [])
            for edge_idx in edges:
                sl = [slice(None)] * domain.dim
                sl[axis] = edge_idx
                if peak > 0 and float(np.max(np.abs(integrand[tuple(sl)]))) > TAIL_LEVEL * peak:
                    warnings.warn(
                        "integrand has not decayed at the margin edge; increase the margin",
                        TailTruncationWarning,
                        stacklevel=2,
                    )
                    break
            else:
                continue
            break
    total = complex(np.sum(domain.weight_array() * integrand))
    out = complex(np.exp(total))
    return out


@dataclass
class CFReport:
    """Empirical versus analytic characteristic functionals on a rate ladder."""

    operator_desc: str
    exponent_desc: str
    ensemble_size: int
    ladder: list
    phi_names: list
    empirical: np.ndarray  # (rungs, nphi) complex
    se: np.ndarray  # (rungs, nphi)
    analytic: np.ndarray  # (nphi,) complex
    abs_err: np.ndarray  # (rungs, nphi)
    mean_err: np.ndarray  # (rungs,)
    mean_se: np.ndarray  # (rungs,)
    qualified: np.ndarray  # (rungs,) bool
    slope: float

    def to_csv(self, path):
        lines = ["lambda,phi,re_emp,im_emp,se,re_ana,im_ana,abs_err"]
        for r, lam in enumerate(self.ladder):
            for j, name in enumerate(self.phi_names):
                emp = self.empirical[r, j]
                ana = self.analytic[j]
                lines.append(
                    ",".join(
                        [
                            fmt17(lam),
                            name,
                            fmt17(emp.real),
                            fmt17(emp.imag),
                            fmt17(self.se[r, j]),
                            fmt17(ana.real),
                            fmt17(ana.imag),
                            fmt17(self.abs_err[r, j]),
                        ]
                    )
                )
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")

    def per_phi_monotone(self, slack=2.0):
        """Errors non-increasing along the ladder, per test function,
        allowing `slack` standard errors of room."""
        for j in range(len(self.phi_names)):
            for r in range(len(self.ladder) - 1):
                allowed = self.abs_err[r, j] + slack * max(self.se[r, j], self.se[r + 1, j])
                if self.abs_err[r + 1, j] > allowed:
                    return False
        return True

    def mean_monotone(self, slack=2.0):
        for r in range(len(self.ladder) - 1):
            if self.mean_err[r + 1] > self.mean_err[r] + slack * max(
                self.mean_se[r], self.mean_se[r + 1]
            ):
                return False
        return True

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


def _block_members(grid, lam, box):
    """Members per ensemble block, fixed by the grid size and the rung's
    expected impulse count (never by the seed or the realized counts)."""
    per_member = math.prod(grid.shape) + math.ceil(lam * box.volume)
    return max(1, BLOCK_CELLS // per_member)


def _rung_blocks(f, op, lam, count, grid, base_seed, stream_offset):
    """The rung's `count` members as ImpulseBlocks on the margin-extended box.

    The block starting at member i draws from RngStream(base_seed,
    stream_offset + i), so rungs with disjoint member ranges never share
    a stream.
    """
    box = sampling_box(op, grid.box, margin_rule(op, grid.box))
    jumps = poissonize(f, lam).jump_law
    size = _block_members(grid, lam, box)
    for start in range(0, count, size):
        stream = RngStream(base_seed, stream_offset + start)
        yield sample_impulse_block(grid.dim, box, lam, jumps, stream, min(size, count - start))


def _cf_mean_se(acc, count):
    mean = acc / count
    se = np.sqrt(np.maximum(1.0 - np.abs(mean) ** 2, 0.0) / (count - 1))
    return mean, se


def _fast_rung_cf(f, op, lam, count, bank, base_seed, stream_offset):
    """Empirical functionals for one ladder rung of a pinned operator
    without densifying paths.

    <s, phi> = <w, L^{-1*} phi>: the pairing tables are the adjoint of the
    synthesis kernels, each kernel term run time-reversed over the
    quadrature-weighted test functions.  Each block of members is drawn
    once, pinned with the synthesis window mask and binned once; per
    kernel term one bincount scatters the impulse weights into a
    (member, bin) histogram, and one matrix product with the table pairs
    every member with every test function.  The result equals the
    synthesize-then-quadrature pairing of the same draws to round-off for
    every D^n and D + alpha I.
    """
    grid = bank.grid
    h = grid.step
    (n,) = grid.shape
    kernels = _axis_kernels(op, grid)
    _, _, filters = kernels[0]
    wphis = np.flip(grid.trapezoid_weights()[0] * np.stack(bank.phis), axis=-1)
    tables = [np.flip(run(wphis, -1), axis=-1).T for run in filters]
    acc = np.zeros(len(bank), dtype=complex)
    for block in _rung_blocks(f, op, lam, count, grid, base_seed, stream_offset):
        xs = block.locations[:, 0]
        keep = _pinned_window_mask(xs, grid)
        (idx,), terms = _impulse_terms(kernels, h, (xs[keep],), block.amplitudes[keep])
        cells = block.owners()[keep] * n + idx
        t = 0.0
        for table, (_, weights) in zip(tables, terms):
            hist = np.bincount(cells, weights, minlength=block.members * n)
            t = t + hist.reshape(block.members, n) @ table
        acc += np.exp(1j * t).sum(axis=0)
    return _cf_mean_se(acc, count)


def _generic_rung_cf(f, op, lam, count, bank, base_seed, stream_offset):
    """Empirical functionals for one ladder rung by synthesizing every
    member of the same blocks and pairing by quadrature."""
    grid = bank.grid
    weights = grid.weight_array()
    weighted = [weights * phi for phi in bank.phis]
    acc = np.zeros(len(bank), dtype=complex)
    for block in _rung_blocks(f, op, lam, count, grid, base_seed, stream_offset):
        for fld in block.fields():
            real = synthesize_spline(fld, op, grid)
            t = np.array([float(np.sum(wp * real.samples)) for wp in weighted])
            acc += np.exp(1j * t)
    return _cf_mean_se(acc, count)


def convergence_study(f, op, ladder, count, bank, base_seed=0):
    """Empirical vs analytic functionals along an ascending rate ladder.

    Every rung builds the poissonized generator at its rate, estimates the
    empirical functional per bank entry from `count` realizations, and
    compares against the analytic functional of the limit exponent.  The
    log-log error slope is fitted over rungs whose mean error exceeds
    NOISE_SPLIT standard errors; fewer than two such rungs raises
    NoiseFloor (carrying the partial report).
    """
    ladder = [float(v) for v in ladder]
    if len(ladder) < 3:
        raise VerifyError("rate ladder needs at least 3 rungs")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise VerifyError("rate ladder must be strictly ascending")
    if count < MIN_ENSEMBLE:
        raise VerifyError(f"ensemble size {count} is below the minimum {MIN_ENSEMBLE}")
    nphi = len(bank)
    analytic = np.array([analytic_cf(f, op, phi, bank.grid) for phi in bank.phis])
    if np.any(np.abs(analytic) > 1.0 + 1e-12):
        raise VerifyError("analytic functional exceeded unit modulus")
    empirical = np.zeros((len(ladder), nphi), dtype=complex)
    se = np.zeros((len(ladder), nphi))
    runner = _fast_rung_cf if op.pinned else _generic_rung_cf
    for r, lam in enumerate(ladder):
        empirical[r], se[r] = runner(f, op, lam, int(count), bank, base_seed, r * int(count))
    abs_err = np.abs(empirical - analytic[None, :])
    mean_err = abs_err.mean(axis=1)
    mean_se = se.mean(axis=1)
    qualified = mean_err > NOISE_SPLIT * mean_se
    if int(qualified.sum()) >= 2:
        slope = float(
            np.polyfit(np.log(np.asarray(ladder)[qualified]), np.log(mean_err[qualified]), 1)[0]
        )
    else:
        slope = math.nan
    report = CFReport(
        operator_desc=format_operator_config(op),
        exponent_desc=exponent_to_kv(f),
        ensemble_size=int(count),
        ladder=ladder,
        phi_names=list(bank.names),
        empirical=empirical,
        se=se,
        analytic=analytic,
        abs_err=abs_err,
        mean_err=mean_err,
        mean_se=mean_se,
        qualified=qualified,
        slope=slope,
    )
    if math.isnan(slope):
        raise NoiseFloor(
            "every ladder rung sits within the Monte Carlo noise floor; "
            "increase the ensemble or lower the ladder",
            report=report,
        )
    return report


def marginal_values(realizations, t):
    """Stream s(t) over an ensemble of one-dimensional realizations."""
    vals = []
    idx = None
    for real in realizations:
        if idx is None:
            grid = real.grid
            pos = (t - grid.box.lo[0]) / grid.step
            idx = int(round(pos))
            if idx <= 0 or idx > grid.shape[0] - 1:
                raise VerifyError("marginal time must lie inside the window")
        vals.append(real.samples[idx])
    return np.asarray(vals)


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


def marginal_gof(realizations, t, target, reference_draws=10**6, reference_seed=0):
    """Two-sided KS p-value of {s_i(t)} against the marginal law of the target.

    Gaussian and Cauchy targets use exact marginal distributions (asymptotic
    Kolmogorov p-values); compound-Poisson targets are compared against a
    brute-force direct-sum reference sample.
    """
    # scipy.stats is imported here, not with the package: it is the only
    # scipy the package uses, and importing it costs about a second.
    from scipy import stats

    vals = marginal_values(realizations, t)
    if isinstance(target, PoissonizedExponent):
        ref = compound_marginal_reference(
            target.lam, target.jump_law, t, reference_draws, reference_seed
        )
        return float(stats.ks_2samp(vals, ref, mode="asymp").pvalue)
    if target.family == "gaussian":
        return float(
            stats.kstest(vals, "norm", args=(0.0, math.sqrt(target.sigma2 * t)), mode="asymp").pvalue
        )
    if target.family == "cauchy":
        return float(stats.kstest(vals, "cauchy", args=(0.0, target.c * t), mode="asymp").pvalue)
    raise VerifyError(f"no marginal law available for family {target.family!r}")
