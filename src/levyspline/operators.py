"""Spline-admissible operator catalog.

Each operator L comes with a causal or decaying Green's function rho_L
(L rho_L = delta) and an adjoint left inverse T acting on sampled test
functions (T L* phi = phi).  The fractional Laplacian has no closed-form
Green's constant here; it is inverted spectrally with the DC bin zeroed,
which selects one valid left inverse.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# Spectral synthesis pads the window by this fraction of the box length
# per side before inversion to suppress periodic wrap-around.
SPECTRAL_PAD_FRACTION = 0.25
# Minimum number of samples a test function's support must span per axis.
MIN_SUPPORT_SPAN = 16
# one_pole chunks keep -log(r^i) at most this large, so r^{-i} stays finite
# (doubles overflow near exp(709)).
ONE_POLE_LOG_RANGE = 600.0
# Largest n of D^n.  Its synthesis kernel (synthesis._poly_kernel) holds the
# Newton weights p! S(n - 1, p) as int64, and from n = 20 the largest of
# them (2.1e19 at n = 20) passes 2^63 and wraps around.
MAX_DERIVATIVE_ORDER = 19
# Entries kept by each cache of set-up that is built once per key and
# shared read-only: Fourier multipliers per (shape, step, power), of which a
# frac_laplacian study uses about three (synthesis and T on the sampling
# box's torus, adjoint); one_pole's power vectors per (r, chunk size); and
# synthesis engines per (operator, grid, box).
SETUP_CACHE_SIZE = 8


class OperatorError(Exception):
    """Invalid operator construction or application."""


class UnsupportedClosedForm(OperatorError):
    """Operator has no closed-form Green's function; use the spectral path."""


class GridTooCoarse(OperatorError):
    """Test function support spans too few samples for stable quadrature."""


@dataclass(frozen=True)
class _Family:
    """One operator family: its dimension (None: any), the OperatorSpec field
    its descriptor carries (None: no parameter), and, for the causal
    families, its 1-D factor (n, alpha) applied on every axis: D^n when
    alpha is None, D + alpha I otherwise.  Synthesis pins the null-space
    modes of every causal family."""

    dim: int | None
    param: str | None
    factor: object  # (op) -> (n, alpha); None for the spectral family


# The only place that knows an operator family: the n-fold derivative, D +
# alpha I, their separable 2-D products D_x D_y and (D + alpha I) on each
# axis, and the spectral fractional Laplacian (-Laplace)^(gamma/2).
_FAMILIES = {
    "D": _Family(1, "n", lambda op: (op.n, None)),
    "DaI": _Family(1, "alpha", lambda op: (1, op.alpha)),
    "DxDy": _Family(2, None, lambda op: (1, None)),
    "DaIxDaIy": _Family(2, "alpha", lambda op: (1, op.alpha)),
    "frac_laplacian": _Family(None, "gamma", None),
}


# Descriptor keys of the operator parameters, with their types; a family
# takes at most one of them, its _Family.param.
OPERATOR_PARAMS = {"n": int, "alpha": float, "gamma": float}


def _family(name):
    row = _FAMILIES.get(name)
    if row is None:
        raise OperatorError(f"unknown operator family {name!r}")
    return row


def operator_param(family):
    """The parameter key of an operator family (None: it takes none)."""
    return _family(family).param


def check_family_keys(kind, family, param, keys, given):
    """The one rule for operator and noise keys alike: of a kind's parameter
    `keys`, a `kind` family uses only its own `param` (None: none).  Raises
    ValueError if `given` names another of them."""
    for key in given:
        if key in keys and key != param:
            own = f"its parameter is {param}" if param else "it takes no parameter"
            raise ValueError(f"{kind} {family} does not use {key} ({own})")


@dataclass(frozen=True)
class OperatorSpec:
    """One catalog operator: a _FAMILIES row name and that family's
    parameter (n, alpha or gamma) in `dim` dimensions."""

    family: str
    n: int = 1
    alpha: float | None = None
    gamma: float | None = None
    dim: int = 1

    def __post_init__(self):
        row = _family(self.family)
        if row.dim is not None and self.dim != row.dim:
            raise OperatorError(f"{self.family} requires dim={row.dim}")
        if self.dim < 1:
            raise OperatorError(f"{self.family} requires dim >= 1")
        if row.param is not None:
            value = getattr(self, row.param)
            if value is None or isinstance(value, complex) or not 0 < value < math.inf:
                raise OperatorError(f"{self.family} requires a real, finite {row.param} > 0")
            if row.param == "n" and value > MAX_DERIVATIVE_ORDER:
                raise OperatorError(f"{self.family} requires n <= {MAX_DERIVATIVE_ORDER}")

    @property
    def causal(self):
        return _FAMILIES[self.family].factor is not None

    @property
    def pinned(self):
        """Synthesis pins the null-space modes, s = 0 at the window start of
        every axis, exactly when the operator is causal."""
        return self.causal

    @property
    def factors(self):
        """The 1-D factor (n, alpha) of every axis, D^n when alpha is None
        and D + alpha I otherwise; empty for the spectral family."""
        factor = _FAMILIES[self.family].factor
        return () if factor is None else (factor(self),) * self.dim


def make_operator(family, n=1, alpha=None, gamma=None, dim=None):
    """OperatorSpec keeping only the family's own parameter (the others
    stay at their defaults), in the family's dimension unless `dim` is given."""
    row = _family(family)
    given = {"n": int(n), "alpha": alpha, "gamma": gamma}
    kw = {} if row.param is None else {row.param: given[row.param]}
    if dim is None:
        dim = row.dim or 1
    return OperatorSpec(family=family, dim=int(dim), **kw)


def parse_operator_config(source, dim=None):
    """Parse an 'operator=DaI alpha=0.1' style descriptor string.
    Only the family's own parameter is read; another family's is an error."""
    try:
        pairs = dict(tok.split("=", 1) for tok in source.split())
    except ValueError as exc:
        raise OperatorError(f"bad operator descriptor {source!r}") from exc
    if "operator" not in pairs:
        raise OperatorError("operator descriptor missing 'operator=' token")
    fam = pairs["operator"]
    param = operator_param(fam)
    try:
        check_family_keys("operator", fam, param, OPERATOR_PARAMS, pairs)
        kw = {param: OPERATOR_PARAMS[param](pairs[param])} if param in pairs else {}
        use_dim = int(pairs["dim"]) if "dim" in pairs else dim
    except ValueError as exc:
        raise OperatorError(f"bad operator descriptor {source!r}: {exc}") from exc
    return make_operator(fam, dim=use_dim, **kw)


def format_operator_config(op):
    """Inverse of parse_operator_config for the catalog grammar."""
    param = _FAMILIES[op.family].param
    if param is None:
        return f"operator={op.family}"
    return f"operator={op.family} {param}={getattr(op, param):.17g}"


def margin_rule(op, box):
    """Per-side sampling margin the operator needs around `box`.

    A causal operator needs none: its pinning cancels every impulse at or
    left of the window start on some axis, so a margin would only be drawn
    and dropped.  The spectral path pads its torus against wrap-around.
    """
    return 0.0 if op.causal else SPECTRAL_PAD_FRACTION * max(box.lengths)


def grid_margin(op, grid):
    """The operator's margin rule on the grid's window, rounded up to whole
    grid steps: the margin a run records and a study draws impulses on and
    integrates the analytic functional over."""
    return grid.whole_steps(margin_rule(op, grid.box))


def sampling_box(op, box, margin):
    """Box the impulses are drawn on: `box` widened by `margin` on the left,
    and on the right too unless the operator is causal."""
    if margin == 0:
        return box
    return box.expand(margin, 0.0 if op.causal else margin)


def _green_factor(factor, t):
    """Green's function of one 1-D factor at offsets t."""
    n, alpha = factor
    mask = t >= 0.0
    if alpha is not None:
        return np.where(mask, np.exp(-alpha * np.where(mask, t, 0.0)), 0.0)
    if n == 1:
        return mask.astype(float)
    out = np.where(mask, t, 0.0) ** (n - 1) / math.factorial(n - 1)
    return np.where(mask, out, 0.0)


def green(op, x):
    """Closed-form Green's function, Heaviside convention u(0) = 1: the
    product over axes of each axis factor's Green's function.

    In 1-D `x` holds offsets of any shape; in more dimensions it is one
    point or an (N, dim) array of points.
    """
    if not op.causal:
        raise UnsupportedClosedForm(
            "fractional Laplacian has no closed-form kernel here; use the spectral path"
        )
    pts = np.asarray(x, dtype=float)
    coords = [pts] if op.dim == 1 else [pts[..., axis] for axis in range(op.dim)]
    out = functools.reduce(np.multiply, map(_green_factor, op.factors, coords))
    return float(out) if np.ndim(out) == 0 else out


def _support_spans(phi):
    """Span in samples of the nonzero region along each axis."""
    nz = phi != 0.0
    spans = []
    for axis in range(phi.ndim):
        other = tuple(i for i in range(phi.ndim) if i != axis)
        line = nz.any(axis=other) if other else nz
        idx = np.nonzero(line)[0]
        spans.append(0 if idx.size == 0 else int(idx[-1] - idx[0] + 1))
    return spans


def _check_support(phi):
    if not np.any(phi):
        return False
    if min(_support_spans(phi)) < MIN_SUPPORT_SPAN:
        raise GridTooCoarse(
            f"test function support spans fewer than {MIN_SUPPORT_SPAN} samples"
        )
    return True


def one_pole(x, r, axis=-1):
    """One-pole recursion y_i = x_i + r y_{i-1} along `axis`, y_{-1} = 0,
    for 0 <= r <= 1.

    Computed as y_i = r^i cumsum(x r^{-i}) over chunks short enough that
    r^{-i} stays finite; each chunk adds its predecessor's last value times
    r^{i+1}.  r = 0 (exp(-alpha h) underflowed) takes chunks of one, so the
    recursion is the identity; r = 1 (alpha h below round-off) takes one
    chunk of length n, the cumulative sum.  The power vectors
    (_one_pole_powers) broadcast along `axis`, and every step works in
    place in the one output array.
    """
    x = np.asarray(x, dtype=float)
    y = np.empty_like(x)
    axis = axis % x.ndim
    n = x.shape[axis]
    span = 1 if r == 0 else n if r == 1 else int(ONE_POLE_LOG_RANGE / -math.log(r))
    size = max(1, min(n, span))
    shape = (size,) + (1,) * (x.ndim - 1 - axis)
    grow, decay, carry_decay = (p.reshape(shape) for p in _one_pole_powers(r, size))

    def along(s):
        return (slice(None),) * axis + (s,)

    for start in range(0, n, size):
        m = min(size, n - start)
        head = slice(0, m)
        chunk = y[along(slice(start, start + m))]
        np.multiply(x[along(slice(start, start + m))], grow[head], out=chunk)
        np.cumsum(chunk, axis=axis, out=chunk)
        chunk *= decay[head]
        if start:
            chunk += y[along(slice(start - 1, start))] * carry_decay[head]
    return y


@functools.lru_cache(maxsize=SETUP_CACHE_SIZE)
def _one_pole_powers(r, size):
    """r^{-i}, r^i and r^{i+1} for i < size: one_pole's chunk vectors.

    Cached per (r, chunk size) and read-only, because every caller gets
    the same arrays.
    """
    i = np.arange(size, dtype=float)
    powers = np.power(r, -i), np.power(r, i), np.power(r, i + 1.0)
    for p in powers:
        p.flags.writeable = False
    return powers


def _tail_integral(phi, h, alpha=None, axis=-1):
    """Trapezoid discretization of integral_x^end exp(-alpha (t - x)) phi(t) dt
    along `axis`; alpha None is the plain right-tail integral (alpha = 0).

    Backward recursion I_i = r I_{i+1} + (h/2)(phi_i + r phi_{i+1}), r =
    exp(-alpha h) (r = 1 for alpha None), I_end = 0: over the reversed
    trapezoid panels u_0 = 0, u_i = (h/2)(psi_i + r psi_{i-1}), psi the
    reversed phi, a running sum for r = 1 and the one-pole recursion
    otherwise.
    """
    r = 1.0 if alpha is None else math.exp(-alpha * h)
    rev = np.moveaxis(np.flip(phi, axis), axis, -1)
    panels = np.zeros_like(rev)
    panels[..., 1:] = 0.5 * h * (rev[..., 1:] + r * rev[..., :-1])
    if alpha is None:
        # u_0 stays out of the sum, so a signed zero keeps its sign
        np.cumsum(panels[..., 1:], axis=-1, out=panels[..., 1:])
        out = panels
    else:
        out = one_pole(panels, r)
    return np.flip(np.moveaxis(out, -1, axis), axis)


@functools.lru_cache(maxsize=SETUP_CACHE_SIZE)
def _fourier_multiplier(shape, h, power):
    """||omega||^power on the rfftn frequency grid of `shape`, DC bin zero.

    Cached per (shape, step, power) and read-only, because every caller
    gets the same array.
    """
    freqs = [2.0 * math.pi * np.fft.fftfreq(n, d=h) for n in shape[:-1]]
    freqs.append(2.0 * math.pi * np.fft.rfftfreq(shape[-1], d=h))
    mesh = np.meshgrid(*freqs, indexing="ij", sparse=True)
    norm = np.sqrt(sum(g**2 for g in mesh))
    with np.errstate(divide="ignore"):
        mult = norm**power
    mult[(0,) * len(shape)] = 0.0
    mult.flags.writeable = False
    return mult


def _apply_multiplier(phi, h, power):
    """Real Fourier multiplier ||omega||^power (DC zeroed) on the periodic grid."""
    axes = tuple(range(phi.ndim))
    spec = np.fft.rfftn(phi, axes=axes)
    spec *= _fourier_multiplier(phi.shape, h, power)
    return np.fft.irfftn(spec, s=phi.shape, axes=axes)


def spectral_divide(phi, h, gamma):
    """Inverse Fourier multiplier ||omega||^(-gamma) with the DC bin zeroed.

    Treats `phi` as one period of a periodic grid function with step `h`
    and returns an array of the same shape.  The transform runs on the
    half spectrum of the real input, and the multiplier is cached per
    (shape, step, gamma).
    """
    return _apply_multiplier(phi, h, -gamma)


def spectral_multiply(phi, h, gamma):
    """Forward Fourier multiplier ||omega||^gamma (DC stays zero)."""
    return _apply_multiplier(phi, h, gamma)


def _run_factors(op, arr, d, shift=None):
    """Run each axis's factor over `arr` in axis order, `d(arr, axis)`
    standing for D: n times for D^n, and for D + alpha I
    `shift(arr, axis, alpha)`, by default d(arr, axis) + alpha arr."""
    for axis, (n, alpha) in enumerate(op.factors):
        if alpha is None:
            for _ in range(n):
                arr = d(arr, axis)
        elif shift is None:
            arr = d(arr, axis) + alpha * arr
        else:
            arr = shift(arr, axis, alpha)
    return arr


def apply_T(op, phi, step):
    """Adjoint left inverse on a sampled test function.

    phi must be compactly supported inside the grid; its support must span
    at least MIN_SUPPORT_SPAN samples per axis.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != op.dim:
        raise OperatorError("test function dimension must match the operator")
    if not _check_support(phi):
        return np.zeros_like(phi)
    h = float(step)
    if not op.causal:
        return spectral_divide(phi, h, op.gamma)
    return _run_factors(
        op,
        phi,
        lambda arr, axis: _tail_integral(arr, h, axis=axis),
        lambda arr, axis, alpha: _tail_integral(arr, h, alpha, axis),
    )


def apply_adjoint(op, phi, step):
    """Sampled adjoint L* phi via central differences (spectral ops exactly)."""
    phi = np.asarray(phi, dtype=float)
    h = float(step)
    if not op.causal:
        return spectral_multiply(phi, h, op.gamma)
    return _run_factors(op, phi, lambda arr, axis: -np.gradient(arr, h, axis=axis, edge_order=2))

