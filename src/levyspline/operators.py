"""Spline-admissible operator catalog.

Each operator L comes with a causal or decaying Green's function rho_L
(L rho_L = delta), an adjoint left inverse T acting on sampled test
functions (T L* phi = phi), and discrete forward applications used to
recover impulse trains from synthesized realizations.  The fractional
Laplacian has no closed-form Green's constant here; it is inverted
spectrally with the DC bin zeroed, which selects one valid left inverse.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

# Margin tolerance for exponentially decaying kernels: margin solves
# exp(-alpha * margin) < TRUNCATION_TOL.
TRUNCATION_TOL = 1e-6
# Spectral synthesis pads the window by this fraction of the box length
# per side before inversion to suppress periodic wrap-around.
SPECTRAL_PAD_FRACTION = 0.25
# Minimum number of samples a test function's support must span per axis.
MIN_SUPPORT_SPAN = 16
# one_pole chunks keep -log(r^i) at most this large, so r^{-i} stays finite
# (doubles overflow near exp(709)).
ONE_POLE_LOG_RANGE = 600.0
# Fourier multipliers kept per (shape, step, power): a frac_laplacian study
# uses about four (padded synthesis, T, adjoint, discrete L).
SPECTRAL_CACHE_SIZE = 8


class OperatorError(Exception):
    """Invalid operator construction or application."""


class UnsupportedClosedForm(OperatorError):
    """Operator has no closed-form Green's function; use the spectral path."""


class GridTooCoarse(OperatorError):
    """Test function support spans too few samples for stable quadrature."""


@dataclass(frozen=True)
class OperatorSpec:
    """One catalog operator.

    family: 'D' (n-fold derivative, 1-D), 'DaI' (D + alpha I, 1-D),
    'DxDy' (separable first derivatives, 2-D), 'DaIxDaIy' (separable
    D + alpha I, 2-D), 'frac_laplacian' ((-Laplace)^(gamma/2), spectral).
    """

    family: str
    n: int = 1
    alpha: float | None = None
    gamma: float | None = None
    dim: int = 1

    def __post_init__(self):
        fam = self.family
        if fam == "D":
            if self.dim != 1 or self.n < 1:
                raise OperatorError("D requires dim=1 and n >= 1")
        elif fam == "DaI":
            if self.dim != 1:
                raise OperatorError("DaI requires dim=1")
            self._check_alpha()
        elif fam == "DxDy":
            if self.dim != 2:
                raise OperatorError("DxDy requires dim=2")
        elif fam == "DaIxDaIy":
            if self.dim != 2:
                raise OperatorError("DaIxDaIy requires dim=2")
            self._check_alpha()
        elif fam == "frac_laplacian":
            if self.gamma is None or not self.gamma > 0.0:
                raise OperatorError("frac_laplacian requires gamma > 0")
            if self.dim < 1:
                raise OperatorError("frac_laplacian requires dim >= 1")
        else:
            raise OperatorError(f"unknown operator family {fam!r}")

    def _check_alpha(self):
        if self.alpha is None or isinstance(self.alpha, complex):
            raise OperatorError("exponential family requires a real alpha > 0")
        if not self.alpha > 0.0:
            raise OperatorError("exponential family requires alpha > 0")

    @property
    def inversion(self):
        return "spectral" if self.family == "frac_laplacian" else "closed_form"

    @property
    def causal(self):
        return self.family != "frac_laplacian"

    @property
    def pinned(self):
        """Causal 1-D synthesis pins the null-space mode so s(lo) = 0."""
        return self.family in ("D", "DaI")


def make_operator(family, n=1, alpha=None, gamma=None, dim=None):
    if dim is None:
        dim = 2 if family in ("DxDy", "DaIxDaIy") else 1
    return OperatorSpec(family=family, n=int(n), alpha=alpha, gamma=gamma, dim=int(dim))


def parse_operator_config(source, dim=None):
    """Parse 'operator=DaI alpha=0.1' style descriptors (string or mapping)."""
    if isinstance(source, str):
        try:
            pairs = dict(tok.split("=", 1) for tok in source.split())
        except ValueError as exc:
            raise OperatorError(f"bad operator descriptor {source!r}") from exc
    else:
        pairs = {k: str(v) for k, v in dict(source).items()}
    if "operator" not in pairs:
        raise OperatorError("operator descriptor missing 'operator=' token")
    fam = pairs["operator"]
    kw = {}
    try:
        if "n" in pairs:
            kw["n"] = int(pairs["n"])
        if "alpha" in pairs:
            kw["alpha"] = float(pairs["alpha"])
        if "gamma" in pairs:
            kw["gamma"] = float(pairs["gamma"])
        use_dim = int(pairs["dim"]) if "dim" in pairs else dim
    except ValueError as exc:
        raise OperatorError(f"bad numeric value in operator descriptor {source!r}") from exc
    return make_operator(fam, dim=use_dim, **kw)


def format_operator_config(op):
    """Inverse of parse_operator_config for the catalog grammar."""
    if op.family == "D":
        return f"operator=D n={op.n}"
    if op.family == "DaI":
        return f"operator=DaI alpha={op.alpha:.17g}"
    if op.family == "DxDy":
        return "operator=DxDy"
    if op.family == "DaIxDaIy":
        return f"operator=DaIxDaIy alpha={op.alpha:.17g}"
    return f"operator=frac_laplacian gamma={op.gamma:.17g}"


def margin_rule(op, box):
    """Per-side sampling margin required by the operator's kernel decay.

    Pinned operators need none: pinning cancels every impulse at or left
    of the window start, so a margin would only be drawn and dropped.
    """
    if op.pinned or op.family == "DxDy":
        return 0.0
    if op.family == "DaIxDaIy":
        return math.log(1.0 / TRUNCATION_TOL) / op.alpha
    return SPECTRAL_PAD_FRACTION * max(box.lengths)


def sampling_box(op, box, margin):
    """Box the impulses are drawn on: `box` widened by `margin` on the left,
    and on the right too unless the operator is causal."""
    if margin == 0:
        return box
    return box.expand(margin, 0.0 if op.causal else margin)


def green(op, x):
    """Closed-form Green's function, Heaviside convention u(0) = 1."""
    if op.inversion != "closed_form":
        raise UnsupportedClosedForm(
            "fractional Laplacian has no closed-form kernel here; use the spectral path"
        )
    if op.dim == 1:
        t = np.asarray(x, dtype=float)
        if op.family == "D":
            mask = t >= 0.0
            if op.n == 1:
                out = mask.astype(float)
            else:
                out = np.where(mask, t, 0.0) ** (op.n - 1) / math.factorial(op.n - 1)
                out = np.where(mask, out, 0.0)
        else:
            out = np.where(t >= 0.0, np.exp(-op.alpha * np.where(t >= 0.0, t, 0.0)), 0.0)
        return float(out) if np.ndim(x) == 0 else out
    pts = np.asarray(x, dtype=float)
    scalar = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if op.family == "DxDy":
        out = ((pts[:, 0] >= 0.0) & (pts[:, 1] >= 0.0)).astype(float)
    else:
        mask = (pts[:, 0] >= 0.0) & (pts[:, 1] >= 0.0)
        decay = np.exp(-op.alpha * np.clip(pts[:, 0], 0.0, None)) * np.exp(
            -op.alpha * np.clip(pts[:, 1], 0.0, None)
        )
        out = np.where(mask, decay, 0.0)
    return float(out[0]) if scalar else out


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


def _tail_integral(phi, h, axis=-1):
    """Right-tail trapezoid integral along `axis`: out(x) = integral_x^end phi."""
    phi = np.moveaxis(phi, axis, -1)
    panels = 0.5 * h * (phi[..., :-1] + phi[..., 1:])
    out = np.zeros_like(phi)
    out[..., :-1] = np.flip(np.cumsum(np.flip(panels, -1), axis=-1), -1)
    return np.moveaxis(out, -1, axis)


def one_pole(x, r, axis=-1):
    """One-pole recursion y_i = x_i + r y_{i-1} along `axis`, y_{-1} = 0,
    for 0 < r < 1.

    Computed as y_i = r^i cumsum(x r^{-i}) over chunks short enough that
    r^{-i} stays finite; each chunk adds its predecessor's last value times
    r^{i+1}.  The power vectors broadcast along `axis`, and every step
    works in place in the one output array.
    """
    x = np.asarray(x, dtype=float)
    y = np.empty_like(x)
    axis = axis % x.ndim
    n = x.shape[axis]
    size = max(1, min(n, int(ONE_POLE_LOG_RANGE / -math.log(r))))
    i = np.arange(size, dtype=float).reshape((size,) + (1,) * (x.ndim - 1 - axis))
    grow, decay, carry_decay = np.power(r, -i), np.power(r, i), np.power(r, i + 1.0)

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


def _tail_exp_integral(phi, h, alpha, axis=-1):
    """Trapezoid discretization of integral_x^end exp(-alpha (t - x)) phi(t) dt.

    Backward recursion I_i = r I_{i+1} + (h/2)(phi_i + r phi_{i+1}), r =
    exp(-alpha h), I_end = 0: the one-pole recursion run over the reversed
    trapezoid panels u_0 = 0, u_i = (h/2)(psi_i + r psi_{i-1}), psi the
    reversed phi.
    """
    r = math.exp(-alpha * h)
    rev = np.moveaxis(np.flip(phi, axis), axis, -1)
    panels = np.zeros_like(rev)
    panels[..., 1:] = 0.5 * h * (rev[..., 1:] + r * rev[..., :-1])
    return np.flip(np.moveaxis(one_pole(panels, r), -1, axis), axis)


@functools.lru_cache(maxsize=SPECTRAL_CACHE_SIZE)
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
    if op.family == "D":
        out = phi
        for _ in range(op.n):
            out = _tail_integral(out, h, axis=0)
        return out
    if op.family == "DaI":
        return _tail_exp_integral(phi, h, op.alpha, axis=0)
    if op.family == "DxDy":
        return _tail_integral(_tail_integral(phi, h, axis=0), h, axis=1)
    if op.family == "DaIxDaIy":
        out = _tail_exp_integral(phi, h, op.alpha, axis=0)
        return _tail_exp_integral(out, h, op.alpha, axis=1)
    return spectral_divide(phi, h, op.gamma)


def apply_adjoint(op, phi, step):
    """Sampled adjoint L* phi via central differences (spectral ops exactly)."""
    phi = np.asarray(phi, dtype=float)
    h = float(step)
    if op.family == "D":
        out = phi
        for _ in range(op.n):
            out = -np.gradient(out, h, axis=0, edge_order=2)
        return out
    if op.family == "DaI":
        return -np.gradient(phi, h, axis=0, edge_order=2) + op.alpha * phi
    if op.family == "DxDy":
        gx = np.gradient(phi, h, axis=0, edge_order=2)
        return np.gradient(gx, h, axis=1, edge_order=2)
    if op.family == "DaIxDaIy":
        out = -np.gradient(phi, h, axis=0, edge_order=2) + op.alpha * phi
        return -np.gradient(out, h, axis=1, edge_order=2) + op.alpha * out
    return spectral_multiply(phi, h, op.gamma)


def _forward_diff(arr, h, axis):
    out = np.zeros_like(arr)
    src = np.moveaxis(arr, axis, 0)
    dst = np.moveaxis(out, axis, 0)
    dst[:-1] = (src[1:] - src[:-1]) / h
    return out


def apply_L_discrete(op, realization):
    """Discrete forward operator on a GridRealization (or on a raw array
    paired with `step` via apply_L_samples)."""
    out = apply_L_samples(op, realization.samples, realization.step)
    return replace(realization, samples=out)


def apply_L_samples(op, samples, step):
    s = np.asarray(samples, dtype=float)
    h = float(step)
    if op.family == "D":
        out = s
        for _ in range(op.n):
            out = _forward_diff(out, h, axis=0)
        return out
    if op.family == "DaI":
        return _forward_diff(s, h, axis=0) + op.alpha * s
    if op.family == "DxDy":
        return _forward_diff(_forward_diff(s, h, axis=0), h, axis=1)
    if op.family == "DaIxDaIy":
        out = _forward_diff(s, h, axis=0) + op.alpha * s
        return _forward_diff(out, h, axis=1) + op.alpha * out
    return spectral_multiply(s, h, op.gamma)
