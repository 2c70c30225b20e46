"""Levy exponent catalog: evaluation, poissonization, jump laws.

A Levy exponent f is the log-characteristic function of an infinitely
divisible law, f(xi) = log E[exp(i xi X)].  The catalog keeps exponents
symbolic (family plus parameters) so that poissonization and analytic
characteristic functionals stay exact.  Each family is one _FAMILIES row:
its parameter, its exponent and an exact draw from its law at time t,
which serves both the rate-n jumps (t = 1/n) and the reference path
increments (t = grid step).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SQRT2 = math.sqrt(2.0)

# Contraction-check grid: log-spaced magnitudes plus negatives.
BOUND_GRID_POINTS = 200
BOUND_GRID_SPAN = (1e-3, 1e3)


class ExponentError(Exception):
    """Invalid exponent construction or unsupported operation."""


@dataclass(frozen=True)
class _Family:
    """One noise family: the LevyExponent field holding its parameter, its
    exponent f(xi) and an exact draw from its law at time t, whose
    characteristic function is exp(t f(xi))."""

    param: str
    exponent: object  # (f, xi) -> real array
    draw: object  # (gen, f, t, size) -> array of `size` draws


def _gaussian_draw(gen, f, t, size):
    """N(0, sigma2 t): numpy's ziggurat standard normal, scaled in place."""
    out = gen.standard_normal(size)
    out *= math.sqrt(f.sigma2 * t)
    return out


def _laplace_draw(gen, f, t, size):
    """Symmetric variance-gamma: Gamma(t, sigma/sqrt(2)) - Gamma(t, sigma/sqrt(2))."""
    theta = math.sqrt(f.sigma2 / 2.0)
    return gen.gamma(t, theta, size) - gen.gamma(t, theta, size)


def _cauchy_draw(gen, f, t, size):
    """Cauchy(c t) by tangent inversion of a uniform: (c t) tan(pi (u - 1/2)),
    computed in place in the uniforms' array."""
    u = gen.random(size)
    u -= 0.5
    u *= math.pi
    np.tan(u, out=u)
    u *= f.c * t
    return u


_FAMILIES = {
    "gaussian": _Family("sigma2", lambda f, x: -0.5 * f.sigma2 * x**2, _gaussian_draw),
    "laplace": _Family("sigma2", lambda f, x: -np.log1p(0.5 * f.sigma2 * x**2), _laplace_draw),
    "cauchy": _Family("c", lambda f, x: -f.c * np.abs(x), _cauchy_draw),
}
# The parameter keys of the noise families; a family takes one, its _Family.param.
EXPONENT_PARAMS = ("sigma2", "c")


def exponent_param(family):
    """The parameter key of a noise family."""
    row = _FAMILIES.get(family)
    if row is None:
        raise ExponentError(f"unknown exponent family {family!r}")
    return row.param


@dataclass(frozen=True)
class LevyExponent:
    """Symbolic exponent of one _FAMILIES row; evaluation is exact."""

    family: str
    sigma2: float | None = None
    c: float | None = None

    def __post_init__(self):
        param = exponent_param(self.family)
        value = getattr(self, param)
        if value is None or not 0.0 < value < math.inf:
            raise ExponentError(f"{self.family} exponent needs {param} > 0 and finite")


@dataclass(frozen=True)
class JumpLaw:
    """Law of the base Levy process at time t: characteristic function
    exp(t f(xi)).  All catalog laws are symmetric about zero."""

    base: LevyExponent
    t: float

    def __post_init__(self):
        if not isinstance(self.base, LevyExponent):
            raise ExponentError("jump law needs a catalog exponent")
        if not self.t > 0.0:
            raise ExponentError("jump law time t must be positive")

    def sample(self, gen, size):
        """Draw `size` i.i.d. values from a numpy Generator, exactly in law."""
        return _FAMILIES[self.base.family].draw(gen, self.base, self.t, int(size))


@dataclass(frozen=True)
class PoissonizedExponent:
    """Exponent lam * (exp(f_base / lam) - 1) of the rate-lam compound-Poisson
    noise: lam alone fixes it, and its jumps follow the base law at time
    tau = 1 / lam.
    """

    base: LevyExponent
    lam: float

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ExponentError("rate lam must be positive")

    @property
    def tau(self):
        """The jump law's time 1 / lam."""
        return 1.0 / self.lam

    @property
    def jump_law(self):
        """The base law at time tau, whose characteristic function exp(tau f)
        makes the compound-Poisson exponent exactly lam (exp(tau f) - 1)."""
        return JumpLaw(self.base, self.tau)


def gaussian(sigma2):
    return LevyExponent("gaussian", sigma2=float(sigma2))


def laplace(sigma2):
    return LevyExponent("laplace", sigma2=float(sigma2))


def cauchy(c):
    return LevyExponent("cauchy", c=float(c))


def evaluate(f, xi):
    """Evaluate an exponent at xi (scalar or array), returning complex values."""
    scalar = np.isscalar(xi) or np.ndim(xi) == 0
    x = np.asarray(xi, dtype=float)
    if isinstance(f, PoissonizedExponent):
        out = f.lam * np.expm1(f.tau * evaluate(f.base, x))
    else:
        out = _FAMILIES[f.family].exponent(f, x).astype(complex)
    return complex(out) if scalar else out


def poissonize(f, n):
    """Map f to the compound-Poisson exponent n (exp(f/n) - 1) of rate n.

    The returned record evaluates the poissonized formula exactly and
    exposes the matching jump law for sampling.
    """
    if not np.isreal(n) or not n > 0:
        raise ExponentError("poissonization rate n must be a positive real")
    if isinstance(f, PoissonizedExponent):
        raise ExponentError("exponent is already of compound-Poisson type")
    return PoissonizedExponent(base=f, lam=float(n))


def default_xi_grid():
    """Symmetric log-spaced grid covering both signs of [1e-3, 1e3]."""
    mags = np.logspace(
        math.log10(BOUND_GRID_SPAN[0]), math.log10(BOUND_GRID_SPAN[1]), BOUND_GRID_POINTS
    )
    return np.concatenate([-mags[::-1], mags])


def poissonization_contraction_check(f, n):
    """True when |n (exp(f/n) - 1)| <= sqrt(2) |f| holds across default_xi_grid()."""
    if not n > 0:
        raise ExponentError("n must be positive")
    vals = evaluate(f, default_xi_grid())
    fn = n * np.expm1(vals / n)
    return bool(np.all(np.abs(fn) <= SQRT2 * np.abs(vals) + 1e-12))


def exponent_to_kv(f):
    """Serialize an exponent to the key=value block of the exponent line of summary.txt."""
    param = _FAMILIES[f.family].param
    return f"family={f.family} {param}={getattr(f, param):.17g}"
