"""Levy exponent catalog: evaluation, poissonization, jump laws.

A Levy exponent f is the log-characteristic function of an infinitely
divisible law, f(xi) = log E[exp(i xi X)].  The catalog keeps exponents
symbolic (family plus parameters) so that poissonization and analytic
characteristic functionals stay exact.
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
class JumpLaw:
    """Amplitude law for impulsive noise, with sampler and characteristic function.

    family is one of 'gaussian' (param = variance), 'laplace' (param = scale b),
    'cauchy' (param = scale).  All catalog laws are symmetric about zero.
    """

    family: str
    param: float

    def __post_init__(self):
        if self.family not in ("gaussian", "laplace", "cauchy"):
            raise ExponentError(f"unknown jump law family {self.family!r}")
        if not self.param > 0.0:
            raise ExponentError("jump law parameter must be positive")

    def cf(self, xi):
        """Characteristic function P_hat(xi), vectorized over xi."""
        xi = np.asarray(xi, dtype=float)
        if self.family == "gaussian":
            out = np.exp(-0.5 * self.param * xi**2)
        elif self.family == "laplace":
            out = 1.0 / (1.0 + (self.param * xi) ** 2)
        else:
            out = np.exp(-self.param * np.abs(xi))
        return out

    def sample(self, gen, size):
        """Draw `size` i.i.d. amplitudes from a numpy Generator.

        Gaussian uses the Box-Muller transform, Laplace the difference of
        two exponentials, Cauchy the tangent inversion; all are built from
        uniforms so the draw sequence is pinned by the generator state.
        """
        size = int(size)
        if self.family == "gaussian":
            u1 = gen.random(size)
            u2 = gen.random(size)
            radius = np.sqrt(-2.0 * np.log1p(-u1))
            return math.sqrt(self.param) * radius * np.cos(2.0 * math.pi * u2)
        if self.family == "laplace":
            e1 = -np.log1p(-gen.random(size))
            e2 = -np.log1p(-gen.random(size))
            return self.param * (e1 - e2)
        u = gen.random(size)
        return self.param * np.tan(math.pi * (u - 0.5))

    @property
    def variance(self):
        """Second moment; infinite for the Cauchy family."""
        if self.family == "gaussian":
            return self.param
        if self.family == "laplace":
            return 2.0 * self.param**2
        return math.inf


@dataclass(frozen=True)
class LevyExponent:
    """Symbolic exponent: one of the gaussian / laplace / cauchy / compound
    Poisson families.  Evaluation is exact per family formula."""

    family: str
    sigma2: float | None = None
    c: float | None = None
    lam: float | None = None
    jumps: JumpLaw | None = None

    def __post_init__(self):
        fam = self.family
        if fam in ("gaussian", "laplace"):
            if self.sigma2 is None or not self.sigma2 > 0.0:
                raise ExponentError(f"{fam} exponent needs sigma2 > 0")
        elif fam == "cauchy":
            if self.c is None or not self.c > 0.0:
                raise ExponentError("cauchy exponent needs c > 0")
        elif fam == "compound_poisson":
            if self.lam is None or not self.lam > 0.0:
                raise ExponentError("compound_poisson exponent needs lam > 0")
            if not isinstance(self.jumps, JumpLaw):
                raise ExponentError("compound_poisson exponent needs a JumpLaw")
        else:
            raise ExponentError(f"unknown exponent family {fam!r}")


@dataclass(frozen=True)
class PoissonizedExponent:
    """Exponent lam * (exp(tau * f_base) - 1) of a compound-Poisson noise.

    lam and tau are independent parameters; the convergence construction
    uses lam = n, tau = 1/n.
    """

    base: LevyExponent
    lam: float
    tau: float

    def __post_init__(self):
        if not self.lam > 0.0:
            raise ExponentError("rate lam must be positive")
        if not self.tau > 0.0:
            raise ExponentError("tau must be positive")

    @property
    def jump_law(self):
        """Jump law whose compound-Poisson exponent matches the catalog row.

        Gaussian and Cauchy matches are exact in law.  For the Laplace base
        the catalog pairs rate lam with Laplace jumps of matching variance
        (scale sigma / sqrt(2 lam tau)); that surrogate keeps every second
        moment identity exact.
        """
        base = self.base
        if base.family == "gaussian":
            return JumpLaw("gaussian", base.sigma2 * self.tau)
        if base.family == "laplace":
            return JumpLaw("laplace", math.sqrt(base.sigma2 * self.tau / 2.0))
        if base.family == "cauchy":
            return JumpLaw("cauchy", base.c * self.tau)
        raise ExponentError(f"no jump law for base family {base.family!r}")


def gaussian(sigma2):
    return LevyExponent("gaussian", sigma2=float(sigma2))


def laplace(sigma2):
    return LevyExponent("laplace", sigma2=float(sigma2))


def cauchy(c):
    return LevyExponent("cauchy", c=float(c))


def compound_poisson(lam, jumps):
    return LevyExponent("compound_poisson", lam=float(lam), jumps=jumps)


def evaluate(f, xi):
    """Evaluate an exponent at xi (scalar or array), returning complex values."""
    scalar = np.isscalar(xi) or np.ndim(xi) == 0
    x = np.asarray(xi, dtype=float)
    if isinstance(f, PoissonizedExponent):
        base = evaluate(f.base, x)
        out = f.lam * np.expm1(f.tau * base)
    elif f.family == "gaussian":
        out = (-0.5 * f.sigma2 * x**2).astype(complex)
    elif f.family == "laplace":
        out = (-np.log1p(0.5 * f.sigma2 * x**2)).astype(complex)
    elif f.family == "cauchy":
        out = (-f.c * np.abs(x)).astype(complex)
    else:
        out = f.lam * (f.jumps.cf(x).astype(complex) - 1.0)
    return complex(out) if scalar else out


def poissonize(f, n):
    """Map f to the compound-Poisson exponent n (exp(f/n) - 1) of rate n.

    The returned record evaluates the poissonized formula exactly and
    exposes the matching jump law for sampling.
    """
    if not np.isreal(n) or not n > 0:
        raise ExponentError("poissonization rate n must be a positive real")
    if isinstance(f, PoissonizedExponent) or f.family == "compound_poisson":
        raise ExponentError("exponent is already of compound-Poisson type")
    return PoissonizedExponent(base=f, lam=float(n), tau=1.0 / float(n))


def default_xi_grid():
    """Symmetric log-spaced grid covering both signs of [1e-3, 1e3]."""
    mags = np.logspace(
        math.log10(BOUND_GRID_SPAN[0]), math.log10(BOUND_GRID_SPAN[1]), BOUND_GRID_POINTS
    )
    return np.concatenate([-mags[::-1], mags])


def poissonization_contraction_check(f, n, xi_grid=None):
    """True when |n (exp(f/n) - 1)| <= sqrt(2) |f| holds across the grid."""
    if not n > 0:
        raise ExponentError("n must be positive")
    xi = default_xi_grid() if xi_grid is None else np.asarray(xi_grid, dtype=float)
    vals = evaluate(f, xi)
    fn = n * np.expm1(vals / n)
    return bool(np.all(np.abs(fn) <= SQRT2 * np.abs(vals) + 1e-12))


def exponent_to_kv(f):
    """Serialize an exponent to the key=value block consumed by the CLI."""
    if isinstance(f, PoissonizedExponent):
        base = exponent_to_kv(f.base)
        return f"{base} poissonized_lam={f.lam:.17g} poissonized_tau={f.tau:.17g}"
    if f.family in ("gaussian", "laplace"):
        return f"family={f.family} sigma2={f.sigma2:.17g}"
    if f.family == "cauchy":
        return f"family=cauchy c={f.c:.17g}"
    return f"family=compound_poisson lam={f.lam:.17g} jumps={f.jumps.family}"


def exponent_from_kv(source):
    """Parse 'family=... key=value ...' (string or mapping) into an exponent."""
    if isinstance(source, str):
        pairs = dict(tok.split("=", 1) for tok in source.split())
    else:
        pairs = dict(source)
    fam = pairs.get("family")
    if fam in ("gaussian", "laplace"):
        return LevyExponent(fam, sigma2=float(pairs["sigma2"]))
    if fam == "cauchy":
        return cauchy(float(pairs["c"]))
    raise ExponentError(f"cannot parse exponent family {fam!r}")
