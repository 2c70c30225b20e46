"""Exponent catalog, poissonization, and jump laws."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from levyspline.exponents import (
    ExponentError,
    JumpLaw,
    LevyExponent,
    PoissonizedExponent,
    cauchy,
    default_xi_grid,
    evaluate,
    gaussian,
    laplace,
    poissonization_contraction_check,
    poissonize,
)
from levyspline.grid import Box, Grid
from levyspline.operators import make_operator
from levyspline.verify import NoiseFloor, build_cf_bank, convergence_study


def test_evaluate_frozen_values():
    assert evaluate(gaussian(2.0), 1.5) == pytest.approx(-2.25)
    assert evaluate(laplace(2.0), 1.5) == pytest.approx(-1.1786549963416462)
    assert evaluate(cauchy(1.3), -2.0) == pytest.approx(-2.6)
    cp = PoissonizedExponent(gaussian(0.25), 2.0)
    assert evaluate(cp, 1.0) == pytest.approx(2.0 * math.expm1(-0.0625))
    fn = poissonize(gaussian(1.0), 4.0)
    assert evaluate(fn, 1.0) == pytest.approx(-0.4700123896616184)


def test_evaluate_vectorizes_and_vanishes_at_origin():
    xi = np.linspace(-5.0, 5.0, 41)
    for f in (gaussian(1.0), laplace(0.7), cauchy(2.0), poissonize(cauchy(1.0), 3.0)):
        vals = evaluate(f, xi)
        assert vals.shape == xi.shape
        assert vals.dtype == complex
        assert vals[20] == 0.0  # f(0) = 0
        # symmetric families have real, even exponents
        np.testing.assert_allclose(vals.imag, 0.0, atol=1e-15)
        np.testing.assert_allclose(vals, vals[::-1], atol=1e-14)
        assert np.all(vals.real <= 0.0)


def test_family_validation():
    with pytest.raises(ExponentError):
        gaussian(-1.0)
    with pytest.raises(ExponentError):
        laplace(0.0)
    with pytest.raises(ExponentError):
        cauchy(-0.5)
    with pytest.raises(ExponentError):
        PoissonizedExponent(gaussian(1.0), -2.0)
    with pytest.raises(ExponentError):
        LevyExponent("triangular", sigma2=1.0)
    with pytest.raises(ExponentError):
        JumpLaw(gaussian(1.0), 0.0)
    with pytest.raises(ExponentError):
        JumpLaw(poissonize(gaussian(1.0), 2.0), 1.0)


def test_poissonize_rate_and_jump_laws():
    # the rate-n jumps are the base law at time 1/n, for every family
    for f in (gaussian(2.0), laplace(2.0), cauchy(1.3)):
        fn = poissonize(f, 4.0)
        assert fn.lam == 4.0
        assert fn.tau == pytest.approx(0.25)
        assert fn.jump_law == JumpLaw(f, fn.tau)
    # the rate alone fixes the exponent: tau is 1 / lam, to the bit
    fn = poissonize(gaussian(1.0), 3.0)
    assert [fld.name for fld in dataclasses.fields(fn)] == ["base", "lam"]
    assert fn.tau == 1.0 / 3.0
    assert fn.jump_law.t == 1.0 / 3.0


def test_poissonize_rejects_bad_inputs():
    with pytest.raises(ExponentError):
        poissonize(gaussian(1.0), 0.0)
    with pytest.raises(ExponentError):
        poissonize(gaussian(1.0), -3.0)
    cp = PoissonizedExponent(gaussian(1.0), 1.0)
    with pytest.raises(ExponentError):
        poissonize(cp, 2.0)


def test_poissonized_evaluate_matches_compound_formula():
    # lam (P_hat(xi) - 1) with P_hat = exp(tau f) the jump law's CF
    f = poissonize(gaussian(1.5), 5.0)
    xi = np.linspace(-4.0, 4.0, 17)
    direct = 5.0 * (np.exp(0.2 * -0.75 * xi**2) - 1.0)
    np.testing.assert_allclose(evaluate(f, xi), direct, atol=1e-14)


def test_jump_law_cf_matches_samples():
    # JumpLaw(f, t) is the base law at time t: its sampled CF is exp(t f),
    # within 4 / sqrt(M) at 20 frequencies, for every family
    m = 10**5
    xi = np.linspace(-3.0, 3.0, 20)
    tol = 4.0 / math.sqrt(m)
    for f in (gaussian(0.8), laplace(0.72), cauchy(0.5)):
        for t in (1 / 64, 1 / 4, 1.0, 0.01):
            draws = JumpLaw(f, t).sample(np.random.default_rng(101), m)
            emp = np.exp(1j * np.outer(xi, draws)).mean(axis=1)
            assert np.abs(emp - np.exp(t * evaluate(f, xi))).max() < tol, (f, t)


def test_jump_law_moments():
    gen = np.random.default_rng(7)
    g = JumpLaw(gaussian(0.8), 1.0).sample(gen, 10**5)
    assert np.var(g) == pytest.approx(0.8, rel=0.05)
    assert np.mean(g) == pytest.approx(0.0, abs=0.02)
    la = JumpLaw(laplace(2 * 0.6**2), 1.0).sample(gen, 10**5)
    assert np.var(la) == pytest.approx(2 * 0.6**2, rel=0.05)
    ca = JumpLaw(cauchy(0.5), 1.0).sample(gen, 10**5)
    # quartiles of a centered Cauchy sit at +-scale
    q1, q3 = np.quantile(ca, [0.25, 0.75])
    assert q3 == pytest.approx(0.5, rel=0.05)
    assert q1 == pytest.approx(-0.5, rel=0.05)


def test_gaussian_draw_is_the_scaled_standard_normal():
    # the Gaussian rule: numpy's standard_normal times sqrt(sigma2 t), one
    # normal per draw, so a seeded generator pins every amplitude
    for s2, t, n in ((0.8, 1 / 64, 1000), (2.5, 0.01, 7), (1.0, 1.0, 0)):
        got = JumpLaw(gaussian(s2), t).sample(np.random.default_rng(5), n)
        want = math.sqrt(s2 * t) * np.random.default_rng(5).standard_normal(n)
        np.testing.assert_array_equal(got, want)


def test_cauchy_draw_is_the_tangent_inversion_bit_for_bit():
    # the in-place draw makes the operations of (c t) tan(pi (u - 1/2)) on
    # the same uniforms, in the same order
    for c, t, n in ((0.7, 0.25, 5000), (3.0, 1 / 64, 9), (1.0, 1.0, 0)):
        got = JumpLaw(cauchy(c), t).sample(np.random.default_rng(4), n)
        u = np.random.default_rng(4).random(n)
        want = (c * t) * np.tan(math.pi * (u - 0.5))
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [1, 10, 100])
@pytest.mark.parametrize(
    "f", [gaussian(1.0), gaussian(4.0), laplace(2.0), cauchy(1.0)], ids=lambda f: f.family
)
def test_poissonization_contraction(f, n):
    assert poissonization_contraction_check(f, n)
    xi = default_xi_grid()
    fn = evaluate(poissonize(f, n), xi)
    base = evaluate(f, xi)
    assert np.all(np.abs(fn) <= math.sqrt(2.0) * np.abs(base) + 1e-12)


def test_poissonization_error_decays_like_one_over_n():
    # sup |f_n - f| over a fixed grid should fall at first order in 1/n
    f = gaussian(1.0)
    xi = np.linspace(-2.0, 2.0, 201)
    ns = np.array([8.0, 16.0, 32.0, 64.0, 128.0])
    errs = []
    for n in ns:
        errs.append(np.abs(evaluate(poissonize(f, n), xi) - evaluate(f, xi)).max())
    slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
    assert -1.1 < slope < -0.9


def test_summary_exponent_line():
    # the exponent line of a study's summary.txt names the family and its
    # parameter at 17 significant digits
    grid = Grid(Box.cube(0.0, 10.0, 1), 0.05)
    bank = build_cf_bank(grid)
    for f, line in (
        (gaussian(1.5), "exponent: family=gaussian sigma2=1.5"),
        (laplace(2.5), "exponent: family=laplace sigma2=2.5"),
        (cauchy(0.7), "exponent: family=cauchy c=0.69999999999999996"),
    ):
        try:
            report = convergence_study(f, make_operator("D"), (1.0, 4.0, 16.0), 100, bank)
        except NoiseFloor as exc:
            report = exc.report
        assert report.summary_text().splitlines()[2] == line


def test_characteristic_function_is_positive_definite():
    # Gram matrix of exp(f(xi_j - xi_k)) must be PSD for a valid exponent
    xi = np.linspace(-2.0, 2.0, 9)
    for f in (gaussian(1.0), cauchy(1.0), laplace(1.0), poissonize(gaussian(1.0), 3.0)):
        mat = np.exp(evaluate(f, xi[:, None] - xi[None, :]))
        mat = 0.5 * (mat + mat.conj().T)
        assert np.linalg.eigvalsh(mat).min() > -1e-10


def test_compound_count_distribution():
    # sanity tie-in: Poisson counts at rate lam t match scipy's pmf
    gen = np.random.default_rng(5)
    counts = gen.poisson(6.0, 40000)
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    expected = stats.poisson.pmf(np.arange(kmax + 1), 6.0) * counts.size
    # merge the sparse tail so every chi-square cell has mass
    cut = np.searchsorted(np.cumsum(expected), expected.sum() - 5.0)
    obs = np.append(observed[:cut], observed[cut:].sum())
    exp = np.append(expected[:cut], expected[cut:].sum())
    assert stats.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue > 1e-3
