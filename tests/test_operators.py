"""Operator grammar, Green's functions, right inverses, and adjoints."""

import math

import numpy as np
import pytest
from scipy.signal import lfilter
from levyspline.grid import Box, Grid
from levyspline.operators import (
    GridTooCoarse,
    OperatorError,
    UnsupportedClosedForm,
    apply_adjoint,
    apply_L_samples,
    apply_T,
    format_operator_config,
    green,
    make_operator,
    _tail_exp_integral,
    margin_rule,
    one_pole,
    parse_operator_config,
    sampling_box,
    spectral_divide,
    spectral_multiply,
)


def bump(x, center, width):
    r = (x - center) / width
    out = np.zeros_like(x)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
    return out


def test_make_operator_families():
    assert make_operator("D").dim == 1
    assert make_operator("D", n=3).n == 3
    assert make_operator("DaI", alpha=0.2).alpha == 0.2
    assert make_operator("DxDy").dim == 2
    assert make_operator("DaIxDaIy", alpha=0.1).dim == 2
    assert make_operator("frac_laplacian", gamma=1.5, dim=2).gamma == 1.5


def test_operator_validation():
    with pytest.raises(OperatorError):
        make_operator("Q")
    with pytest.raises(OperatorError):
        make_operator("D", n=0)
    with pytest.raises(OperatorError):
        make_operator("DaI")  # alpha required
    with pytest.raises(OperatorError):
        make_operator("DaI", alpha=-0.1)
    with pytest.raises(OperatorError):
        make_operator("frac_laplacian", dim=1)  # gamma required
    with pytest.raises(OperatorError):
        make_operator("D", dim=2)
    with pytest.raises(OperatorError):
        make_operator("DxDy", dim=1)


def test_grammar_only_families_are_rejected():
    for fam in ("Dgamma", "polyharmonic_log"):
        with pytest.raises(OperatorError, match="unknown operator family"):
            make_operator(fam, gamma=1.5)


def test_parse_and_format_round_trip():
    for text in (
        "operator=D n=1",
        "operator=D n=3",
        "operator=DaI alpha=0.1",
        "operator=DxDy",
        "operator=DaIxDaIy alpha=0.25",
        "operator=frac_laplacian gamma=1.5",
    ):
        op = parse_operator_config(text)
        assert parse_operator_config(format_operator_config(op)) == op
    op = parse_operator_config("operator=frac_laplacian gamma=1.2", dim=2)
    assert op.dim == 2
    with pytest.raises(OperatorError):
        parse_operator_config("n=1")
    with pytest.raises(OperatorError):
        parse_operator_config("operator=DaI alpha=1+2j")


def test_causality_and_pinning_flags():
    assert make_operator("D").causal and make_operator("D").pinned
    assert make_operator("DaI", alpha=0.1).causal
    assert make_operator("DxDy").causal
    assert not make_operator("frac_laplacian", gamma=1.5, dim=1).causal
    assert not make_operator("frac_laplacian", gamma=1.5, dim=1).pinned


def test_margin_rule():
    box = Box.cube(0.0, 10.0, 1)
    assert margin_rule(make_operator("D"), box) == 0.0
    assert margin_rule(make_operator("D", n=4), box) == 0.0
    assert margin_rule(make_operator("DxDy"), Box.cube(0.0, 10.0, 2)) == 0.0
    # pinning drops every impulse left of the window, so DaI needs no margin
    assert margin_rule(make_operator("DaI", alpha=0.1), box) == 0.0
    got = margin_rule(make_operator("DaIxDaIy", alpha=0.1), Box.cube(0.0, 10.0, 2))
    assert got == pytest.approx(math.log(1e6) / 0.1)
    got = margin_rule(make_operator("frac_laplacian", gamma=1.5, dim=1), box)
    assert got == pytest.approx(2.5)
    # the margin widens the left side, and the right side only for the
    # non-causal spectral operator
    box = Box.cube(0.0, 10.0, 2)
    assert sampling_box(make_operator("DxDy"), box, 0.0) is box
    assert sampling_box(make_operator("DaIxDaIy", alpha=0.1), box, 2.0) == Box.cube(-2.0, 10.0, 2)
    spectral = make_operator("frac_laplacian", gamma=1.5, dim=2)
    assert sampling_box(spectral, box, 2.0) == Box.cube(-2.0, 12.0, 2)


def test_green_functions():
    x = np.array([-1.0, 0.0, 0.5, 2.0])
    np.testing.assert_allclose(green(make_operator("D"), x), [0.0, 1.0, 1.0, 1.0])
    np.testing.assert_allclose(green(make_operator("D", n=2), x), [0.0, 0.0, 0.5, 2.0])
    np.testing.assert_allclose(
        green(make_operator("D", n=3), x), [0.0, 0.0, 0.5**2 / 2.0, 2.0]
    )
    g = green(make_operator("DaI", alpha=0.5), x)
    np.testing.assert_allclose(g, [0.0, 1.0, math.exp(-0.25), math.exp(-1.0)])
    with pytest.raises(UnsupportedClosedForm):
        green(make_operator("frac_laplacian", gamma=1.5, dim=1), x)


def test_apply_T_first_derivative_exact_on_linear():
    # trapezoid tail integration is exact for piecewise-linear integrands
    g = Grid(Box.cube(0.0, 1.0, 1), 0.01)
    x = g.axis(0)
    out = apply_T(make_operator("D"), x.copy(), g.step)
    np.testing.assert_allclose(out, (1.0 - x**2) / 2.0, atol=1e-12)


def test_apply_T_exponential_tail():
    g = Grid(Box.cube(0.0, 10.0, 1), 0.001)
    x = g.axis(0)
    op = make_operator("DaI", alpha=0.5)
    out = apply_T(op, np.ones_like(x), g.step)
    exact = (1.0 - np.exp(-0.5 * (10.0 - x))) / 0.5
    assert np.max(np.abs(out - exact)) < 1e-6


def test_apply_T_separable_product():
    g = Grid(Box.cube(0.0, 1.0, 2), 1.0 / 64)
    x = g.axis(0)
    phi1 = bump(x, 0.5, 0.3)
    phi2 = bump(x, 0.45, 0.25)
    out = apply_T(make_operator("DxDy"), np.outer(phi1, phi2), g.step)
    g1 = Grid(Box.cube(0.0, 1.0, 1), 1.0 / 64)
    t1 = apply_T(make_operator("D"), phi1, g1.step)
    t2 = apply_T(make_operator("D"), phi2, g1.step)
    np.testing.assert_allclose(out, np.outer(t1, t2), atol=1e-12)


def test_apply_adjoint_first_derivative():
    g = Grid(Box.cube(0.0, 1.0, 1), 1.0 / 512)
    x = g.axis(0)
    phi = bump(x, 0.5, 0.3)
    out = apply_adjoint(make_operator("D"), phi, g.step)
    r = (x - 0.5) / 0.3
    dphi = np.zeros_like(x)
    inside = np.abs(r) < 1.0
    dphi[inside] = phi[inside] * (-2.0 * r[inside] / (1.0 - r[inside] ** 2) ** 2) / 0.3
    # L* for D is -d/dx; second-order differences are worst near the support edge
    assert np.max(np.abs(out + dphi)) < 5e-3 * np.max(np.abs(dphi))


def test_apply_adjoint_exponential_family():
    g = Grid(Box.cube(0.0, 1.0, 1), 1.0 / 512)
    x = g.axis(0)
    phi = bump(x, 0.5, 0.3)
    alpha = 0.4
    out = apply_adjoint(make_operator("DaI", alpha=alpha), phi, g.step)
    d = apply_adjoint(make_operator("D"), phi, g.step)
    np.testing.assert_allclose(out, d + alpha * phi, atol=1e-12)


def test_spectral_divide_multiply_invert():
    g = Grid(Box.cube(0.0, 1.0, 1), 1.0 / 256)
    x = g.axis(0)
    phi = bump(x, 0.5, 0.2)
    phi = phi - phi.mean()  # spectral ops act on the zero-DC part
    back = spectral_multiply(spectral_divide(phi, g.step, 1.5), g.step, 1.5)
    np.testing.assert_allclose(back, phi, atol=1e-12)


def test_apply_T_spectral_guards():
    op = make_operator("frac_laplacian", gamma=1.5, dim=1)
    g = Grid(Box.cube(0.0, 1.0, 1), 1.0 / 128)
    x = g.axis(0)
    with pytest.raises(GridTooCoarse):
        apply_T(op, bump(x, 0.5, 0.04), g.step)  # support spans ~10 samples
    out = apply_T(op, np.zeros_like(x), g.step)
    np.testing.assert_array_equal(out, np.zeros_like(x))


def test_apply_L_samples_inverts_T_first_derivative():
    # forward difference recovers -phi from the right-tail integral
    g = Grid(Box.cube(0.0, 1.0, 1), 1.0 / 256)
    x = g.axis(0)
    phi = bump(x, 0.5, 0.3)
    t = apply_T(make_operator("D"), phi, g.step)
    back = apply_L_samples(make_operator("D"), t, g.step)
    # L(T phi) = -phi up to the forward-difference offset (midpoint rule)
    mid = 0.5 * (phi[:-1] + phi[1:])
    assert np.max(np.abs(back[:-1] + mid)) < 2e-5


def test_apply_L_samples_exponential():
    g = Grid(Box.cube(0.0, 10.0, 1), 0.001)
    x = g.axis(0)
    op = make_operator("DaI", alpha=0.3)
    s = np.exp(-0.3 * x)  # in the null space of D + alpha I
    out = apply_L_samples(op, s, g.step)
    assert np.max(np.abs(out[:-1])) < 2e-4


@pytest.mark.parametrize("alpha_h", [1e-3, 0.5, 5.0, 50.0])
@pytest.mark.parametrize("n", [1, 2, 1001, 100001])
def test_one_pole_matches_lfilter(n, alpha_h):
    # alpha h = 5 and 50 split every axis of 1001 or more samples into
    # chunks, so the carry from chunk to chunk is exercised
    r = math.exp(-alpha_h)
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    want = lfilter([1.0], [1.0, -r], x)
    assert np.max(np.abs(one_pole(x, r) - want)) <= 1e-13 * np.max(np.abs(want))
    x2 = rng.standard_normal((n, 7))
    for axis in (0, 1, -1):
        want = lfilter([1.0], [1.0, -r], x2, axis=axis)
        got = one_pole(x2, r, axis)
        assert got.shape == x2.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("alpha", [0.1, 50.0, 5000.0])
def test_tail_exp_integral_matches_filter_formula(alpha):
    # alpha h runs 1e-3 to 50; at 50 the recursion works in 12-sample chunks
    h = 0.01
    rng = np.random.default_rng(3)
    phi = rng.standard_normal((301, 40))
    r = math.exp(-alpha * h)
    for axis in (0, 1):
        # the filter form: b = (h/2)(1, r), a = (1, -r) on the reversed
        # array, its initial state cancelling the leading half panel
        rev = np.flip(phi, axis)
        zi = -0.5 * h * np.take(rev, [0], axis=axis)
        want, _ = lfilter([0.5 * h, 0.5 * h * r], [1.0, -r], rev, axis=axis, zi=zi)
        want = np.flip(want, axis)
        got = _tail_exp_integral(phi, h, alpha, axis=axis)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

