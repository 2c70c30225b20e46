"""Operator grammar, Green's functions, right inverses, and adjoints."""

import math

import numpy as np
import pytest
from scipy.signal import lfilter
from levyspline.grid import Box, Grid
from levyspline.operators import (
    ONE_POLE_LOG_RANGE,
    GridTooCoarse,
    OperatorSpec,
    OperatorError,
    UnsupportedClosedForm,
    apply_adjoint,
    apply_T,
    format_operator_config,
    green,
    make_operator,
    _fourier_multiplier,
    _one_pole_powers,
    _tail_integral,
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
    assert make_operator("D", n=19).n == 19
    assert make_operator("DaI", alpha=0.2).alpha == 0.2
    assert make_operator("DxDy").dim == 2
    assert make_operator("DaIxDaIy", alpha=0.1).dim == 2
    assert make_operator("frac_laplacian", gamma=1.5, dim=2).gamma == 1.5


def test_operator_validation():
    with pytest.raises(OperatorError):
        make_operator("Q")
    with pytest.raises(OperatorError):
        make_operator("D", n=0)
    # D^n's kernel weights p! S(n - 1, p) are int64: the largest is 7.8e17
    # at n = 19 and 2.1e19 > 2^63 at n = 20
    for n in (20, 25, 200):
        with pytest.raises(OperatorError, match="n <= 19"):
            make_operator("D", n=n)
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
    # the CLI passes every operator key to make_operator; a spec keeps only
    # its own family's parameter, so it survives the round trip
    for fam, dim in (("D", 1), ("DaI", 1), ("DxDy", 2), ("DaIxDaIy", 2), ("frac_laplacian", 2)):
        op = make_operator(fam, n=2, alpha=0.1, gamma=1.5, dim=dim)
        assert parse_operator_config(format_operator_config(op), dim=dim) == op
    assert make_operator("D", n=1, alpha=0.1, gamma=1.5) == make_operator("D")
    op = parse_operator_config("operator=frac_laplacian gamma=1.2", dim=2)
    assert op.dim == 2
    with pytest.raises(OperatorError):
        parse_operator_config("n=1")
    with pytest.raises(OperatorError):
        parse_operator_config("operator=DaI alpha=1+2j")
    # another family's key is refused, whatever its value, never dropped
    for text in (
        "operator=D n=2 alpha=0.1",
        "operator=DaI alpha=0.1 gamma=0",
        "operator=DaI alpha=0.1 n=x",
        "operator=DxDy gamma=1.5",
        "operator=DaIxDaIy alpha=0.25 n=2",
        "operator=frac_laplacian gamma=1.5 alpha=0.1",
    ):
        fam, key = text.split()[0][9:], text.split()[-1].split("=")[0]
        with pytest.raises(OperatorError, match=f"operator {fam} does not use {key}"):
            parse_operator_config(text)


def test_causality_and_pinning_flags():
    causal = [
        make_operator("D"),
        make_operator("D", n=3),
        make_operator("DaI", alpha=0.1),
        make_operator("DxDy"),
        make_operator("DaIxDaIy", alpha=0.1),
    ]
    spectral = [make_operator("frac_laplacian", gamma=1.5, dim=d) for d in (1, 2)]
    assert all(op.causal for op in causal) and not any(op.causal for op in spectral)
    # synthesis pins exactly the causal operators
    assert all(op.pinned == op.causal for op in causal + spectral)
    # each causal operator is its 1-D factor (n, alpha) on every axis
    assert make_operator("D", n=3).factors == ((3, None),)
    assert make_operator("DaI", alpha=0.2).factors == ((1, 0.2),)
    assert make_operator("DxDy").factors == ((1, None), (1, None))
    assert make_operator("DaIxDaIy", alpha=0.3).factors == ((1, 0.3), (1, 0.3))
    assert make_operator("frac_laplacian", gamma=1.5, dim=2).factors == ()


def test_margin_rule():
    box = Box.cube(0.0, 10.0, 1)
    assert margin_rule(make_operator("D"), box) == 0.0
    assert margin_rule(make_operator("D", n=4), box) == 0.0
    assert margin_rule(make_operator("DxDy"), Box.cube(0.0, 10.0, 2)) == 0.0
    # a DxDy spec built with a stray alpha has D factors and needs no margin
    stray = OperatorSpec("DxDy", alpha=0.1, dim=2)
    assert margin_rule(stray, Box.cube(0.0, 10.0, 2)) == 0.0
    # pinning drops every impulse left of the window, so D + alpha I needs
    # no margin on any axis
    assert margin_rule(make_operator("DaI", alpha=0.1), box) == 0.0
    assert margin_rule(make_operator("DaIxDaIy", alpha=0.1), Box.cube(0.0, 10.0, 2)) == 0.0
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


def complex_fft_multiplier(phi, h, power):
    """The full complex-FFT form: fftn, ||omega||^power with DC zeroed, ifftn."""
    freqs = [2.0 * math.pi * np.fft.fftfreq(n, d=h) for n in phi.shape]
    norm = np.sqrt(sum(g**2 for g in np.meshgrid(*freqs, indexing="ij")))
    with np.errstate(divide="ignore"):
        mult = np.where(norm > 0.0, norm**power, 0.0)
    return np.fft.ifftn(np.fft.fftn(phi) * mult).real


@pytest.mark.parametrize(
    "shape", [(1,), (2,), (1000,), (1001,), (2, 3), (300, 300), (301, 301), (300, 301)]
)
def test_spectral_multipliers_match_complex_fft(shape):
    rng = np.random.default_rng(sum(shape))
    phi = rng.standard_normal(shape)
    h = 0.05
    for gamma in (0.5, 1.5, 3.0):
        for fn, power in ((spectral_divide, -gamma), (spectral_multiply, gamma)):
            out = fn(phi, h, gamma)
            want = complex_fft_multiplier(phi, h, power)
            assert out.shape == shape
            assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want)), (fn.__name__, gamma)


def test_spectral_multiplier_cache_keys_on_step_and_sign():
    phi = np.random.default_rng(3).standard_normal((40, 41))
    calls = [
        (spectral_divide, 0.1, 1.5, -1.5),
        (spectral_multiply, 0.1, 1.5, 1.5),
        (spectral_divide, 0.2, 1.5, -1.5),
        (spectral_divide, 0.1, 0.5, -0.5),
        (spectral_multiply, 0.2, 1.5, 1.5),
    ]
    results = []
    for fn, h, gamma, power in calls:
        want = complex_fft_multiplier(phi, h, power)
        results.append(fn(phi, h, gamma))
        assert np.max(np.abs(results[-1] - want)) <= 1e-13 * np.max(np.abs(want))
    np.testing.assert_array_equal(spectral_divide(phi, 0.1, 1.5), results[0])
    assert not _fourier_multiplier(phi.shape, 0.1, -1.5).flags.writeable


def test_apply_T_spectral_guards():
    op = make_operator("frac_laplacian", gamma=1.5, dim=1)
    g = Grid(Box.cube(0.0, 1.0, 1), 1.0 / 128)
    x = g.axis(0)
    with pytest.raises(GridTooCoarse):
        apply_T(op, bump(x, 0.5, 0.04), g.step)  # support spans ~10 samples
    out = apply_T(op, np.zeros_like(x), g.step)
    np.testing.assert_array_equal(out, np.zeros_like(x))


@pytest.mark.parametrize("alpha_h", [1e-3, 0.5, 5.0, 50.0, 1e5])
@pytest.mark.parametrize("n", [1, 2, 1001, 100001])
def test_one_pole_matches_lfilter(n, alpha_h):
    # alpha h = 5 and 50 split every axis of 1001 or more samples into
    # chunks, so the carry from chunk to chunk is exercised; at alpha h =
    # 1e5, r = exp(-alpha h) underflows to 0 and the recursion is y = x
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


def test_one_pole_at_unit_pole_is_the_cumulative_sum():
    # alpha h below about 1.1e-16 rounds exp(-alpha h) to 1: one chunk of
    # the whole axis, bit for bit np.cumsum along either axis
    x = np.random.default_rng(5).standard_normal((1001, 7))
    for axis in (0, 1):
        assert one_pole(x, 1.0, axis).tobytes() == np.cumsum(x, axis).tobytes()


def inline_one_pole(x, r, axis=-1):
    """one_pole with its power vectors computed inline on every call, as
    first written."""
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


@pytest.mark.parametrize("alpha_h", [1e-3, 5.0, 50.0])
def test_one_pole_cached_powers_equal_the_inline_formula(alpha_h):
    # bit for bit, with the power cache cold and warm; alpha h = 5 and 50
    # cut 1001 samples into chunks of 120 and 12, so the carry path runs
    r = math.exp(-alpha_h)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(1001)
    x2 = rng.standard_normal((1001, 7))
    _one_pole_powers.cache_clear()
    for _ in range(2):
        assert one_pole(x, r).tobytes() == inline_one_pole(x, r).tobytes()
        for axis in (0, 1, -1):
            assert one_pole(x2, r, axis).tobytes() == inline_one_pole(x2, r, axis).tobytes()
    assert _one_pole_powers.cache_info().hits > 0


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
        got = _tail_integral(phi, h, alpha, axis=axis)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))



# The branch-per-family operator code that the per-axis factors replaced,
# kept as the oracle the factor loops must reproduce bit for bit.


def branch_green(op, x):
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


def branch_apply_T(op, phi, h):
    if op.family == "D":
        out = phi
        for _ in range(op.n):
            out = _tail_integral(out, h, axis=0)
        return out
    if op.family == "DaI":
        return _tail_integral(phi, h, op.alpha, axis=0)
    if op.family == "DxDy":
        return _tail_integral(_tail_integral(phi, h, axis=0), h, axis=1)
    if op.family == "DaIxDaIy":
        out = _tail_integral(phi, h, op.alpha, axis=0)
        return _tail_integral(out, h, op.alpha, axis=1)
    return spectral_divide(phi, h, op.gamma)


def branch_apply_adjoint(op, phi, h):
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
    out = -np.gradient(phi, h, axis=0, edge_order=2) + op.alpha * phi
    return -np.gradient(out, h, axis=1, edge_order=2) + op.alpha * out


def assert_bits_equal(got, want):
    assert type(got) is type(want)
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


CAUSAL_OPS = [
    make_operator("D"),
    make_operator("D", n=2),
    make_operator("D", n=3),
    make_operator("DaI", alpha=0.37),
    make_operator("DxDy"),
    make_operator("DaIxDaIy", alpha=0.37),
]


@pytest.mark.parametrize("op", CAUSAL_OPS, ids=lambda op: f"{op.family}{op.n}")
def test_factor_loops_equal_branch_per_family_code(op):
    rng = np.random.default_rng(11)
    h = 0.05
    phi = rng.standard_normal((301,) if op.dim == 1 else (41, 37))
    assert_bits_equal(apply_T(op, phi, h), branch_apply_T(op, phi, h))
    got, want = apply_adjoint(op, phi, h), branch_apply_adjoint(op, phi, h)
    if op.family == "DxDy":
        # computed as -grad(-grad phi): equal values, zeros may change sign
        assert np.array_equal(got, want)
    else:
        assert_bits_equal(got, want)
    # Green's functions at offsets on both sides of zero, zero included
    if op.dim == 1:
        x = rng.uniform(-3.0, 5.0, size=(50, 40))
        x[0, :5] = 0.0
        inputs = [x, x[0], 0.7, 0.0, -0.4]
    else:
        pts = rng.uniform(-3.0, 5.0, size=(300, 2))
        pts[:4] = [[0.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [2.0, -0.0]]
        inputs = [pts, pts[:1], np.array([0.5, 0.2]), [-0.5, 0.2], (0.0, 0.0)]
    for x in inputs:
        assert_bits_equal(green(op, x), branch_green(op, x))


@pytest.mark.parametrize("dim", [1, 2])
def test_spectral_apply_T_equals_branch_per_family_code(dim):
    op = make_operator("frac_laplacian", gamma=1.3, dim=dim)
    phi = np.random.default_rng(dim).standard_normal((301,) if dim == 1 else (41, 37))
    assert_bits_equal(apply_T(op, phi, 0.05), branch_apply_T(op, phi, 0.05))
