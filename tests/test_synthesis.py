"""Spline synthesis from impulse fields, reference paths, and persistence."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy import stats

from levyspline.exponents import JumpLaw, cauchy, gaussian, laplace
from levyspline.grid import Box, Grid
from levyspline.noise import ImpulseBlock, RngStream, sample_impulse_block, sample_impulse_field
from levyspline.operators import (
    SETUP_CACHE_SIZE,
    _one_pole_powers,
    green,
    make_operator,
    margin_rule,
    sampling_box,
    spectral_divide,
)
from levyspline.synthesis import (
    BIN_SNAP,
    MarginTooSmall,
    SynthesisError,
    UnsupportedReference,
    read_realization_binary,
    read_realization_csv,
    reference_levy_path,
    synthesize_spline,
    _bin_ceil,
    _Engine,
    _factor_kernel,
    engine_for,
    kernel_terms,
    write_realization_binary,
    write_realization_csv,
)

GRID1 = Grid(Box.cube(0.0, 10.0, 1), 0.01)


def one_field(dim, box, locations, amplitudes, rate=1.0, seed=0):
    """The one-member ImpulseBlock holding these impulses."""
    return ImpulseBlock(dim, box, [len(amplitudes)], locations, amplitudes, rate, seed)


def single_impulse(x, a, box, dim=1):
    loc = np.atleast_2d(np.asarray(x, dtype=float))
    return one_field(dim=dim, box=box, locations=loc, amplitudes=np.array([a]))


def test_step_synthesis_single_impulse():
    field = single_impulse([2.505], 3.0, GRID1.box)
    real = synthesize_spline(field, make_operator("D"), GRID1)
    s = real.samples
    x = GRID1.axis(0)
    assert s[0] == 0.0
    np.testing.assert_array_equal(s, np.where(x >= 2.51 - 1e-12, 3.0, 0.0))
    assert real.provenance == "poisson(lambda=1)"


def test_synthesis_refuses_a_block_of_several_fields():
    block = sample_impulse_block(1, GRID1.box, 2.0, JumpLaw(gaussian(1.0), 1.0), RngStream(3), 2)
    with pytest.raises(SynthesisError, match="one field"):
        synthesize_spline(block, make_operator("D"), GRID1)


def test_step_synthesis_superposition():
    f1 = single_impulse([2.0], 1.5, GRID1.box)
    f2 = single_impulse([7.0], -0.5, GRID1.box)
    both = one_field(
        dim=1,
        box=GRID1.box,
        locations=np.array([[2.0], [7.0]]),
        amplitudes=np.array([1.5, -0.5]),
        rate=2.0,
        seed=0,
    )
    op = make_operator("D")
    s = synthesize_spline(both, op, GRID1).samples
    s1 = synthesize_spline(f1, op, GRID1).samples
    s2 = synthesize_spline(f2, op, GRID1).samples
    np.testing.assert_allclose(s, s1 + s2, atol=1e-12)


def test_ramp_synthesis_second_order():
    field = single_impulse([3.0], 2.0, GRID1.box)
    real = synthesize_spline(field, make_operator("D", n=2), GRID1)
    x = GRID1.axis(0)
    np.testing.assert_allclose(real.samples, 2.0 * np.clip(x - 3.0, 0.0, None), atol=1e-12)


# boxes reaching far left of the window: the causal operators need no margin
# but accept impulses there, and pinning cancels them
DAI_BOX = Box.cube(-139.0, 10.0, 1)
DAI_BOX_2D = Box.cube(-139.0, 10.0, 2)


def test_exponential_synthesis_single_impulse():
    # decay over four units: s(5) = 2 exp(-0.4)
    field = single_impulse([1.0], 2.0, DAI_BOX)
    op = make_operator("DaI", alpha=0.1)
    real = synthesize_spline(field, op, GRID1)
    x = GRID1.axis(0)
    expected = 2.0 * np.exp(-0.1 * (x - 1.0)) * (x >= 1.0)
    np.testing.assert_allclose(real.samples, expected, atol=1e-10)
    assert abs(real.samples[500] - 2.0 * math.exp(-0.4)) < 1e-10


def test_snapped_impulse_lies_on_its_node():
    # an impulse 1e-13 right of node 300 is binned to that node, and the
    # exponential kernel weighs it as lying on the node: exactly 1 there at
    # every pole, with no exp(alpha |delta|) growth and no overflow warning
    x = GRID1.axis(0)[300] + 1e-13
    field = single_impulse([x], 1.0, GRID1.box)
    for alpha in (1.0, 1e9, 1e12, 1e300):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            samples = synthesize_spline(field, make_operator("DaI", alpha=alpha), GRID1).samples
        assert samples[300] == 1.0 and not samples[:300].any(), alpha


def test_pinned_paths_drop_left_margin_impulses():
    # impulses at or left of the window start on some axis cancel exactly
    # under pinning, so s is 0 at the window start of every axis
    g2 = Grid(Box.cube(0.0, 10.0, 2), 0.05)
    left_1d = [[-20.0], [0.0]]
    left_2d = [[-2.0, 3.0], [3.0, -1.0], [0.0, 5.0], [5.0, 0.0], [-1.0, -1.0]]
    for op, grid, left, inside in (
        (make_operator("D"), GRID1, left_1d, [4.0]),
        (make_operator("DaI", alpha=0.1), GRID1, left_1d, [4.0]),
        (make_operator("DxDy"), g2, left_2d, [4.0, 6.0]),
        (make_operator("DaIxDaIy", alpha=0.1), g2, left_2d, [4.0, 6.0]),
    ):
        big = Box.cube(-150.0, 10.0, grid.dim)
        alone = one_field(grid.dim, big, np.array([inside]), np.array([1.0]), 1.0, 0)
        amps = np.append(np.linspace(5.0, -2.0, len(left)), 1.0)
        mixed = one_field(grid.dim, big, np.array(left + [inside]), amps, 1.0, 0)
        a = synthesize_spline(alone, op, grid).samples
        b = synthesize_spline(mixed, op, grid).samples
        np.testing.assert_allclose(a, b, atol=1e-12)
        assert a.any()
        for axis in range(grid.dim):
            assert not np.take(b, 0, axis=axis).any()


def test_step_2d_single_impulse():
    g2 = Grid(Box.cube(0.0, 10.0, 2), 0.05)
    field = single_impulse([[3.0, 6.0]], 2.0, g2.box, dim=2)
    real = synthesize_spline(field, make_operator("DxDy"), g2)
    x = g2.axis(0)[:, None]
    y = g2.axis(1)[None, :]
    np.testing.assert_allclose(
        real.samples, 2.0 * ((x >= 3.0) & (y >= 6.0)), atol=1e-12
    )


def test_exponential_2d_single_impulse():
    g2 = Grid(Box.cube(0.0, 10.0, 2), 0.05)
    field = single_impulse([[2.0, 3.0]], 1.5, DAI_BOX_2D, dim=2)
    op = make_operator("DaIxDaIy", alpha=0.1)
    real = synthesize_spline(field, op, g2)
    x = g2.axis(0)[:, None]
    y = g2.axis(1)[None, :]
    expected = 1.5 * np.exp(-0.1 * (x - 2.0)) * np.exp(-0.1 * (y - 3.0))
    expected = expected * ((x >= 2.0) & (y >= 3.0))
    np.testing.assert_allclose(real.samples, expected, atol=1e-10)


def test_margin_enforcement():
    op = make_operator("frac_laplacian", gamma=1.5, dim=1)
    field = sample_impulse_field(1, GRID1.box, 3.0, JumpLaw(gaussian(1.0), 1.0), RngStream(3))
    with pytest.raises(MarginTooSmall):
        synthesize_spline(field, op, GRID1)  # frac needs margin on both sides


def test_spectral_synthesis_properties():
    op = make_operator("frac_laplacian", gamma=1.5, dim=1)
    margin = 2.5
    box = Box.cube(0.0 - margin, 10.0 + margin, 1)
    field = sample_impulse_field(1, box, 3.0, JumpLaw(gaussian(1.0), 1.0), RngStream(5))
    real = synthesize_spline(field, op, GRID1)
    assert real.samples.shape == GRID1.shape
    assert np.all(np.isfinite(real.samples))
    # window mean removed; doubling amplitudes doubles the field
    assert abs(np.mean(real.samples)) < 1e-10
    doubled = one_field(
        dim=1,
        box=box,
        locations=field.locations,
        amplitudes=2.0 * field.amplitudes,
        rate=field.rate,
        seed=field.seed,
    )
    real2 = synthesize_spline(doubled, op, GRID1)
    np.testing.assert_allclose(real2.samples, 2.0 * real.samples, atol=1e-10)


def spectral_by_add_at(field, op, grid):
    """The spectral synthesis written out as a standalone scatter: round
    each impulse to the nearest node of the torus whose period is the field
    box (one node per step, the box's high end wrapping to node 0), add
    a / h^dim with np.add.at, divide, crop, subtract the mean."""
    h = grid.step
    pads_lo = [int(round((grid.box.lo[k] - field.box.lo[k]) / h)) for k in range(grid.dim)]
    pads_hi = [int(round((field.box.hi[k] - grid.box.hi[k]) / h)) for k in range(grid.dim)]
    shape = tuple(nl + n - 1 + nh for nl, n, nh in zip(pads_lo, grid.shape, pads_hi))
    acc = np.zeros(shape)
    if field.count:
        idx = []
        for k in range(grid.dim):
            lo_pad = grid.box.lo[k] - pads_lo[k] * h
            i = np.round((field.locations[:, k] - lo_pad) / h).astype(int)
            idx.append(i % shape[k])
        np.add.at(acc, tuple(idx), field.amplitudes / h**grid.dim)
    full = spectral_divide(acc, h, op.gamma)
    window = full[tuple(slice(nl, nl + n) for nl, n in zip(pads_lo, grid.shape))]
    return window - window.mean()


def test_spectral_synthesis_equals_add_at_scatter_bit_for_bit():
    g2 = Grid(Box.cube(0.0, 10.0, 2), 0.05)
    for grid, lam in ((GRID1, 16.0), (g2, 1.0)):
        op = make_operator("frac_laplacian", gamma=1.5, dim=grid.dim)
        margin = margin_rule(op, grid.box)
        box = grid.box.expand(margin, margin)
        for seed in (42, 7):
            field = sample_impulse_field(
                grid.dim, box, lam, JumpLaw(gaussian(1.0), 1.0), RngStream(seed)
            )
            assert field.count > 0
            got = synthesize_spline(field, op, grid).samples
            np.testing.assert_array_equal(got, spectral_by_add_at(field, op, grid))
        empty = one_field(
            dim=grid.dim, box=box, locations=np.zeros((0, grid.dim)), amplitudes=np.zeros(0),
            rate=1.0, seed=0,
        )
        got = synthesize_spline(empty, op, grid).samples
        np.testing.assert_array_equal(got, spectral_by_add_at(empty, op, grid))


def test_discrete_operator_recovers_step_jumps():
    field = sample_impulse_field(1, GRID1.box, 3.0, JumpLaw(gaussian(1.0), 1.0), RngStream(13))
    op = make_operator("D")
    real = synthesize_spline(field, op, GRID1)
    # the first differences of s concentrate the impulse masses in single bins
    masses = np.diff(real.samples)
    nz = np.nonzero(np.abs(masses) > 1e-9)[0]
    assert len(nz) == field.count  # distinct bins at this rate and seed
    np.testing.assert_allclose(
        np.sort(masses[nz]), np.sort(field.amplitudes), atol=1e-9
    )


def green_sum(field, op, grid):
    """Direct sum of a_k rho_L(x - x_k) over the grid nodes.

    Pinned operators keep only the impulses right of the window start on
    every axis; the pinning removes the others' null-space contributions.
    """
    locs, amps = field.locations, field.amplitudes
    if op.pinned:
        keep = np.all(locs > np.asarray(grid.box.lo), axis=1)
        locs, amps = locs[keep], amps[keep]
    nodes = np.stack(np.meshgrid(*grid.axes, indexing="ij"), axis=-1).reshape(-1, grid.dim)
    out = np.zeros(nodes.shape[0])
    for x, a in zip(locs, amps):
        offsets = nodes - x if grid.dim == 2 else nodes[:, 0] - x[0]
        out += a * green(op, offsets)
    return out.reshape(grid.shape)


def assert_matches_green_sum(field, op, grid):
    direct = green_sum(field, op, grid)
    samples = synthesize_spline(field, op, grid).samples
    err = np.max(np.abs(samples - direct))
    assert err <= 1e-12 * np.max(np.abs(direct)), (op, err)


def test_causal_synthesis_equals_green_superposition():
    # random impulses in the window and the left margin, plus one on a
    # grid node and one at the window start
    g2 = Grid(Box.cube(0.0, 10.0, 2), 0.05)
    gen = np.random.default_rng(7)
    for op, grid in (
        (make_operator("D"), GRID1),
        (make_operator("D", n=2), GRID1),
        (make_operator("D", n=3), GRID1),
        # the highest order whose int64 kernel weights hold
        (make_operator("D", n=19), GRID1),
        (make_operator("DaI", alpha=0.1), GRID1),
        # exp(-alpha h) underflows to 0: the one-pole recursion is y = x
        (make_operator("DaI", alpha=1e5), GRID1),
        (make_operator("DaI", alpha=1e300), GRID1),
        (make_operator("DxDy"), g2),
        (make_operator("DaIxDaIy", alpha=0.1), g2),
    ):
        dim = grid.dim
        box = grid.box.expand(max(3.0, margin_rule(op, grid.box)))
        inside = gen.uniform(0.0, 10.0, (40, dim))
        margin = gen.uniform(-3.0, 0.0, (6, dim))
        node = np.array([[grid.axis(a)[37 + 44 * a] for a in range(dim)]])
        start = np.array([[0.0, 4.2][:dim]])
        locs = np.concatenate([inside, margin, node, start])
        field = one_field(
            dim=dim,
            box=box,
            locations=locs,
            amplitudes=gen.normal(size=locs.shape[0]),
            rate=1.0,
            seed=0,
        )
        assert_matches_green_sum(field, op, grid)


def test_causal_2d_synthesis_ignores_impulses_beyond_the_window():
    # a causal kernel is zero left of its impulse, so an impulse right of
    # (or above) the window adds nothing to it; binning once clipped such
    # an impulse into the last node (DxDy put 3.0 on row 20, DaIxDaIy 3e)
    grid = Grid(Box.cube(0.0, 10.0, 2), 0.5)
    gen = np.random.default_rng(23)
    for op in (make_operator("DxDy"), make_operator("DaIxDaIy", alpha=1.0)):
        lo = -math.ceil(margin_rule(op, grid.box)) - 1.0
        box = Box.cube(lo, 12.0, 2)
        inside = gen.uniform(0.0, 10.0, (30, 2))
        margin = gen.uniform(lo, 0.0, (4, 2))
        beyond = np.array([[11.0, 5.0], [5.0, 11.0], [11.5, 11.5], [10.25, -0.5]])
        locs = np.concatenate([inside, margin, beyond])
        amps = np.concatenate([gen.normal(size=34), np.full(4, 3.0)])
        field = one_field(2, box, locs, amps, 1.0, 0)
        assert_matches_green_sum(field, op, grid)
        alone = one_field(2, box, beyond[:2], amps[-2:], 1.0, 0)
        assert not synthesize_spline(alone, op, grid).samples.any()


def test_n_fold_derivative_synthesis_has_no_impulse_limit():
    op = make_operator("D", n=2)
    k = 10_001
    gen = np.random.default_rng(0)
    field = one_field(
        dim=1,
        box=GRID1.box,
        locations=gen.uniform(0.0, 10.0, (k, 1)),
        amplitudes=gen.normal(size=k),
        rate=1000.0,
        seed=0,
    )
    assert_matches_green_sum(field, op, GRID1)


def test_reference_path_gaussian_statistics():
    f = gaussian(2.0)
    op = make_operator("D")
    ends = []
    for i in range(4000):
        r = reference_levy_path(f, op, GRID1, RngStream(31, i))
        ends.append(r.samples[-1])
        if i == 0:
            assert r.samples[0] == 0.0
            assert r.provenance == "reference(gaussian)"
    ends = np.asarray(ends)
    # terminal marginal N(0, sigma2 * 10)
    assert stats.kstest(ends, "norm", args=(0.0, math.sqrt(20.0))).pvalue > 1e-3


def test_reference_path_laplace_variance():
    # increments at step h follow a gamma difference: variance sigma2 h,
    # with the large excess kurtosis of small-shape gamma differences
    f = laplace(1.0)
    op = make_operator("D")
    inc = np.concatenate(
        [np.diff(reference_levy_path(f, op, GRID1, RngStream(37, i)).samples) for i in range(100)]
    )
    assert np.var(inc) == pytest.approx(0.01, rel=0.25)
    assert stats.kurtosis(inc) > 10.0


def test_reference_path_cauchy_increments():
    f = cauchy(1.5)
    op = make_operator("D")
    r = reference_levy_path(f, op, GRID1, RngStream(41))
    inc = np.diff(r.samples)
    assert stats.kstest(inc, "cauchy", args=(0.0, 1.5 * 0.01)).pvalue > 1e-3


def test_reference_path_refuses_offset_weighted_cells():
    # a cell whose kernel weight reads the impulse's offset in it (D + alpha I
    # on any axis, D^n for n >= 2) has no exact reference draw
    g2 = Grid(Box.cube(0.0, 2.0, 2), 0.05)
    for op, grid in (
        (make_operator("DaI", alpha=0.1), GRID1),
        (make_operator("D", n=2), GRID1),
        (make_operator("DaIxDaIy", alpha=0.1), g2),
    ):
        with pytest.raises(UnsupportedReference):
            reference_levy_path(gaussian(1.0), op, grid, RngStream(0))


def test_reference_path_is_the_cumulated_increments():
    # the engine's one-member limit block gives the direct formula bit for
    # bit: the path is 0 at the window start plus the running sum of n - 1
    # JumpLaw(f, h) draws from RngStream(seed, 0), on the 1,001-node window
    # and on one whose last node lies past the window end by round-off
    op = make_operator("D")
    for grid in (GRID1, Grid(Box.cube(0.0, 2.3, 1), 0.1)):
        (n,) = grid.shape
        for f in (gaussian(1.0), cauchy(1.0), laplace(1.0)):
            for seed in (0, 7):
                inc = JumpLaw(f, grid.step).sample(RngStream(seed, 0).generator(), n - 1)
                want = np.concatenate([[0.0], np.cumsum(inc)])
                got = reference_levy_path(f, op, grid, RngStream(seed, 0)).samples
                assert got.tobytes() == want.tobytes(), (grid, f.family, seed)


def test_reference_path_of_dxdy_and_the_fractional_laplacian():
    # a DxDy path is the running sum over both axes of JumpLaw(f, h^2)
    # increments on every cell past the first row and column, drawn from
    # RngStream(seed, 0), so it is 0 on its first row and column; a
    # fractional Laplacian path is drawn on its rule's torus and is finite
    # and mean-free on the window, in one and two dimensions
    grid2 = Grid(Box.cube(0.0, 2.0, 2), 0.05)
    n = grid2.shape[0]
    for f in (gaussian(1.0), cauchy(1.0), laplace(1.0)):
        inc = JumpLaw(f, 0.05**2).sample(RngStream(3, 0).generator(), (n - 1) ** 2)
        want = np.zeros(grid2.shape)
        want[1:, 1:] = inc.reshape(n - 1, n - 1)
        want = np.cumsum(np.cumsum(want, axis=0), axis=1)
        real = reference_levy_path(f, make_operator("DxDy"), grid2, RngStream(3, 0))
        assert real.dim == 2 and real.provenance == f"reference({f.family})"
        assert real.samples.tobytes() == want.tobytes(), f.family
        for op, grid in (
            (make_operator("frac_laplacian", gamma=1.5), GRID1),
            (make_operator("frac_laplacian", gamma=1.5, dim=2), grid2),
        ):
            samples = reference_levy_path(f, op, grid, RngStream(3, 0)).samples
            assert samples.shape == grid.shape and np.isfinite(samples).all()
            assert abs(samples.mean()) < 1e-12 * np.abs(samples).max()


def test_realization_csv_round_trip(tmp_path):
    field = sample_impulse_field(1, DAI_BOX, 3.0, JumpLaw(gaussian(1.0), 1.0), RngStream(19))
    op = make_operator("DaI", alpha=0.1)
    real = synthesize_spline(field, op, GRID1)
    path = tmp_path / "realization.csv"
    write_realization_csv(real, path)
    back = read_realization_csv(path)
    np.testing.assert_array_equal(back.samples, real.samples)
    assert back.operator == real.operator
    assert back.provenance == real.provenance
    assert back.seed == real.seed
    assert back.step == real.step


def test_realization_csv_round_trip_2d(tmp_path):
    g2 = Grid(Box.cube(0.0, 10.0, 2), 0.05)
    field = sample_impulse_field(2, g2.box, 1.0, JumpLaw(laplace(0.5), 1.0), RngStream(23))
    real = synthesize_spline(field, make_operator("DxDy"), g2)
    path = tmp_path / "realization2d.csv"
    write_realization_csv(real, path)
    back = read_realization_csv(path)
    assert back.samples.shape == g2.shape
    np.testing.assert_array_equal(back.samples, real.samples)


def test_realization_binary_round_trip(tmp_path):
    field = sample_impulse_field(1, GRID1.box, 3.0, JumpLaw(cauchy(0.3), 1.0), RngStream(29))
    real = synthesize_spline(field, make_operator("D"), GRID1)
    path = tmp_path / "realization.bin"
    write_realization_binary(real, path)
    back = read_realization_binary(path)
    np.testing.assert_array_equal(back.samples, real.samples)
    assert back.operator == real.operator
    assert (tmp_path / "realization.bin.hdr").exists()


def test_read_empty_realization_raises(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(SynthesisError):
        read_realization_csv(path)


def oracle_bin_ceil(coords, lo, h, n):
    """_bin_ceil as first written, with a temporary per operation."""
    r = (np.asarray(coords, dtype=float) - lo) / h
    idx = np.ceil(r - BIN_SNAP).astype(int)
    return np.minimum(np.maximum(idx, 0), n - 1)


def oracle_scatter(engine, locations, amplitudes):
    """_Engine.scatter as first written, with the kept rule of causal
    operators (every axis keeps x <= hi, and x > lo if pinned): the
    mask is applied even when it keeps every impulse, and every factor
    gets its offsets; a spectral axis wraps its nearest node modulo the
    torus period.  Returns the kept impulses, their flat cells and one
    weight array per kernel term."""
    grid, h = engine.grid, engine.grid.step
    coords = [locations[:, axis] for axis in range(grid.dim)]
    kept = slice(None)
    if engine.op.causal:
        kept = np.ones(locations.shape[0], dtype=bool)
        for x, hi in zip(coords, grid.box.hi):
            kept &= x <= hi
        if engine.op.pinned:
            for x, lo in zip(coords, grid.box.lo):
                kept &= x > lo + BIN_SNAP * h
        coords = [x[kept] for x in coords]
    amps = amplitudes[kept]
    if engine.op.causal:
        bins, weights = [], [amps]
        for x, (nodes, moments, _) in zip(coords, engine.kernels):
            idx = oracle_bin_ceil(x, nodes[0], h, nodes.size)
            bins.append(idx)
            delta = nodes[idx] - x
            weights = [w for a in weights for w in moments(a, delta.copy)]
    else:
        bins = [
            np.round((x - lo) / h).astype(int) % n
            for x, lo, n in zip(coords, engine.origin, engine.shape)
        ]
        weights = [amps / h**grid.dim]
    flat = bins[0]
    for idx, n in zip(bins[1:], engine.shape[1:]):
        flat = flat * n + idx
    return kept, flat, weights


GRID2_SMALL = Grid(Box.cube(0.0, 4.0, 2), 0.1)
SCATTER_CASES = (
    (make_operator("D"), GRID1),
    (make_operator("D", n=2), GRID1),
    (make_operator("D", n=3), GRID1),
    (make_operator("DaI", alpha=0.1), GRID1),
    (make_operator("frac_laplacian", gamma=1.5), GRID1),
    (make_operator("DxDy"), GRID2_SMALL),
    (make_operator("DaIxDaIy", alpha=0.5), GRID2_SMALL),
    (make_operator("frac_laplacian", gamma=1.5, dim=2), GRID2_SMALL),
)


def test_kernel_terms_counts_each_engine_s_terms():
    # the memory guard counts an engine's terms before building it
    for op, grid in SCATTER_CASES:
        box = sampling_box(op, grid.box, margin_rule(op, grid.box))
        assert kernel_terms(op) == len(_Engine(op, grid, box).filters), op


def scatter_fields(grid, box, gen):
    """Location sets: empty, inside the window only, and mixed (the margin,
    the window start, a node of every axis, random points)."""
    dim = grid.dim
    lo = np.asarray(box.lo) - 1.0
    inside = grid.box.lo[0] + grid.box.lengths[0] * (0.5 + 0.5 * gen.random((60, dim)))
    nodes = np.stack([grid.axis(a)[gen.integers(0, grid.shape[a], 12)] for a in range(dim)], 1)
    start = np.full((3, dim), grid.box.lo[0])
    start[1:, 0] -= (1e-12, 0.5)
    around = lo + (np.asarray(box.hi) + 1.0 - lo) * gen.random((80, dim))
    mixed = np.concatenate([nodes, start, around, inside])
    return (np.zeros((0, dim)), inside, mixed)


def test_scatter_equals_the_first_written_scatter_bit_for_bit():
    gen = np.random.default_rng(11)
    for op, grid in SCATTER_CASES:
        box = sampling_box(op, grid.box, margin_rule(op, grid.box))
        engine = _Engine(op, grid, box)
        for k, locs in enumerate(scatter_fields(grid, box, gen)):
            amps = gen.standard_normal(locs.shape[0])
            saved = locs.copy()
            kept, flat, weights = engine.scatter(locs, amps)
            want_kept, want_flat, want_weights = oracle_scatter(engine, locs, amps)
            np.testing.assert_array_equal(locs, saved)  # the caller's array is untouched
            index = np.arange(locs.shape[0])
            np.testing.assert_array_equal(index[kept], index[want_kept])
            assert flat.dtype == want_flat.dtype
            np.testing.assert_array_equal(flat, want_flat)
            assert len(weights) == len(want_weights) == len(engine.filters)
            for w, want in zip(weights, want_weights):
                np.testing.assert_array_equal(w, want)
            # only the mixed set has impulses for a causal scatter to drop
            assert isinstance(kept, slice) == (k < 2 or not op.causal)


def test_spectral_cells_have_their_exact_measure():
    # the spectral engine scatters onto the torus whose period is the
    # sampling box, one node per step: the box's two ends are one torus
    # point (node 0), an offset under half a step rounds to its node, and a
    # uniform lattice over the box puts the same count on every node
    for grid in (GRID1, GRID2_SMALL):
        op = make_operator("frac_laplacian", gamma=1.5, dim=grid.dim)
        box = sampling_box(op, grid.box, margin_rule(op, grid.box))
        engine = _Engine(op, grid, box)
        h, dim = grid.step, grid.dim
        n = round(box.lengths[0] / h)
        assert engine.shape == (n,) * dim
        lo, hi = np.asarray(box.lo), np.asarray(box.hi)
        corners = np.array(list(itertools.product(*zip(lo, hi))))
        _, flat, _ = engine.scatter(corners, np.ones(len(corners)))
        np.testing.assert_array_equal(flat, 0)
        nodes = np.arange(n)
        for shift in (-0.49, 0.0, 0.49):
            along = lo + (nodes[:, None] + shift) * h
            _, flat, _ = engine.scatter(along, np.ones(n))
            np.testing.assert_array_equal(flat, nodes * sum(n**k for k in range(dim)))
        per = 10 if dim == 1 else 4
        ticks = (np.arange(n * per) + 0.5) * (h / per)
        lattice = np.stack(np.meshgrid(*([ticks] * dim), indexing="ij"), -1).reshape(-1, dim)
        lattice += lo
        _, flat, _ = engine.scatter(lattice, np.ones(len(lattice)))
        np.testing.assert_array_equal(np.bincount(flat, minlength=engine.cells), per**dim)


def test_cell_sums_are_the_first_written_scatter_binned_by_member():
    # a block's cell sums are, bit for bit, one bincount per kernel term of
    # the first-written scatter with each kept impulse in its member's row
    # (its index times the cells per member), whether pinning drops
    # impulses (a box reaching left of the window) or keeps them all, and
    # for the one-member block
    jumps = JumpLaw(gaussian(1.0), 0.25)
    for op, grid in SCATTER_CASES:
        margin = margin_rule(op, grid.box)
        for left in (0.0, 2.0):
            box = sampling_box(op, grid.box, margin + left)
            engine = _Engine(op, grid, box)
            for members in (12, 1):
                block = sample_impulse_block(grid.dim, box, 2.0, jumps, RngStream(3, 9), members)
                kept, flat, weights = oracle_scatter(engine, block.locations, block.amplitudes)
                owners = np.repeat(np.arange(members), block.counts)
                rows = flat + owners[kept] * engine.cells
                want = [
                    np.bincount(rows, w, minlength=members * engine.cells).reshape(members, -1)
                    for w in weights
                ]
                got = engine.cell_sums(block)
                assert [g.shape for g in got] == [(members, engine.cells)] * len(engine.filters)
                assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
                if op.pinned:
                    kept, _, _ = engine.scatter(block.locations, block.amplitudes)
                    assert isinstance(kept, slice) == (left == 0.0)


def test_bin_ceil_clips_far_coordinates_before_the_cast():
    # ceil and clip run on floats, so a coordinate far beyond the grid clips
    # to the last node instead of overflowing the cast to intp
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        idx = _bin_ceil(np.array([1e300, 1e25, -1e300, 2.505]), 0.0, 0.01, 1001)
    assert idx.dtype == np.intp
    np.testing.assert_array_equal(idx, [1000, 1000, 0, 251])


def test_factor_moments_read_offsets_only_where_needed():
    gen = np.random.default_rng(8)
    a = gen.standard_normal(1000)
    delta = 0.01 * gen.random(1000)
    saved = a.copy()

    def no_offset():
        raise AssertionError("the D^1 moment reads no offset")

    # D^1 (and each DxDy factor): the weight is the amplitude itself
    moments, _ = _factor_kernel((1, None), 0.01)
    (w,) = moments(a, no_offset)
    assert w is a
    # D + alpha I: a exp(-alpha delta) bit for bit, in the offset array
    for alpha in (0.1, 0.37, 5.0):
        moments, _ = _factor_kernel((1, alpha), 0.01)
        fresh = delta.copy()
        (w,) = moments(a, lambda: fresh)
        assert w is fresh
        assert w.tobytes() == (a * np.exp(-alpha * delta)).tobytes()
    # D^3: a, a delta, a delta^2 / 2 from one offset array
    moments, _ = _factor_kernel((3, None), 0.01)
    got = moments(a, delta.copy)
    want = [a, a * delta / 1, a * delta / 1 * delta / 2]
    assert [g.tobytes() for g in got] == [v.tobytes() for v in want]
    np.testing.assert_array_equal(a, saved)


def engine_outputs(engine, field, phi):
    """Everything an engine gives: a member's samples, then its scatter,
    its cell sums and the pairing tables of one test function."""
    kept, flat, weights = engine.scatter(field.locations, field.amplitudes)
    sums = engine.cell_sums(field)
    samples = engine.synthesize(list(sums))
    index = np.arange(field.count)[kept]
    return [samples, index, flat, *weights, *sums, *engine.tables([phi])]


@pytest.mark.parametrize(
    "op, grid", SCATTER_CASES,
    ids=[f"{op.family}{op.n if op.family == 'D' else ''}-{op.dim}d" for op, _ in SCATTER_CASES],
)
def test_cached_engine_gives_the_bits_of_a_direct_one(op, grid):
    # cold (both set-up caches empty), warm, and after other keys have
    # evicted the entry, engine_for's engine and one built directly agree
    # bit for bit, and synthesize_spline returns the direct engine's samples
    box = sampling_box(op, grid.box, margin_rule(op, grid.box))
    field = sample_impulse_field(grid.dim, box, 1.0, JumpLaw(gaussian(1.0), 1.0), RngStream(5))
    phi = np.random.default_rng(6).standard_normal(grid.shape)
    want = engine_outputs(_Engine(op, grid, box), field, phi)

    def check():
        got = engine_outputs(engine_for(op, grid, box), field, phi)
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
        assert synthesize_spline(field, op, grid).samples.tobytes() == want[0].tobytes()

    engine_for.cache_clear()
    _one_pole_powers.cache_clear()
    check()
    cached = engine_for(op, grid, box)
    check()
    assert engine_for(op, grid, box) is cached
    for k in range(SETUP_CACHE_SIZE):
        other = Grid(Box.cube(0.0, 1.0 + k, 1), 0.5)
        engine_for(make_operator("DaI", alpha=1.0 + k), other, other.box).tables([np.ones(other.shape)])
    assert engine_for.cache_info().currsize == SETUP_CACHE_SIZE
    assert _one_pole_powers.cache_info().currsize == SETUP_CACHE_SIZE
    assert engine_for(op, grid, box) is not cached
    check()
    # what the cache shares is read-only
    for nodes, _, _ in getattr(cached, "kernels", ()):
        with pytest.raises(ValueError):
            nodes[0] = 1.0
    for factor in op.factors:
        if factor[1] is not None:
            r = math.exp(-factor[1] * grid.step)
            for p in _one_pole_powers(r, grid.shape[0]):
                with pytest.raises(ValueError):
                    p[0] = 1.0


@pytest.mark.parametrize(
    "op", [make_operator("frac_laplacian", gamma=1.5), make_operator("DaIxDaIy", alpha=0.5)],
    ids=lambda op: op.family,
)
def test_a_margin_refusal_is_never_cached(op):
    # a field box short of the margin is refused on every call, also right
    # after a call with the same operator and grid succeeded, and a refusal
    # leaves no cache entry behind.  The short box stops one unit before the
    # window end, so it is short of the causal operator's rule (no margin) too
    grid = GRID1 if op.dim == 1 else GRID2_SMALL
    jumps = JumpLaw(gaussian(1.0), 1.0)
    box = sampling_box(op, grid.box, margin_rule(op, grid.box))
    good = sample_impulse_field(grid.dim, box, 1.0, jumps, RngStream(3))
    short_box = Box(grid.box.lo, tuple(hi - 1.0 for hi in grid.box.hi))
    short = sample_impulse_field(grid.dim, short_box, 1.0, jumps, RngStream(3))
    engine_for.cache_clear()
    for _ in range(3):
        synthesize_spline(good, op, grid)
        size = engine_for.cache_info().currsize
        for _ in range(2):
            with pytest.raises(MarginTooSmall):
                synthesize_spline(short, op, grid)
        assert engine_for.cache_info().currsize == size == 1
