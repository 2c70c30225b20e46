"""Characteristic functionals, convergence studies, and point values."""

import ast
import math
import os
import signal
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from levyspline import verify, workers
from levyspline.cli import _build_parser, _resolve
from levyspline.exponents import JumpLaw, cauchy, gaussian, laplace, poissonize
from levyspline.grid import Box, Grid
from levyspline.noise import ImpulseBlock, RngStream, sample_impulse_block
from levyspline.operators import grid_margin, make_operator, margin_rule, sampling_box
from levyspline.synthesis import (
    GridRealization,
    UnsupportedReference,
    _Engine,
    limit_cell_sums,
    synthesize_spline,
)
from levyspline.verify import (
    BLOCK_CELLS,
    CFEstimate,
    GridMismatch,
    NoiseFloor,
    VerifyError,
    _block_members,
    _cf_mean_se,
    _pair_block,
    _rung_blocks,
    _rung_engine,
    _rung_tables,
    analytic_cf,
    block_pairings,
    build_cf_bank,
    build_identity_bank,
    compound_marginal_reference,
    convergence_study,
    empirical_cf,
    left_inverse_residual,
    point_bank,
    rung_cf,
)

GRID1 = Grid(Box.cube(0.0, 10.0, 1), 0.01)
GRID2 = Grid(Box.cube(0.0, 4.0, 2), 0.1)
OP_D = make_operator("D")


def constant_realizations(values):
    """One-point-mass realizations: s identically equal to a constant."""
    out = []
    for v in values:
        out.append(
            GridRealization(
                dim=1,
                box=GRID1.box,
                step=GRID1.step,
                samples=np.full(GRID1.shape, float(v)),
                operator=OP_D,
                provenance="test",
                seed=0,
            )
        )
    return out


def test_cf_bank_shapes():
    bank = build_cf_bank(GRID1)
    assert bank.names == ["bump1", "bump2", "bump3", "bump4", "plateau"]
    assert len(bank.phis) == 5
    for phi in bank.phis:
        assert phi.shape == GRID1.shape
        assert phi[0] == 0.0 and phi[-1] == 0.0  # compact support inside
    with pytest.raises(VerifyError):
        build_cf_bank(Grid(Box.cube(0.0, 1.0, 2), 0.125))


def test_identity_bank_zero_mean():
    bank = build_identity_bank(GRID1, zero_mean=True)
    w = GRID1.weight_array()
    for phi in bank.phis:
        assert abs(np.sum(w * phi)) < 1e-10 * np.abs(phi).max()


def _bump(x, center, width):
    r = (x - center) / width
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r[inside] ** 2))
    return out


def _smooth(u):
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def _bumps(grid, centers, width):
    parts = [_bump(grid.axis(a), grid.box.lo[a] + c * grid.box.lengths[a],
                   width * grid.box.lengths[a]) for a, c in enumerate(centers)]
    return parts[0] if grid.dim == 1 else np.multiply.outer(*parts)


# Grids for the bank test: the default window, and unit windows on which
# a centre or width fraction is placed without rounding, so that a row
# moved by one ulp moves some bit of its bank.
BANK_GRIDS_1D = (Grid(Box.cube(0.0, 10.0, 1), 0.01), Grid(Box.cube(0.0, 1.0, 1), 2.0**-10))
BANK_GRIDS_2D = (Grid(Box.cube(0.0, 10.0, 2), 0.05), Grid(Box.cube(0.0, 1.0, 2), 2.0**-6))


def expected_banks():
    """Every bank build_cf_bank and build_identity_bank make on the bank
    test's grids, from the formulas and constants written out here:
    {(grid, "cf" or zero_mean): (names, phis)}."""
    geometry = {
        (1, False): [((0.20,), 0.060), ((0.35,), 0.080), ((0.50,), 0.100), ((0.65,), 0.120),
                     ((0.80,), 0.090)],
        (2, False): [((0.46, 0.52), 0.36), ((0.54, 0.48), 0.40), ((0.50, 0.55), 0.42),
                     ((0.48, 0.46), 0.44), ((0.52, 0.50), 0.38)],
        (2, True): [((0.45, 0.50), 0.13), ((0.55, 0.48), 0.15), ((0.50, 0.55), 0.17),
                    ((0.48, 0.45), 0.19), ((0.52, 0.52), 0.16)],
    }
    geometry[1, True] = geometry[1, False]
    out = {}
    for grid in BANK_GRIDS_1D:
        x, lo, n = grid.axis(0), grid.box.lo[0], grid.box.lengths[0]
        cf = [1.26 * _bump(x, lo + 0.15 * n, 0.12 * n), 2.20 * _bump(x, lo + 0.11 * n, 0.08 * n),
              0.82 * _bump(x, lo + 0.20 * n, 0.16 * n), 1.38 * _bump(x, lo + 0.17 * n, 0.10 * n),
              1.47 * (_smooth((x - (lo + 0.05 * n)) / (0.04 * n))
                      * _smooth((lo + 0.22 * n - x) / (0.04 * n)))]
        out[grid, "cf"] = ([f"bump{k}" for k in range(1, 5)] + ["plateau"], cf)
    for grid in BANK_GRIDS_1D + BANK_GRIDS_2D:
        w = grid.weight_array()
        for zero_mean in (False, True):
            phis = []
            for centers, width in geometry[grid.dim, zero_mean]:
                phi = _bumps(grid, centers, width)
                if zero_mean:
                    wide = _bumps(grid, centers, 1.6 * width)
                    phi = phi - (np.sum(w * phi) / np.sum(w * wide)) * wide
                phis.append(phi)
            names = [("zmbump" if zero_mean else "bump") + str(k) for k in range(1, 6)]
            out[grid, zero_mean] = (names, phis)
    return out


def _bank_bytes(grid, kind):
    bank = build_cf_bank(grid) if kind == "cf" else build_identity_bank(grid, zero_mean=kind)
    return bank.names, [phi.tobytes() for phi in bank.phis]


def _moved_rows(rows):
    """Each copy of `rows` with one row's first centre, width or amplitude
    moved up by one ulp."""
    for r, (name, centers, width, amp) in enumerate(rows):
        up = float(np.nextafter(centers[0], 1.0))
        for row in ((name, (up,) + centers[1:], width, amp),
                    (name, centers, float(np.nextafter(width, 1.0)), amp),
                    (name, centers, width, float(np.nextafter(amp, 2.0 * amp)))):
            yield rows[:r] + (row,) + rows[r + 1:]


def test_every_bank_keeps_its_names_and_bits(monkeypatch):
    want = {key: (names, [phi.tobytes() for phi in phis])
            for key, (names, phis) in expected_banks().items()}
    for key, value in want.items():
        assert _bank_bytes(*key) == value, key
    # on the unit windows, a row moved by one ulp shows in its bank's bits
    unit1, unit2 = BANK_GRIDS_1D[-1], BANK_GRIDS_2D[-1]
    for moved in _moved_rows(verify.CF_ROWS):
        monkeypatch.setattr(verify, "CF_ROWS", moved)
        assert _bank_bytes(unit1, "cf") != want[unit1, "cf"], moved
    monkeypatch.undo()
    for grid in (unit1, unit2):
        for zero_mean in (False, True):
            for moved in _moved_rows(verify.ID_ROWS[grid.dim, zero_mean]):
                monkeypatch.setitem(verify.ID_ROWS, (grid.dim, zero_mean), moved)
                assert _bank_bytes(grid, zero_mean) != want[grid, zero_mean], moved
            monkeypatch.undo()


def test_empirical_cf_matches_manual_computation():
    # s_i constant c_i pairs to c_i * integral(phi)
    bank = build_cf_bank(GRID1)
    phi = bank.phis[0]
    mass = float(np.sum(GRID1.weight_array() * phi))
    values = [0.3, -0.7, 1.1] * 40
    est = empirical_cf(constant_realizations(values), phi)
    summands = np.exp(1j * np.asarray(values) * mass)
    mean = summands.mean()
    assert isinstance(est, CFEstimate)
    assert est.count == len(values)
    assert est.value == pytest.approx(mean, abs=1e-12)
    expected_se = math.sqrt((1.0 - abs(mean) ** 2) / (len(values) - 1))
    assert est.se == pytest.approx(expected_se, abs=1e-12)


def test_empirical_cf_minimum_ensemble():
    bank = build_cf_bank(GRID1)
    with pytest.raises(VerifyError):
        empirical_cf(constant_realizations([0.0] * 99), bank.phis[0])


def test_empirical_cf_grid_mismatch():
    with pytest.raises(GridMismatch):
        empirical_cf(constant_realizations([0.0] * 100), np.ones(7))


def test_analytic_cf_worked_examples():
    # ramp pairing on [0, 1]: Brownian gives exp(-1/6), Cauchy exp(-1/2)
    x = GRID1.axis(0)
    phi = ((x >= 0.0) & (x <= 1.0)).astype(float)
    got = analytic_cf(gaussian(1.0), OP_D, phi, GRID1)
    assert abs(got - math.exp(-1.0 / 6.0)) < 5e-3
    got = analytic_cf(cauchy(1.0), OP_D, phi, GRID1)
    assert abs(got - math.exp(-0.5)) < 5e-3


def test_analytic_cf_agrees_with_reference_monte_carlo():
    # 20,000 members of the limit process, drawn in study blocks
    bank = build_cf_bank(GRID1)
    f = gaussian(1.0)
    values, ses = rung_cf(f, OP_D, math.inf, 20000, bank, 3, 0)
    for phi, value, se in zip(bank.phis, values, ses):
        ana = analytic_cf(f, OP_D, phi, GRID1)
        assert abs(value - ana) < 4.0 * se


def test_analytic_cf_unit_modulus_bound():
    bank = build_cf_bank(GRID1)
    for f in (gaussian(1.0), cauchy(1.0), poissonize(gaussian(1.0), 4.0)):
        for phi in bank.phis:
            assert abs(analytic_cf(f, OP_D, phi, GRID1)) <= 1.0 + 1e-12


def test_analytic_cf_shape_validation():
    with pytest.raises(GridMismatch):
        analytic_cf(gaussian(1.0), OP_D, np.ones(5), GRID1)


def test_left_inverse_residuals_fine_grid():
    fine = Grid(Box.cube(0.0, 10.0, 1), 0.001)
    bank = build_identity_bank(fine)
    for op in (make_operator("D"), make_operator("DaI", alpha=0.1)):
        for phi in bank.phis:
            assert left_inverse_residual(op, phi, fine.step) < 1e-3


def _full_window_fields(op, block, grid):
    """The block's members as fields on the full sampling box of `grid`, so
    that synthesis runs on the whole window whatever box the rung drew on."""
    box = sampling_box(op, grid.box, grid_margin(op, grid))
    ends = np.cumsum(block.counts)
    return [
        ImpulseBlock(
            block.dim, box, [b - a], block.locations[a:b], block.amplitudes[a:b],
            block.rate, block.seed, block.stream,
        )
        for a, b in zip(ends - block.counts, ends)
    ]


def _limit_node_block(f, engine, rng, members):
    """The limit cell noise as first written: an impulse on the node of each
    cell the engine keeps (for a pinned operator every node past the first
    on each axis, a node past the window end by round-off pulled back to
    it; for the spectral one every node of the torus) whose amplitude is
    the JumpLaw(f, h^dim) increment over the cell, `members` fields from
    one sample call."""
    grid, h = engine.grid, engine.grid.step
    if engine.op.causal:
        axes = [np.minimum(grid.axis(a)[1:], hi) for a, hi in enumerate(grid.box.hi)]
    else:
        axes = [lo + h * np.arange(n) for lo, n in zip(engine.origin, engine.shape)]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, grid.dim)
    amplitudes = JumpLaw(f, h**grid.dim).sample(rng.generator(), members * len(nodes))
    counts, locations = np.full(members, len(nodes)), np.tile(nodes, (members, 1))
    return ImpulseBlock(
        grid.dim, engine.box, counts, locations, amplitudes, math.inf, rng.seed, rng.index
    )


def _oracle_blocks(f, engine, lam, count, base_seed, stream_offset):
    """The ImpulseBlocks of a rung as _rung_blocks documents them, drawn
    without the engine: the block starting at member i holds up to
    _block_members members from RngStream(base_seed, stream_offset + i),
    a rate-lam Poisson block on the engine's box, or at lam = inf the
    _limit_node_block."""
    size = _block_members(engine, lam)
    for start in range(0, count, size):
        stream = RngStream(base_seed, stream_offset + start)
        members = min(size, count - start)
        if lam == math.inf:
            yield _limit_node_block(f, engine, stream, members)
        else:
            jumps = poissonize(f, lam).jump_law
            yield sample_impulse_block(engine.grid.dim, engine.box, lam, jumps, stream, members)


def _generic_rung_cf(f, op, lam, count, bank, base_seed, stream_offset):
    """Oracle for rung_cf: synthesize every member of the same blocks on the
    full window and pair by quadrature."""
    grid = bank.grid
    weights = grid.weight_array()
    weighted = [weights * phi for phi in bank.phis]
    acc = np.zeros(len(bank), dtype=complex)
    engine = _rung_engine(op, bank)
    for block in _oracle_blocks(f, engine, lam, count, base_seed, stream_offset):
        for fld in _full_window_fields(op, block, grid):
            real = synthesize_spline(fld, op, grid)
            t = np.array([float(np.sum(wp * real.samples)) for wp in weighted])
            acc += np.exp(1j * t)
    return _cf_mean_se(acc, count)


def test_convergence_study_fast_path_equals_pipeline():
    # the adjoint-table estimator must reproduce the synthesize-then-pair
    # pipeline on the same blocks of draws to round-off for every n-fold
    # derivative, the exponential kernel and the fractional Laplacian, and
    # for the limit cell noise (rate inf); at rates 4 and inf a causal
    # ensemble spans three full blocks and ends in a partial one, at rate
    # 0.05 most members draw no impulse at all
    engine_d = _rung_engine(make_operator("D"), build_cf_bank(GRID1))
    size = _block_members(engine_d, 4.0)
    dense = 3 * size + size // 2
    cases = [("D", {"n": n}, f, 4.0, dense) for n in (1, 2, 3) for f in (gaussian(1.0), cauchy(1.0))]
    cases.append(("DaI", {"alpha": 0.1}, cauchy(1.0), 4.0, dense))
    cases.append(("D", {"n": 1}, gaussian(1.0), 0.05, 300))
    cases.append(("DaI", {"alpha": 0.1}, cauchy(1.0), 0.05, 300))
    cases.append(("frac_laplacian", {"gamma": 1.5}, gaussian(1.0), 4.0, dense))
    cases.append(("frac_laplacian", {"gamma": 0.7}, cauchy(1.0), 4.0, dense))
    limit_size = _block_members(engine_d, math.inf)
    cases.append(("D", {"n": 1}, cauchy(1.0), math.inf, 3 * limit_size + limit_size // 2))
    for fam, kw, f, lam, count in cases:
        op = make_operator(fam, **kw)
        bank = build_cf_bank(GRID1, op)
        fast, fast_se = rung_cf(f, op, lam, count, bank, 17, 600)
        slow, slow_se = _generic_rung_cf(f, op, lam, count, bank, 17, 600)
        np.testing.assert_allclose(fast, slow, atol=1e-12)
        np.testing.assert_allclose(fast_se, slow_se, atol=1e-12)
        engine = _rung_engine(op, bank)
        blocks = list(_oracle_blocks(f, engine, lam, count, 17, 600))
        sums = list(_rung_blocks(f, engine, lam, count, 17, 600))
        assert [s[0].shape[0] for s in sums] == [b.members for b in blocks]
        assert sum(b.members for b in blocks) == count
        assert all(b.members == _block_members(engine, lam) for b in blocks[:-1])
        if lam == 0.05:
            assert sum(int(np.sum(b.counts == 0)) for b in blocks) > count // 2
        elif op.causal:
            assert len(blocks) == 4 and blocks[-1].members < _block_members(engine, lam)


def test_limit_cell_sums_are_the_node_impulses_scattered():
    # the limit noise drawn as cell sums equals, bit for bit, the engine's
    # cell sums of the same increments placed as impulses on the nodes: on
    # the full 0:10 window, on a study rung's window cut to 0:3.6, on 0:2.3
    # at step 0.1, whose last node lies past the window end by round-off,
    # for DxDy (nothing on the first row or column), and on the torus of
    # the 1-D and 2-D fractional Laplacian, whose weights carry 1 / h^dim
    short = Grid(Box.cube(0.0, 2.3, 1), 0.1)
    assert short.axis(0)[-1] > short.box.hi[0]
    frac1 = make_operator("frac_laplacian", gamma=1.5)
    frac2 = make_operator("frac_laplacian", gamma=1.5, dim=2)
    engines = (
        _Engine(OP_D, GRID1, GRID1.box),
        _rung_engine(OP_D, build_cf_bank(GRID1)),
        _Engine(OP_D, short, short.box),
        _Engine(make_operator("DxDy"), GRID2, GRID2.box),
        _Engine(frac1, GRID1, sampling_box(frac1, GRID1.box, grid_margin(frac1, GRID1))),
        _Engine(frac2, GRID2, sampling_box(frac2, GRID2.box, grid_margin(frac2, GRID2))),
    )
    assert engines[1].grid.box.hi == (3.6,)
    for engine in engines:
        for f in (gaussian(1.0), cauchy(1.0), laplace(1.0)):
            for members in (1, 5):
                stream = RngStream(9, members)
                got = limit_cell_sums(f, engine, stream, members)
                want = engine.cell_sums(_limit_node_block(f, engine, stream, members))
                assert [g.shape for g in got] == [(members, engine.cells)]
                assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_limit_rung_matches_the_analytic_functional_of_every_drawable_operator():
    # at rate inf every bank function's empirical functional lies within 4
    # standard errors of exp(integral f(T phi)) for DxDy and the 1-D and 2-D
    # fractional Laplacian; each bank is scaled so that no |E| sits near 1,
    # where a wrong cell measure would not show (|E| spans 0.016 to 0.92),
    # and the spectral banks are zero-mean, since the synthesized window is
    # mean-free and the analytic functional does not see that
    grid2 = Grid(Box.cube(0.0, 2.0, 2), 0.05)
    for op, grid, zero_mean, scale in (
        (make_operator("DxDy"), grid2, False, 1.0),
        (make_operator("frac_laplacian", gamma=1.5), GRID1, True, 10.0),
        (make_operator("frac_laplacian", gamma=1.5, dim=2), grid2, True, 100.0),
    ):
        unit = build_identity_bank(grid, zero_mean)
        bank = verify.TestFunctionBank(grid, unit.names, [scale * phi for phi in unit.phis])
        for f, count in ((gaussian(1.0), 20000), (cauchy(1.0), 20000), (laplace(1.0), 5000)):
            values, ses = rung_cf(f, op, math.inf, count, bank, 0, 0)
            ana = np.array([analytic_cf(f, op, phi, grid) for phi in bank.phis])
            assert np.all(np.abs(values - ana) <= 4.0 * ses), (op, f.family)


def test_pinned_exponential_2d_rung_matches_its_finite_rate_functional():
    # a finite-rate DaIxDaIy rung, pinned and drawn on the window alone,
    # lies within 4 standard errors of exp(integral f_lambda(T phi)) over
    # that window for every bank function (|E| spans 0.52 to 0.94)
    grid = Grid(Box.cube(0.0, 2.0, 2), 0.05)
    op = make_operator("DaIxDaIy", alpha=0.5)
    bank = build_identity_bank(grid)
    for lam in (1.0, 16.0):
        for f, count in ((gaussian(1.0), 20000), (cauchy(1.0), 20000), (laplace(1.0), 5000)):
            values, ses = rung_cf(f, op, lam, count, bank, 0, 0)
            fl = poissonize(f, lam)
            ana = np.array([analytic_cf(fl, op, phi, grid) for phi in bank.phis])
            z = np.abs(values - ana) / ses
            assert np.all(z <= 4.0), (lam, f.family, z)


def test_block_members_bound_the_scattered_histogram():
    # a block's (member, cell) histogram plus its expected impulses stay
    # within BLOCK_CELLS, counted on the cells the engine scatters onto:
    # the window cut to the bank's support for causal operators, the
    # sampling box's torus for frac_laplacian
    grid2 = Grid(Box.cube(0.0, 4.0, 2), 0.1)
    for op, bank, lam in (
        (make_operator("D"), build_cf_bank(GRID1), 4.0),
        (make_operator("DaIxDaIy", alpha=0.5), build_identity_bank(grid2), 1.0),
        (make_operator("frac_laplacian", gamma=1.5), build_cf_bank(GRID1), 4.0),
        (make_operator("frac_laplacian", gamma=1.5, dim=2), build_identity_bank(grid2, True), 1.0),
    ):
        engine = _rung_engine(op, bank)
        per_member = engine.cells + math.ceil(lam * engine.box.volume)
        members = _block_members(engine, lam)
        assert members * per_member <= BLOCK_CELLS < (members + 1) * per_member
    # the 1-D spectral rung scatters onto the 1,500 cells of its torus (the
    # 15-long box in steps of 0.01), not the 1,001 window points, so a
    # block holds 42 members rather than 61
    spectral = _rung_engine(make_operator("frac_laplacian", gamma=1.5), build_cf_bank(GRID1))
    assert spectral.cells == 1500 and _block_members(spectral, 4.0) == 42


def test_rung_cf_equals_pipeline_in_two_dimensions():
    # the same identity for the 2-D operators: product kernels on the
    # pinned window, and the spectral path with zero-mean profiles
    grid = Grid(Box.cube(0.0, 4.0, 2), 0.1)
    for op in (
        make_operator("DxDy"),
        make_operator("DaIxDaIy", alpha=0.5),
        make_operator("frac_laplacian", gamma=1.5, dim=2),
    ):
        ident = build_identity_bank(grid, zero_mean=not op.causal)
        bank = replace(ident, phis=[0.3 * phi for phi in ident.phis])
        f = gaussian(1.0)
        fast, fast_se = rung_cf(f, op, 1.0, 40, bank, 5, 0)
        slow, slow_se = _generic_rung_cf(f, op, 1.0, 40, bank, 5, 0)
        np.testing.assert_allclose(fast, slow, atol=1e-12)
        np.testing.assert_allclose(fast_se, slow_se, atol=1e-12)


def _restricted(block, box):
    """The block's impulses that lie in `box`, member by member."""
    inside = np.all((block.locations >= box.lo) & (block.locations <= box.hi), axis=1)
    member = np.repeat(np.arange(block.members), block.counts)
    counts = np.bincount(member[inside], minlength=block.members)
    return ImpulseBlock(
        block.dim, box, counts, block.locations[inside], block.amplitudes[inside],
        block.rate, block.seed, block.stream,
    )


CROP_CASES = (
    ("D", {"n": 1}, GRID1),
    ("D", {"n": 2}, GRID1),
    ("D", {"n": 3}, GRID1),
    ("DaI", {"alpha": 0.1}, GRID1),
    ("DaI", {"alpha": 1.0}, GRID1),
    ("DxDy", {}, GRID2),
    ("DaIxDaIy", {"alpha": 0.5}, GRID2),
)


@pytest.mark.parametrize(
    "fam, kw, grid", CROP_CASES,
    ids=["-".join([fam] + [f"{k}{v}" for k, v in kw.items()]) for fam, kw, _ in CROP_CASES],
)
def test_a_cropped_rung_pairs_its_block_as_the_full_window(fam, kw, grid):
    # a causal rung's engine ends one node past the bank's support; a block
    # drawn on the full sampling box and paired on the full window pairs
    # the same as its impulses inside the cropped box on the cropped engine
    op = make_operator(fam, **kw)
    if grid.dim == 1:
        bank = build_cf_bank(grid)
    else:
        ident = build_identity_bank(grid)
        bank = replace(ident, phis=[0.3 * phi for phi in ident.phis])
    full = _Engine(op, grid, sampling_box(op, grid.box, grid_margin(op, grid)))
    full_tables = full.tables(bank.phis)
    cut = _rung_engine(op, bank)
    cut_tables = _rung_tables(cut, bank)
    assert cut.cells < full.cells and cut.box.volume < full.box.volume
    if grid is GRID1:
        assert cut.grid.box.hi == (3.6,) and cut.cells == 361
    for f in (gaussian(1.0), cauchy(1.0)):
        for lam in (1.0, 64.0):
            jumps = poissonize(f, lam).jump_law
            block = sample_impulse_block(grid.dim, full.box, lam, jumps, RngStream(11, 0), 20)
            whole = _pair_block(full_tables, full.cell_sums(block))
            part = _restricted(block, cut.box)
            assert part.counts.sum() < block.counts.sum()
            np.testing.assert_allclose(
                _pair_block(cut_tables, cut.cell_sums(part)), whole, rtol=0,
                atol=1e-12 * np.abs(whole).max(),
            )


def test_rung_engines_that_keep_the_whole_window():
    # the spectral engine, a bank that reaches the window end on every axis
    # and an all-zero bank draw on the full sampling box
    cases = (
        (make_operator("frac_laplacian", gamma=1.5), build_cf_bank(GRID1)),
        (OP_D, point_bank(GRID1, [2.0, 10.0])),
        (make_operator("DaI", alpha=0.1), point_bank(GRID1, [10.0])),
        (make_operator("DxDy"), point_bank(GRID2, [(4.0, 1.0), (1.0, 4.0)])),
        (make_operator("DaIxDaIy", alpha=0.5), point_bank(GRID2, [(4.0, 4.0)])),
        (OP_D, verify.TestFunctionBank(GRID1, ["zero"], [np.zeros(GRID1.shape)])),
    )
    for op, bank in cases:
        engine = _rung_engine(op, bank)
        grid = bank.grid
        assert engine.grid == grid
        assert engine.box == sampling_box(op, grid.box, grid_margin(op, grid))


def _whole_window_bank(grid):
    """One test function that is nonzero on the whole window, so that no
    rung engine is cut to its support."""
    return verify.TestFunctionBank(grid, ["one"], [np.ones(grid.shape)])


def _analytic_domain_shape(monkeypatch, op, grid):
    """The shape of the domain analytic_cf integrates over, read from the
    array it passes to apply_T (the integral itself is not computed)."""

    class Seen(Exception):
        pass

    def spy(op, embedded, step):
        raise Seen(embedded.shape)

    monkeypatch.setattr(verify, "apply_T", spy)
    with pytest.raises(Seen) as seen:
        analytic_cf(gaussian(1.0), op, np.zeros(grid.shape), grid)
    monkeypatch.undo()
    return seen.value.args[0]


def test_study_draws_on_the_margin_run_cfg_records(monkeypatch):
    # a study whose bank spans the window draws impulses on, and
    # analytic_cf integrates over, the window plus the operator's rule in
    # whole steps (grid_margin), which is also the margin generate records
    # by default, where the rule is not a whole number of steps too (2.2525
    # at step 0.01); the spectral path scatters onto and integrates over the
    # torus of that box, one node per step, one node fewer per axis than
    # the box's grid
    args = ("--operator", "frac_laplacian", "--gamma", "1.5", "--box", "0:9.01", "--step", "0.01")
    _, op, grid, _ = _resolve(_build_parser().parse_args(["verify", *args]))
    margin = grid_margin(op, grid)
    engine = _rung_engine(op, _whole_window_bank(grid))
    assert engine.box == sampling_box(op, grid.box, margin)
    domain = tuple(n - 1 for n in Grid(engine.box, grid.step).shape)
    assert engine.shape == domain
    assert _analytic_domain_shape(monkeypatch, op, grid) == domain
    assert _resolve(_build_parser().parse_args(["generate", *args]))[0].margin == margin
    assert margin == 226 * 0.01 and engine.box.lo == (-margin,)


def test_whole_step_margins_keep_the_rule_box_bit_for_bit():
    # where the margin rule is a whole number of steps, a study whose bank
    # spans the window draws on exactly the rule's box
    for step in (0.01, 0.02, 0.05, 0.1):
        for op in (
            make_operator("frac_laplacian", gamma=1.5),
            make_operator("frac_laplacian", gamma=0.7, dim=2),
            make_operator("D"),
            make_operator("D", n=2),
            make_operator("DaI", alpha=0.1),
            make_operator("DxDy"),
            make_operator("DaIxDaIy", alpha=0.1),
        ):
            grid = Grid(Box.cube(0.0, 10.0, op.dim), step)
            rule = margin_rule(op, grid.box)
            assert grid_margin(op, grid) == rule == (0.0 if op.causal else 2.5)
            assert _rung_engine(op, _whole_window_bank(grid)).box == sampling_box(op, grid.box, rule)


def test_convergence_study_report_contents():
    f = gaussian(1.0)
    bank = build_cf_bank(GRID1)
    report = convergence_study(f, OP_D, (1.0, 4.0, 16.0, 64.0), 20000, bank, base_seed=0)
    assert report.empirical.shape == (4, 5)
    assert report.ladder == [1.0, 4.0, 16.0, 64.0]
    assert report.ensemble_size == 20000
    # errors decay and the fitted slope lands in the first-order band
    assert report.mean_err[0] > report.mean_err[-1]
    assert report.verdict()[0]
    text = report.summary_text()
    assert "slope" in text and "lambda=64" in text


def test_convergence_study_is_deterministic():
    f = cauchy(1.0)
    bank = build_cf_bank(GRID1)
    a = convergence_study(f, OP_D, (1.0, 4.0, 16.0), 8000, bank, base_seed=9)
    b = convergence_study(f, OP_D, (1.0, 4.0, 16.0), 8000, bank, base_seed=9)
    np.testing.assert_array_equal(a.empirical, b.empirical)
    assert a.slope == b.slope


def _workers(monkeypatch, n):
    """Force n usable CPUs, and split every study whose largest rung has n
    blocks."""
    monkeypatch.setattr(workers, "usable_cpus", lambda cap: n)
    monkeypatch.setattr(verify, "SHARE_WORK", 1)


def _shares(engine, ladder, count):
    """Each rung's shares when a study of `count` members climbs `ladder`."""
    return verify._study_shares(engine, [(lam, 0) for lam in ladder], count)


PARALLEL_CASES = (
    ("D", {}, gaussian(1.0)),
    ("D", {}, cauchy(1.0)),
    ("DaI", {"alpha": 0.1}, cauchy(1.0)),
    ("D", {"n": 2}, gaussian(1.0)),
    ("frac_laplacian", {"gamma": 1.5}, gaussian(1.0)),
)


def _study_bytes(f, op, bank, count):
    try:
        report = convergence_study(f, op, (1.0, 4.0, 64.0), count, bank, base_seed=4)
    except NoiseFloor as exc:
        report = exc.report
    return report.empirical.tobytes(), report.se.tobytes(), np.float64(report.slope).tobytes()


def test_rung_cf_and_studies_have_the_same_bytes_for_any_worker_count(monkeypatch):
    # the block sums come back in block order whichever process paired
    # them, so 1, 2 and 3 workers give bit-equal functionals, errors and
    # slopes; three rate-1 blocks of members make at least 3 blocks on
    # every rung below, and so do 300 members of the limit rung
    bank = build_cf_bank(GRID1)
    seen = {}
    for n in (1, 2, 3):
        _workers(monkeypatch, n)
        for fam, kw, f in PARALLEL_CASES:
            op = make_operator(fam, **kw)
            engine = _rung_engine(op, bank)
            count = 3 * _block_members(engine, 1.0)
            for lam in (1.0, 64.0):
                assert len(_shares(engine, [lam], count)[0]) == n
            mean, se = rung_cf(f, op, 64.0, count, bank, 4, 900)
            seen.setdefault((fam, str(kw), str(f)), []).append(
                (mean.tobytes(), se.tobytes()) + _study_bytes(f, op, bank, count)
            )
        assert len(_shares(_rung_engine(OP_D, bank), [math.inf], 300)[0]) == n
        mean, se = rung_cf(cauchy(1.0), OP_D, math.inf, 300, bank, 4, 0)
        seen.setdefault("limit", []).append((mean.tobytes(), se.tobytes()))
    for runs in seen.values():
        assert runs[1] == runs[0] and runs[2] == runs[0]


def _fail_in(monkeypatch, where, lam=None):
    """Make _share_sums fail in the parent or in every forked child, on
    every rung or on the rung of rate `lam` alone."""
    parent, real = os.getpid(), verify._share_sums

    def share_sums(*args):
        in_child = os.getpid() != parent
        if lam is not None and args[3] != lam:
            return real(*args)
        if where == "child raises" and in_child or where == "parent raises" and not in_child:
            raise RuntimeError(where)
        out = real(*args)
        return out[:-1] if where == "child short" and in_child else out

    monkeypatch.setattr(verify, "_share_sums", share_sums)


@pytest.mark.parametrize("where", ["child raises", "child short", "parent raises"])
def test_a_failed_share_raises_and_leaves_no_process(monkeypatch, where):
    _workers(monkeypatch, 3)
    _fail_in(monkeypatch, where)
    bank = build_cf_bank(GRID1)
    # five blocks: the children pair blocks 1-2 and 3-4
    count = 5 * _block_members(_rung_engine(OP_D, bank), 1.0)
    error, match = {
        # a child's own error is quoted
        "child raises": (VerifyError, "blocks 1-2 .* status 1: RuntimeError: child raises"),
        # a short share is caught before it is written
        "child short": (VerifyError,
                        r"blocks 1-2 .* status 1: .*paired \(1, 5\) block sums for \(2, 5\)"),
        "parent raises": (RuntimeError, "parent raises"),
    }[where]
    with pytest.raises(error, match=match):
        rung_cf(gaussian(1.0), OP_D, 1.0, count, bank, 4, 0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_rung_below_the_work_threshold_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(workers, "usable_cpus", lambda cap: 2)
    monkeypatch.setattr(os, "fork", no_fork)
    bank = build_cf_bank(GRID1)
    fds = len(os.listdir("/dev/fd"))
    # the largest rung with less than two shares' work stays serial
    small = (2 * verify.SHARE_WORK - 1) // verify._member_work(_rung_engine(OP_D, bank), 1.0)
    rung_cf(gaussian(1.0), OP_D, 1.0, small, bank, 4, 0)
    # one member more is split, and the first fork is refused
    with pytest.raises(AssertionError, match="forked"):
        rung_cf(gaussian(1.0), OP_D, 1.0, small + 1, bank, 4, 0)
    # the refused fork leaves no descriptor open
    assert len(os.listdir("/dev/fd")) == fds


LADDER4 = (1.0, 4.0, 16.0, 64.0)


def test_a_worker_that_fails_on_a_later_rung_names_that_rung(monkeypatch):
    # the workers pair rates 1 and 4 and fail on 16: the error names the
    # rate-16 blocks of the first worker, which is reaped first
    _workers(monkeypatch, 3)
    _fail_in(monkeypatch, "child raises", lam=16.0)
    bank = build_cf_bank(GRID1)
    engine = _rung_engine(OP_D, bank)
    count = 5 * _block_members(engine, 1.0)
    blocks = _shares(engine, LADDER4, count)[2][1]
    match = (f"rung lambda=16: .* blocks {blocks.start}-{blocks.stop - 1} .* status 1: "
             "RuntimeError: child raises")
    with pytest.raises(VerifyError, match=match):
        convergence_study(gaussian(1.0), OP_D, LADDER4, count, bank, base_seed=4)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_killed_by_a_signal_names_the_rung_it_was_pairing(monkeypatch):
    # the worker has finished rates 1 and 4 when SIGKILL ends it in its
    # rate-16 share, and its count of finished rungs says so
    _workers(monkeypatch, 2)
    parent, real = os.getpid(), verify._share_sums

    def share_sums(*args):
        if os.getpid() != parent and args[3] == 16.0:
            os.kill(os.getpid(), signal.SIGKILL)
        return real(*args)

    monkeypatch.setattr(verify, "_share_sums", share_sums)
    bank = build_cf_bank(GRID1)
    engine = _rung_engine(OP_D, bank)
    count = 5 * _block_members(engine, 1.0)
    assert _shares(engine, LADDER4, count)[2][1] == slice(3, 6)
    with pytest.raises(VerifyError, match=r"^rung lambda=16: .* blocks 3-5 exited with status -9$"):
        convergence_study(gaussian(1.0), OP_D, LADDER4, count, bank, base_seed=4)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_forks(monkeypatch):
    """The list that gets one entry per os.fork call of this process."""
    calls, real = [], os.fork

    def fork():
        calls.append(os.getpid())
        return real()

    monkeypatch.setattr(os, "fork", fork)
    return calls


def _study(f, op, ladder, count, bank):
    try:
        return convergence_study(f, op, ladder, count, bank, base_seed=4)
    except NoiseFloor as exc:
        return exc.report


@pytest.mark.parametrize("n", [2, 3])
def test_a_study_forks_each_worker_once(monkeypatch, n):
    # every rung of the ladder is cut into n shares, and the n - 1 workers
    # pair their share of every rung
    _workers(monkeypatch, n)
    forks = _count_forks(monkeypatch)
    bank = build_cf_bank(GRID1)
    engine = _rung_engine(OP_D, bank)
    count = 3 * _block_members(engine, 1.0)
    assert [len(shares) for shares in _shares(engine, LADDER4, count)] == [n] * 4
    _study(gaussian(1.0), OP_D, LADDER4, count, bank)
    assert len(forks) == n - 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_study_below_the_work_threshold_never_forks(monkeypatch):
    monkeypatch.setattr(workers, "usable_cpus", lambda cap: 2)
    forks = _count_forks(monkeypatch)
    bank = build_cf_bank(GRID1)
    engine = _rung_engine(OP_D, bank)
    # the largest study with less than two shares' work over all its rungs
    # stays serial; one member more is split
    count = (2 * verify.SHARE_WORK - 1) // sum(verify._member_work(engine, lam) for lam in LADDER4)
    assert [len(shares) for shares in _shares(engine, LADDER4, count)] == [1] * 4
    assert [len(shares) for shares in _shares(engine, LADDER4, count + 1)] == [2] * 4
    _study(gaussian(1.0), OP_D, LADDER4, count, bank)
    assert forks == []


@pytest.mark.parametrize("name", ["fork", "sched_getaffinity"])
def test_a_platform_without_fork_or_affinity_runs_studies_serially(monkeypatch, name):
    # without os.fork a fork attempt would raise AttributeError
    forks = _count_forks(monkeypatch) if name != "fork" else []
    monkeypatch.delattr(os, name)
    monkeypatch.setattr(verify, "SHARE_WORK", 1)
    assert workers.usable_cpus(verify.MAX_WORKERS) == 1
    bank = build_cf_bank(GRID1)
    engine = _rung_engine(OP_D, bank)
    count = 3 * _block_members(engine, 1.0)
    assert [len(shares) for shares in _shares(engine, LADDER4, count)] == [1] * 4
    _study(gaussian(1.0), OP_D, LADDER4, count, bank)
    assert forks == []


def test_a_study_has_the_same_bytes_on_a_mixed_ladder(monkeypatch):
    # at the real work threshold 8,000 members give the study work for at
    # least 3 shares, and every rung, whatever its block count, is cut into
    # as many shares as there are workers
    bank = build_cf_bank(GRID1)
    engine = _rung_engine(OP_D, bank)
    seen = []
    for n in (1, 2, 3):
        monkeypatch.setattr(workers, "usable_cpus", lambda cap, n=n: n)
        assert [len(shares) for shares in _shares(engine, LADDER4, 8000)] == [n] * 4
        report = _study(gaussian(1.0), OP_D, LADDER4, 8000, bank)
        seen.append((report.empirical.tobytes(), report.se.tobytes(),
                     np.float64(report.slope).tobytes()))
    assert seen[1] == seen[0] and seen[2] == seen[0]


def test_a_study_with_empty_shares_has_the_same_bytes(monkeypatch):
    # 2 rate-1 blocks of members: with 3 workers the rate-1 rung leaves this
    # process's share empty while the rate-64 rung fills all three
    bank = build_cf_bank(GRID1)
    engine = _rung_engine(OP_D, bank)
    count = 2 * _block_members(engine, 1.0)
    seen = []
    for n in (1, 2, 3):
        _workers(monkeypatch, n)
        plans = _shares(engine, LADDER4, count)
        assert [len(shares) for shares in plans] == [n] * 4
        assert (plans[0][0] == slice(0, 0)) == (n == 3)
        assert all(s.stop > s.start for s in plans[-1])
        report = _study(cauchy(1.0), OP_D, LADDER4, count, bank)
        seen.append((report.empirical.tobytes(), report.se.tobytes(),
                     np.float64(report.slope).tobytes()))
    assert seen[1] == seen[0] and seen[2] == seen[0]


def test_a_worker_share_of_many_blocks_has_the_same_bytes(monkeypatch):
    # one member per block: each worker pairs at least 1,200 blocks over
    # the ladder and writes one 80-byte row per block into the shared table
    monkeypatch.setattr(verify, "BLOCK_CELLS", 1)
    bank = build_cf_bank(GRID1)
    engine = _rung_engine(OP_D, bank)
    seen = []
    for n in (1, 2, 3):
        _workers(monkeypatch, n)
        plans = _shares(engine, LADDER4, 900)
        for w in range(1, n):
            assert sum(s[w].stop - s[w].start for s in plans) >= 1200
        report = _study(cauchy(1.0), OP_D, LADDER4, 900, bank)
        seen.append((report.empirical.tobytes(), report.se.tobytes(),
                     np.float64(report.slope).tobytes()))
    assert seen[1] == seen[0] and seen[2] == seen[0]


def test_convergence_study_validation():
    bank = build_cf_bank(GRID1)
    with pytest.raises(VerifyError):
        convergence_study(gaussian(1.0), OP_D, (1.0, 4.0), 500, bank)
    with pytest.raises(VerifyError):
        convergence_study(gaussian(1.0), OP_D, (4.0, 1.0, 16.0), 500, bank)
    with pytest.raises(VerifyError):
        convergence_study(gaussian(1.0), OP_D, (1.0, 4.0, 16.0), 50, bank)


def test_convergence_study_noise_floor():
    f = gaussian(1.0)
    bank = build_cf_bank(GRID1)
    with pytest.raises(NoiseFloor) as exc_info:
        convergence_study(f, OP_D, (64.0, 128.0, 256.0), 200, bank, base_seed=0)
    report = exc_info.value.report
    assert report is not None
    assert math.isnan(report.slope)
    assert report.qualified.sum() < 2
    assert "NOISE_FLOOR" in report.summary_text()


RATES = np.array([1.0, 4.0, 16.0, 64.0])


@pytest.mark.parametrize(
    "errors, se, passed, text",
    [
        # errors falling like 1/lambda
        ([0.2 / RATES, 0.3 / RATES], 1e-3, True,
         "slope_band=-1.3..-0.7\nslope_in_band=yes\nmonotone=yes\nverdict=PASS"),
        # the second function's error rises by 19 SE from rate 1 to rate 4
        ([0.4 / RATES, [1e-3, 0.02, 1e-3, 1e-3]], 1e-3, False,
         "slope_band=-1.3..-0.7\nslope_in_band=yes\nmonotone=no\nverdict=FAIL"),
        # errors falling like 1/lambda^2: slope -2
        ([0.2 / RATES**2, 0.3 / RATES**2], 1e-6, False,
         "slope_band=-1.3..-0.7\nslope_in_band=no\nmonotone=yes\nverdict=FAIL"),
        # every rung within 3 SE: no slope
        ([[4e-3, 3e-3, 2e-3, 1e-3]] * 2, 1e-2, False, "verdict=FAIL reason=NOISE_FLOOR"),
    ],
    ids=["pass", "one-function-rises", "slope-out-of-band", "noise-floor"],
)
def test_verdict_of_a_report_built_from_arrays(errors, se, passed, text):
    # real empirical functionals `errors` above an analytic functional of 1;
    # the mean error falls in every case, so monotone=no comes from one
    # function's rise alone
    errors = np.array(errors).T
    report = verify.CFReport(
        "operator=D n=1", "family=gaussian sigma2=1", 1000, list(RATES), ["phi1", "phi2"],
        1.0 + errors.astype(complex), np.full(errors.shape, se), np.ones(2, complex),
    )
    assert np.all(np.diff(report.mean_err) < 0)
    assert report.verdict() == (passed, text.split("\n"))


def test_benchmark_keeps_the_verdict_constants():
    # the benchmark's own copy, read without importing or running it
    tree = ast.parse((Path(__file__).parents[1] / "benchmarks" / "workloads.py").read_text())
    names = ("SLOPE_BAND", "MONOTONE_SLACK")
    copies = {t.id: ast.literal_eval(n.value) for n in tree.body for t in getattr(n, "targets", ())
              if getattr(t, "id", None) in names}
    assert copies == {name: getattr(verify, name) for name in names}


def test_csv_report_round_trip_columns(tmp_path):
    f = gaussian(1.0)
    bank = build_cf_bank(GRID1)
    report = convergence_study(f, OP_D, (1.0, 4.0, 16.0), 5000, bank, base_seed=1)
    path = tmp_path / "cfreport.csv"
    report.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "lambda,phi,re_emp,im_emp,se,re_ana,im_ana,abs_err"
    assert len(lines) == 1 + 3 * 5
    row = lines[1].split(",")
    assert row[0] == "1" and row[1] == "bump1"
    assert abs(complex(float(row[2]), float(row[3]))) <= 1.0 + 1e-9


def test_compound_marginal_reference_moments():
    law = JumpLaw(gaussian(0.5), 1.0)
    vals = compound_marginal_reference(4.0, law, 2.0, 200000, seed=12)
    # sum of N ~ Poisson(8) jumps of variance 0.5: total variance 4.0
    assert np.mean(vals) == pytest.approx(0.0, abs=0.02)
    assert np.var(vals) == pytest.approx(4.0, rel=0.05)


def test_compound_marginal_reference_budget_cap():
    law = JumpLaw(gaussian(1.0), 1.0)
    vals = compound_marginal_reference(200.0, law, 10.0, 10**6, seed=0)
    # capped near MAX_REFERENCE_VALUES / (lam t) draws
    assert len(vals) <= 10**4


def point_values(f, op, lam, count, bank, base_seed):
    """Every member's pairings with the bank, drawn in study blocks."""
    return np.concatenate(list(block_pairings(f, op, lam, count, bank, base_seed)))


def test_point_bank_names_and_refusals():
    # nodes of the closed window are accepted, and named by their coordinates
    assert point_bank(GRID1, (0.0, 2.5, 10.0)).names == ["s(0)", "s(2.5)", "s(10)"]
    grid2 = Grid(Box.cube(0.0, 4.0, 2), 0.1)
    assert point_bank(grid2, [(0.5, 4.0)]).names == ["s(0.5,4)"]
    for grid, point, reason in (
        (GRID1, -0.01, "outside the window"),
        (GRID1, 10.01, "outside the window"),
        (GRID1, math.nan, "outside the window"),
        (grid2, (2.0, 4.1), "outside the window"),
        (GRID1, 5.005, "not a grid node"),
        (grid2, (0.55, 1.0), "not a grid node"),
        (GRID1, (1.0, 2.0), "does not have 1 coordinates"),
        (grid2, 1.0, "does not have 2 coordinates"),
    ):
        with pytest.raises(VerifyError, match=reason):
            point_bank(grid, [np.zeros(grid.dim), point])


def test_block_point_values_equal_synthesis():
    # the point bank's block pairings are the synthesized samples at the
    # nodes, member for member on the same blocks, for every operator
    # family in one and two dimensions
    grid2 = Grid(Box.cube(0.0, 4.0, 2), 0.1)
    cases = (
        (make_operator("D"), GRID1, cauchy(1.0)),
        (make_operator("D", n=2), GRID1, gaussian(1.0)),
        (make_operator("DaI", alpha=0.1), GRID1, cauchy(1.0)),
        (make_operator("frac_laplacian", gamma=1.5), GRID1, gaussian(1.0)),
        (make_operator("DxDy"), grid2, gaussian(1.0)),
        (make_operator("DaIxDaIy", alpha=0.5), grid2, cauchy(1.0)),
        (make_operator("frac_laplacian", gamma=1.2, dim=2), grid2, gaussian(1.0)),
    )
    for op, grid, f in cases:
        if grid.dim == 1:
            points, nodes = (0.0, 3.07, 10.0), ((0,), (307,), (1000,))
        else:
            points, nodes = ((0.0, 0.0), (0.5, 3.2), (4.0, 1.0)), ((0, 0), (5, 32), (40, 10))
        lam, count = 4.0 / grid.dim, 60
        bank = point_bank(grid, points)
        fast = point_values(f, op, lam, count, bank, 23)
        # the 2-D causal rungs draw up to 3.3 on their second axis, one node
        # past the last point, and synthesis runs on the whole window
        engine = _rung_engine(op, bank)
        slow = np.array([
            [synthesize_spline(fld, op, grid).samples[node] for node in nodes]
            for block in _oracle_blocks(f, engine, lam, count, 23, 0)
            for fld in _full_window_fields(op, block, grid)
        ])
        assert fast.shape == slow.shape == (count, 3)
        np.testing.assert_allclose(fast, slow, rtol=0, atol=1e-12 * np.abs(slow).max())


def test_reference_marginal_accepts_its_gaussian_law():
    # the exact path's t=10 value is N(0, 10): KS accepts it and rejects N(0, 20)
    vals = point_values(gaussian(1.0), OP_D, math.inf, 5000, point_bank(GRID1, [10.0]), 8)[:, 0]
    assert stats.kstest(vals, "norm", args=(0.0, math.sqrt(10.0)), mode="asymp").pvalue > 1e-3
    assert stats.kstest(vals, "norm", args=(0.0, math.sqrt(20.0)), mode="asymp").pvalue < 1e-3


def test_limit_rung_refuses_operators_it_cannot_draw():
    # the limit cell noise is drawn only where a cell weighs every impulse
    # alike, not where the weight reads the impulse's offset in its cell
    for op in (make_operator("DaI", alpha=0.1), make_operator("D", n=2)):
        bank = point_bank(GRID1, [0.0])
        with pytest.raises(UnsupportedReference, match="^exact references exist only"):
            next(block_pairings(gaussian(1.0), op, math.inf, 10, bank, 0))


def test_block_point_values_match_the_compound_oracle():
    lam = 5.0
    f = gaussian(1.0)
    vals = point_values(f, OP_D, lam, 4000, point_bank(GRID1, [10.0]), 15)[:, 0]
    ref = compound_marginal_reference(lam, poissonize(f, lam).jump_law, 10.0, 10**6, seed=0)
    assert stats.ks_2samp(vals, ref, mode="asymp").pvalue > 1e-3


def test_psd_spot_check():
    # the limit functional of a valid exponent is positive definite, so the
    # Gram matrix [cf(phi_j - phi_k)] must be PSD up to round-off
    bank = build_cf_bank(GRID1)
    phis = [0.3 * phi for phi in bank.phis[:4]]
    for f in (gaussian(1.0), cauchy(1.0)):
        mat = np.array([[analytic_cf(f, OP_D, a - b, GRID1) for b in phis] for a in phis])
        mat = 0.5 * (mat + mat.conj().T)
        assert np.linalg.eigvalsh(mat).min() > -1e-10
