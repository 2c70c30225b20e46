"""Seeded impulse-field sampling and CSV persistence."""

import warnings

import numpy as np
import pytest
from scipy import stats

from levyspline.exponents import JumpLaw, cauchy, gaussian
from levyspline.grid import Box
from levyspline.noise import (
    ImpulseBlock,
    NoiseError,
    RngStream,
    sample_impulse_block,
    sample_impulse_field,
    write_impulse_csv,
)
from levyspline.verify import _member_offsets

GAUSS = JumpLaw(gaussian(1.0), 1.0)


def test_rng_stream_determinism():
    a = RngStream(42, 3).generator().random(8)
    b = RngStream(42, 3).generator().random(8)
    np.testing.assert_array_equal(a, b)
    c = RngStream(42, 4).generator().random(8)
    assert not np.array_equal(a, c)


def test_sample_field_shapes_and_metadata():
    box = Box.cube(0.0, 10.0, 1)
    field = sample_impulse_field(1, box, 3.0, GAUSS, RngStream(7))
    assert field.locations.shape == (field.count, 1)
    assert field.amplitudes.shape == (field.count,)
    assert field.rate == 3.0
    assert (field.seed, field.stream) == (7, 0)
    assert np.all(field.locations >= 0.0) and np.all(field.locations <= 10.0)


def test_sample_field_draw_order_is_replayable():
    # count, then locations, then amplitudes, from one generator
    box = Box.cube(-1.0, 2.0, 2)
    field = sample_impulse_field(2, box, 5.0, GAUSS, RngStream(11, 2))
    gen = RngStream(11, 2).generator()
    count = int(gen.poisson(5.0 * box.volume))
    locs = np.asarray(box.lo) + gen.random((count, 2)) * np.asarray(box.lengths)
    amps = GAUSS.sample(gen, count)
    assert field.count == count
    np.testing.assert_array_equal(field.locations, locs)
    np.testing.assert_array_equal(field.amplitudes, amps)


def test_sample_block_draw_order_is_replayable():
    # every count, then every location, then every amplitude, from one generator
    box = Box.cube(-1.0, 2.0, 2)
    block = sample_impulse_block(2, box, 1.5, GAUSS, RngStream(11, 40), 7)
    gen = RngStream(11, 40).generator()
    counts = gen.poisson(1.5 * box.volume, 7)
    total = int(counts.sum())
    locs = np.asarray(box.lo) + gen.random((total, 2)) * np.asarray(box.lengths)
    amps = GAUSS.sample(gen, total)
    np.testing.assert_array_equal(block.counts, counts)
    np.testing.assert_array_equal(block.locations, locs)
    np.testing.assert_array_equal(block.amplitudes, amps)
    assert (block.members, block.seed, block.stream) == (7, 11, 40)
    assert block.count == total
    # a study's histogram offsets put each member's impulses in its own row
    offsets = np.concatenate([np.full(k, 11 * i) for i, k in enumerate(counts)])
    np.testing.assert_array_equal(_member_offsets(block, 11), offsets)
    with pytest.raises(NoiseError):
        sample_impulse_block(2, box, 1.5, GAUSS, RngStream(11, 40), 0)


def test_locations_scale_per_axis_bit_for_bit():
    # each column is scaled and shifted on its own: the bytes equal the
    # broadcast u * lengths + lo, in 1-D and on boxes whose axes differ
    for box in (
        Box.cube(-2.5, 12.5, 1),
        Box((-2.5, 0.3), (12.5, 7.1)),
        Box((-138.15, -1.0), (10.0, 11.0)),
    ):
        block = sample_impulse_block(box.dim, box, 40.0, GAUSS, RngStream(21, 3), 5)
        gen = RngStream(21, 3).generator()
        total = int(gen.poisson(40.0 * box.volume, 5).sum())
        u = gen.random((total, box.dim))
        assert total > 1000
        want = u * np.asarray(box.lengths) + np.asarray(box.lo)
        assert block.locations.tobytes() == want.tobytes()


def test_jump_law_moves_only_the_amplitudes():
    # counts and locations are drawn before any amplitude, so blocks from
    # one stream share them whatever the jump law
    box = Box.cube(-1.0, 2.0, 2)
    stream = RngStream(13, 5)
    gauss = sample_impulse_block(2, box, 1.5, GAUSS, stream, 9)
    cauchy_block = sample_impulse_block(2, box, 1.5, JumpLaw(cauchy(1.0), 0.25), stream, 9)
    np.testing.assert_array_equal(gauss.counts, cauchy_block.counts)
    np.testing.assert_array_equal(gauss.locations, cauchy_block.locations)
    assert gauss.amplitudes.size == cauchy_block.amplitudes.size > 0
    assert not np.array_equal(gauss.amplitudes, cauchy_block.amplitudes)


def test_sample_field_is_the_one_member_block():
    box = Box.cube(0.0, 10.0, 1)
    for index in range(5):
        field = sample_impulse_field(1, box, 3.0, GAUSS, RngStream(8, index))
        same = sample_impulse_block(1, box, 3.0, GAUSS, RngStream(8, index), 1)
        assert isinstance(field, ImpulseBlock) and field.members == 1
        np.testing.assert_array_equal(field.counts, [field.count])
        np.testing.assert_array_equal(field.counts, same.counts)
        np.testing.assert_array_equal(field.locations, same.locations)
        np.testing.assert_array_equal(field.amplitudes, same.amplitudes)
        assert (field.box, field.rate, field.seed, field.stream) == (
            same.box, same.rate, same.seed, same.stream
        )


def test_sample_field_statistics():
    box = Box.cube(0.0, 10.0, 1)
    counts = []
    xs = []
    amps = []
    for i in range(10**4):
        field = sample_impulse_field(1, box, 3.0, GAUSS, RngStream(99, i))
        counts.append(field.count)
        xs.append(field.locations[:, 0])
        amps.append(field.amplitudes)
    counts = np.asarray(counts, dtype=float)
    # Poisson(30): mean within 4 sigma of the estimator
    assert abs(counts.mean() - 30.0) < 4.0 * np.sqrt(30.0 / counts.size)
    assert counts.var() == pytest.approx(30.0, rel=0.1)
    xs = np.concatenate(xs)
    amps = np.concatenate(amps)
    assert stats.kstest(xs, "uniform", args=(0.0, 10.0)).pvalue > 1e-3
    assert stats.kstest(amps, "norm", args=(0.0, 1.0)).pvalue > 1e-3


def test_count_distribution_chi_square():
    box = Box.cube(0.0, 2.0, 1)  # mean count 6
    counts = np.array(
        [sample_impulse_field(1, box, 3.0, GAUSS, RngStream(5, i)).count for i in range(4000)]
    )
    kmax = counts.max()
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    expected = stats.poisson.pmf(np.arange(kmax + 1), 6.0) * counts.size
    cut = np.searchsorted(np.cumsum(expected), expected.sum() - 5.0)
    obs = np.append(observed[:cut], observed[cut:].sum())
    exp = np.append(expected[:cut], expected[cut:].sum())
    assert stats.chisquare(obs, exp * obs.sum() / exp.sum()).pvalue > 1e-3


def test_sample_field_guards():
    box = Box.cube(0.0, 10.0, 1)
    with pytest.raises(NoiseError):
        sample_impulse_field(1, box, 0.0, GAUSS, RngStream(0))
    with pytest.raises(NoiseError):
        sample_impulse_field(2, box, 1.0, GAUSS, RngStream(0))
    with pytest.raises(NoiseError):
        sample_impulse_field(1, box, 1e12, GAUSS, RngStream(0))


def test_field_containment_validated():
    box = Box.cube(0.0, 1.0, 1)
    with pytest.raises(NoiseError):
        ImpulseBlock(
            dim=1,
            box=box,
            counts=[1],
            locations=np.array([[2.0]]),
            amplitudes=np.array([1.0]),
            rate=1.0,
            seed=0,
        )
    # the box is closed: its corners are inside, one ulp beyond either
    # side of either axis is not, and neither is a NaN
    box = Box((0.0, -1.0), (10.0, 2.0))
    corners = np.array([[0.0, -1.0], [10.0, 2.0], [5.0, 0.5]])
    ImpulseBlock(2, box, [3], corners, np.ones(3), 1.0, 0)
    for axis in range(2):
        lo, hi = box.lo[axis], box.hi[axis]
        for bad in (np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), np.nan):
            locs = corners.copy()
            locs[2, axis] = bad
            with pytest.raises(NoiseError):
                ImpulseBlock(2, box, [3], locs, np.ones(3), 1.0, 0)


def test_block_shapes_and_counts_validated():
    # locations (n, dim) pair with amplitudes (n,), and counts are a
    # nonempty row of nonnegative integers that sum to n
    box = Box((0.0, -1.0), (10.0, 2.0))
    locs = np.array([[0.0, -1.0], [10.0, 2.0], [5.0, 0.5]])
    block = ImpulseBlock(2, box, [2, 0, 1], locs, np.ones(3), 1.0, 0)
    assert (block.members, block.count, block.stream) == (3, 3, 0)
    for bad_locs, bad_amps in (
        (locs[:2], np.ones(3)),
        (locs, np.ones(2)),
        (locs[:, :1], np.ones(3)),
        (locs.ravel(), np.ones(3)),
        (locs, np.ones((3, 1))),
    ):
        with pytest.raises(NoiseError, match="pair up"):
            ImpulseBlock(2, box, [3], bad_locs, bad_amps, 1.0, 0)
    for counts in ([2], [1, 1], [1, 1, 2], [[3]], [4, -1], [1.5, 1.5]):
        with pytest.raises(NoiseError, match="counts"):
            ImpulseBlock(2, box, counts, locs, np.ones(3), 1.0, 0)
    # a block has at least one member, even when it holds no impulse
    with pytest.raises(NoiseError, match="counts"):
        ImpulseBlock(2, box, [], locs[:0], np.ones(0), 1.0, 0)
    with pytest.raises(NoiseError, match="dimension"):
        ImpulseBlock(1, box, [3], locs, np.ones(3), 1.0, 0)


def test_impulse_csv_refuses_a_block_of_several_fields(tmp_path):
    box = Box.cube(0.0, 10.0, 1)
    block = sample_impulse_block(1, box, 2.0, GAUSS, RngStream(3, 1), 2)
    path = tmp_path / "impulses.csv"
    with pytest.raises(NoiseError, match="one field"):
        write_impulse_csv(block, path)
    assert not path.exists()


def test_impulse_csv_round_trip(tmp_path):
    box = Box.cube(0.0, 10.0, 2)
    field = sample_impulse_field(2, box, 1.0, JumpLaw(cauchy(0.5), 1.0), RngStream(21, 4))
    path = tmp_path / "impulses.csv"
    write_impulse_csv(field, path)
    # the header persists dim/box/lambda/seed; the stream index is not part of it
    assert path.read_text().split("\n", 1)[0] == "# dim=2 box=0..10;0..10 lambda=1 seed=21"
    back = np.loadtxt(path, delimiter=",", ndmin=2)
    assert back.shape == (field.count, 3)
    np.testing.assert_array_equal(back[:, :2], field.locations)
    np.testing.assert_array_equal(back[:, 2], field.amplitudes)


def test_impulse_csv_empty_field_round_trip(tmp_path):
    box = Box.cube(0.0, 0.05, 1)  # mean count 0.005: first draw is empty
    field = sample_impulse_field(1, box, 0.1, GAUSS, RngStream(1))
    assert field.count == 0
    path = tmp_path / "empty.csv"
    write_impulse_csv(field, path)
    header = "# dim=1 box=0..0.050000000000000003 lambda=0.10000000000000001 seed=1"
    assert path.read_text() == header + "\n"
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        assert np.loadtxt(path, delimiter=",", ndmin=2).size == 0
