"""The vectorized 17-digit encoder against '%.17g', value by value."""

import numpy as np
import pytest

from levyspline.grid import CHUNK_ROWS, encode17, fmt17, grid_text, text17


def tokens(values):
    """The encoder's text for each value: one value per row."""
    return text17([encode17(values)], ",").split("\n")[:-1]


def assert_tokens_match(values):
    values = np.asarray(values, dtype=float)
    want = [fmt17(x) for x in values]
    got = tokens(values)
    assert len(got) == len(want)
    bad = [(x, g, w) for x, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:10]


def test_random_bit_patterns():
    bits = np.random.default_rng(26).integers(0, 2**64, 200_000, dtype=np.uint64)
    assert_tokens_match(bits.view(np.float64))


def test_log_uniform_values_of_both_signs():
    rng = np.random.default_rng(27)
    values = 10.0 ** rng.uniform(-8, 18, 200_000) * rng.choice([-1.0, 1.0], 200_000)
    assert_tokens_match(values)


def test_powers_of_ten_within_64_ulps():
    # log10 may miss the decade here; the exact product must correct it
    powers = 10.0 ** np.arange(-6, 19)
    bits = powers.view(np.int64)[:, None] + np.arange(-64, 65)
    values = bits.ravel().view(np.float64)
    assert_tokens_match(np.concatenate([values, -values]))


def test_ends_of_the_exact_range():
    edges = []
    for x in (1e-4, 1e16):
        edges += [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]
    edges = np.array(edges)
    assert_tokens_match(np.concatenate([edges, -edges]))


def test_ties_round_half_even():
    assert tokens([123456789012345.625, -123456789012345.625]) == [
        "123456789012345.62",
        "-123456789012345.62",
    ]
    # dyadic values with more than 17 significant digits, many of them ties
    rng = np.random.default_rng(28)
    whole = rng.integers(10**14, 10**16, 50_000).astype(float)
    halves = whole + rng.choice(np.arange(1, 8) / 8, whole.size)
    dyadic = rng.integers(1, 2**40, 50_000) / 2.0 ** rng.integers(1, 40, 50_000)
    assert_tokens_match(np.concatenate([halves, dyadic]))


def test_rounded_decimals_zeros_and_signed_zero():
    rng = np.random.default_rng(29)
    decimals = np.concatenate(
        [np.round(rng.uniform(-1e6, 1e6, 20_000), places) for places in range(8)]
    )
    whole = rng.integers(-(10**15), 10**15, 20_000).astype(float)
    assert tokens([0.0, -0.0]) == ["0", "-0"]
    assert_tokens_match(np.concatenate([decimals, whole, [0.0, -0.0, 1.0, -1.0, 0.5, 100.0]]))


def test_fallback_values_keep_their_place():
    values = [1.5, 5e-324, -0.0, np.nan, 2.5e-5, np.inf, -1e300, 3e16, -np.inf, 0.125]
    assert_tokens_match(values)
    # in several columns the fallbacks fill their own cells, row by row
    cols = [np.array(values), np.array(values[::-1]), np.arange(len(values)) * 0.1]
    want = "".join(",".join(fmt17(c[i]) for c in cols) + "\n" for i in range(len(values)))
    assert text17([encode17(c) for c in cols], ",") == want


def oracle_grid_text(axes, values, sep, scan_breaks):
    """grid_text as one fmt17 call per number."""
    out = []
    if len(axes) == 1:
        for x, v in zip(axes[0], values):
            out.append(f"{fmt17(x)}{sep}{fmt17(v)}\n")
    else:
        for i, x in enumerate(axes[0]):
            for y, v in zip(axes[1], values[i]):
                out.append(f"{fmt17(x)}{sep}{fmt17(y)}{sep}{fmt17(v)}\n")
            if scan_breaks:
                out.append("\n")
    return "".join(out)


GRID_POINTS = sorted({CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 4095, 4096, 4097})


@pytest.mark.parametrize("points", GRID_POINTS)
def test_one_dimensional_grids_around_the_chunk_size(points):
    rng = np.random.default_rng(points)
    axes = (-0.5 + 0.01 * np.arange(points),)
    values = np.cumsum(rng.standard_normal(points))
    values[:7] = 0.0
    for sep in (",", " "):
        assert "".join(grid_text(axes, values, sep)) == oracle_grid_text(axes, values, sep, False)


@pytest.mark.parametrize("scan_breaks", [False, True])
def test_two_dimensional_runs_across_a_chunk_boundary(scan_breaks):
    # 101-point runs: the chunk boundary at CHUNK_ROWS rows falls inside a run
    shape = (2 * CHUNK_ROWS // 101 + 1, 101)
    assert CHUNK_ROWS % shape[1]
    rng = np.random.default_rng(31)
    axes = (0.05 * np.arange(shape[0]) - 1.0, 0.05 * np.arange(shape[1]))
    values = np.cumsum(np.cumsum(rng.standard_normal(shape), 0), 1)
    values[:3] = 0.0
    text = "".join(grid_text(axes, values, " ", scan_breaks))
    assert text == oracle_grid_text(axes, values, " ", scan_breaks)
