"""17-digit text writers: byte for byte what the per-value fmt17 writers gave."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from levyspline.cli import main
from levyspline.grid import Box, Grid, fmt17, grid_text
from levyspline.noise import ImpulseBlock, write_impulse_csv
from levyspline.operators import make_operator
from levyspline.synthesis import (
    GridRealization,
    SynthesisError,
    _realization_header,
    read_realization_binary,
    read_realization_csv,
    write_realization_binary,
    write_realization_csv,
)

# the values the writers must keep exact: signed zero, the least subnormal,
# a near-overflow, a sum and a quotient that do not round-trip at 16 digits
SPECIAL = [-0.0, 5e-324, 1e308, 0.1 + 0.2, -1 / 3]


def oracle_realization_csv(real):
    """write_realization_csv as first written: one fmt17 call per value."""
    axes = real.grid.axes
    lines = [_realization_header(real)]
    if real.dim == 1:
        for x, v in zip(axes[0], real.samples):
            lines.append(f"{fmt17(x)},{fmt17(v)}")
    else:
        for i, x in enumerate(axes[0]):
            for j, y in enumerate(axes[1]):
                lines.append(f"{fmt17(x)},{fmt17(y)},{fmt17(real.samples[i, j])}")
    return "\n".join(lines) + "\n"


def oracle_plot_dat(real):
    """plotdata's plot.dat as first written: one fmt17 call per value."""
    axes = real.grid.axes
    out = []
    if real.dim == 1:
        for x, v in zip(axes[0], real.samples):
            out.append(f"{fmt17(x)} {fmt17(v)}\n")
    else:
        for i, x in enumerate(axes[0]):
            for y, v in zip(axes[1], real.samples[i]):
                out.append(f"{fmt17(x)} {fmt17(y)} {fmt17(v)}\n")
            out.append("\n")
    return "".join(out)


def oracle_impulse_csv(field):
    """write_impulse_csv as first written: one fmt17 call per value."""
    lines = [
        f"# dim={field.dim} box={field.box.format()} "
        f"lambda={fmt17(field.rate)} seed={field.seed}"
    ]
    for loc, amp in zip(field.locations, field.amplitudes):
        lines.append(",".join([fmt17(v) for v in loc] + [fmt17(amp)]))
    return "\n".join(lines) + "\n"


def special_samples(shape, seed):
    """Standard normals scaled over many decades, SPECIAL in front."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    flat = values.reshape(-1)
    flat[: len(SPECIAL)] = SPECIAL
    return values


def realization(dim, step, seed):
    grid = Grid(Box.cube(-0.5, 2.0, dim), step)
    op = make_operator("D" if dim == 1 else "DxDy")
    return GridRealization(dim, grid.box, step, special_samples(grid.shape, seed), op,
                           "poisson(lambda=3)", seed)


@pytest.mark.parametrize("dim, step", [(1, 0.01), (2, 0.05)])
def test_realization_csv_and_plot_dat_match_the_per_value_writers(tmp_path, dim, step):
    real = realization(dim, step, seed=dim)
    path = tmp_path / "realization.csv"
    write_realization_csv(real, path)
    assert path.read_bytes() == oracle_realization_csv(real).encode()
    # plot.dat from the bit-exact binary file and from the 17-digit text
    write_realization_binary(real, tmp_path / "realization.bin")
    for name in ("realization.bin", "realization.csv"):
        out = tmp_path / ("plot_" + name)
        assert main(["plotdata", "--input", str(tmp_path / name), "--outdir", str(out)]) == 0
        assert (out / "plot.dat").read_bytes() == oracle_plot_dat(real).encode()


@pytest.mark.parametrize("dim, count", [(1, 5000), (2, 9000), (1, 0), (2, 0)])
def test_impulse_csv_matches_the_per_value_writer(tmp_path, dim, count):
    # 9000 rows span five write chunks of CHUNK_ROWS = 2048, the last one partial
    box = Box.cube(-1.0, 1.0, dim)
    rng = np.random.default_rng(count + dim)
    locations = rng.uniform(-1.0, 1.0, (count, dim))
    amplitudes = special_samples(count, count) if count else np.zeros(0)
    if count:
        locations[0] = -0.0
        locations[1] = 1 / 3
    field = ImpulseBlock(dim, box, [count], locations, amplitudes, rate=0.1 + 0.2, seed=11)
    path = tmp_path / "impulses.csv"
    write_impulse_csv(field, path)
    assert path.read_bytes() == oracle_impulse_csv(field).encode()


def test_grid_text_formats_every_float_as_fmt17():
    # random bit patterns cover every exponent, subnormals and nan payloads
    bits = np.random.default_rng(5).integers(0, 2**64, 20000, dtype=np.uint64)
    extremes = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.inf, -np.inf, np.nan]
    values = np.concatenate([bits.view(np.float64), extremes])
    axes = (np.arange(values.size) * 0.25,)
    want = "".join(f"{fmt17(x)},{fmt17(v)}\n" for x, v in zip(axes[0], values))
    assert "".join(grid_text(axes, values, ",")) == want


def test_reader_errors_exit_2_without_warnings(tmp_path, capsys):
    real = realization(1, 0.01, seed=3)
    header = _realization_header(real) + "\n"
    empty = tmp_path / "empty.csv"
    empty.write_text(header + "\n")
    bad = tmp_path / "bad.csv"
    bad.write_text(header + "-0.5,1\n-0.49,one\n")
    # headers that contradict themselves or their data: dim= is not the
    # box's dimension (csv and bin), shape= is not the grid's; and a .bin
    # without its .hdr, or cut short
    frac = {
        d: replace(realization(d, 0.05, seed=d),
                   operator=make_operator("frac_laplacian", gamma=1.5, dim=d))
        for d in (1, 2)
    }
    flat = tmp_path / "flat.csv"
    write_realization_csv(frac[2], flat)
    flat.write_text(flat.read_text().replace("# dim=2 ", "# dim=1 ", 1))
    binaries = {}
    for name, src, old, new in (
        ("two_dims", frac[1], "# dim=1 ", "# dim=2 "),
        ("short_box", real, "box=-0.5..2 ", "box=-0.5..1 "),
        ("no_hdr", real, None, None),
        ("truncated", real, None, None),
    ):
        path = binaries[name] = tmp_path / (name + ".bin")
        write_realization_binary(src, path)
        hdr = tmp_path / (name + ".bin.hdr")
        if old:
            hdr.write_text(hdr.read_text().replace(old, new, 1))
    binaries["no_hdr"].with_suffix(".bin.hdr").unlink()
    binaries["truncated"].write_bytes(binaries["truncated"].read_bytes()[:-8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SynthesisError, match="no samples"):
            read_realization_csv(empty)
        with pytest.raises(SynthesisError, match="dim=1 over a box of dimension 2"):
            read_realization_csv(flat)
        with pytest.raises(SynthesisError, match="dim=2 over a box of dimension 1"):
            read_realization_binary(binaries["two_dims"])
        with pytest.raises(SynthesisError, match="shape=251, not its grid's shape"):
            read_realization_binary(binaries["short_box"])
        capsys.readouterr()
        for path in (empty, bad, flat, *binaries.values()):
            out = tmp_path / ("plot_" + path.stem)
            assert main(["plotdata", "--input", str(path), "--outdir", str(out)]) == 2
            assert f"plotdata: cannot read {path}" in capsys.readouterr().err
            assert not out.exists()
