"""Impulsive (compound-Poisson) noise sampling on boxes.

A realization is a finite set of (location, amplitude) impulses: the count
is Poisson(rate * volume), locations are i.i.d. uniform on the box, and
amplitudes are i.i.d. from a catalog jump law.  Everything is keyed by an
explicit (seed, stream) pair.  One stream draws a block of independent
fields in a fixed order (every count, then every location, then every
amplitude); a single field is the one-member block, so ensembles drawn in
blocks of a fixed size are reproducible draw for draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import JumpLaw
from .grid import CHUNK_ROWS, Box, encode17, fmt17, text17

# Resource guard: reject fields whose expected impulse count exceeds this.
MAX_EXPECTED_COUNT = 1e9


class NoiseError(Exception):
    """Invalid sampling request or malformed impulse data."""


@dataclass(frozen=True)
class RngStream:
    """Root seed plus stream index; (seed, index) pins the draw sequence."""

    seed: int
    index: int = 0

    def generator(self):
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.index,))
        return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True, eq=False)
class ImpulseBlock:
    """Finite impulse sets w = sum_k a_k delta(. - x_k) of `members`
    independent fields on one box; a single field is the one-member block.

    counts holds each member's impulse count, a nonnegative integer, in
    shape (members,); locations (sum(counts), dim) and amplitudes
    (sum(counts),) concatenate the fields in member order.
    seed and stream record the RngStream that drew the block.
    """

    dim: int
    box: Box
    counts: np.ndarray
    locations: np.ndarray
    amplitudes: np.ndarray
    rate: float
    seed: int
    stream: int = 0

    def __post_init__(self):
        counts = np.asarray(self.counts)
        locs = np.asarray(self.locations, dtype=float)
        amps = np.asarray(self.amplitudes, dtype=float)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "amplitudes", amps)
        if self.box.dim != self.dim:
            raise NoiseError("box dimension must match field dimension")
        if amps.ndim != 1 or locs.shape != (amps.shape[0], self.dim):
            raise NoiseError("locations (n, dim) and amplitudes (n,) must pair up")
        # dtype kinds 'i' and 'u' are numpy's integer types
        if counts.ndim != 1 or not counts.size or counts.dtype.kind not in "iu":
            raise NoiseError("counts must be a nonempty 1-D array of integers")
        # a lone count that sums to the impulse count is that count, so it
        # is nonnegative; only a block of several needs the min
        if counts.sum() != amps.shape[0] or counts.size > 1 and counts.min() < 0:
            raise NoiseError("counts must be nonnegative and sum to the impulse count")
        # each axis's min and max hold every point to the box (a NaN fails
        # both); one reduction per column, not a comparison array per point
        if locs.size:
            for x, lo, hi in zip(locs.T, self.box.lo, self.box.hi):
                if not (lo <= x.min() and x.max() <= hi):
                    raise NoiseError("every impulse location must lie inside the box")

    @property
    def members(self):
        return self.counts.shape[0]

    @property
    def count(self):
        return self.amplitudes.shape[0]


def expected_count(lam, box):
    """lam * box.volume, the expected impulse count of one field on `box`;
    raises NoiseError above MAX_EXPECTED_COUNT."""
    mean = lam * box.volume
    if mean > MAX_EXPECTED_COUNT:
        raise NoiseError(f"expected impulse count {mean:.3g} exceeds guard {MAX_EXPECTED_COUNT:g}")
    return mean


def sample_impulse_block(dim, box, lam, jumps, rng, members):
    """Draw `members` independent Poisson impulse fields on `box` with rate `lam`.

    Draw order is fixed (every count, then every location, then every
    amplitude) so the same RngStream and member count always reproduce
    the same block.
    """
    if not lam > 0.0:
        raise NoiseError("rate lam must be positive")
    if box.dim != dim:
        raise NoiseError("box dimension must match dim")
    if not isinstance(jumps, JumpLaw):
        raise NoiseError("jumps must be a JumpLaw")
    if members < 1:
        raise NoiseError("a block needs at least one member")
    mean_count = expected_count(lam, box)
    gen = rng.generator()
    counts = gen.poisson(mean_count, int(members))
    total = int(counts.sum())
    locations = gen.random((total, dim))
    # per column, so numpy's inner loop runs over the points, not the axes
    for x, lo, length in zip(locations.T, box.lo, box.lengths):
        x *= length
        x += lo
    amplitudes = jumps.sample(gen, total)
    return ImpulseBlock(
        dim=dim,
        box=box,
        counts=counts,
        locations=locations,
        amplitudes=amplitudes,
        rate=float(lam),
        seed=rng.seed,
        stream=rng.index,
    )


def sample_impulse_field(dim, box, lam, jumps, rng):
    """Draw one Poisson impulse field on `box` with rate `lam`: the
    one-member block, so the draw order is count, locations, amplitudes."""
    return sample_impulse_block(dim, box, lam, jumps, rng, 1)


def write_impulse_csv(field, path):
    """Write the one-member block `field` as a `# dim=.. box=.. lambda=..
    seed=..` header plus x[,y],amplitude rows, each number as fmt17 writes
    it, encoded column by column in chunks of CHUNK_ROWS rows."""
    if field.members != 1:
        raise NoiseError(f"an impulse file holds one field, not {field.members}")
    columns = [*field.locations.T, field.amplitudes]
    with open(path, "w") as fh:
        fh.write(
            f"# dim={field.dim} box={field.box.format()} "
            f"lambda={fmt17(field.rate)} seed={field.seed}\n"
        )
        for a in range(0, field.count, CHUNK_ROWS):
            fh.write(text17([encode17(col[a : a + CHUNK_ROWS]) for col in columns], ","))
