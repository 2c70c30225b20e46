"""The three benchmark workloads.

Each workload builds its inputs from the workload seed in its constructor
(that is the set-up the benchmark times), then runs passes.  A pass times
only the calls into the package and records them in a Tally.  Output
checks are handed to a `check(thunk)` callback, outside the timed regions;
the callback runs the thunk, skips it, or runs it with tracing paused,
before it returns.

Every call into the package goes through a module attribute
(``verify.convergence_study``, ``cli.main``, ...), so the traced run can
wrap those names from outside.
"""

from __future__ import annotations

import os
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from levyspline import cli, exponents, noise, operators, synthesis, verify
from levyspline.grid import Box, Grid

clock = time.perf_counter

# The slope band and monotonicity slack of the README's verify verdict.
SLOPE_BAND = (-1.3, -0.7)
MONOTONE_SLACK = 2.0
# Independent studies that must all repeat a study's verdict miss before
# the study counts as failed.
CONFIRMATIONS = 2
# Synthesis bins an impulse at x to the first grid point at or beyond
# x - 1e-9 * step; the direct superposition uses the same convention.
BIN_SNAP = 1e-9
# Relative error allowed between synthesis and the direct Green sum.
GREEN_RTOL = 1e-10
GREEN_CHUNK = 2048


@dataclass
class Tally:
    """Timed operations, per-slot times and failures of one run.

    A slot is one operation of a pass (a study case, a synth member, the
    n-th CLI call); every pass runs the same slots, so a slot has one time
    per pass.
    """

    attempted: int = 0
    busy_s: float = 0.0
    latencies: list = field(default_factory=list)
    slots: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def op(self, slot, seconds, dim, work=1):
        """A timed operation: counted, and part of the latency figures."""
        self.attempted += 1
        self.latencies.append(seconds)
        self._time(slot, seconds, dim, work)

    def extra(self, slot, seconds):
        """Timed work that belongs to the pass but is not an operation."""
        self._time(slot, seconds, None, 0)

    def _time(self, slot, seconds, dim, work):
        self.busy_s += seconds
        self.slots.setdefault(slot, (dim, work, []))[2].append(seconds)

    def restart_timing(self):
        """Forget the times so far (a warm-up pass); keep counts and failures."""
        self.busy_s = 0.0
        self.latencies, self.slots = [], {}

    def fail(self, key, reason):
        self.failures.setdefault(key, reason)

    @property
    def failed(self):
        return len(self.failures)


def _seed_stream(workload, seed):
    return random.Random(f"{workload}:{seed}")


class StudyWorkload:
    """Three convergence studies on the unit-step 1-D window.

    The ``D n=2`` study is left out: its fast pairing path uses the
    single-cumsum table whatever ``n`` is, so its verdict is wrong (slope
    about -0.1) on every seed, and a run counts as correct only when every
    operation passes its check.  ``synth_pair`` still synthesizes ``D n=2``.
    """

    name = "study_1d"
    ladder = (1.0, 4.0, 16.0, 64.0)
    members = 20_000
    warmup_passes = 0
    min_passes = 1
    nominal_pass_s = 19.0
    tail_percentile = 100.0

    def __init__(self, seed, workdir):
        self.rng = _seed_stream(self.name, seed)
        grid = Grid(Box.cube(0.0, 10.0, 1), 0.01)
        specs = (
            ("D_n1_gaussian", operators.make_operator("D"), exponents.gaussian(1.0)),
            ("D_n1_cauchy", operators.make_operator("D"), exponents.cauchy(1.0)),
            ("DaI_cauchy", operators.make_operator("DaI", alpha=0.1), exponents.cauchy(1.0)),
        )
        self.cases = [
            (label, op, f, verify.build_cf_bank(grid, op), self.rng.randrange(2**31),
             tuple(self.rng.randrange(2**31) for _ in range(CONFIRMATIONS)))
            for label, op, f in specs
        ]

    def inputs(self):
        return {"members_per_rung": self.members, "ladder": list(self.ladder),
                "studies_per_pass": len(self.cases),
                "base_seeds": [case[-2] for case in self.cases],
                "confirm_seeds": [case[-1] for case in self.cases]}

    def _study(self, f, op, bank, base_seed):
        """(report, error) of one convergence study."""
        try:
            report = verify.convergence_study(
                f, op, self.ladder, self.members, bank, base_seed=base_seed
            )
            return report, None
        except verify.NoiseFloor as exc:
            return exc.report, "NoiseFloor"
        except Exception as exc:  # counted as a failed study, run continues
            return None, repr(exc)

    def run_pass(self, index, tally, check):
        for label, op, f, bank, base_seed, confirm_seeds in self.cases:
            key = (index, label)
            t0 = clock()
            outcome = self._study(f, op, bank, base_seed)
            tally.op(label, clock() - t0, 1, work=len(self.ladder) * self.members)
            check(lambda: self._check(tally, key, (f, op, bank), base_seed, confirm_seeds,
                                      outcome))

    def _check(self, tally, key, study, base_seed, confirm_seeds, outcome):
        """A study fails when its verdict fails at its base seed and again at
        every one of its independent confirmation seeds.

        The verdict is a statistical test: at this ensemble size a correct
        study misses it now and then by chance (a slope just outside the
        band, or one test function's error rising by more than two standard
        errors between two rungs that sit in the noise), while a wrong
        estimator (the ``D n=2`` fast path, slope about -0.1) misses it at
        every seed.  A miss that a confirmation study does not repeat is
        kept as a note in the record.
        """
        reason = self._verdict(*outcome)
        if reason is None:
            return
        misses = [f"{key[1]} pass={key[0]} base_seed={base_seed}: {reason}"]
        for seed in confirm_seeds:
            again = self._verdict(*self._study(*study, seed))
            if again is None:
                tally.notes.append("; ".join(misses) + f"; passed at confirm_seed={seed}")
                return
            misses.append(f"confirm_seed={seed}: {again}")
        tally.fail(key, "; ".join(misses))

    @staticmethod
    def _verdict(report, error):
        """None when the study passes, else why it does not."""
        if error is not None:
            return error
        if not SLOPE_BAND[0] <= report.slope <= SLOPE_BAND[1]:
            return f"slope {report.slope:.3f} outside {SLOPE_BAND}"
        if not report.per_phi_monotone(MONOTONE_SLACK):
            return "errors not monotone along the ladder"
        return None

    def close(self):
        pass


def _kernel_1d(op1, offsets, step):
    """green() of a 1-D operator at grid-minus-impulse offsets, binned as
    synthesis bins them."""
    inside = offsets >= -BIN_SNAP * step
    return np.where(inside, operators.green(op1, np.maximum(offsets, 0.0)), 0.0)


def green_superposition(fld, op, grid):
    """Direct sum of a_k rho_L(x - x_k) over the grid, chunked over impulses.

    Pinned operators keep impulses strictly inside the window; the others
    keep every impulse.  2-D kernels are products of 1-D factors, so the
    2-D sum is a product of two (grid x impulses) factor matrices.
    """
    locs, amps = fld.locations, fld.amplitudes
    if op.pinned:
        lo, hi = np.asarray(grid.box.lo), np.asarray(grid.box.hi)
        keep = np.all((locs > lo) & (locs < hi), axis=1)
        locs, amps = locs[keep], amps[keep]
    h = grid.step
    out = np.zeros(grid.shape)
    if grid.dim == 1:
        for s in range(0, amps.size, GREEN_CHUNK):
            chunk = slice(s, s + GREEN_CHUNK)
            out += _kernel_1d(op, grid.axis(0)[:, None] - locs[None, chunk, 0], h) @ amps[chunk]
        return out
    if op.family == "DaIxDaIy":
        factor = operators.make_operator("DaI", alpha=op.alpha)
    else:
        factor = operators.make_operator("D")
    for s in range(0, amps.size, GREEN_CHUNK):
        chunk = slice(s, s + GREEN_CHUNK)
        gx = _kernel_1d(factor, grid.axis(0)[:, None] - locs[None, chunk, 0], h)
        gy = _kernel_1d(factor, grid.axis(1)[:, None] - locs[None, chunk, 1], h)
        out += (gx * amps[chunk]) @ gy.T
    return out


class SynthWorkload:
    """Draw, synthesize and pair ensembles for all five operator families."""

    name = "synth_pair"
    members = 150
    warmup_passes = 1
    min_passes = 2
    nominal_pass_s = 2.5
    tail_percentile = 99.0

    def __init__(self, seed, workdir):
        self.rng = _seed_stream(self.name, seed)
        g1 = Grid(Box.cube(0.0, 10.0, 1), 0.01)
        g2 = Grid(Box.cube(0.0, 10.0, 2), 0.05)
        specs = (
            ("D_n1", operators.make_operator("D"), 100.0, g1),
            ("D_n2", operators.make_operator("D", n=2), 16.0, g1),
            ("DaI", operators.make_operator("DaI", alpha=0.1), 3.0, g1),
            ("frac_1d", operators.make_operator("frac_laplacian", gamma=1.5, dim=1), 16.0, g1),
            ("DxDy", operators.make_operator("DxDy"), 1.0, g2),
            ("DaIxDaIy", operators.make_operator("DaIxDaIy", alpha=0.1), 1.0, g2),
            ("frac_2d", operators.make_operator("frac_laplacian", gamma=1.5, dim=2), 1.0, g2),
        )
        f = exponents.gaussian(1.0)
        self.cases = []
        for label, op, lam, grid in specs:
            margin = operators.margin_rule(op, grid.box)
            field_box = grid.box.expand(margin, 0.0 if op.causal else margin)
            jumps = exponents.poissonize(f, lam).jump_law
            spectral = op.family == "frac_laplacian"
            bank = verify.build_identity_bank(grid, zero_mean=spectral)
            case_seed = self.rng.randrange(2**31)
            self.cases.append((label, op, lam, grid, field_box, jumps, bank, case_seed))

    def inputs(self):
        return {"members_per_case": self.members, "cases_per_pass": len(self.cases),
                "case_seeds": [case[-1] for case in self.cases]}

    def run_pass(self, index, tally, check):
        checked = index % self.members
        for label, op, lam, grid, field_box, jumps, bank, case_seed in self.cases:
            reals = []
            sample = None
            for i in range(self.members):
                key = (index, label, i)
                t0 = clock()
                try:
                    fld = noise.sample_impulse_field(
                        grid.dim, field_box, lam, jumps, noise.RngStream(case_seed, i)
                    )
                    real = synthesis.synthesize_spline(fld, op, grid)
                except Exception as exc:  # counted as a failed member, run continues
                    tally.op((label, i), clock() - t0, grid.dim)
                    tally.fail(key, f"{label} seed={case_seed} member={i}: {exc!r}")
                    continue
                tally.op((label, i), clock() - t0, grid.dim)
                reals.append(real)
                if i == checked:
                    sample = (key, fld, real)
            t0 = clock()
            try:
                for phi in bank.phis:
                    verify.empirical_cf(reals, phi)
            except Exception as exc:  # every member of the case counts as failed
                for i in range(self.members):
                    tally.fail((index, label, i), f"{label} seed={case_seed} pairing: {exc!r}")
            tally.extra((label, "pairing"), clock() - t0)
            if op.family == "frac_laplacian":
                check(lambda: self._check_spectral(tally, index, label, reals))
            elif sample is not None:
                check(lambda: self._check_green(tally, op, grid, *sample))

    @staticmethod
    def _check_green(tally, op, grid, key, fld, real):
        direct = green_superposition(fld, op, grid)
        scale = float(np.max(np.abs(direct), initial=0.0))
        err = float(np.max(np.abs(real.samples - direct)))
        if not err <= GREEN_RTOL * max(scale, 1.0):
            tally.fail(key, f"{key[1]} member={key[2]}: Green sum differs by {err:.3g}")

    @staticmethod
    def _check_spectral(tally, index, label, reals):
        for i, real in enumerate(reals):
            s = real.samples
            if not np.all(np.isfinite(s)):
                tally.fail((index, label, i), f"{label} member={i}: samples not finite")
            elif abs(float(s.mean())) > 1e-12 * max(float(np.max(np.abs(s))), 1.0):
                tally.fail((index, label, i), f"{label} member={i}: window mean not zero")

    def close(self):
        pass


# The six generate configurations of acceptance criterion 8, without seed.
CLI_CONFIGS = (
    ("dai_cauchy", 1, ["--operator", "DaI", "--alpha", "0.1", "--exponent", "cauchy",
                       "--c", "1.0", "--lambda", "3", "--box", "0:10", "--step", "0.01"]),
    ("d_gauss_high", 1, ["--operator", "D", "--exponent", "gaussian", "--sigma2", "1.0",
                         "--lambda", "100", "--box", "0:10", "--step", "0.01"]),
    ("d_laplace_low", 1, ["--operator", "D", "--exponent", "laplace", "--sigma2", "1.0",
                          "--lambda", "0.5", "--box", "0:10", "--step", "0.01"]),
    ("dxdy_gauss", 2, ["--operator", "DxDy", "--exponent", "gaussian", "--sigma2", "1.0",
                       "--lambda", "1", "--box", "0:10", "--step", "0.05"]),
    ("frac_gauss", 2, ["--operator", "frac_laplacian", "--gamma", "1.5", "--dim", "2",
                       "--exponent", "gaussian", "--sigma2", "1.0", "--lambda", "1",
                       "--box", "0:10", "--step", "0.05"]),
    ("daixdaiy_laplace", 2, ["--operator", "DaIxDaIy", "--alpha", "0.1", "--exponent",
                             "laplace", "--sigma2", "1.0", "--lambda", "1", "--box", "0:10",
                             "--step", "0.05"]),
)
REFERENCE_ARGS = ["--operator", "D", "--exponent", "gaussian", "--sigma2", "1.0",
                  "--box", "0:10", "--step", "0.01"]
GRID_POINTS = {1: 1001, 2: 201 * 201}


class CliWorkload:
    """In-process CLI calls: generate in both formats, plotdata, reference."""

    name = "cli_roundtrip"
    warmup_passes = 1
    min_passes = 4
    nominal_pass_s = 1.5
    tail_percentile = 90.0

    def __init__(self, seed, workdir):
        self.rng = _seed_stream(self.name, seed)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def inputs(self):
        return {"calls_per_pass": 4 * len(CLI_CONFIGS) + 1, "generate_configs": len(CLI_CONFIGS)}

    def _call(self, tally, key, dim, argv):
        t0 = clock()
        try:
            code = cli.main(argv)
        except Exception as exc:  # counted as a failed call, run continues
            code = repr(exc)
        tally.op(key[1], clock() - t0, dim)
        if code != 0:
            tally.fail(key, f"{' '.join(argv[:3])}: exit {code}")
        return code == 0

    def run_pass(self, index, tally, check):
        seed = str(self.rng.randrange(2**31))
        pass_dir = os.path.join(self.workdir, f"pass{index}")
        calls = 0
        rerun = index % (2 * len(CLI_CONFIGS))
        for k, (name, dim, args) in enumerate(CLI_CONFIGS):
            for fmt in ("csv", "bin"):
                out = os.path.join(pass_dir, f"{name}_{fmt}")
                argv = ["generate", *args, "--seed", seed, "--format", fmt, "--outdir", out]
                gen_key = (index, calls)
                ok = self._call(tally, gen_key, dim, argv)
                calls += 1
                realization = os.path.join(out, f"realization.{fmt}")
                plot_key = (index, calls)
                if self._call(tally, plot_key, dim,
                              ["plotdata", "--input", realization, "--outdir", out]):
                    check(lambda out=out, dim=dim, key=plot_key: self._check_plot(
                        tally, key, out, dim))
                calls += 1
                if ok and 2 * k + (fmt == "bin") == rerun:
                    check(lambda argv=argv, out=out, key=gen_key: self._check_rerun(
                        tally, key, argv, out))
        ref_out = os.path.join(pass_dir, "reference")
        self._call(tally, (index, calls), 1,
                   ["reference", *REFERENCE_ARGS, "--seed", seed, "--outdir", ref_out])
        shutil.rmtree(pass_dir, ignore_errors=True)

    @staticmethod
    def _check_plot(tally, key, out, dim):
        with open(os.path.join(out, "plot.dat")) as fh:
            rows = sum(1 for line in fh if line.strip())
        if rows != GRID_POINTS[dim]:
            tally.fail(key, f"plotdata {out}: {rows} rows, expected {GRID_POINTS[dim]}")
        elif dim == 2 and not os.path.isfile(os.path.join(out, "image.pgm")):
            tally.fail(key, f"plotdata {out}: no image.pgm")

    @staticmethod
    def _check_rerun(tally, key, argv, out):
        again = out + "_rerun"
        code = cli.main(argv[:-1] + [again])
        if code != 0:
            tally.fail(key, f"rerun of {out}: exit {code}")
            return
        for fname in sorted(os.listdir(again)):
            first = Path(out, fname)
            if not first.is_file() or first.read_bytes() != Path(again, fname).read_bytes():
                tally.fail(key, f"rerun of {out}: {fname} differs")
                return

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (StudyWorkload, SynthWorkload, CliWorkload)}
