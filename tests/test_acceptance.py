"""End-to-end acceptance criteria.

Each test covers one acceptance criterion and prints a single PASS line
when its pinned thresholds hold; assertions carry the same numbers so a
failure is visible both in the printed line and in the pytest report.
"""

import filecmp
import math
import time

import numpy as np
import pytest
from scipy import stats

from levyspline.cli import main
from levyspline.exponents import cauchy, gaussian, laplace, poissonize
from levyspline.grid import Box, Grid
from levyspline.noise import RngStream, read_impulse_csv
from levyspline.operators import make_operator
from levyspline.synthesis import synthesize_spline
from levyspline.verify import (
    block_pairings,
    build_cf_bank,
    build_identity_bank,
    compound_marginal_reference,
    convergence_study,
    left_inverse_residual,
    point_bank,
)
from levyspline.exponents import poissonization_contraction_check

WINDOW = Grid(Box.cube(0.0, 10.0, 1), 0.01)
LADDER = (1.0, 4.0, 16.0, 64.0)
STUDY_ENSEMBLE = 100_000
STUDY_BUDGET_SECONDS = 120.0


def report(ok, text):
    print(("PASS " if ok else "FAIL ") + text)
    assert ok, text


def _functional_study(label, f):
    bank = build_cf_bank(WINDOW)
    t0 = time.time()
    rep = convergence_study(f, make_operator("D"), LADDER, STUDY_ENSEMBLE, bank, base_seed=0)
    elapsed = time.time() - t0
    passed, lines = rep.verdict()
    report(
        passed and elapsed < STUDY_BUDGET_SECONDS,
        f"{label} slope={rep.slope:.4f} {' '.join(lines)}, "
        f"elapsed={elapsed:.1f}s < {STUDY_BUDGET_SECONDS:g}s",
    )


def test_criterion_01_gaussian_functional_convergence():
    _functional_study("criterion 1: Gaussian-limit functional study", gaussian(1.0))


def test_criterion_02_cauchy_functional_convergence():
    _functional_study(
        "criterion 2: Cauchy-limit functional study (no moment statistics)", cauchy(1.0)
    )


def test_criterion_03_variance_identity_across_rates():
    op = make_operator("D")
    count = 10_000
    times = (1.0, 5.0, 10.0)
    bank = point_bank(WINDOW, times)
    t0 = time.time()
    worst = 0.0
    for base, seed0 in ((gaussian(1.0), 100), (laplace(1.0), 200)):
        for j, lam in enumerate((1.0, 10.0, 100.0)):
            values = np.concatenate(list(block_pairings(base, op, lam, count, bank, seed0 + j)))
            for t, vals in zip(times, values.T):
                var = float(np.var(vals))
                centered = vals - vals.mean()
                se_var = math.sqrt(
                    max(np.mean(centered**4) - var**2, 0.0) / count
                )
                dev = abs(var - t) / se_var
                worst = max(worst, dev)
    elapsed = time.time() - t0
    ok = worst <= 5.0 and elapsed < 30.0
    report(
        ok,
        "criterion 3: Var s(t) = sigma2 t for Gaussian and Laplace noises, "
        f"t in {{1,5,10}}, lambda in {{1,10,100}}, M=10^4: worst |dev|={worst:.2f} SE <= 5, "
        f"elapsed={elapsed:.1f}s < 30s",
    )


def test_criterion_04_marginal_normality_high_rate_not_low_rate():
    op = make_operator("D")
    base = gaussian(1.0)
    sigma_t = math.sqrt(10.0)

    bank = point_bank(WINDOW, (10.0,))

    def marginal_at(lam, count, seed):
        return np.concatenate(list(block_pairings(base, op, lam, count, bank, seed)))[:, 0]

    high = marginal_at(200.0, 2000, 41)
    p_high = stats.kstest(high, "norm", args=(0.0, sigma_t), mode="asymp").pvalue
    low = marginal_at(0.5, 40_000, 43)
    p_low = stats.kstest(low, "norm", args=(0.0, sigma_t), mode="asymp").pvalue
    # independent oracle: a direct compound-sum sample must agree with the
    # synthesized ensemble and itself reject normality at this size
    oracle = compound_marginal_reference(
        0.5, poissonize(base, 0.5).jump_law, 10.0, 10**6, seed=5
    )
    p_consistent = stats.ks_2samp(low, oracle, mode="asymp").pvalue
    p_oracle_norm = stats.kstest(
        oracle[:40_000], "norm", args=(0.0, sigma_t), mode="asymp"
    ).pvalue
    ok = (
        p_high > 1e-3
        and p_low < 1e-3
        and p_consistent > 1e-3
        and p_oracle_norm < 1e-3
    )
    report(
        ok,
        "criterion 4: t=10 marginal vs N(0,10): lambda=200 passes "
        f"(p={p_high:.3f} > 1e-3) and lambda=0.5 fails at M=40000 "
        f"(p={p_low:.2e} < 1e-3); ensemble matches compound-sum oracle "
        f"(p={p_consistent:.3f}) which itself rejects (p={p_oracle_norm:.2e})",
    )


def test_criterion_05_cauchy_reference_marginal():
    # t=10 values of 10,000 limit-process members, drawn in study blocks
    bank = point_bank(WINDOW, (10.0,))
    pairs = block_pairings(cauchy(1.0), make_operator("D"), math.inf, 10_000, bank, 51)
    vals = np.concatenate(list(pairs))[:, 0]
    p = stats.kstest(vals, "cauchy", args=(0.0, 10.0), mode="asymp").pvalue
    ok = p > 1e-3
    report(
        ok,
        f"criterion 5: exact Cauchy path marginal at t=10 vs Cauchy(10): p={p:.3f} > 1e-3",
    )


def test_criterion_06_jump_localization():
    from levyspline.noise import ImpulseBlock

    op = make_operator("D")
    good_1d = 0
    for seed in range(100):
        gen = RngStream(seed, 3).generator()
        x = float(gen.uniform(0.05, 9.95))
        a = float(gen.normal())
        field = ImpulseBlock(
            dim=1,
            box=WINDOW.box,
            counts=[1],
            locations=np.array([[x]]),
            amplitudes=np.array([a]),
            rate=1.0,
            seed=seed,
        )
        s = synthesize_spline(field, op, WINDOW).samples
        d = np.abs(np.diff(s))
        hits = np.nonzero(d > 1e-12 * max(1.0, float(np.abs(s).max())))[0]
        if len(hits) == 1:
            xj = WINDOW.axis(0)[hits[0]]
            if xj <= x <= xj + WINDOW.step + 1e-12:
                good_1d += 1

    grid2 = Grid(Box.cube(0.0, 10.0, 2), 0.05)
    op2 = make_operator("DxDy")
    good_2d = 0
    for seed in range(20):
        gen = RngStream(seed, 4).generator()
        xy = gen.uniform(0.2, 9.8, size=(1, 2))
        field = ImpulseBlock(
            dim=2,
            box=grid2.box,
            counts=[1],
            locations=xy,
            amplitudes=np.array([float(gen.normal())]),
            rate=1.0,
            seed=seed,
        )
        s = synthesize_spline(field, op2, grid2).samples
        mixed = np.abs(np.diff(np.diff(s, axis=0), axis=1))
        hits = np.argwhere(mixed > 1e-12 * max(1.0, float(np.abs(s).max())))
        if len(hits) == 1:
            i, j = hits[0]
            xj, yj = grid2.axis(0)[i], grid2.axis(1)[j]
            h = grid2.step
            if xj <= xy[0, 0] <= xj + h + 1e-12 and yj <= xy[0, 1] <= yj + h + 1e-12:
                good_2d += 1
    ok = good_1d == 100 and good_2d == 20
    report(
        ok,
        "criterion 6: single-impulse jumps land in the correct grid bin: "
        f"1-D {good_1d}/100 seeds, 2-D mixed-difference {good_2d}/20 seeds",
    )


def test_criterion_07_left_inverse_identity_and_contraction():
    tol = 1e-3
    fine1 = Grid(Box.cube(0.0, 10.0, 1), 0.001)
    bank1 = build_identity_bank(fine1)
    worst = {}
    for op in (make_operator("D"), make_operator("DaI", alpha=0.1)):
        worst[op.family] = max(
            left_inverse_residual(op, phi, fine1.step) for phi in bank1.phis
        )
    fine2 = Grid(Box.cube(0.0, 1.0, 2), 1.0 / 256)
    bank2 = build_identity_bank(fine2)
    for op in (make_operator("DxDy"), make_operator("DaIxDaIy", alpha=0.1)):
        worst[op.family] = max(
            left_inverse_residual(op, phi, fine2.step) for phi in bank2.phis
        )
    zm1 = build_identity_bank(fine1, zero_mean=True)
    zm2 = build_identity_bank(fine2, zero_mean=True)
    worst["frac1"] = max(
        left_inverse_residual(make_operator("frac_laplacian", gamma=1.5, dim=1), phi, fine1.step)
        for phi in zm1.phis
    )
    worst["frac2"] = max(
        left_inverse_residual(make_operator("frac_laplacian", gamma=1.5, dim=2), phi, fine2.step)
        for phi in zm2.phis
    )
    residual_ok = max(worst.values()) < tol
    contraction_ok = all(
        poissonization_contraction_check(f, n)
        for f in (gaussian(1.0), laplace(1.0), cauchy(1.0))
        for n in (1, 10, 100)
    )
    ok = residual_ok and contraction_ok
    report(
        ok,
        "criterion 7: T L* identity below 1e-3 relative sup-norm "
        f"(worst={max(worst.values()):.2e} over D, DaI, DxDy, DaIxDaIy, frac 1-D/2-D) "
        "and |f_n| <= sqrt(2) |f| for Gaussian/Laplace/Cauchy at n in {1,10,100}",
    )


CLI_CONFIGS = (
    ("dai_cauchy", ["generate", "--operator", "DaI", "--alpha", "0.1", "--exponent",
                    "cauchy", "--c", "1.0", "--lambda", "3", "--box", "0:10",
                    "--step", "0.01", "--seed", "42"]),
    ("d_gauss_high", ["generate", "--operator", "D", "--exponent", "gaussian",
                      "--sigma2", "1.0", "--lambda", "100", "--box", "0:10",
                      "--step", "0.01", "--seed", "42"]),
    ("d_laplace_low", ["generate", "--operator", "D", "--exponent", "laplace",
                       "--sigma2", "1.0", "--lambda", "0.5", "--box", "0:10",
                       "--step", "0.01", "--seed", "42"]),
    ("dxdy_gauss", ["generate", "--operator", "DxDy", "--exponent", "gaussian",
                    "--sigma2", "1.0", "--lambda", "1", "--box", "0:10",
                    "--step", "0.05", "--seed", "42"]),
    ("frac_gauss", ["generate", "--operator", "frac_laplacian", "--gamma", "1.5",
                    "--dim", "2", "--exponent", "gaussian", "--sigma2", "1.0",
                    "--lambda", "1", "--box", "0:10", "--step", "0.05", "--seed", "42"]),
    ("daixdaiy_laplace", ["generate", "--operator", "DaIxDaIy", "--alpha", "0.1",
                          "--exponent", "laplace", "--sigma2", "1.0", "--lambda", "1",
                          "--box", "0:10", "--step", "0.05", "--seed", "42"]),
)


def test_criterion_08_cli_configuration_matrix(tmp_path):
    counts = {}
    for name, args in CLI_CONFIGS:
        out = tmp_path / name
        code = main(args + ["--outdir", str(out)])
        assert code == 0, f"{name} exited {code}"
        counts[name] = read_impulse_csv(out / "impulses.csv").count
    # rate windows: lambda=0.5 on a unit-rate-10 window stays sparse,
    # lambda=100 is dense
    sparse_ok = counts["d_laplace_low"] <= 15
    dense_ok = counts["d_gauss_high"] >= 800
    code = main(
        ["plotdata", "--input", str(tmp_path / "dxdy_gauss" / "realization.csv"),
         "--outdir", str(tmp_path / "dxdy_gauss")]
    )
    assert code == 0
    blob = (tmp_path / "dxdy_gauss" / "image.pgm").read_bytes()
    parts = blob.split(b"\n", 3)
    pgm_ok = (
        parts[0] == b"P5"
        and parts[1] == b"201 201"
        and parts[2] == b"255"
        and len(parts[3]) == 201 * 201
        and len(set(parts[3])) > 1
    )
    ok = sparse_ok and dense_ok and pgm_ok
    report(
        ok,
        "criterion 8: six generate configurations run (exit 0); "
        f"lambda=0.5 gives {counts['d_laplace_low']} <= 15 impulses, "
        f"lambda=100 gives {counts['d_gauss_high']} >= 800; "
        "2-D plotdata emits a valid non-constant 201x201 PGM",
    )


def test_criterion_09_seeded_reruns_byte_identical(tmp_path):
    identical = True
    for name, args in CLI_CONFIGS:
        a = tmp_path / (name + "_a")
        b = tmp_path / (name + "_b")
        assert main(args + ["--outdir", str(a)]) == 0
        assert main(args + ["--outdir", str(b)]) == 0
        for fn in ("impulses.csv", "realization.csv", "run.cfg"):
            if not filecmp.cmp(a / fn, b / fn, shallow=False):
                identical = False
    ok = identical
    report(
        ok,
        "criterion 9: rerunning every configuration with the same seed "
        "reproduces impulses.csv, realization.csv, and run.cfg byte for byte",
    )
