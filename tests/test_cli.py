"""Command-line interface: subcommands, config handling, and exit codes."""

import filecmp
import os
import re
from dataclasses import replace
import subprocess
import sys

import numpy as np
import pytest

import levyspline
from levyspline.cli import RunConfig, _build_parser, _resolve, main, parse_config_file, write_pgm
from levyspline.synthesis import read_realization_binary, read_realization_csv


def run(*args):
    return main(list(args))


def test_generate_writes_outputs(tmp_path):
    out = tmp_path / "g"
    code = run(
        "generate", "--operator", "D", "--exponent", "gaussian", "--lambda", "3",
        "--box", "0:10", "--step", "0.01", "--seed", "7", "--outdir", str(out),
    )
    assert code == 0
    assert sorted(os.listdir(out)) == ["impulses.csv", "realization.csv", "run.cfg"]
    header = (out / "impulses.csv").read_text().split("\n", 1)[0]
    assert header == "# dim=1 box=0..10 lambda=3 seed=7"
    impulses = np.loadtxt(out / "impulses.csv", delimiter=",", ndmin=2)
    assert impulses.shape[1] == 2 and np.all((impulses[:, 0] >= 0) & (impulses[:, 0] <= 10))
    real = read_realization_csv(out / "realization.csv")
    assert real.samples.shape == (1001,)
    assert real.samples[0] == 0.0


def test_generate_binary_format(tmp_path):
    out = tmp_path / "b"
    code = run(
        "generate", "--operator", "D", "--exponent", "gaussian", "--lambda", "3",
        "--seed", "7", "--format", "bin", "--outdir", str(out),
    )
    assert code == 0
    assert (out / "realization.bin").exists()
    assert (out / "realization.bin.hdr").exists()
    real = read_realization_binary(out / "realization.bin")
    assert real.samples.dtype == np.float64


def test_reruns_are_byte_identical(tmp_path):
    args = (
        "generate", "--operator", "DaI", "--alpha", "0.1", "--exponent", "cauchy",
        "--c", "1.0", "--lambda", "3", "--box", "0:10", "--step", "0.01", "--seed", "42",
    )
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(*args, "--outdir", str(a)) == 0
    assert run(*args, "--outdir", str(b)) == 0
    for name in ("impulses.csv", "realization.csv", "run.cfg"):
        assert filecmp.cmp(a / name, b / name, shallow=False)


def test_different_seeds_differ(tmp_path):
    base = ("generate", "--operator", "D", "--exponent", "gaussian", "--lambda", "3")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(*base, "--seed", "1", "--outdir", str(a)) == 0
    assert run(*base, "--seed", "2", "--outdir", str(b)) == 0
    assert not filecmp.cmp(a / "realization.csv", b / "realization.csv", shallow=False)


def test_config_file_round_trip(tmp_path):
    out = tmp_path / "first"
    assert run(
        "generate", "--operator", "DaI", "--alpha", "0.2", "--exponent", "laplace",
        "--sigma2", "2.0", "--lambda", "1.5", "--seed", "5", "--outdir", str(out),
    ) == 0
    # replaying the resolved config reproduces the exact outputs
    again = tmp_path / "second"
    assert run("generate", "--config", str(out / "run.cfg"), "--outdir", str(again)) == 0
    for name in ("impulses.csv", "realization.csv", "run.cfg"):
        assert filecmp.cmp(out / name, again / name, shallow=False)
    # and the parsed key set is stable
    pairs = parse_config_file(out / "run.cfg")
    assert pairs["operator"] == "DaI"
    assert pairs["family"] == "laplace"
    assert float(pairs["margin"]) == 0.0


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("operator=D\nfamily=gaussian\nlambda=3\nseed=5\n")
    out = tmp_path / "o"
    assert run("generate", "--config", str(cfg), "--lambda", "7", "--outdir", str(out)) == 0
    assert "lambda=7" in (out / "run.cfg").read_text()
    assert "seed=5" in (out / "run.cfg").read_text()


def test_config_file_comments_and_blank_lines(tmp_path):
    # a comment line, a blank line and a trailing comment resolve to the
    # run.cfg, and the outputs, of the same flags
    cfg = tmp_path / "in.cfg"
    cfg.write_text("# a coarse 2-D path\noperator=DxDy\n\nstep=0.1  # 101^2 nodes\nseed=4\n")
    file_out, flag_out = tmp_path / "file", tmp_path / "flags"
    assert run("reference", "--config", str(cfg), "--outdir", str(file_out)) == 0
    assert run("reference", "--operator", "DxDy", "--step", "0.1", "--seed", "4",
               "--outdir", str(flag_out)) == 0
    assert (file_out / "run.cfg").read_text() == (flag_out / "run.cfg").read_text()
    assert "operator=DxDy\ndim=2\n" in (file_out / "run.cfg").read_text()
    assert filecmp.cmp(file_out / "realization.csv", flag_out / "realization.csv", shallow=False)


def test_seed_env_fallback(tmp_path, monkeypatch):
    out1, out2 = tmp_path / "e1", tmp_path / "e2"
    monkeypatch.setenv("LEVYSPLINE_SEED", "123")
    assert run("generate", "--outdir", str(out1)) == 0
    monkeypatch.delenv("LEVYSPLINE_SEED")
    assert run("generate", "--seed", "123", "--outdir", str(out2)) == 0
    assert filecmp.cmp(out1 / "realization.csv", out2 / "realization.csv", shallow=False)
    assert "seed=123" in (out1 / "run.cfg").read_text()


def test_reference_subcommand(tmp_path):
    out = tmp_path / "r"
    code = run(
        "reference", "--exponent", "cauchy", "--c", "1.0", "--box", "0:10",
        "--step", "0.01", "--seed", "9", "--outdir", str(out),
    )
    assert code == 0
    real = read_realization_csv(out / "realization.csv")
    assert real.provenance == "reference(cauchy)"
    assert real.samples[0] == 0.0


def test_verify_subcommand_pass(tmp_path):
    out = tmp_path / "v"
    code = run(
        "verify", "--operator", "D", "--exponent", "gaussian", "--ladder", "1,4,16,64",
        "--ensemble", "20000", "--seed", "0", "--outdir", str(out),
    )
    assert code == 0
    summary = (out / "summary.txt").read_text()
    assert "verdict=PASS" in summary
    header = (out / "cfreport.csv").read_text().splitlines()[0]
    assert header == "lambda,phi,re_emp,im_emp,se,re_ana,im_ana,abs_err"


def test_verify_second_derivative_pass(tmp_path):
    # the n-fold derivative pairs through its own adjoint tables
    out = tmp_path / "v2"
    code = run(
        "verify", "--operator", "D", "--n", "2", "--exponent", "gaussian",
        "--ensemble", "5000", "--seed", "1", "--outdir", str(out),
    )
    assert code == 0
    assert "verdict=PASS" in (out / "summary.txt").read_text()


def test_verify_laplace_pass(tmp_path):
    # rate-n jumps are the base law at time 1/n (symmetric variance-gamma),
    # so the study converges to the Laplace limit, not the Gaussian one
    out = tmp_path / "vl"
    code = run(
        "verify", "--operator", "D", "--exponent", "laplace", "--sigma2", "1",
        "--ladder", "1,4,16,64", "--ensemble", "20000", "--seed", "1", "--outdir", str(out),
    )
    assert "verdict=PASS" in (out / "summary.txt").read_text()
    assert code == 0


def test_verify_noise_floor_exit_code(tmp_path, capsys):
    out = tmp_path / "nf"
    code = run(
        "verify", "--operator", "D", "--exponent", "gaussian", "--ladder", "64,128,256",
        "--ensemble", "200", "--seed", "0", "--outdir", str(out),
    )
    assert code == 1
    assert "NOISE_FLOOR" in (out / "summary.txt").read_text()
    assert "NOISE_FLOOR" in capsys.readouterr().err
    assert (out / "cfreport.csv").exists()  # partial report still written


def test_verify_refuses_what_it_cannot_run(tmp_path, capsys):
    # a ladder, ensemble, operator or grid the study would refuse exits 2
    # before any output is written
    for args, reason in (
        (("--ladder", "4,1,16"), "strictly ascending"),
        (("--ladder", "1,4"), "at least 3 rungs"),
        (("--ensemble", "50"), "below the minimum"),
        (("--operator", "DxDy", "--step", "0.1"), "one dimensional"),
        (("--operator", "DaIxDaIy", "--alpha", "0.1", "--step", "0.1"), "one dimensional"),
        (("--operator", "frac_laplacian", "--gamma", "1.5", "--dim", "2", "--step", "0.1"),
         "one dimensional"),
        (("--step", "0.1"), "fewer than 16 samples"),
        (("--box", "0:1", "--step", "0.05"), "fewer than 16 samples"),
    ):
        out = tmp_path / "v"
        capsys.readouterr()
        assert run("verify", *args, "--outdir", str(out)) == 2, args
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and reason in err, (args, err)
        assert not out.exists()
    # a bad noise value exits 2 for every subcommand that reads the noise
    # keys; plotdata and selftest, which read none, refuse the flag itself
    for command in ("generate", "reference", "verify", "plotdata", "selftest"):
        out = tmp_path / command
        assert run(command, "--sigma2", "-1", "--outdir", str(out)) == 2, command
        err = capsys.readouterr().err
        if command in ("plotdata", "selftest"):
            assert "unrecognized arguments: --sigma2 -1" in err
        else:
            assert "config error: gaussian exponent needs sigma2 > 0" in err
        assert not out.exists()


def test_plotdata_one_dimensional(tmp_path):
    src = tmp_path / "src"
    run("generate", "--operator", "D", "--exponent", "gaussian", "--lambda", "3",
        "--seed", "3", "--outdir", str(src))
    out = tmp_path / "p"
    assert run("plotdata", "--input", str(src / "realization.csv"), "--outdir", str(out)) == 0
    dat = (out / "plot.dat").read_text().splitlines()
    assert len(dat) == 1001
    assert len(dat[0].split()) == 2
    assert "plot" in (out / "plot.gp").read_text()
    assert not (out / "image.pgm").exists()


def test_plotdata_two_dimensional_pgm(tmp_path):
    src = tmp_path / "src"
    run("generate", "--operator", "DxDy", "--exponent", "gaussian", "--lambda", "1",
        "--box", "0:10", "--step", "0.05", "--seed", "3", "--outdir", str(src))
    out = tmp_path / "p"
    assert run("plotdata", "--input", str(src / "realization.csv"), "--outdir", str(out)) == 0
    blob = (out / "image.pgm").read_bytes()
    header, pixels = blob.split(b"\n", 3)[:3], blob.split(b"\n", 3)[3]
    assert header[0] == b"P5"
    width, height = map(int, header[1].split())
    assert (width, height) == (201, 201)
    assert header[2] == b"255"
    assert len(pixels) == width * height
    arr = np.frombuffer(pixels, dtype=np.uint8)
    assert arr.min() == 0 and arr.max() == 255  # non-constant, full range
    # gnuplot blocks: one blank separator per x row
    dat = (out / "plot.dat").read_text()
    assert dat.count("\n\n") == 201


def test_plotdata_missing_input_exit_2(tmp_path):
    assert run("plotdata", "--outdir", str(tmp_path)) == 2
    assert run("plotdata", "--input", str(tmp_path / "nope.csv"), "--outdir", str(tmp_path)) == 2
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run("plotdata", "--input", str(empty), "--outdir", str(tmp_path)) == 2


def test_plotdata_refuses_non_finite_samples_exit_2(tmp_path, capsys):
    # an inf in a 2-D csv and a nan in a 1-D bin are refused after loading,
    # with the file named and no output directory
    csv_src, bin_src = tmp_path / "csv", tmp_path / "bin"
    run("generate", "--operator", "DxDy", "--lambda", "1", "--box", "0:2", "--step", "0.5",
        "--seed", "3", "--outdir", str(csv_src))
    run("generate", "--format", "bin", "--seed", "3", "--outdir", str(bin_src))
    csv_path = csv_src / "realization.csv"
    lines = csv_path.read_text().splitlines()
    lines[7] = lines[7].rsplit(",", 1)[0] + ",inf"
    csv_path.write_text("\n".join(lines) + "\n")
    bin_path = bin_src / "realization.bin"
    samples = np.fromfile(bin_path, dtype="<f8")
    samples[500] = np.nan
    samples.tofile(bin_path)
    for path in (csv_path, bin_path):
        out = tmp_path / ("plot_" + path.suffix[1:])
        capsys.readouterr()
        assert run("plotdata", "--input", str(path), "--outdir", str(out)) == 2
        assert f"plotdata: {path} holds non-finite samples" in capsys.readouterr().err
        assert not out.exists()


def test_selftest_subcommand(tmp_path):
    out = tmp_path / "st"
    assert run("selftest", "--seed", "1", "--outdir", str(out)) == 0
    text = (out / "selftest.txt").read_text()
    assert "FAIL" not in text
    assert "reference-vs-analytic[gaussian]" in text
    assert "reference-vs-analytic[laplace]" in text
    assert "left-inverse[frac_laplacian]" in text


def test_usage_and_config_errors(tmp_path, capsys):
    assert run("generate", "--operator", "Q", "--outdir", str(tmp_path)) == 2
    assert run("generate", "--dim", "2", "--operator", "D", "--outdir", str(tmp_path)) == 2
    assert run("generate", "--operator", "DxDy", "--dim", "1", "--outdir", str(tmp_path)) == 2
    dim_cfg = tmp_path / "dim.cfg"
    dim_cfg.write_text("operator=DaIxDaIy\ndim=1\n")
    assert run("generate", "--config", str(dim_cfg), "--outdir", str(tmp_path)) == 2
    assert run("generate", "--box", "10", "--outdir", str(tmp_path)) == 2
    assert run("generate", "--format", "xml", "--outdir", str(tmp_path)) == 2
    assert run("nonsense") == 2
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("surprise=1\n")
    assert run("generate", "--config", str(cfg), "--outdir", str(tmp_path)) == 2
    cfg.write_text("operator\n")
    assert run("generate", "--config", str(cfg), "--outdir", str(tmp_path)) == 2
    assert run("generate", "--config", str(tmp_path / "missing.cfg")) == 2
    # config-file values are checked like the matching flags
    capsys.readouterr()
    cfg.write_text("seed=abc\n")
    assert run("generate", "--config", str(cfg), "--outdir", str(tmp_path)) == 2
    assert "config error: " in capsys.readouterr().err
    cfg.write_text("dim=3\nbox=0:1\nstep=0.1\n")
    out = tmp_path / "dim3"
    assert run("generate", "--config", str(cfg), "--operator", "frac_laplacian",
               "--outdir", str(out)) == 2
    assert "config error: " in capsys.readouterr().err
    assert not out.exists()


def test_operator_keys_the_family_ignores(tmp_path, capsys):
    # a key of another operator or noise family, set by flag or config
    # file, is refused with a message naming the family and the key
    out = tmp_path / "o"
    capsys.readouterr()
    assert run("generate", "--operator", "D", "--alpha", "7", "--gamma", "9",
               "--outdir", str(out)) == 2
    assert "config error: operator D does not use alpha" in capsys.readouterr().err
    cfg = tmp_path / "dxdy.cfg"
    cfg.write_text("operator=DxDy\nn=2\n")
    assert run("generate", "--config", str(cfg), "--outdir", str(out)) == 2
    assert "operator DxDy does not use n" in capsys.readouterr().err
    # a run.cfg that recorded every operator key, as earlier versions wrote
    cfg.write_text("command=generate\noperator=D\nn=1\nalpha=0.1\ngamma=1.5\ndim=1\n")
    assert run("generate", "--config", str(cfg), "--outdir", str(out)) == 2
    assert "operator D does not use alpha" in capsys.readouterr().err
    want = "config error: exponent cauchy does not use sigma2 (its parameter is c)"
    assert run("generate", "--exponent", "cauchy", "--sigma2", "5", "--outdir", str(out)) == 2
    assert want in capsys.readouterr().err
    cfg.write_text("family=cauchy\nsigma2=5\n")
    assert run("generate", "--config", str(cfg), "--outdir", str(out)) == 2
    assert want in capsys.readouterr().err
    # a run.cfg that recorded both noise keys, as earlier versions wrote
    cfg.write_text("command=generate\noperator=D\nn=1\ndim=1\nfamily=gaussian\n"
                   "sigma2=1\nc=1\n")
    assert run("generate", "--config", str(cfg), "--outdir", str(out)) == 2
    assert "config error: exponent gaussian does not use c (its parameter is sigma2)" in (
        capsys.readouterr().err
    )
    assert not out.exists()
    # run.cfg records only the families' parameters, and replays
    assert run("generate", "--operator", "DaI", "--alpha", "0.25", "--exponent", "cauchy",
               "--c", "2", "--lambda", "1", "--seed", "3", "--outdir", str(out)) == 0
    text = (out / "run.cfg").read_text()
    assert "alpha=0.25\n" in text and "\nn=" not in text and "gamma=" not in text
    assert "c=2\n" in text and "sigma2=" not in text
    again = tmp_path / "again"
    assert run("generate", "--config", str(out / "run.cfg"), "--outdir", str(again)) == 0
    for name in ("impulses.csv", "realization.csv", "run.cfg"):
        assert filecmp.cmp(out / name, again / name, shallow=False)
    dxdy = tmp_path / "dxdy"
    assert run("generate", "--operator", "DxDy", "--lambda", "0.1", "--step", "0.1",
               "--outdir", str(dxdy)) == 0
    text = (dxdy / "run.cfg").read_text()
    assert "operator=DxDy\ndim=2\n" in text


def test_reference_refuses_other_operators_exit_2(tmp_path, capsys):
    # reference draws only the operators whose cells weigh every impulse
    # alike; one whose weight reads the offset is a config error, with its
    # reason and no output directory
    for args in (
        ("--operator", "DaI", "--alpha", "0.1"),
        ("--operator", "D", "--n", "2"),
        ("--operator", "DaIxDaIy", "--alpha", "1", "--step", "0.5"),
    ):
        out = tmp_path / "r"
        assert run("reference", *args, "--outdir", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: exact references exist only"), err
        assert not out.exists()


def test_operators_at_the_ends_of_their_ranges(tmp_path, capsys):
    # D^n from n = 20 is a config error, also when a realization header
    # names it; a pole so fast that exp(-alpha h) underflows to 0 draws
    # finite samples in one and two dimensions, and so does a pole so slow
    # that it rounds to 1
    for n in ("20", "25"):
        out = tmp_path / f"n{n}"
        assert run("generate", "--operator", "D", "--n", n, "--outdir", str(out)) == 2
        assert "D requires n <= 19" in capsys.readouterr().err
        assert not out.exists()
    assert run("generate", "--operator", "D", "--n", "19", "--seed", "1",
               "--outdir", str(tmp_path / "g19")) == 0
    path = tmp_path / "g19" / "realization.csv"
    text = path.read_text()
    assert ";n=19 " in text.splitlines()[0]
    path.write_text(text.replace(";n=19 ", ";n=25 ", 1))
    assert run("plotdata", "--input", str(path), "--outdir", str(tmp_path / "p25")) == 2
    assert "D requires n <= 19" in capsys.readouterr().err
    for args in (("--operator", "DaI"), ("--operator", "DaIxDaIy", "--step", "0.1")):
        out = tmp_path / args[1]
        assert run("generate", *args, "--alpha", "1e5", "--seed", "2", "--format", "bin",
                   "--outdir", str(out)) == 0
        samples = read_realization_binary(out / "realization.bin").samples
        assert np.isfinite(samples).all() and samples.any()
    out = tmp_path / "slow"
    assert run("generate", "--operator", "DaI", "--alpha", "1e-300", "--seed", "2",
               "--format", "bin", "--outdir", str(out)) == 0
    samples = read_realization_binary(out / "realization.bin").samples
    assert np.isfinite(samples).all() and samples.any()


def test_runtime_error_exit_3(tmp_path, capsys):
    # an output directory below a regular file fails at run time
    blocker = tmp_path / "file"
    blocker.write_text("")
    code = run("reference", "--outdir", str(blocker / "out"))
    assert code == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_help_exits_zero():
    assert run("--help") == 0
    assert run("generate", "--help") == 0


def test_verify_refuses_a_margin_it_would_ignore(tmp_path, capsys):
    # verify draws with the operator's margin rule (2.5 for this window) and
    # reference draws no impulses, so neither takes a margin, not even the rule's
    args = (
        "verify", "--operator", "frac_laplacian", "--gamma", "1.5", "--exponent", "gaussian",
        "--ladder", "1,4,16", "--ensemble", "100", "--box", "0:10", "--step", "0.05",
        "--seed", "3",
    )
    for argv in (
        (*args, "--margin", "5"),
        (*args, "--margin", "2.5"),
        ("reference", "--margin", "0", "--seed", "1"),
        ("reference", "--margin", "50", "--seed", "1"),
    ):
        out = tmp_path / "m"
        assert run(*argv, "--outdir", str(out)) == 2, argv
        assert "unrecognized arguments: --margin" in capsys.readouterr().err
        assert not out.exists()
    first, again = tmp_path / "a", tmp_path / "b"
    code = run(*args, "--outdir", str(first))
    assert code in (0, 1)
    assert "margin=" not in (first / "run.cfg").read_text()
    # replaying the recorded config reproduces the study
    assert run("verify", "--config", str(first / "run.cfg"), "--outdir", str(again)) == code
    for name in ("cfreport.csv", "summary.txt", "run.cfg"):
        assert filecmp.cmp(first / name, again / name, shallow=False)


def test_generate_refuses_a_margin_below_the_rule(tmp_path, capsys):
    # frac_laplacian's rule on 0:10 is 2.5; the causal operators have none
    out = tmp_path / "frac"
    args = ("--operator", "frac_laplacian", "--margin", "0.5")
    assert run("generate", *args, "--outdir", str(out)) == 2
    assert "config error: " in capsys.readouterr().err
    assert not out.exists()
    # the rule itself, in whole steps, is accepted and recorded as given
    ns = _build_parser().parse_args(["generate", "--operator", "frac_laplacian", "--margin", "2.5"])
    assert _resolve(ns)[0].margin == 2.5


def test_cached_parser_keeps_no_state_between_calls(tmp_path):
    assert _build_parser() is _build_parser()
    base = ("generate", "--seed", "5", "--step", "0.05")
    assert run(*base, "--lambda", "7", "--outdir", str(tmp_path / "seven")) == 0
    again = tmp_path / "again"
    assert run(*base, "--outdir", str(again)) == 0
    assert "lambda=3\n" in (again / "run.cfg").read_text()
    _build_parser.cache_clear()
    fresh = tmp_path / "fresh"
    assert run(*base, "--outdir", str(fresh)) == 0
    for name in ("impulses.csv", "realization.csv", "run.cfg"):
        assert filecmp.cmp(again / name, fresh / name, shallow=False)


def test_run_config_kv_is_lossless(tmp_path):
    # a resolved config holds only the keys its subcommand reads, and of the
    # operator and noise keys only the families' own parameters
    cfg = RunConfig(
        command="generate", operator="DaI", alpha=0.1, dim=1, family="cauchy", c=2.0,
        lam=3.5, box="0:10", step=0.01, margin=138.16, seed=42, fmt="csv",
    )
    text = cfg.to_kv()
    assert text.endswith("\n")
    pairs = dict(line.split("=", 1) for line in text.strip().split("\n"))
    assert pairs["lambda"] == "3.5"
    assert pairs["margin"] == "138.16"
    assert not {"n", "gamma", "sigma2", "ladder", "ensemble"} & set(pairs)
    # every key a subcommand reads survives to_kv and --config, also when
    # each is away from its default
    run_keys = dict(
        operator="DaIxDaIy", alpha=0.3, dim=2, family="laplace", sigma2=2.5, box="-1:3",
        step=0.05, seed=7,
    )
    own_keys = {
        "generate": dict(lam=5.25, margin=50.0, fmt="bin"),
        "reference": dict(fmt="bin"),
        "verify": dict(ladder=(2.0, 8.0, 32.0), ensemble=300),
    }
    wants = [cfg]
    for command, own in own_keys.items():
        away = RunConfig(command=command, **run_keys, **own)
        wants += [
            away,
            replace(away, operator="D", n=2, alpha=None, dim=1),
            replace(away, operator="frac_laplacian", alpha=None, gamma=0.7),
        ]
    path = tmp_path / "run.cfg"
    for want in wants:
        path.write_text(want.to_kv())
        ns = _build_parser().parse_args([want.command, "--config", str(path)])
        assert _resolve(ns)[0] == want


def test_write_pgm_constant_field(tmp_path):
    path = tmp_path / "flat.pgm"
    write_pgm(np.zeros((4, 6)), path)
    blob = path.read_bytes()
    assert blob.startswith(b"P5\n6 4\n255\n")
    assert blob[len(b"P5\n6 4\n255\n"):] == bytes(24)


def test_import_does_not_load_scipy():
    # the package needs no scipy: only the tests and the benchmark import it
    code = (
        "import sys, levyspline, levyspline.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = os.path.dirname(os.path.dirname(levyspline.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    ).stdout
    assert out.strip() == "[]"


# The keys each subcommand reads; --exponent is the flag of key family.
RUN_KEYS = ("operator", "n", "alpha", "gamma", "dim", "family", "sigma2", "c", "box", "step",
            "seed")
COMMAND_KEYS = {
    "generate": RUN_KEYS + ("lambda", "margin", "format"),
    "reference": RUN_KEYS + ("format",),
    "verify": RUN_KEYS + ("ladder", "ensemble"),
    "plotdata": (),
    "selftest": ("seed",),
}
# A value each key accepts on its own
KEY_VALUES = {
    "operator": "D", "n": "1", "alpha": "0.1", "gamma": "1.5", "dim": "1", "family": "gaussian",
    "sigma2": "1", "c": "1", "lambda": "3", "ladder": "1,4,16", "box": "0:10", "step": "0.01",
    "margin": "0", "ensemble": "1000", "seed": "1", "format": "csv",
}
# Short runs of the subcommands that write run.cfg
RUN_ARGS = {
    "generate": ("--step", "0.05", "--seed", "3"),
    "reference": ("--step", "0.05", "--seed", "3"),
    "verify": ("--step", "0.05", "--ladder", "1,4,16", "--ensemble", "100", "--seed", "3"),
}


def _flag(key):
    return "--exponent" if key == "family" else f"--{key}"


@pytest.mark.parametrize("command", sorted(COMMAND_KEYS))
def test_each_subcommand_takes_only_the_keys_it_reads(command, tmp_path, capsys):
    reads = COMMAND_KEYS[command]
    capsys.readouterr()
    assert run(command, "--help") == 0
    offered = set(re.findall(r"--[a-z0-9]+", capsys.readouterr().out))
    want = {"--help", "--outdir", *map(_flag, reads)}
    want |= {"--config"} if reads else {"--input"}
    assert offered == want
    base = ()
    if command == "plotdata":
        src = tmp_path / "src"
        assert run("generate", "--step", "0.05", "--outdir", str(src)) == 0
        base = ("--input", str(src / "realization.csv"))
    out = tmp_path / "out"
    cfg = tmp_path / "stray.cfg"
    for key in KEY_VALUES.keys() - set(reads):
        assert run(command, *base, _flag(key), KEY_VALUES[key], "--outdir", str(out)) == 2, key
        assert "unrecognized arguments" in capsys.readouterr().err
        cfg.write_text(f"{key}={KEY_VALUES[key]}\n")
        assert run(command, *base, "--config", str(cfg), "--outdir", str(out)) == 2, key
        err = capsys.readouterr().err
        if reads:
            assert f"config error: {command} does not use {key}" in err
        else:
            assert "unrecognized arguments: --config" in err
        assert not out.exists()
    if command not in RUN_ARGS:
        return
    # a run.cfg of another subcommand is refused too
    other = "selftest" if command == "generate" else "generate"
    cfg.write_text(f"command={other}\n")
    assert run(command, "--config", str(cfg), "--outdir", str(out)) == 2
    assert f"config error: {command} does not use command={other}" in capsys.readouterr().err
    assert not out.exists()
    # run.cfg records the command and the keys it reads (of the operator and
    # noise keys, those of D and gaussian), and replays to identical bytes
    code = run(command, *RUN_ARGS[command], "--outdir", str(out))
    assert code in (0, 1)
    recorded = {line.split("=", 1)[0] for line in (out / "run.cfg").read_text().splitlines()}
    assert recorded == {"command", *reads} - {"alpha", "gamma", "c"}
    again = tmp_path / "again"
    assert run(command, "--config", str(out / "run.cfg"), "--outdir", str(again)) == code
    assert sorted(os.listdir(again)) == sorted(os.listdir(out))
    for name in os.listdir(out):
        assert filecmp.cmp(out / name, again / name, shallow=False), name


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--margin", "nan"],
        ["generate", "--margin", "inf"],
        ["generate", "--step", "inf"],
        ["generate", "--box", "0:inf"],
        ["generate", "--operator", "DaI", "--alpha", "inf"],
        ["generate", "--sigma2", "inf"],
        ["generate", "--exponent", "cauchy", "--c", "inf"],
        ["generate", "--operator", "frac_laplacian", "--gamma", "inf"],
        ["generate", "--lambda", "-1"],
        ["generate", "--lambda", "nan"],
        ["generate", "--lambda", "inf"],
        ["verify", "--ladder", "0,1,2"],
        ["verify", "--ladder", "1,4,inf"],
    ],
    ids=" ".join,
)
def test_non_finite_or_non_positive_values_exit_2(argv, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(argv + ["--outdir", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def test_negative_seed_exits_2_before_any_output(tmp_path, monkeypatch, capsys):
    # a seed below 0 is refused by flag, config file and environment alike,
    # and so is an environment seed that is not an integer
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed=-1\n")
    negative = "config error: seed must be a nonnegative integer\n"
    cases = (
        (None, ["--seed", "-1"], negative),
        (None, ["--config", str(cfg)], negative),
        ("-3", [], negative),
        ("abc", [], "config error: bad LEVYSPLINE_SEED value 'abc'\n"),
    )
    for command in ("generate", "verify"):
        for env, args, said in cases:
            if env is None:
                monkeypatch.delenv("LEVYSPLINE_SEED", raising=False)
            else:
                monkeypatch.setenv("LEVYSPLINE_SEED", env)
            out = tmp_path / "o"
            assert main([command, *args, "--outdir", str(out)]) == 2, (command, args, env)
            assert capsys.readouterr().err == said
            assert not out.exists()


def test_impulse_count_guard_exits_2_before_any_output(tmp_path, capsys):
    # generate's rate and verify's top rung, on the box each draws on
    for argv in (["generate", "--lambda", "1e300"],
                 ["verify", "--ladder", "1,4,1e12", "--ensemble", "100"]):
        out = tmp_path / "o"
        assert main(argv + ["--outdir", str(out)]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("config error: expected impulse count "), err
        assert "exceeds guard 1e+09" in err
        assert not out.exists()


def test_verify_guards_the_box_its_top_rung_draws_on(tmp_path, monkeypatch, capsys):
    # the default D study's bank ends before 3.6, so its rungs draw on 0:3.6:
    # a top rung of 2.7e8 expects 9.7e8 impulses there (2.7e9 on the whole
    # window) and reaches the study, stubbed here; 2.8e8 expects 1.008e9,
    # which the study's own draw refuses too, and exits 2 with no output
    from levyspline import cli
    from levyspline.exponents import gaussian
    from levyspline.grid import Box, Grid
    from levyspline.noise import NoiseError
    from levyspline.operators import make_operator
    from levyspline.verify import VerifyError, block_pairings, build_cf_bank

    def study(*args, **kwargs):
        raise VerifyError("study reached")

    monkeypatch.setattr(cli, "convergence_study", study)
    out = tmp_path / "o"
    assert run("verify", "--ladder", "1,4,2.7e8", "--ensemble", "100", "--outdir", str(out)) == 3
    assert capsys.readouterr().err == "error: study reached\n"
    out = tmp_path / "p"
    assert run("verify", "--ladder", "1,4,2.8e8", "--ensemble", "100", "--outdir", str(out)) == 2
    assert "exceeds guard 1e+09" in capsys.readouterr().err
    assert not out.exists()
    bank = build_cf_bank(Grid(Box.cube(0.0, 10.0, 1), 0.01))
    with pytest.raises(NoiseError, match="exceeds guard"):
        next(block_pairings(gaussian(1.0), make_operator("D"), 2.8e8, 100, bank, 0))
