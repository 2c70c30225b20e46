"""Command-line front end.

Subcommands: generate (impulse field plus synthesized realization),
reference (exact limit path for D n=1, DxDy and the fractional Laplacian,
whose cells weigh every impulse alike), verify (rate-ladder functional
convergence study), plotdata (gnuplot data, and PGM for two-dimensional
grids), selftest (internal consistency checks).

Configuration is plain key=value text, one pair per line with '#'
comments; command-line flags override file values.  Each subcommand takes
only the keys it reads, and generate, reference and verify write the
resolved values of those keys next to their outputs so reruns are exact.
Exit codes: 0 pass, 1 verification threshold failure, 2 usage or config
error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import make_dataclass

import numpy as np

from .exponents import (
    EXPONENT_PARAMS,
    ExponentError,
    LevyExponent,
    cauchy,
    exponent_param,
    gaussian,
    laplace,
    poissonization_contraction_check,
    poissonize,
)
from .grid import Box, Grid, GridSpecError, fmt17, grid_text
from .noise import NoiseError, RngStream, expected_count, sample_impulse_field, write_impulse_csv
from .operators import (
    OPERATOR_PARAMS,
    OperatorError,
    _check_support,
    check_family_keys,
    grid_margin,
    make_operator,
    operator_param,
    sampling_box,
)
from .synthesis import (
    SynthesisError,
    UnsupportedReference,
    kernel_terms,
    read_realization_binary,
    read_realization_csv,
    reference_levy_path,
    synthesize_spline,
    write_realization_binary,
    write_realization_csv,
)
from .verify import (
    NoiseFloor,
    VerifyError,
    _rung_engine,
    analytic_cf,
    build_cf_bank,
    build_identity_bank,
    convergence_study,
    left_inverse_residual,
    rung_cf,
    study_ladder,
)

SEED_ENV_VAR = "LEVYSPLINE_SEED"
# The grids the size of its scatter grid that the memory guard counts for
# a study: its bank functions, their pairing tables and the analytic
# functional's arrays.  Peak RSS of `verify --ensemble 100` took 100-140 B
# per window node for the causal operators and 170-180 B per torus node
# for 1-D frac_laplacian, against 6 * 64 B.
STUDY_GRID_COPIES = 6


def float_list(text):
    """Comma-separated floats, as in a rate ladder."""
    return tuple(float(v) for v in text.split(",") if v.strip())


class _Key:
    """One config key: its run.cfg name, value type, default and flag.

    The RunConfig field is `attr` (default: the key) and the flag is
    `--<flag or key>`; a config file may name the key by either.  A key
    without help has no flag: the subcommand sets it.
    """

    def __init__(self, key, cast, default, help=None, attr=None, flag=None, choices=None):
        self.key, self.cast, self.default, self.help = key, cast, default, help
        self.attr = attr or key
        self.flag = f"--{flag or key}"
        self.choices = choices

    def text(self, value):
        if self.cast is float:
            return fmt17(value)
        if self.cast is float_list:
            return ",".join(fmt17(v) for v in value)
        return str(value)


# Every config key, in run.cfg order.  A subcommand resolves only the
# keys of its _COMMANDS row.  A default of None is resolved in _resolve:
# dim from the operator, margin from grid_margin, seed from the
# environment.  Of each selector's parameter keys (_SELECTORS) only the
# chosen family's own is resolved.  Keys left None are omitted from run.cfg.
_KEYS = (
    _Key("command", str, None),
    _Key("operator", str, "D", "D | DaI | DxDy | DaIxDaIy | frac_laplacian"),
    _Key("n", int, 1, "derivative order for the D family"),
    _Key("alpha", float, 0.1, "decay rate for the D+alphaI families"),
    _Key("gamma", float, 1.5, "fractional Laplacian exponent"),
    _Key("dim", int, None, "ambient dimension", choices=(1, 2)),
    _Key("family", str, "gaussian", "gaussian | laplace | cauchy (noise family)", flag="exponent"),
    _Key("sigma2", float, 1.0, "variance parameter"),
    _Key("c", float, 1.0, "Cauchy scale parameter"),
    _Key("lambda", float, 3.0, "impulse rate per unit volume", attr="lam"),
    _Key("ladder", float_list, (1.0, 4.0, 16.0, 64.0), "comma-separated ascending rate ladder"),
    _Key("box", str, "0:10", "window as lo:hi, applied on every axis"),
    _Key("step", float, 0.01, "grid step"),
    _Key("margin", float, None, "sampling margin per side (default: the operator's rule)"),
    _Key("ensemble", int, 1000, "ensemble size M"),
    _Key("seed", int, None, f"root seed (fallback: ${SEED_ENV_VAR}, then 0)"),
    _Key("format", str, "csv", "realization format", attr="fmt", choices=("csv", "bin")),
)
_BY_NAME = {name: row for row in _KEYS for name in (row.key, row.flag[2:])}

# The family selectors: the selecting key, the kind of family it names,
# the kind's parameter keys and the parameter key of one family.
_SELECTORS = (
    ("operator", "operator", OPERATOR_PARAMS, operator_param),
    ("family", "exponent", EXPONENT_PARAMS, exponent_param),
)


class ConfigError(Exception):
    """Unusable configuration."""


def _to_kv(cfg):
    values = ((row, getattr(cfg, row.attr)) for row in _KEYS)
    return "".join(f"{row.key}={row.text(v)}\n" for row, v in values if v is not None)


RunConfig = make_dataclass(
    "RunConfig",
    [(row.attr, object, None) for row in _KEYS],
    namespace={
        "__module__": __name__,
        "__doc__": "Fully resolved run parameters; serializes losslessly to key=value.",
        "to_kv": _to_kv,
    },
    frozen=True,
)


def parse_config_file(path):
    """Typed values of a key=value file, keyed by their run.cfg names."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                name, text = (part.strip() for part in line.split("=", 1))
                row = _BY_NAME.get(name)
                if row is None:
                    raise ConfigError(f"{path}:{lineno}: unknown key {name!r}")
                try:
                    value = row.cast(text)
                    if row.choices and value not in row.choices:
                        raise ValueError(f"not one of {row.choices}")
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad value for {name}: {text!r}") from exc
                values[row.key] = value
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return values


@functools.cache
def _build_parser():
    """The argument parser, built on first use and shared by every main()
    call in the process (parse_args keeps no state between calls)."""
    parser = argparse.ArgumentParser(
        prog="levyspline",
        description="Sample random L-splines driven by impulsive noise and "
        "verify their convergence in law to the matching Levy process.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (helptext, _, reads) in _COMMANDS.items():
        # no abbreviations: selftest would read --c as --config
        p = sub.add_parser(name, help=helptext, allow_abbrev=False)
        if reads:
            p.add_argument("--config", help="key=value config file; flags override it")
        p.add_argument("--outdir", default=".", help="output directory (default: .)")
        for row in _KEYS:
            if row.key in reads:
                p.add_argument(
                    row.flag, dest=row.attr, type=row.cast, choices=row.choices, help=row.help
                )
        if name == "plotdata":
            p.add_argument("--input", help="realization file produced by generate/reference")
    return parser


def _resolve(ns):
    """The run's RunConfig, operator, grid and exponent (None where the
    subcommand reads no operator), resolved from the keys it reads only:
    the flags, then the --config file, then the defaults."""
    reads = _COMMANDS[ns.command][2]
    # a subcommand that reads no key has no --config
    file_cfg = parse_config_file(ns.config) if reads and ns.config else {}
    for key, value in file_cfg.items():
        if key not in reads and (key, value) != ("command", ns.command):
            name = f"command={value}" if key == "command" else key
            raise ConfigError(f"{ns.command} does not use {name}")
    cfg, given = {"command": ns.command}, []
    for row in _KEYS:
        if row.key in reads:
            flag = getattr(ns, row.attr)  # None when unset
            cfg[row.attr] = file_cfg.get(row.key, row.default) if flag is None else flag
            if flag is not None or row.key in file_cfg:
                given.append(row.key)

    if "seed" in reads and cfg["seed"] is None:
        env = os.environ.get(SEED_ENV_VAR, "0")
        try:
            cfg["seed"] = int(env)
        except ValueError as exc:
            raise ConfigError(f"bad {SEED_ENV_VAR} value {env!r}") from exc
    if "seed" in reads and cfg["seed"] < 0:
        raise ConfigError("seed must be a nonnegative integer")
    if "operator" not in reads:
        return RunConfig(**cfg), None, None, None

    try:
        own = {}
        for selector, kind, keys, param_of in _SELECTORS:
            param = param_of(cfg[selector])
            check_family_keys(kind, cfg[selector], param, keys, given)
            for key in keys:
                if key != param:
                    cfg[key] = None
            own[selector] = {param: cfg[param]} if param else {}
        op = make_operator(cfg["operator"], dim=cfg["dim"], **own["operator"])
        f = LevyExponent(cfg["family"], **own["family"])
        cfg["dim"] = op.dim
        lo, sep, hi = str(cfg["box"]).partition(":")
        if not sep:
            raise ValueError(f"box must be lo:hi, got {cfg['box']!r}")
        grid = Grid(Box.cube(float(lo), float(hi), op.dim), cfg["step"])
    except (OperatorError, ExponentError, GridSpecError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    if "lambda" in reads and not 0.0 < cfg["lam"] < math.inf:
        raise ConfigError("lambda must be positive and finite")
    if "margin" in reads:
        rule = grid_margin(op, grid)
        margin = rule if cfg["margin"] is None else cfg["margin"]
        if not 0.0 <= margin < math.inf:
            raise ConfigError("margin must be nonnegative and finite")
        cfg["margin"] = grid.whole_steps(margin)
        if cfg["margin"] < rule:
            raise ConfigError(
                f"{op.family} needs a margin of at least {fmt17(rule)} per side "
                f"(its rule in whole steps); margin={fmt17(cfg['margin'])} is too small"
            )
    # the memory guard, on the box the run draws on, before any allocation
    # (a study's top rung is guarded in cmd_verify, on its own box)
    box = sampling_box(op, grid.box, cfg["margin"] if "margin" in reads else grid_margin(op, grid))
    lam = cfg["lam"] if "lambda" in reads else 0.0
    try:
        _guard_memory(op, grid, box, lam, STUDY_GRID_COPIES if "ladder" in reads else 1)
    except NoiseError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(**cfg), op, grid, f


def _guard_memory(op, grid, box, lam, copies):
    """noise.expected_count of rate `lam` on the field box `box`, for a run
    that holds `copies` grids the size of its scatter grid: the window, or
    for the spectral path the torus whose period is `box`."""
    scatter = grid if op.causal else Grid(box, grid.step)
    values = copies * math.prod(map(float, scatter.shape))
    expected_count(lam, box, values, kernel_terms(op))


def _write_cfg(cfg, outdir):
    with open(os.path.join(outdir, "run.cfg"), "w") as fh:
        fh.write(cfg.to_kv())


def _write_realization(real, cfg, outdir):
    if cfg.fmt == "bin":
        write_realization_binary(real, os.path.join(outdir, "realization.bin"))
    else:
        write_realization_csv(real, os.path.join(outdir, "realization.csv"))


def cmd_generate(cfg, op, grid, f, ns):
    outdir = ns.outdir
    jump_law = poissonize(f, cfg.lam).jump_law
    field = sample_impulse_field(
        op.dim, sampling_box(op, grid.box, cfg.margin), cfg.lam, jump_law, RngStream(cfg.seed, 0)
    )
    real = synthesize_spline(field, op, grid)
    os.makedirs(outdir, exist_ok=True)
    write_impulse_csv(field, os.path.join(outdir, "impulses.csv"))
    _write_realization(real, cfg, outdir)
    _write_cfg(cfg, outdir)
    return 0


def cmd_reference(cfg, op, grid, f, ns):
    outdir = ns.outdir
    # an operator with no exact reference is refused before any output
    try:
        real = reference_levy_path(f, op, grid, RngStream(cfg.seed, 0))
    except UnsupportedReference as exc:
        raise ConfigError(str(exc)) from exc
    os.makedirs(outdir, exist_ok=True)
    _write_realization(real, cfg, outdir)
    _write_cfg(cfg, outdir)
    return 0


def cmd_verify(cfg, op, grid, f, ns):
    outdir = ns.outdir
    # refuse, before any output, what the study would refuse, the
    # memory guard at its top rung, on the box that rung draws on,
    # and a bank too coarse for apply_T included
    try:
        bank = build_cf_bank(grid)
        for phi in bank.phis:
            _check_support(phi)
        top = study_ladder(cfg.ladder, cfg.ensemble)[-1]
        _guard_memory(op, grid, _rung_engine(op, bank).box, top, STUDY_GRID_COPIES)
    except (NoiseError, OperatorError, VerifyError) as exc:
        raise ConfigError(str(exc)) from exc
    os.makedirs(outdir, exist_ok=True)
    try:
        report = convergence_study(f, op, cfg.ladder, cfg.ensemble, bank, base_seed=cfg.seed)
    except NoiseFloor as exc:
        report = exc.report
        print(f"verify: NOISE_FLOOR: {exc}", file=sys.stderr)
    passed, verdict = report.verdict()
    report.to_csv(os.path.join(outdir, "cfreport.csv"))
    with open(os.path.join(outdir, "summary.txt"), "w") as fh:
        fh.write(report.summary_text() + "\n" + "\n".join(verdict) + "\n")
    _write_cfg(cfg, outdir)
    return 0 if passed else 1


def _load_realization(path):
    if path.endswith(".bin"):
        return read_realization_binary(path)
    return read_realization_csv(path)


def cmd_plotdata(_cfg, _op, _grid, _f, ns):
    outdir, input_path = ns.outdir, ns.input
    if not input_path:
        print("plotdata: --input is required", file=sys.stderr)
        return 2
    try:
        real = _load_realization(input_path)
    except (OSError, SynthesisError, OperatorError, GridSpecError, KeyError, ValueError) as exc:
        print(f"plotdata: cannot read {input_path}: {exc}", file=sys.stderr)
        return 2
    if not np.isfinite(real.samples).all():
        print(f"plotdata: {input_path} holds non-finite samples", file=sys.stderr)
        return 2
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, "plot.dat"), "w") as fh:
        fh.writelines(grid_text(real.grid.axes, real.samples, " ", scan_breaks=True))
    if real.dim == 1:
        script = (
            "set terminal pngcairo size 900,600\n"
            "set output 'plot.png'\n"
            "plot 'plot.dat' using 1:2 with lines title 'realization'\n"
        )
    else:
        script = (
            "set terminal pngcairo size 800,700\n"
            "set output 'plot.png'\n"
            "set view map\n"
            "splot 'plot.dat' using 1:2:3 with pm3d notitle\n"
        )
        write_pgm(real.samples, os.path.join(outdir, "image.pgm"))
    with open(os.path.join(outdir, "plot.gp"), "w") as fh:
        fh.write(script)
    return 0


def write_pgm(samples, path):
    """8-bit binary PGM, linear gray from the sample range (min 0, max 255)."""
    arr = np.asarray(samples, dtype=float)
    lo = float(arr.min())
    hi = float(arr.max())
    if hi > lo:
        scaled = np.round((arr - lo) / (hi - lo) * 255.0).astype(np.uint8)
    else:
        scaled = np.zeros(arr.shape, dtype=np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{arr.shape[1]} {arr.shape[0]}\n255\n".encode("ascii"))
        fh.write(scaled.tobytes())
    return path


def cmd_selftest(cfg, _op, _grid, _f, ns):
    outdir = ns.outdir
    os.makedirs(outdir, exist_ok=True)
    results = []

    grid = Grid(Box.cube(0.0, 10.0, 1), 0.01)
    op = make_operator("D")
    bank = build_cf_bank(grid)
    for f in (gaussian(1.0), cauchy(1.0), laplace(1.0)):
        # 1000 members of the limit process, drawn in study blocks
        values, ses = rung_cf(f, op, math.inf, 1000, bank, cfg.seed, 0)
        errs = np.abs(values - [analytic_cf(f, op, phi, grid) for phi in bank.phis])
        tols = 4.0 * np.maximum(ses, 1e-6)
        detail = " ".join(f"{n}:err={e:.3g},tol={t:.3g}" for n, e, t in zip(bank.names, errs, tols))
        results.append((f"reference-vs-analytic[{f.family}]", bool(np.all(errs <= tols)), detail))

    fine = Grid(Box.cube(0.0, 10.0, 1), 0.001)
    bank1 = build_identity_bank(fine)
    for opspec in (make_operator("D"), make_operator("DaI", alpha=0.1)):
        worst = max(left_inverse_residual(opspec, phi, fine.step) for phi in bank1.phis)
        results.append(
            (f"left-inverse[{opspec.family}]", worst < 1e-3, f"max_residual={worst:.3g}")
        )
    zm = build_identity_bank(fine, zero_mean=True)
    opf = make_operator("frac_laplacian", gamma=1.5, dim=1)
    worst = max(left_inverse_residual(opf, phi, fine.step) for phi in zm.phis)
    results.append(("left-inverse[frac_laplacian]", worst < 1e-8, f"max_residual={worst:.3g}"))

    for f in (gaussian(1.0), cauchy(2.0)):
        ok = all(poissonization_contraction_check(f, n) for n in (1, 10, 100))
        results.append((f"poissonization-contraction[{f.family}]", ok, "n in {1,10,100}"))

    lines = []
    all_ok = True
    for name, ok, detail in results:
        all_ok = all_ok and ok
        lines.append(f"{'PASS' if ok else 'FAIL'} {name} {detail}")
    text = "\n".join(lines) + "\n"
    with open(os.path.join(outdir, "selftest.txt"), "w") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0 if all_ok else 1


# The keys of every run that builds an operator, a noise exponent and a grid.
_RUN_KEYS = ("operator", "n", "alpha", "gamma", "dim", "family", "sigma2", "c", "box", "step",
             "seed")

# Every subcommand: its help line, its handler(cfg, op, grid, f, ns) and
# the keys it reads.  Those keys alone are its flags and its config-file
# keys, and _resolve resolves and records only them.
_COMMANDS = {
    "generate": ("sample an impulse field and synthesize its L-spline", cmd_generate,
                 _RUN_KEYS + ("lambda", "margin", "format")),
    "reference": ("draw an exact limit-process path (D n=1, DxDy, frac_laplacian)", cmd_reference,
                  _RUN_KEYS + ("format",)),
    "verify": ("run the rate-ladder functional convergence study", cmd_verify,
               _RUN_KEYS + ("ladder", "ensemble")),
    "plotdata": ("emit gnuplot data (and PGM for 2-D) from a realization", cmd_plotdata, ()),
    "selftest": ("run internal consistency checks", cmd_selftest, ("seed",)),
}


def main(argv=None):
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    handler = _COMMANDS[ns.command][1]
    try:
        return handler(*_resolve(ns), ns)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (
        ExponentError,
        NoiseError,
        OperatorError,
        SynthesisError,
        VerifyError,
        GridSpecError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
