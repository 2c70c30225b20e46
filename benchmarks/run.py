"""levyspline benchmark: three workloads, untraced end-to-end metrics and a
separate traced run for per-layer metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload synth_pair --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py                 # every workload, untraced
    python3 benchmarks/run.py --trace 1       # every workload, traced

One workload runs per process, in a closed loop with one caller, with BLAS
pinned to one thread.  The package is imported from ``src/`` next to this
directory; without it the benchmark exits 2 and prints no result.

An untraced run makes the workload's warm-up passes, then measures whole
passes until ``--seconds`` of timed calls have accumulated, checks every
output outside the timed regions, and reports the end-to-end metrics:

- ``setup_s``: median over fresh processes of the time from process start,
  through importing the package and building the workload's inputs, to the
  first timed call;
- ``peak_rss_mb``: peak resident memory of the workload process;
- ``throughput_per_s``: work (study members, synth members or CLI calls)
  per second, over one pass of slot median times;
- ``latency_geomean_ms``: geometric mean over a pass's operations of their
  median times, so that every operation, fast or slow, weighs the same.

Every pass runs the same slots (operations), so each slot has one time per
pass.  A shared virtual machine can switch between a fast state and one
about 1.7 times slower for seconds to minutes at a time (on a 2-vCPU Xeon
KVM guest one ``cli_roundtrip`` pass took 0.95 s or 1.8 s); medians over
the passes follow the state the run spent most of its time in, where a
best time jumps to the fast state as soon as a run catches a moment of it.
The per-workload figures (``cli_1d_p50_ms``, ``synth_p50_us``, ...) are
printed too: medians over slot medians, and tails (p99 per synth member,
p90 per CLI call, the slowest study) over all samples.  They are not
gated: a median of a few dozen unlike operations jumps between
neighbours, and tails follow the host's state more than the program.

A traced run does a fixed amount of work, set by ``--seconds`` and the
workload's nominal pass time, so its counts repeat exactly for a seed.  It
runs each pass twice, once untraced and once with the span recorder
installed, and reports the per-layer metrics and the tracing overhead
(traced minus untraced seconds of set-up plus timed calls).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
with the machine and the inputs, goes to ``benchmarks/results/``.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
WORKLOAD_NAMES = ("study_1d", "synth_pair", "cli_roundtrip")
SETUP_PROBES = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_geomean_ms": "ms",
}


def import_package():
    """Import levyspline from this checkout's src/, or exit 2."""
    init = SRC / "levyspline" / "__init__.py"
    if not init.is_file():
        print(f"benchmark: no package source at {init}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import levyspline

    if Path(levyspline.__file__).resolve() != init.resolve():
        print(f"benchmark: imported {levyspline.__file__}, not {init}", file=sys.stderr)
        sys.exit(2)
    return levyspline


def machine_record():
    import numpy
    import scipy

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            caches[f"L{level}"] = size
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l2": caches.get("L2", "unknown"),
        "l3": caches.get("L3", "unknown"),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def make_workload(name, seed, tag="run"):
    from workloads import WORKLOADS

    return WORKLOADS[name](seed, str(RESULTS / f"work-{name}-{tag}-{os.getpid()}"))


def measure_setup(name, seed):
    """Median, over fresh processes, of start-to-ready seconds."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, __file__, "--setup-probe", "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait() != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {name} failed")
        samples.append(t1 - t0)
    return statistics.median(samples), samples


def percentile_ms(values, q):
    import numpy as np

    return float(np.percentile(np.asarray(values), q)) * 1e3


def untraced_run(name, seed, seconds):
    from workloads import WORKLOADS, Tally

    cls = WORKLOADS[name]
    wl = make_workload(name, seed)
    tally = Tally()
    passes = 0
    try:
        for i in range(cls.warmup_passes):
            wl.run_pass(-1 - i, tally, lambda thunk: thunk())
        tally.restart_timing()
        while passes < cls.min_passes or tally.busy_s < seconds:
            wl.run_pass(passes, tally, lambda thunk: thunk())
            passes += 1
    finally:
        wl.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s, setup_samples = measure_setup(name, seed)
    typical = [(dim, work, statistics.median(times))
               for dim, work, times in tally.slots.values()]
    op_typical = [t for dim, _, t in typical if dim is not None]
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "throughput_per_s": sum(w for _, w, _ in typical) / sum(t for _, _, t in typical),
        "latency_geomean_ms": math.exp(statistics.fmean(map(math.log, op_typical))) * 1e3,
    }
    named = {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_rss_mb, "MB")}
    raw_tail = (percentile_ms(tally.latencies, cls.tail_percentile), "ms")
    if name == "study_1d":
        named["study_members_per_s"] = (metrics["throughput_per_s"], "1/s")
        named["study_p50_ms"] = (percentile_ms(op_typical, 50), "ms")
        named["study_max_ms"] = raw_tail
    elif name == "synth_pair":
        named["synth_members_per_s"] = (metrics["throughput_per_s"], "1/s")
        named["synth_p50_us"] = (percentile_ms(op_typical, 50) * 1e3, "us")
        named["synth_p99_us"] = (raw_tail[0] * 1e3, "us")
    else:
        named["cli_ops_per_s"] = (metrics["throughput_per_s"], "1/s")
        for dim in (1, 2):
            dim_typical = [t for d, _, t in typical if d == dim]
            named[f"cli_{dim}d_p50_ms"] = (percentile_ms(dim_typical, 50), "ms")
        named["cli_p90_ms"] = raw_tail
    extra = {
        "passes": passes,
        "timed_s": tally.busy_s,
        "slots": len(typical),
        "latency_samples": len(tally.latencies),
        "tail_percentile": cls.tail_percentile,
        "setup_samples_s": setup_samples,
        **wl.inputs(),
    }
    return tally, metrics, named, extra


def install_tracing(rec):
    from levyspline import exponents, noise

    def add_len(key):
        def hook(counts, result, *args, **kwargs):
            counts[key] += len(result)

        return hook

    def drawn(counts, fld, *args, **kwargs):
        counts["noise.impulses_drawn"] += fld.count

    def synthesized(counts, real, fld, op, grid):
        # Only synthesis knows the window; every field these workloads draw
        # through sample_impulse_field is synthesized once.
        counts["synthesis.grid_points"] += real.samples.size
        if fld.count:
            counts["noise.impulses_in_window"] += int(grid.box.contains(fld.locations).sum())

    def fft_bytes(counts, result, phi, *args):
        # fftn reads 8 B and writes 16 B per point, ifftn reads and writes 16 B.
        counts["operators.fft_bytes_computed"] += 56 * result.size

    def file_bytes(key, sidecar):
        def hook(counts, result, *args):
            path = str(args[-1])
            size = os.path.getsize(path)
            if sidecar:
                size += os.path.getsize(path + ".hdr")
            counts[key] += size

        return hook

    rec.install_method(noise.RngStream, "generator", "noise.RngStream.generator")
    rec.install_method(
        exponents.JumpLaw, "sample", "exponents.JumpLaw.sample", add_len("exponents.jumps_drawn")
    )
    functions = (
        ("levyspline.noise", "sample_impulse_field", drawn),
        ("levyspline.noise", "write_impulse_csv", None),
        ("levyspline.operators", "apply_T", None),
        ("levyspline.operators", "spectral_divide", fft_bytes),
        ("levyspline.synthesis", "synthesize_spline", synthesized),
        ("levyspline.synthesis", "write_realization_csv",
         file_bytes("synthesis.bytes_written", False)),
        ("levyspline.synthesis", "write_realization_binary",
         file_bytes("synthesis.bytes_written", True)),
        ("levyspline.synthesis", "read_realization_csv", file_bytes("synthesis.bytes_read", False)),
        ("levyspline.synthesis", "read_realization_binary",
         file_bytes("synthesis.bytes_read", True)),
        ("levyspline.verify", "build_cf_bank", None),
        ("levyspline.verify", "build_identity_bank", None),
        ("levyspline.verify", "analytic_cf", None),
        ("levyspline.verify", "empirical_cf", None),
        ("levyspline.verify", "convergence_study", None),
        ("levyspline.cli", "main", None),
    )
    for module, attr, hook in functions:
        rec.install_function(module, attr, f"{module.split('.')[1]}.{attr}", hook)


def layer_metrics(rec):
    totals = rec.totals()
    counts = rec.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(*names):
        return sum(totals.get(n, (0, 0.0, 0.0))[1] for n in names)

    def own(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    drawn = counts["noise.impulses_drawn"]
    return {
        "noise.generator_s": (incl("noise.RngStream.generator"), "s"),
        "noise.generator_calls": (calls("noise.RngStream.generator"), "count"),
        "exponents.jump_sample_s": (incl("exponents.JumpLaw.sample"), "s"),
        "exponents.jump_sample_calls": (calls("exponents.JumpLaw.sample"), "count"),
        "exponents.jumps_drawn": (counts["exponents.jumps_drawn"], "count"),
        "verify.study_self_s": (own("verify.convergence_study"), "s"),
        "noise.sample_field_s": (incl("noise.sample_impulse_field"), "s"),
        "noise.impulses_drawn": (drawn, "count"),
        "noise.window_share": (counts["noise.impulses_in_window"] / drawn if drawn else 0.0,
                               "ratio"),
        "synthesis.synthesize_s": (own("synthesis.synthesize_spline"), "s"),
        "synthesis.synthesize_calls": (calls("synthesis.synthesize_spline"), "count"),
        "synthesis.grid_points": (counts["synthesis.grid_points"], "count"),
        "operators.spectral_divide_s": (incl("operators.spectral_divide"), "s"),
        "operators.spectral_divide_calls": (calls("operators.spectral_divide"), "count"),
        "operators.fft_bytes_computed": (counts["operators.fft_bytes_computed"], "B"),
        "verify.empirical_cf_s": (incl("verify.empirical_cf"), "s"),
        "operators.apply_T_s": (incl("operators.apply_T"), "s"),
        "verify.analytic_cf_s": (incl("verify.analytic_cf"), "s"),
        "verify.build_bank_s": (incl("verify.build_cf_bank", "verify.build_identity_bank"), "s"),
        "noise.write_csv_s": (incl("noise.write_impulse_csv"), "s"),
        "synthesis.write_s": (
            incl("synthesis.write_realization_csv", "synthesis.write_realization_binary"), "s"),
        "synthesis.read_s": (
            incl("synthesis.read_realization_csv", "synthesis.read_realization_binary"), "s"),
        "synthesis.bytes_written": (counts["synthesis.bytes_written"], "B"),
        "synthesis.bytes_read": (counts["synthesis.bytes_read"], "B"),
        "cli.main_s": (incl("cli.main"), "s"),
        "cli.main_calls": (calls("cli.main"), "count"),
        "cli.self_s": (own("cli.main"), "s"),
    }


def traced_run(name, seed, seconds):
    """Untraced and traced copies of the workload, pass by pass.

    The two copies alternate which goes first, so that both see the same
    mix of host states; the tracing overhead is the difference of their
    set-up plus timed seconds.
    """
    from spans import SpanRecorder
    from workloads import WORKLOADS, Tally

    cls = WORKLOADS[name]
    passes = max(cls.min_passes, round(seconds / (2 * cls.nominal_pass_s)))
    rec = SpanRecorder()
    plain, traced = Tally(), Tally()

    def with_tracing(fn):
        install_tracing(rec)
        try:
            return fn()
        finally:
            rec.uninstall()

    def paused(thunk):
        rec.paused = True
        try:
            thunk()
        finally:
            rec.paused = False

    t0 = time.perf_counter()
    plain_wl = make_workload(name, seed, "plain")
    plain_setup = time.perf_counter() - t0
    try:
        t0 = time.perf_counter()
        traced_wl = with_tracing(lambda: make_workload(name, seed, "traced"))
        traced_setup = time.perf_counter() - t0
        try:
            for i in range(passes):
                steps = [
                    lambda: plain_wl.run_pass(i, plain, lambda thunk: None),
                    lambda: with_tracing(lambda: traced_wl.run_pass(i, traced, paused)),
                ]
                for step in steps if i % 2 == 0 else steps[::-1]:
                    step()
        finally:
            traced_wl.close()
    finally:
        plain_wl.close()
    untraced_s = plain_setup + plain.busy_s
    traced_s = traced_setup + traced.busy_s
    RESULTS.mkdir(exist_ok=True)
    rec.save(RESULTS / f"{name}-seed{seed}-spans.npz")
    layers = layer_metrics(rec)
    layers["trace.untraced_s"] = (untraced_s, "s")
    layers["trace.traced_s"] = (traced_s, "s")
    layers["trace.overhead_s"] = (traced_s - untraced_s, "s")
    layers["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    extra = {"passes": passes, "spans": len(rec.name_id), **plain_wl.inputs()}
    return traced, layers, extra


def report(name, seed, seconds, trace, tally, metrics, extra):
    """Print the human-readable lines, write the record, print the JSON line."""
    machine = machine_record()
    inputs = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "attempted": tally.attempted, **extra}
    print(f"workload={name} seed={seed} trace={trace}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print("inputs: " + " ".join(f"{k}={v}" for k, v in inputs.items()))
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"fail_ratio = {ratio:.6g} ({tally.failed} failed / {tally.attempted} attempted)")
    for reason in list(tally.failures.values())[:20]:
        print(f"failed: {reason}")
    for note in tally.notes:
        print(f"note: {note}")
    RESULTS.mkdir(exist_ok=True)
    record = {
        "machine": machine,
        "inputs": inputs,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "fail_ratio": {"failed": tally.failed, "attempted": tally.attempted, "value": ratio},
        "failures": list(tally.failures.values()),
        "notes": tally.notes,
    }
    path = RESULTS / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record: {path.relative_to(ROOT)}")


def run_one(args):
    import_package()
    sys.path.insert(0, str(BENCH_DIR))
    if args.setup_probe:
        wl = make_workload(args.workload, args.seed)
        print("ready", flush=True)
        wl.close()
        return 0
    if args.trace:
        tally, metrics, extra = traced_run(args.workload, args.seed, args.seconds)
        shown = metrics
    else:
        tally, e2e, shown, extra = untraced_run(args.workload, args.seed, args.seconds)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in e2e.items()}
        shown = {**shown, **metrics}
    report(args.workload, args.seed, args.seconds, args.trace, tally, shown, extra)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args):
    """Each workload in its own process; prints every workload's metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined), flush=True)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload; all of them, one process each, when omitted")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed seconds per untraced run; sets the traced run's passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload is None:
        if not (SRC / "levyspline" / "__init__.py").is_file():
            print(f"benchmark: no package source under {SRC}", file=sys.stderr)
            return 2
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
