"""Tests of the benchmark itself.

The count test runs every workload traced twice at one seed and once at
another, so it takes several minutes:

    python3 -m pytest benchmarks/test_trace_counts.py
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from spans import SpanRecorder

BENCH_DIR = Path(__file__).resolve().parent
RUN = BENCH_DIR / "run.py"
ROOT = BENCH_DIR.parent

COUNTS = (
    "noise.generator_calls",
    "noise.impulses_drawn",
    "noise.window_share",
    "exponents.jumps_drawn",
    "synthesis.grid_points",
    "operators.fft_bytes_computed",
    "synthesis.bytes_written",
    "synthesis.bytes_read",
)
# Fixed by the workload's shape (members, grids, calls), not by the draws.
SHAPE_COUNTS = ("noise.generator_calls", "synthesis.grid_points", "operators.fft_bytes_computed")


def traced(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return {name: entry["value"] for name, entry in result["metrics"].items()}


@pytest.mark.parametrize("workload", ["study_1d", "synth_pair", "cli_roundtrip"])
def test_counts_repeat_exactly_and_follow_the_seed(workload):
    first, again, other = traced(workload, 3), traced(workload, 3), traced(workload, 4)
    for name in COUNTS:
        assert first[name] == again[name], name
    for name in SHAPE_COUNTS:
        assert other[name] == first[name], name
    drawn = [n for n in COUNTS if n not in SHAPE_COUNTS and first[n]]
    assert drawn
    for name in drawn:
        assert other[name] != first[name], name


def test_self_time_excludes_children_and_hooks():
    rec = SpanRecorder()

    def inner():
        time.sleep(0.002)
        return [1, 2, 3]

    def slow_hook(counts, result):
        counts["items"] += len(result)
        time.sleep(0.002)

    inner = rec.wrap("inner", inner, slow_hook)

    def outer():
        time.sleep(0.002)
        inner()
        inner()

    outer = rec.wrap("outer", outer)
    outer()
    totals = rec.totals()
    assert totals["inner"][0] == 2 and totals["outer"][0] == 1
    assert rec.counts["items"] == 6
    _, start, end, parent, hook = rec.arrays()
    children = parent == 0
    expected = (end[0] - start[0]) - np.sum((end - start + hook)[children])
    assert totals["outer"][2] == pytest.approx(expected, abs=1e-12)
    assert 0.0 < totals["outer"][2] < totals["outer"][1] - totals["inner"][1]

