"""Forked workers that write their results in place.

run(job, count) runs job(0) here and job(w), for 0 < w < count, in a child
forked for it.  A child inherits what the caller built, including any
mmap.mmap(-1, size) mapping, which is anonymous and shared: a job writes its
results there, and nothing is sent back.
"""

from __future__ import annotations

import mmap
import os
import threading

# traceback and signal are imported where a failure needs them, sparing every
# subcommand that imports this module about 0.2 MB and 2 ms.

# Bytes of a child's error text that reach the parent; the rest is cut.
ERROR_BYTES = 1024


def usable_cpus(cap):
    """Processes a job may use: the CPUs this process may run on, at most
    `cap`; 1 where it cannot fork safely: no fork or affinity on the
    platform, or other threads running, whose locks a forked child could
    inherit held."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    if threading.active_count() > 1:
        return 1
    return min(cap, len(os.sched_getaffinity(0)))


def _child(job, w, slots):
    """Run job(w) in a forked child and leave by os._exit, never returning
    into the caller's frames."""
    code = 1
    try:
        job(w)
        code = 0
    except BaseException as exc:
        import traceback

        text = "".join(traceback.format_exception_only(exc)).encode(errors="replace")
        at = (w - 1) * ERROR_BYTES
        slots[at : at + min(len(text), ERROR_BYTES)] = text[:ERROR_BYTES]
    finally:
        os._exit(code)


def run(job, count):
    """Run job(w) for w in 0..count-1: fork count - 1 children, child w
    running job(w), then run job(0) here and reap the children in order.
    A child leaves by os._exit: 0 when its job returned, 1 when it raised,
    after writing the exception's text into its own ERROR_BYTES slot of a
    mapping shared with this process.  Returns each child's (exit code,
    text), the code as os.waitstatus_to_exitcode gives it (minus the
    signal's number for a child a signal killed), the text '' when the job
    raised nothing.  When job(0) raises, every child not yet reaped is
    killed and reaped before the exception propagates."""
    slots = mmap.mmap(-1, ERROR_BYTES * max(1, count - 1))
    pids, out = [], []
    try:
        for w in range(1, count):
            pid = os.fork()
            if pid == 0:
                _child(job, w, slots)
            pids.append(pid)
        job(0)
        for w, pid in enumerate(pids, start=1):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            text = slots[(w - 1) * ERROR_BYTES : w * ERROR_BYTES].rstrip(b"\0")
            out.append((code, text.decode(errors="replace").strip()))
    finally:
        for pid in pids[len(out) :]:
            import signal

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        slots.close()
    return out
