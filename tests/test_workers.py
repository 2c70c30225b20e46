"""The fork executor on toy jobs."""

import mmap
import os
import signal
import threading
import time

import numpy as np
import pytest

from levyspline import workers


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_every_worker_writes_its_share_in_place():
    shared = mmap.mmap(-1, 2 * 3 * 8)
    squares, pids = np.frombuffer(shared, np.int64).reshape(2, 3)

    def job(w):
        squares[w], pids[w] = w * w, os.getpid()

    assert workers.run(job, 3) == [(0, ""), (0, "")]
    # job 0 ran here and jobs 1 and 2 in two children, whose writes reached
    # this process
    assert list(squares) == [0, 1, 4]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    _no_child_left()


def test_a_raising_child_exits_1_with_its_text():
    def job(w):
        if w == 2:
            raise ValueError("worker two")

    assert workers.run(job, 3) == [(0, ""), (1, "ValueError: worker two")]
    _no_child_left()


def test_a_long_error_text_is_cut_to_its_slot():
    def job(w):
        if w:
            raise RuntimeError("x" * (2 * workers.ERROR_BYTES))

    text = ("RuntimeError: " + "x" * workers.ERROR_BYTES)[: workers.ERROR_BYTES]
    assert workers.run(job, 3) == [(1, text)] * 2
    _no_child_left()


def test_a_child_killed_by_a_signal_reports_the_signal():
    def job(w):
        if w:
            os.kill(os.getpid(), signal.SIGKILL)

    assert workers.run(job, 2) == [(-signal.SIGKILL, "")]
    _no_child_left()


def test_a_raising_parent_leaves_no_child():
    def job(w):
        if w == 0:
            raise RuntimeError("parent")
        time.sleep(30.0)

    with pytest.raises(RuntimeError, match="parent"):
        workers.run(job, 3)
    _no_child_left()


def test_one_worker_never_forks(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    seen = []
    assert workers.run(seen.append, 1) == []
    assert seen == [0]


def test_a_run_leaves_no_descriptor_open():
    fds = len(os.listdir("/dev/fd"))
    workers.run(lambda w: None, 3)
    workers.run(lambda w: 1 / (w - 1), 2)
    assert len(os.listdir("/dev/fd")) == fds
    _no_child_left()


def test_no_fork_while_other_threads_run():
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10.0,))
    thread.start()
    try:
        assert workers.usable_cpus(2) == 1
    finally:
        release.set()
        thread.join(10.0)
    assert not thread.is_alive()
