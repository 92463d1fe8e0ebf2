"""Child processes that cannot outlive the benchmark.

Every child runs in a session of its own, so one ``killpg`` reaches it and
everything it started (spawn-pool workers, the multiprocessing resource
tracker).  The benchmark process makes itself a child subreaper, so
descendants orphaned by a child's exit are re-parented to it and can be
waited for.  A child that overruns its time limit, or is running when the
benchmark is interrupted, has its whole group killed and reaped before the
benchmark goes on or exits.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass

_PR_SET_PDEATHSIG = 1
_PR_SET_CHILD_SUBREAPER = 36


def _prctl(option: int, value: int) -> bool:
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(option, value, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def become_subreaper() -> bool:
    """Adopt orphaned descendants (Linux); False where unsupported."""
    return _prctl(_PR_SET_CHILD_SUBREAPER, 1)


def _die_with_parent(parent: int):
    def hook():
        # A child whose parent is killed outright gets SIGKILL as well.
        _prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:
            os._exit(1)

    return hook


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def reap_group(pgid: int, deadline_s: float = 10.0) -> None:
    """Kill process group ``pgid`` and wait for each of its members that is
    (or, orphaned, has become) a child of this process."""
    kill_group(pgid)
    end = time.monotonic() + deadline_s
    while True:
        try:
            pid, _ = os.waitpid(-pgid, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > end:
                raise RuntimeError(f"process group {pgid} did not exit after SIGKILL")
            time.sleep(0.01)


@dataclass(frozen=True)
class Finished:
    """Exit status, wall time and peak resident set of one child run."""

    returncode: int
    wall_s: float
    maxrss_kib: int
    timed_out: bool


def run(argv, *, cwd, env, log_path, timeout_s: float) -> Finished:
    """Run ``argv`` to completion and return its exit code, wall and rusage.

    Wall time runs from just before the fork to the moment ``wait4``
    returns.  ``ru_maxrss`` from ``wait4`` is the larger of the child's own
    peak and the peaks of the children it waited for, so it covers pool
    workers.  The child's process group is killed and every orphan reaped
    on every exit path, including ``KeyboardInterrupt``.
    """
    timed_out = threading.Event()
    proc = None

    def on_timeout():
        timed_out.set()
        kill_group(proc.pid)

    timer = threading.Timer(timeout_s, on_timeout)
    try:
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv,
                cwd=cwd,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
                preexec_fn=_die_with_parent(os.getpid()),
            )
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)
        wall_s = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        if proc is not None:
            kill_group(proc.pid)
            try:
                os.wait4(proc.pid, 0)
            except ChildProcessError:
                pass
            proc.returncode = -signal.SIGKILL
        raise
    finally:
        timer.cancel()
        if proc is not None:
            reap_group(proc.pid)
    return Finished(proc.returncode, wall_s, usage.ru_maxrss, timed_out.is_set())
