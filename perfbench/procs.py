"""Child-process running: wall time, peak RSS and reaping of every descendant.

On a shared or virtualised host the speed of a CPU can drift by a fifth or
more within minutes.  Each command is therefore bracketed by a fixed pure-Python
calibration loop, and its wall time is also given at a reference speed:
``ref_s = wall_s * REFERENCE_S / calibration``, where ``calibration`` is the
mean loop time before and after the command.  On an unloaded machine whose
loop takes ``REFERENCE_S`` the two agree.
"""

from __future__ import annotations

import ctypes
import os
import signal
import subprocess
import threading
import time
from dataclasses import dataclass

PR_SET_CHILD_SUBREAPER = 36
ORPHAN_GRACE_S = 10.0
COMMAND_TIMEOUT_S = 150.0
CALIBRATION_LOOP = 400_000
REFERENCE_S = 0.03


@dataclass
class Finished:
    wall_s: float
    maxrss_kb: int
    returncode: int
    stdout: str
    stderr: str
    calibration_s: float

    @property
    def ref_s(self) -> float:
        """Wall time scaled to the reference CPU speed."""
        return self.wall_s * REFERENCE_S / self.calibration_s


def calibrate() -> float:
    """Duration of a fixed pure-Python loop: the current speed of this CPU."""
    start = time.perf_counter()
    total = 0
    for k in range(CALIBRATION_LOOP):
        total += k * k
    return time.perf_counter() - start


def become_subreaper() -> None:
    """Adopt orphaned descendants so they can be waited for (Linux only)."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _reap_orphans(pgid: int) -> None:
    """Wait for descendants left behind by a command (adopted by this process
    as subreaper).  Kills its process group after ``ORPHAN_GRACE_S``."""
    end = time.monotonic() + ORPHAN_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > end:
            _kill_group(pgid)
        else:
            time.sleep(0.002)


def run(argv, env, cwd, timeout_s: float = COMMAND_TIMEOUT_S) -> Finished:
    """Run one command in its own process group; wait for it and all it started.

    Standard streams go to files in ``cwd`` so a chatty child cannot block.
    """
    out_path = os.path.join(cwd, ".stdout")
    err_path = os.path.join(cwd, ".stderr")
    with open(out_path, "w+") as out, open(err_path, "w+") as err:
        before = calibrate()
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            env=env, cwd=cwd, start_new_session=True,
        )
        timer = threading.Timer(timeout_s, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _reap_orphans(proc.pid)
        calibration = 0.5 * (before + calibrate())
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    os.unlink(out_path)
    os.unlink(err_path)
    return Finished(wall, usage.ru_maxrss, proc.returncode, stdout, stderr, calibration)
