"""Child processes of the benchmark: pinned thread pools and per-child rusage.

Kept free of numpy and eqmarkov imports so that run.py can set the thread
environment before anything loads OpenBLAS.
"""

from __future__ import annotations

import os
import subprocess
import time
from pathlib import Path
from typing import NamedTuple

# One BLAS/OpenMP thread: with OpenBLAS's default of one thread per core, a
# pointwise LP solve on 2 cores spreads over 0.157-0.271 s and doubles when a
# neighbour keeps one core busy; pinned, it holds 0.128-0.135 s.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class ChildRun(NamedTuple):
    """One finished child process: exit code, output and its own rusage."""

    code: int
    stdout: str
    stderr: str
    wall: float
    cpu: float
    maxrss_kb: int


def child_env() -> dict:
    """The environment of every child: pinned thread pools, eqmarkov from src."""
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args) -> ChildRun:
    """Run a child to its end and collect its own CPU time and peak RSS."""
    start = time.perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    try:
        stdout = proc.stdout.read()
        stderr = proc.stderr.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(proc.returncode, stdout.decode(), stderr.decode(), wall,
                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
