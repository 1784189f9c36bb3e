"""Run one modforms process and measure it: wall time to exit, the child's
own user+sys CPU time and its peak resident set size."""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path


@dataclass
class ProcResult:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def child_env(root: Path) -> dict:
    """Environment for modforms processes: the checkout's own sources first."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("MODFORMS_PREC", None)
    return env


def run_process(argv: list[str], env: dict, cwd: Path, timeout_s: float = 170.0) -> ProcResult:
    """Start argv, collect both output streams, reap it with wait4 so its own
    resource usage is read, and return the measurements."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd
    )
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    killer = threading.Timer(timeout_s, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcResult(
        returncode=proc.returncode,
        stdout=out.decode(),
        stderr=b"".join(err).decode(errors="replace"),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
    )


def cli_argv(job_argv: list[str]) -> list[str]:
    return [sys.executable, "-m", "modforms.cli", *job_argv]
